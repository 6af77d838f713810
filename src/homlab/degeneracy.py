"""Degenerate regimes: energy blow-up and zero-cost interfaces.

Two effects appear when the weight law leaves the moment assumptions.
If the weight has infinite mean, the effective density blows up for
slopes with a component transverse to the lamination; the cell energy
is bounded below by a running spatial average of the weight (a Jensen
bound that the solver can never beat).  If the inverse weight is
unbounded, arbitrarily cheap stripes exist along the lamination and a
unit interface can be approximated at cost below any delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cell import SolveTask, solve_many
from .fields import FieldSpec, Laminate, sample_field
from .integrand import growth_constants
from .stats import mean_ci

_SCAN_CHUNK = 1024
_JENSEN_RTOL = 1e-9


def _require_isotropic_laminate(spec: FieldSpec, op: str) -> int:
    """Validate the laminate-with-scalar-weight setting; returns the axis."""
    if not isinstance(spec.structure, Laminate):
        raise ValueError(f"{op} requires a laminate field structure")
    if not spec.is_isotropic_law:
        raise ValueError(f"{op} requires a single scalar weight law (isotropic "
                         "diagonal)")
    return spec.structure.axis


@dataclass
class DivergenceReport:
    """Per-size means of the normalized cell energy under a heavy-tail weight."""

    xi: np.ndarray
    t_list: tuple
    means: np.ndarray
    ci_halves: np.ndarray
    jensen_bounds: np.ndarray
    jensen_margin: float
    jensen_ok: bool
    strictly_increasing: bool
    growth_ratio: float
    heavy_tail: bool
    n_flagged: int


def divergence_experiment(spec: FieldSpec, xi=None, t_list=(8, 32, 128),
                          n_real: int = 20, seed: int = 0, tol: float = 1e-5,
                          cells_per_unit: int = 2, workers: int = 1) -> DivergenceReport:
    """Cell energies on (0,t)^d for a laminate weight a(x_axis) I.

    For slopes with no component along the lamination axis the discrete
    minimum equals |xi| times the spatial average of the weight over the
    cube (slicewise Jensen; the zero competitor is optimal), so every
    certified primal value must sit above that per-realization bound.
    With E[a] = +infinity the running averages diverge and the per-t
    means increase without bound.
    """
    axis = _require_isotropic_laminate(spec, "divergence_experiment")
    d = spec.dimension
    if d < 2:
        raise ValueError("divergence_experiment requires dimension >= 2")
    if spec.lower_order is not None:
        raise ValueError("divergence_experiment requires no lower-order term")
    if xi is None:
        xi = np.zeros((1, d))
        xi[0, 1 if axis == 1 else 0] = 1.0
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if np.any(xi[:, axis - 1] != 0.0):
        raise ValueError("slope must vanish along the lamination axis for the "
                         "slicewise bound to be exact")
    xin = float(np.sqrt((xi * xi).sum()))
    if xin == 0.0:
        raise ValueError("slope must be nonzero")
    t_list = tuple(float(t) for t in t_list)

    tasks = [SolveTask(spec, seed, r, t, xi, center=(0.5 * t,) * d,
                       cells_per_unit=cells_per_unit, tol=tol)
             for t in t_list for r in range(n_real)]
    rows = [(rep.normalized, xin * float(rep.problem.lam[0].mean()), rep.converged)
            for rep in solve_many(tasks, workers)]
    vals, bounds, ok = (np.array(col).reshape(len(t_list), n_real) for col in zip(*rows))
    n_flagged = int((~ok).sum())
    margin = (vals - bounds).min()
    means = vals.mean(axis=1)
    cis = np.array([mean_ci(vals[ti])[1] for ti in range(len(t_list))])
    slack = _JENSEN_RTOL * bounds  # the bounds are positive: weights and |xi| are
    jensen_ok = bool(np.all(vals >= bounds - slack))
    increasing = bool(np.all(np.diff(means) > 0.0))
    ratio = float(means[-1] / means[0]) if means[0] > 0 else math.inf
    heavy = "C0_infinite" in growth_constants(spec).flags
    return DivergenceReport(xi=xi, t_list=t_list, means=means, ci_halves=cis,
                            jensen_bounds=bounds.mean(axis=1),
                            jensen_margin=float(margin), jensen_ok=jensen_ok,
                            strictly_increasing=increasing, growth_ratio=ratio,
                            heavy_tail=heavy, n_flagged=n_flagged)


@dataclass
class InterfaceProbe:
    """A located cheap stripe and the ramp profile built across it.

    The profile is u(x) = clip(x_axis/epsilon - k, 0, 1): zero left of
    the stripe [eps*k, eps*(k+1)], one right of it.  Its exact energy on
    the unit cube is the stripe weight itself.  The comparison step
    jumps at the stripe midpoint; the exact L1 distance to it is eps/4,
    while the step's interface area in the cube is 1.
    """

    delta: float
    success: bool
    k_index: int
    epsilon: float
    interface_pos: float
    energy: float
    l1_distance: float
    bv_limit: float
    cells_scanned: int
    p_delta: float
    breaks_x: np.ndarray
    breaks_y: np.ndarray

    def profile(self, x1):
        """Evaluate the ramp profile at axis coordinates x1."""
        return np.interp(np.asarray(x1, dtype=float), self.breaks_x, self.breaks_y)


def _scan_for_cheap_cell(fld, axis, delta, search_limit):
    """First cell index k >= 0 with weight strictly below delta."""
    d = fld.spec.dimension
    scanned = 0
    k_hit = -1
    value = math.nan
    while scanned < search_limit:
        count = min(_SCAN_CHUNK, search_limit - scanned)
        pts = np.zeros((count, d))
        pts[:, axis - 1] = np.arange(scanned, scanned + count) + 0.5
        a = fld.lambda_diag(pts)[:, axis - 1]
        below = a < delta
        if below.any():
            j = int(np.argmax(below))
            k_hit = scanned + j
            value = float(a[j])
            scanned += j + 1
            break
        scanned += count
    return k_hit, value, scanned


def cheap_interface(spec: FieldSpec, delta: float, seed: int = 0, index: int = 0,
                    search_limit: int = 10_000) -> InterfaceProbe:
    """Locate a stripe with weight below delta and ramp across it.

    Scans laminate cells k = 0, 1, 2, ... of one realization for the
    first weight strictly below delta.  On success epsilon = 1/(k+2), so
    the stripe [eps*k, eps*(k+1)] sits strictly inside the unit cube,
    and the exact ramp energy equals the stripe weight.  On failure the
    probe carries the number of cells scanned and NaN geometry.
    """
    axis = _require_isotropic_laminate(spec, "cheap_interface")
    if spec.lower_order is not None:
        raise ValueError("cheap_interface requires no lower-order term")
    if delta <= 0:
        raise ValueError("delta must be positive")

    fld = sample_field(spec, seed, index)
    k_hit, a_hit, scanned = _scan_for_cheap_cell(fld, axis, delta, search_limit)
    p_delta = spec.diagonal_laws()[axis - 1].mass_below(delta)
    if k_hit < 0:
        return InterfaceProbe(delta=delta, success=False, k_index=-1, epsilon=math.nan,
                              interface_pos=math.nan, energy=math.nan,
                              l1_distance=math.nan, bv_limit=1.0,
                              cells_scanned=scanned,
                              p_delta=p_delta, breaks_x=np.array([]),
                              breaks_y=np.array([]))

    eps = 1.0 / (k_hit + 2.0)
    lo = eps * k_hit
    hi = eps * (k_hit + 1)
    # exact integration: gradient eps^{-1} on one stripe of width eps,
    # unit cross-section, piecewise-constant weight a_hit there
    energy = a_hit
    mid = 0.5 * (lo + hi)
    l1 = eps / 4.0
    breaks_x = np.array([0.0, lo, hi, 1.0])
    breaks_y = np.array([0.0, 0.0, 1.0, 1.0])
    return InterfaceProbe(delta=delta, success=True, k_index=k_hit, epsilon=eps,
                          interface_pos=mid, energy=energy, l1_distance=l1,
                          bv_limit=1.0, cells_scanned=scanned,
                          p_delta=p_delta, breaks_x=breaks_x, breaks_y=breaks_y)


@dataclass
class InterfaceLimitReport:
    """Zero-cost verdict over a family of probes with delta -> 0."""

    deltas: tuple
    all_success: bool
    energies_below_delta: bool
    l1_within_epsilon: bool
    k_monotone: bool
    bv_all_one: bool
    passed: bool
    details: dict


def interface_limit_check(probes) -> InterfaceLimitReport:
    """Check a decreasing-delta probe family for the zero-cost limit.

    Energies must sit below their deltas exactly, L1 distances within
    the probe epsilons, the limit interface area must stay 1, and on a
    single realization the hit index must be nondecreasing as delta
    decreases (cheaper stripes are rarer).
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    deltas = tuple(p.delta for p in probes)
    ok_succ = all(p.success for p in probes)
    ok_energy = ok_succ and all(p.energy <= p.delta for p in probes)
    ok_l1 = ok_succ and all(p.l1_distance <= p.epsilon for p in probes)
    ok_bv = all(p.bv_limit == 1.0 for p in probes)
    order = np.argsort(-np.array(deltas))
    ks = [probes[i].k_index for i in order]
    ok_mono = ok_succ and all(ks[i] <= ks[i + 1] for i in range(len(ks) - 1))
    passed = ok_succ and ok_energy and ok_l1 and ok_bv and ok_mono
    return InterfaceLimitReport(deltas=deltas, all_success=ok_succ,
                                energies_below_delta=ok_energy,
                                l1_within_epsilon=ok_l1, k_monotone=ok_mono,
                                bv_all_one=ok_bv, passed=passed,
                                details={"k_indices": [p.k_index for p in probes],
                                         "energies": [p.energy for p in probes]})


@dataclass
class HittingStats:
    """Empirical hit-index statistics against the geometric law."""

    delta: float
    n_scans: int
    n_failed: int
    p_delta: float
    mean_expected: float
    mean_observed: float
    se: float
    z_score: float

    def within(self, n_se: float = 4.0) -> bool:
        return self.n_failed == 0 and abs(self.z_score) <= n_se


def hitting_stats(spec: FieldSpec, delta: float, n_scans: int = 1000,
                  seed: int = 0, search_limit: int = 10_000) -> HittingStats:
    """Scan n_scans independent realizations and compare hit indices
    with the geometric law: mean (1-p)/p, variance (1-p)/p^2 per scan."""
    axis = _require_isotropic_laminate(spec, "hitting_stats")
    p = spec.diagonal_laws()[axis - 1].mass_below(delta)
    if not (0.0 < p < 1.0):
        raise ValueError(f"law has hit probability {p:g} below delta={delta:g}; "
                         "need it strictly between 0 and 1")
    ks = []
    n_failed = 0
    for i in range(n_scans):
        fld = sample_field(spec, seed, i)
        k_hit, _, _ = _scan_for_cheap_cell(fld, axis, delta, search_limit)
        if k_hit < 0:
            n_failed += 1
        else:
            ks.append(k_hit)
    mean_obs = float(np.mean(ks)) if ks else math.nan
    mean_exp = (1.0 - p) / p
    se = math.sqrt((1.0 - p) / p ** 2 / max(len(ks), 1))
    z = (mean_obs - mean_exp) / se if ks else math.inf
    return HittingStats(delta=delta, n_scans=n_scans, n_failed=n_failed,
                        p_delta=p, mean_expected=mean_exp,
                        mean_observed=mean_obs, se=se, z_score=float(z))
