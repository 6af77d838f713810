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
from .homogenize import increasing
from .integrand import growth_constants
from .stats import mean_ci

_SCAN_CHUNK = 1024
_JENSEN_RTOL = 1e-9


def _laminate_axis(spec: FieldSpec, experiment: str) -> int:
    if not (isinstance(spec.structure, Laminate) and spec.is_isotropic_law
            and spec.lower_order is None):
        raise ValueError(f"the {experiment} experiment requires a laminate with a single "
                         "scalar weight law (isotropic diagonal) and no lower-order term")
    return spec.structure.axis


def divergence_setting(spec: FieldSpec, xi=None) -> np.ndarray:
    """The (m, d) slope of a divergence experiment (by default e_2 across an
    axis-1 lamination, else e_1), once the slicewise Jensen bound is exact for it."""
    axis = _laminate_axis(spec, "divergence")
    if spec.dimension < 2:
        raise ValueError("the divergence experiment requires dimension >= 2")
    if xi is None:
        xi = np.eye(spec.dimension)[[1 if axis == 1 else 0]]
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if np.any(xi[:, axis - 1] != 0.0):
        raise ValueError("slope must vanish along the lamination axis for the "
                         "slicewise bound to be exact")
    if (xi * xi).sum() == 0.0:
        raise ValueError("slope must be nonzero")
    return xi


def interface_setting(spec: FieldSpec, delta: float, hitting: bool = False):
    """The lamination axis and the probability p that the weight falls below
    ``delta``, once delta is positive and, for hitting statistics, 0 < p < 1."""
    axis = _laminate_axis(spec, "interface")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta:g}")
    p = spec.diagonal_laws()[axis - 1].mass_below(delta)
    if hitting and not 0.0 < p < 1.0:
        raise ValueError(f"law has hit probability {p:g} below delta={delta:g}; "
                         "need it strictly between 0 and 1")
    return axis, p


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

    @property
    def passed(self) -> bool:
        """Every solve certified and above its per-realization bound."""
        return self.jensen_ok and self.n_flagged == 0


def divergence_experiment(spec: FieldSpec, xi=None, *, t_list, n_real: int, seed: int = 0,
                          tol: float = 1e-5, cells_per_unit: int = 2,
                          workers: int = 1) -> DivergenceReport:
    """Cell energies on (0,t)^d for a laminate weight a(x_axis) I.

    For slopes with no component along the lamination axis the discrete
    minimum equals |xi| times the spatial average of the weight over the
    cube (slicewise Jensen; the zero competitor is optimal), so every
    certified primal value must sit above that per-realization bound.
    With E[a] = +infinity the running averages diverge and the per-t
    means increase without bound.
    """
    xi = divergence_setting(spec, xi)
    xin = float(np.sqrt((xi * xi).sum()))
    t_list = increasing(t_list, "t_list")

    tasks = [SolveTask(spec, seed, r, t, xi, center=(0.5 * t,) * spec.dimension,
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
    rises = bool(np.all(np.diff(means) > 0.0))
    ratio = float(means[-1] / means[0]) if means[0] > 0 else math.inf
    heavy = "C0_infinite" in growth_constants(spec).flags
    return DivergenceReport(xi=xi, t_list=t_list, means=means, ci_halves=cis,
                            jensen_bounds=bounds.mean(axis=1),
                            jensen_margin=float(margin), jensen_ok=jensen_ok,
                            strictly_increasing=rises, growth_ratio=ratio,
                            heavy_tail=heavy, n_flagged=n_flagged)


@dataclass
class InterfaceProbe:
    """A scan for a cheap stripe and the ramp profile built across it.

    The scan found the first cell ``k_index`` with weight ``energy`` below
    delta, or none (k_index -1, NaN energy and geometry).  With epsilon =
    1/(k+2) the profile is u(x) = clip(x_axis/epsilon - k, 0, 1): zero left
    of the stripe [eps*k, eps*(k+1)], which sits strictly inside the unit
    cube, one right of it.  Its exact energy on the unit cube is the stripe
    weight itself.  The comparison step jumps at the stripe midpoint; the
    exact L1 distance to it is eps/4, while the step's interface area in the
    cube is ``bv_limit`` = 1.
    """

    delta: float
    k_index: int
    energy: float
    cells_scanned: int
    p_delta: float
    bv_limit = 1.0

    @property
    def success(self) -> bool:
        return self.k_index >= 0

    @property
    def epsilon(self) -> float:
        return 1.0 / (self.k_index + 2.0) if self.success else math.nan

    @property
    def l1_distance(self) -> float:
        return self.epsilon / 4.0


def _scan_for_cheap_cell(fld, axis, delta, search_limit):
    """First cell index k >= 0 with weight strictly below delta."""
    d = fld.spec.dimension
    scanned = 0
    k_hit = -1
    value = math.nan
    while scanned < search_limit:
        count = min(_SCAN_CHUNK, search_limit - scanned)
        cells = [0] * d
        cells[axis - 1] = np.arange(scanned, scanned + count)
        a = fld.at_cells(*cells)[0][axis - 1]
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
    first weight strictly below delta, at most ``search_limit`` of them.
    The ramp's exact energy is the stripe weight: gradient 1/eps on one
    stripe of width eps and unit cross-section, weighted by the hit value.
    """
    axis, p_delta = interface_setting(spec, delta)
    fld = sample_field(spec, seed, index)
    k_hit, a_hit, scanned = _scan_for_cheap_cell(fld, axis, delta, search_limit)
    return InterfaceProbe(delta=delta, k_index=k_hit, energy=a_hit, cells_scanned=scanned,
                          p_delta=p_delta)


@dataclass
class InterfaceLimitReport:
    """Zero-cost verdict over a family of probes with delta -> 0."""

    deltas: tuple
    all_success: bool
    energies_below_delta: bool
    k_monotone: bool
    passed: bool
    details: dict


def interface_limit_check(probes) -> InterfaceLimitReport:
    """Check a decreasing-delta probe family for the zero-cost limit.

    Every probe must hit, with energy below its delta exactly, and on a
    single realization the hit index must be nondecreasing as delta
    decreases (cheaper stripes are rarer).
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    deltas = tuple(p.delta for p in probes)
    ok_succ = all(p.success for p in probes)
    ok_energy = ok_succ and all(p.energy <= p.delta for p in probes)
    order = np.argsort(-np.array(deltas))
    ks = [probes[i].k_index for i in order]
    ok_mono = ok_succ and all(ks[i] <= ks[i + 1] for i in range(len(ks) - 1))
    passed = ok_succ and ok_energy and ok_mono
    return InterfaceLimitReport(deltas=deltas, all_success=ok_succ,
                                energies_below_delta=ok_energy,
                                k_monotone=ok_mono, passed=passed,
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

    def within(self) -> bool:
        return self.n_failed == 0 and abs(self.z_score) <= 4.0  # standard errors


def hitting_stats(spec: FieldSpec, delta: float, *, n_scans: int, seed: int = 0,
                  search_limit: int = 10_000) -> HittingStats:
    """Scan n_scans independent realizations and compare hit indices
    with the geometric law: mean (1-p)/p, variance (1-p)/p^2 per scan."""
    axis, p = interface_setting(spec, delta, hitting=True)
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
