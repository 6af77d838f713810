"""Degenerate regimes: energy blow-up and zero-cost interfaces.

Two effects appear when the weight law leaves the moment assumptions.
If the weight has infinite mean, the effective density blows up for
slopes with a component transverse to the lamination; the cell energy
is bounded below by a running spatial average of the weight (a Jensen
bound that the solver can never beat).  If the inverse weight is
unbounded, arbitrarily cheap stripes exist along the lamination and a
unit interface can be approximated at cost below any delta.

Both checks return a ``homogenize.PropertyReport`` whose claims are
points (lo = hi), counted by ``decide`` like every other claim:
``divergence_experiment`` one Jensen claim per solve, and
``interface_limit_check`` the hit, energy and monotonicity claims of its
probes and the z-score and miss claims of its hitting statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cell import SolveTask, solve_many
from .fields import FieldSpec, Laminate, sample_field
from .homogenize import PropertyReport, _point_report, increasing
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


def divergence_experiment(spec: FieldSpec, xi=None, *, t_list, n_real: int, seed: int = 0,
                          tol: float = 1e-5, cells_per_unit: int = 2,
                          workers: int = 1) -> PropertyReport:
    """Cell energies on (0,t)^d for a laminate weight a(x_axis) I.

    For slopes with no component along the lamination axis the discrete
    minimum equals |xi| times the spatial average of the weight over the
    cube (slicewise Jensen; the zero competitor is optimal), so every
    certified primal value must sit above that per-realization bound: one
    claim per solve, value - (1 - _JENSEN_RTOL) bound >= 0, the bound being
    positive.  With E[a] = +infinity the running averages diverge and the
    per-t means increase without bound; ``details`` holds the means, their
    CIs, the mean bounds, ``growth_ratio`` and ``strictly_increasing``.
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
    means = vals.mean(axis=1)
    claims = (vals - (bounds - _JENSEN_RTOL * bounds)).ravel()
    return _point_report("divergence", vals.size, claims, n_flagged=int((~ok).sum()),
                         details={
                             "xi": xi, "t_list": t_list, "means": means,
                             "ci_halves": np.array([mean_ci(row)[1] for row in vals]),
                             "jensen_bounds": bounds.mean(axis=1),
                             "jensen_margin": float((vals - bounds).min()),
                             "strictly_increasing": bool(np.all(np.diff(means) > 0.0)),
                             "growth_ratio": float(means[-1] / means[0]) if means[0] > 0
                             else math.inf,
                             "heavy_tail": "C0_infinite" in growth_constants(spec).flags})


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


def interface_limit_check(probes, stats) -> PropertyReport:
    """Check a probe family with delta -> 0 for the zero-cost limit, and
    hitting statistics against the geometric law, on point claims.

    Per probe, it hits (k_index >= 0) with energy at most its delta
    (delta - energy >= 0).  On the probes' one realization, cheaper stripes
    are rarer, so per step to a smaller delta the hit index does not fall
    (k_fine - k_coarse >= 0).  Per hitting statistic, |z| is at most 4
    standard errors (4 - |z| >= 0) and every scan hits (-n_failed >= 0).
    """
    probes, stats = list(probes), list(stats)
    if not probes:
        raise ValueError("need at least one probe")
    ks = [probes[i].k_index for i in np.argsort([-p.delta for p in probes])]
    claims = ([p.k_index for p in probes] + [p.delta - p.energy for p in probes]
              + [fine - coarse for coarse, fine in zip(ks, ks[1:])]
              + [4.0 - abs(hs.z_score) for hs in stats] + [-hs.n_failed for hs in stats])
    return _point_report("interface_limit", len(probes) + len(stats), claims, n_flagged=0,
                         details={"probes": probes, "hitting": stats})
