"""Estimation of the effective energy density and its structural checks.

The effective density at slope xi is the large-volume limit of the
expected normalized cell energy; it is estimated by Monte Carlo over
independent realizations on a ladder of cube sizes.  Realization
indices are shared across cube sizes, so per-realization diagnostics
(subadditivity trends, homogeneity, recession increments) compare
matched samples.  All reported intervals are 99% normal CIs.  Every
property report counts its uncertified solves (``n_flagged``) and carries
a verdict (``passed``); the checks fail on any uncertified solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell import SolveTask, cell_problem_on_cube, cube_grid, solve_many
from .fields import FieldSpec, sample_field, shift
from .integrand import growth_constants
from .randomness import keyed_uniform, normal_quantile
from .stats import TwoSampleResult, mean_ci, two_sample_test

FLAGGED_FRACTION_LIMIT = 0.10


@dataclass
class TLevel:
    """Monte Carlo summary of normalized cell energies at one cube size.

    ``all_values`` keeps one entry per realization (certified or not);
    ``values`` holds the certified subset used for the statistics.
    """

    t: float
    values: np.ndarray
    n_flagged: int
    mean: float
    ci_half: float
    all_values: np.ndarray = None
    gaps: np.ndarray = None
    iterations: np.ndarray = None
    certified: np.ndarray = None

    @property
    def too_many_flagged(self) -> bool:
        """More than FLAGGED_FRACTION_LIMIT of the solves failed to certify."""
        return self.n_flagged > FLAGGED_FRACTION_LIMIT * self.all_values.size


@dataclass
class HomEstimate:
    """Estimate of the effective density at one slope."""

    xi: np.ndarray
    t_list: tuple
    levels: list
    value: float
    ci_half: float
    trend_consistent: bool
    flagged: bool
    flags: tuple
    tol: float

    @property
    def too_many_flagged(self) -> bool:
        """Some level has too many uncertified solves to stand."""
        return any(lv.too_many_flagged for lv in self.levels)


@dataclass
class PropertyReport:
    """Outcome of a verified-inequality battery.

    ``worst_slack`` is the smallest margin observed (negative means the
    raw inequality was violated by that much); the battery passes when
    worst_slack >= -budget.  ``n_flagged`` counts uncertified solves.
    """

    name: str
    n_instances: int
    worst_slack: float
    budget: float
    passed: bool
    n_flagged: int
    details: dict = field(default_factory=dict)


def _as_xi(xi) -> np.ndarray:
    return np.atleast_2d(np.asarray(xi, dtype=float))


def increasing(values, name: str) -> tuple:
    """``values`` as floats, once each is above the one before: the checks
    along a ladder or a ray compare consecutive entries.  Else ValueError."""
    values = tuple(float(v) for v in values)
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {list(values)}")
    return values


def _solve_cases(spec, cases, n_real, seed, tol, cells_per_unit, workers):
    """Normalized values, gaps, iterations and certified flags, each a
    (len(cases), n_real) array, of realizations 0..n_real-1 solved at each
    case ``(t, xi)``; a periodic field is deterministic and gets one.
    Reports are reduced as they arrive, holding one minimizer at a time."""
    n_real = spec.realizations(n_real)
    tasks = [SolveTask(spec, seed, r, t, xi, cells_per_unit=cells_per_unit, tol=tol)
             for t, xi in cases for r in range(n_real)]
    rows = [(rep.normalized, rep.gap, rep.iterations, rep.converged)
            for rep in solve_many(tasks, workers)]
    return tuple(np.array(col).reshape(len(cases), n_real) for col in zip(*rows))


def estimate_f_hom(spec: FieldSpec, xi, *, t_list, n_real: int, seed: int = 0,
                   tol: float = 1e-5, cells_per_unit: int = 2,
                   workers: int = 1) -> HomEstimate:
    """Monte Carlo estimate of the effective density at slope xi.

    Realizations are indexed 0..n_real-1 under ``seed`` and reused for
    every t; flagged (non-certified) solves are excluded and counted,
    and the estimate itself is flagged when more than 10% of solves at
    any level failed to certify.  The reported value is the mean at the
    largest t; ``trend_consistent`` records whether the last two levels
    agree within their combined CIs.
    """
    xi = _as_xi(xi)
    t_list = increasing(t_list, "t_list")

    solves = _solve_cases(spec, [(t, xi) for t in t_list], n_real, seed, tol,
                          cells_per_unit, workers)
    levels = []
    flags = []
    for t, all_vals, gaps, iters, ok in zip(t_list, *solves):
        vals = all_vals[ok]
        n_flagged = int((~ok).sum())
        mean, half = mean_ci(vals)
        levels.append(TLevel(t=t, values=vals, n_flagged=n_flagged,
                             mean=mean, ci_half=half, all_values=all_vals,
                             gaps=gaps, iterations=iters, certified=ok))
        if levels[-1].too_many_flagged:
            flags.append(f"flagged_solves_at_t={t:g}")

    last = levels[-1]
    if len(levels) >= 2:
        prev = levels[-2]
        # each mean is only certified to a relative gap of tol, so allow
        # that width on top of the combined CIs (deterministic fields
        # have zero-width CIs but still carry the certificate width)
        certificate = tol * max(abs(last.mean), abs(prev.mean))
        trend = abs(last.mean - prev.mean) <= last.ci_half + prev.ci_half + certificate
    else:
        trend = True
    if not trend:
        flags.append("trend_inconsistent")
    return HomEstimate(xi=xi, t_list=t_list, levels=levels, value=last.mean,
                       ci_half=last.ci_half, trend_consistent=trend,
                       flagged=bool(flags), flags=tuple(flags), tol=tol)


def verify_growth_sandwich(spec: FieldSpec, xi_list, *, t_list, n_real: int, seed: int = 0,
                           tol: float = 1e-5, cells_per_unit: int = 2, workers: int = 1):
    """Check alpha c0 |xi| - slack <= f_hom(xi) <= C0 |xi| + C1 + slack.

    slack = tol * |f_hom| + CI of the estimate.  Infinite upper constants
    make the upper bound vacuous; this is reported, not failed.  An
    estimate with too many uncertified solves at some t fails the check.
    """
    consts = growth_constants(spec)
    details = {"constants": consts, "per_xi": []}
    worst = math.inf
    for xi in xi_list:
        xi = _as_xi(xi)
        est = estimate_f_hom(spec, xi, t_list=t_list, n_real=n_real, seed=seed,
                             tol=tol, cells_per_unit=cells_per_unit, workers=workers)
        xin = float(np.sqrt((xi * xi).sum()))
        slack = tol * abs(est.value) + est.ci_half
        lower_margin = est.value - (consts.lower_bound(xin) - slack)
        upper = consts.upper_bound(xin)
        upper_margin = math.inf if math.isinf(upper) else upper + slack - est.value
        worst = min(worst, lower_margin, upper_margin)
        details["per_xi"].append({
            "xi": xi, "estimate": est, "lower_margin": lower_margin,
            "upper_margin": upper_margin, "slack": slack,
        })
    ests = [per["estimate"] for per in details["per_xi"]]
    return PropertyReport(name="growth_sandwich", n_instances=len(ests),
                          worst_slack=worst, budget=0.0,
                          passed=worst >= 0.0 and not any(e.too_many_flagged for e in ests),
                          n_flagged=sum(lv.n_flagged for e in ests for lv in e.levels),
                          details=details)


def _random_xi(seed, tag, index, d) -> np.ndarray:
    g = normal_quantile(keyed_uniform(seed, tag, index, np.arange(d)))[None]
    nrm = float(np.sqrt((g * g).sum()))
    if nrm == 0.0:
        g[0, 0] = 1.0
        nrm = 1.0
    return g / nrm


def subcube_parts(t: float, depth: int, cells_per_unit: int = 2) -> int:
    """2^depth, once it splits the mesh of Q_t into subcube grids."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    parts = 2 ** depth
    n = cube_grid(1, t, cells_per_unit).cells
    if n % parts or n // parts < 2:
        raise ValueError(f"cells per side {n} must be divisible by 2^depth={parts} "
                         "with at least 2 cells per subcube")
    return parts


def check_subadditivity(spec: FieldSpec, xi=None, *, t: float, n_real: int, depth: int = 1,
                        seed: int = 0, tol: float = 1e-5, cells_per_unit: int = 2,
                        workers: int = 1) -> PropertyReport:
    """Verify mu(Q_t) <= sum of dyadic subcube energies per realization.

    The subcubes partition Q_t with the same mesh, so the discrete
    minima satisfy the inequality exactly; reported primal values may
    miss it by at most the large-cube certificate, big.primal - big.dual
    <= tol |big.primal|, budgeted as tol max_r |big.primal|, which scales
    with the weights.  xi=None draws a random 1 x d unit slope per realization.
    """
    d = spec.dimension
    parts = subcube_parts(t, depth, cells_per_unit)
    s = t / parts
    # n is a multiple of parts, so each subcube gets n / parts cells from
    # the same resolution policy and the subcubes partition Q_t's mesh
    # per instance the large cube, then its subcubes
    cubes = [(t, None)] + [(s, tuple(-0.5 * t + 0.5 * s + ki * s for ki in k))
                           for k in np.ndindex(*(parts,) * d)]
    slopes = [_as_xi(xi) if xi is not None else _random_xi(seed, "subadd-xi", r, d)
              for r in range(n_real)]
    tasks = [SolveTask(spec, seed, r, side, xi_r, center=c, cells_per_unit=cells_per_unit,
                       tol=tol) for r, xi_r in enumerate(slopes) for side, c in cubes]
    rows = [(rep.primal, rep.converged) for rep in solve_many(tasks, workers)]
    primal, ok = (np.array(col).reshape(n_real, len(cubes)) for col in zip(*rows))
    slacks = np.array([sum(p[1:]) - p[0] for p in primal])
    n_flagged = int((~ok).sum())
    worst = float(slacks.min())
    budget = tol * float(np.abs(primal[:, 0]).max())
    return PropertyReport(name="subadditivity", n_instances=n_real,
                          worst_slack=worst, budget=budget,
                          passed=bool(worst >= -budget and n_flagged == 0),
                          n_flagged=n_flagged,
                          details={"slacks": slacks, "depth": depth, "t": t})


@dataclass
class StationarityReport:
    matched_max_diff: float
    matched_exact: bool
    two_sample: TwoSampleResult
    passed: bool
    n_flagged: int


def check_stationarity_in_law(spec: FieldSpec, xi, *, t: float, n_real: int, z=None,
                              seed: int = 0, tol: float = 1e-5, cells_per_unit: int = 2,
                              workers: int = 1) -> StationarityReport:
    """Stationarity of the cell energy under lattice shifts.

    Matched realizations 0..n_real-1: the problem of omega on Q_t + z and
    that of the shifted omega on Q_t must assemble to identical weights
    (exact on binary-representable geometry).  The solver reads the weights, the
    slope and the cell count, not the center, so identical weights give
    identical certified values and the matched pairs are not solved;
    ``matched_max_diff`` is the largest difference of assembled weights.
    Independent realizations at the two placements must agree in law
    (calibrated two-sample test), and each of those solves must certify.
    """
    xi = _as_xi(xi)
    d = spec.dimension
    if z is None:
        z = np.zeros(d)
        z[0] = 1.0
    z = np.asarray(z, dtype=float)

    max_diff = 0.0
    exact = True
    for r in range(n_real):
        fld = sample_field(spec, seed, r)
        prob_a = cell_problem_on_cube(fld, t, xi, cells_per_unit, center=tuple(z))
        prob_b = cell_problem_on_cube(shift(fld, z), t, xi, cells_per_unit)
        for a, b in ((prob_a.lam, prob_b.lam), (prob_a.lam0, prob_b.lam0)):
            exact = exact and np.array_equal(a, b)
            max_diff = max(max_diff, float(np.abs(a - b).max()))

    tasks = [SolveTask(spec, seed, r, t, xi, center=tuple(z) if r < n_real else None,
                       cells_per_unit=cells_per_unit, tol=tol) for r in range(2 * n_real)]
    vals, ok = map(np.array, zip(*((rep.normalized, rep.converged)
                                   for rep in solve_many(tasks, workers))))
    ts = two_sample_test(vals[:n_real], vals[n_real:])
    n_flagged = int((~ok).sum())
    return StationarityReport(matched_max_diff=max_diff, matched_exact=exact,
                              two_sample=ts, n_flagged=n_flagged,
                              passed=exact and ts.same_law and n_flagged == 0)


@dataclass
class RecessionReport:
    s_list: tuple
    means: np.ndarray
    ci_halves: np.ndarray
    mode: str
    worst_dev: float
    budget: float
    passed: bool
    details: dict
    n_flagged: int


def recession(spec: FieldSpec, xi, s_list=(1.0, 2.0, 5.0), *, t: float, n_real: int,
              seed: int = 0, tol: float = 1e-5, cells_per_unit: int = 2,
              workers: int = 1) -> RecessionReport:
    """Normalized estimates f_hom(s xi)/s along a ray, at increasing s.

    Without a lower-order term the cell energy is 1-homogeneous, so the
    series must be constant within solver budgets; with lam present,
    f(s xi)/s = f(xi) + E[lam]/s per matched realization, so consecutive
    increments must match (1/s - 1/s') E[lam] within budget + CI.
    """
    xi = _as_xi(xi)
    s_list = increasing(s_list, "s_list")

    vals, _, _, ok = _solve_cases(spec, [(t, s * xi) for s in s_list], n_real, seed, tol,
                                  cells_per_unit, workers)
    n_flagged = int((~ok).sum())
    vals = vals / np.array(s_list)[:, None]
    means = vals.mean(axis=1)
    cis = np.array([mean_ci(vals[si])[1] for si in range(len(s_list))])
    scale = float(np.abs(means).max())
    budget = 2.0 * tol * scale

    if spec.lower_order is None:
        worst = float(np.abs(means - means[0]).max())
        passed = worst <= budget
        mode = "constant"
        details = {"values": vals}
    else:
        c1 = growth_constants(spec).C1
        devs = []
        for a, b in zip(range(len(s_list) - 1), range(1, len(s_list))):
            diff_r = vals[a] - vals[b]
            expected = (1.0 / s_list[a] - 1.0 / s_list[b]) * c1
            dmean, dci = mean_ci(diff_r)
            devs.append(abs(dmean - expected) - dci)
        worst = float(max(devs))
        decreasing = bool(np.all(np.diff(means) < 0.0))
        passed = worst <= budget and decreasing
        mode = "decreasing"
        details = {"values": vals, "expected_lambda_mean": c1, "decreasing": decreasing}
    return RecessionReport(s_list=s_list, means=means, ci_halves=cis, mode=mode,
                           worst_dev=worst, budget=budget, n_flagged=n_flagged,
                           passed=passed and n_flagged == 0, details=details)


def rank_one_segment(xi_a, xi_b):
    """The ends of a segment as (m, d) arrays, once xi_a - xi_b is a rank-one
    matrix (second singular value at most 1e-12 of the first)."""
    xi_a, xi_b = _as_xi(xi_a), _as_xi(xi_b)
    if xi_a.shape != xi_b.shape:
        raise ValueError(f"xi_a and xi_b must have one shape, got {xi_a.shape} "
                         f"and {xi_b.shape}")
    sv = np.linalg.svd(xi_a - xi_b, compute_uv=False)
    if sv.size >= 2 and sv[1] > 1e-12 * max(sv[0], 1e-300):
        raise ValueError("xi_a - xi_b is not rank one (second singular value "
                         f"{sv[1]:.3e} vs first {sv[0]:.3e})")
    return xi_a, xi_b


def check_rank_one_convexity(spec: FieldSpec, xi_a, xi_b, *, t: float, n_real: int,
                             n_grid: int = 5, seed: int = 0, tol: float = 1e-5,
                             cells_per_unit: int = 2, workers: int = 1) -> PropertyReport:
    """Midpoint convexity of the estimate along a rank-one segment.

    The segment endpoint difference must be rank one (see
    rank_one_segment); the cell energy is convex in xi realization by
    realization, so reported midpoint slacks can only dip below zero by
    solver budgets (2 tol, CI added for random fields).
    """
    xi_a, xi_b = rank_one_segment(xi_a, xi_b)
    lambdas = np.linspace(0.0, 1.0, n_grid)

    vals, _, _, ok = _solve_cases(spec, [(t, lam * xi_a + (1.0 - lam) * xi_b)
                                         for lam in lambdas],
                                  n_real, seed, tol, cells_per_unit, workers)
    n_flagged = int((~ok).sum())
    means = vals.mean(axis=1)
    slack_r = 0.5 * (vals[:-2] + vals[2:]) - vals[1:-1]
    slack_means = slack_r.mean(axis=1)
    slack_ci = np.array([mean_ci(row)[1] for row in slack_r])
    scale = 0.5 * float(np.abs(means).max())
    budget = 2.0 * tol * scale + (0.0 if ok.shape[1] == 1 else float(slack_ci.max()))
    worst = float(slack_means.min())
    return PropertyReport(name="rank_one_convexity", n_instances=n_grid - 2,
                          worst_slack=worst, budget=budget,
                          passed=bool(worst >= -budget and n_flagged == 0),
                          n_flagged=n_flagged,
                          details={"lambdas": lambdas, "means": means, "values": vals,
                                   "slack_ci": slack_ci})
