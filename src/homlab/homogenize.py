"""Estimation of the effective energy density and its structural checks.

The effective density at slope xi is the large-volume limit of the
expected normalized cell energy, estimated by Monte Carlo over
realizations on a ladder of cube sizes.  Realization indices are shared
across cube sizes, so per-realization checks compare matched samples.

Every number is an interval: a solve's energy lies in [dual, primal],
and a level's expected energy in [mean dual - h, mean primal + h], h the
99% normal CI half-width of the primals.  A check writes each inequality
as a claim "x >= 0" on such an interval, and ``decide`` alone counts the
claims that hold, stay undecided or fail.  ``tol`` only asks each solve
for a certificate and widens no interval.  Every solve enters its
intervals, certified or not, and one rule decides every report: it
passes when no claim fails and every solve certified (``n_flagged`` 0).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cell import SolveTask, cell_problem_on_cube, cube_grid, solve_many
from .fields import FieldSpec, sample_field, shift
from .integrand import growth_constants
from .randomness import keyed_uniform, normal_quantile
from .stats import mean_ci, two_sample_test


@dataclass
class TLevel:
    """Monte Carlo summary of normalized cell energies at one cube size.

    ``values`` holds one primal per realization and ``certified`` says
    which solves certified; the statistics use every solve, uncertified
    ones too, whose [dual, primal] still holds the energy.  The interval
    is the mean dual less ``ci_half`` to the mean primal plus it.
    """

    t: float
    values: np.ndarray
    n_flagged: int
    mean: float
    ci_half: float
    lower: float
    upper: float
    gaps: np.ndarray
    iterations: np.ndarray
    certified: np.ndarray


@dataclass
class HomEstimate:
    """Estimate of the effective density at one slope: the last level's
    mean, CI half-width and interval."""

    xi: np.ndarray
    t_list: tuple
    levels: list
    value: float
    ci_half: float
    lower: float
    upper: float
    trend_consistent: bool
    tol: float


Counts = namedtuple("Counts", "holds undecided fails")


def decide(lo, hi) -> Counts:
    """Count the claims "x >= 0", one per x known only to lie in [lo, hi]:
    one holds if lo >= 0, fails if hi < 0, and is undecided otherwise."""
    fails = np.atleast_1d(hi) < 0.0
    holds = (np.atleast_1d(lo) >= 0.0) & ~fails
    return Counts(int(holds.sum()), int((~holds & ~fails).sum()), int(fails.sum()))


def _zero(lo, hi) -> tuple:
    """The claim x = 0, for x in [lo, hi], as the claims x >= 0 and -x >= 0."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    return np.concatenate([lo, -hi]), np.concatenate([hi, -lo])


@dataclass
class PropertyReport:
    """Outcome of a property check, here or in ``degeneracy`` and ``glue``:
    ``decide``'s counts of its claims on the intervals ``details["lower"]``
    and ``details["upper"]``, which are points for a claim known exactly,
    and its count of uncertified solves."""

    name: str
    n_instances: int
    holds: int
    undecided: int
    fails: int
    n_flagged: int
    details: dict

    @property
    def passed(self) -> bool:
        """The one verdict rule: no claim fails and every solve certified."""
        return self.fails == 0 and self.n_flagged == 0


def _report(name, n_instances, lo, hi, n_flagged, details) -> PropertyReport:
    """The report on claims in [lo, hi] and ``n_flagged`` uncertified solves."""
    holds, undecided, fails = decide(lo, hi)
    return PropertyReport(name=name, n_instances=n_instances, holds=holds,
                          undecided=undecided, fails=fails, n_flagged=n_flagged,
                          details={**details, "lower": np.atleast_1d(lo),
                                   "upper": np.atleast_1d(hi)})


def _points(claims) -> np.ndarray:
    """Claims known exactly, each its own interval; a NaN, which stands for
    a false comparison, fails."""
    claims = np.atleast_1d(np.asarray(claims, dtype=float))
    return np.where(np.isnan(claims), -np.inf, claims)


def _point_report(name, n_instances, claims, n_flagged, details) -> PropertyReport:
    """The report on claims known exactly and ``n_flagged`` uncertified solves."""
    claims = _points(claims)
    return _report(name, n_instances, claims, claims, n_flagged, details)


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
    """Normalized primals and duals, gaps, iterations and certified flags,
    each a (len(cases), n_real) array, of realizations 0..n_real-1 solved
    at each case ``(t, xi)``; a periodic field is deterministic and gets
    one.  Reports are reduced as they arrive, holding one minimizer at a time."""
    n_real = spec.realizations(n_real)
    tasks = [SolveTask(spec, seed, r, t, xi, cells_per_unit=cells_per_unit, tol=tol)
             for t, xi in cases for r in range(n_real)]
    rows = [(rep.normalized, rep.dual / rep.grid.side ** rep.grid.dimension, rep.gap,
             rep.iterations, rep.converged) for rep in solve_many(tasks, workers)]
    return tuple(np.array(col).reshape(len(cases), n_real) for col in zip(*rows))


def estimate_f_hom(spec: FieldSpec, xi, *, t_list, n_real: int, seed: int = 0,
                   tol: float = 1e-5, cells_per_unit: int = 2,
                   workers: int = 1) -> HomEstimate:
    """Monte Carlo estimate of the effective density at slope xi.

    Realizations are indexed 0..n_real-1 under ``seed`` and reused for
    every t.  Every solve enters its level's statistics; each level counts
    its uncertified ones in ``n_flagged``.  The reported value is the mean
    at the largest t; ``trend_consistent`` records whether the intervals of
    the last two levels meet.
    """
    xi = _as_xi(xi)
    t_list = increasing(t_list, "t_list")

    solves = _solve_cases(spec, [(t, xi) for t in t_list], n_real, seed, tol,
                          cells_per_unit, workers)
    levels = []
    for t, vals, duals, gaps, iters, ok in zip(t_list, *solves):
        mean, half = mean_ci(vals, exact=spec.deterministic)
        levels.append(TLevel(t=t, values=vals, n_flagged=int((~ok).sum()), mean=mean,
                             ci_half=half, lower=mean_ci(duals)[0] - half, upper=mean + half,
                             gaps=gaps, iterations=iters, certified=ok))

    last = levels[-1]
    prev = levels[-2] if len(levels) >= 2 else last  # one level meets itself
    # the last two levels estimate one number: the trend is off only when
    # their intervals are disjoint
    trend = decide(*_zero(last.lower - prev.upper, last.upper - prev.lower)).fails == 0
    return HomEstimate(xi=xi, t_list=t_list, levels=levels, value=last.mean,
                       ci_half=last.ci_half, lower=last.lower, upper=last.upper,
                       trend_consistent=trend, tol=tol)


def verify_growth_sandwich(spec: FieldSpec, xi_list, *, t_list, n_real: int, seed: int = 0,
                           tol: float = 1e-5, cells_per_unit: int = 2, workers: int = 1):
    """Check alpha c0 |xi| <= f_hom(xi) <= C0 |xi| + C1 at each slope.

    The claims are estimate - lower bound >= 0 and upper bound - estimate
    >= 0; a slope's ``lower_margin`` and ``upper_margin`` are the distances
    by which its interval clears the bounds, >= 0 when a claim holds.  The
    upper bound is the interval (C0 -+ C0_ci) |xi| + C1, a point unless C0
    is a Monte Carlo estimate.  An infinite upper constant's claim cannot
    fail.
    """
    consts = growth_constants(spec)
    details = {"constants": consts, "per_xi": []}
    lo, hi = [], []
    for xi in xi_list:
        xi = _as_xi(xi)
        est = estimate_f_hom(spec, xi, t_list=t_list, n_real=n_real, seed=seed,
                             tol=tol, cells_per_unit=cells_per_unit, workers=workers)
        xin = float(np.sqrt((xi * xi).sum()))
        below, above = consts.lower_bound(xin), consts.upper_bound(xin)
        spread = consts.C0_ci * xin  # a Monte Carlo C0 carries its own CI
        lo += [est.lower - below, above - spread - est.upper]
        hi += [est.upper - below, above + spread - est.lower]
        details["per_xi"].append({"xi": xi, "estimate": est, "lower_margin": lo[-2],
                                  "upper_margin": lo[-1]})
    ests = [per["estimate"] for per in details["per_xi"]]
    return _report("growth_sandwich", len(ests), lo, hi,
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
    minima satisfy the inequality exactly.  The claim sum sub - big >= 0
    lies in [sum sub.dual - big.primal, sum sub.primal - big.dual];
    ``details["slacks"]`` holds it on the primals.  xi=None draws a random
    1 x d unit slope per realization.
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
    rows = [(rep.primal, rep.dual, rep.converged) for rep in solve_many(tasks, workers)]
    primal, dual, ok = (np.array(col).reshape(n_real, len(cubes)) for col in zip(*rows))
    # each realization's subcube energies, added in order
    sub_p, sub_d = (np.array([sum(row[1:]) for row in a]) for a in (primal, dual))
    with np.errstate(invalid="ignore"):  # inf - inf of non-finite solves: NaN claims fail
        return _report("subadditivity", n_real, sub_d - primal[:, 0], sub_p - dual[:, 0],
                       n_flagged=int((~ok).sum()),
                       details={"slacks": sub_p - primal[:, 0], "depth": depth, "t": t})


def check_stationarity_in_law(spec: FieldSpec, xi, *, t: float, n_real: int, z=None,
                              seed: int = 0, tol: float = 1e-5, cells_per_unit: int = 2,
                              workers: int = 1) -> PropertyReport:
    """Stationarity of the cell energy under lattice shifts.

    Matched realizations 0..n_real-1: the problem of omega on Q_t + z and
    that of the shifted omega on Q_t must assemble to identical weights
    (exact on binary-representable geometry).  The solver reads the weights, the
    slope and the cell count, not the center, so identical weights give
    identical certified values and the matched pairs are not solved; the
    claim -``matched_max_diff`` >= 0 holds when the weights differ in no cell:
    an inf weight matches an inf, and a NaN weight fails.  Independent
    realizations at the two placements must agree in law: the claim
    threshold - statistic >= 0 of the calibrated two-sample test, whose
    solves must each certify.
    """
    xi = _as_xi(xi)
    d = spec.dimension
    if z is None:
        z = np.zeros(d)
        z[0] = 1.0
    z = np.asarray(z, dtype=float)

    max_diff = 0.0
    for r in range(n_real):
        fld = sample_field(spec, seed, r)
        prob_a = cell_problem_on_cube(fld, t, xi, cells_per_unit, center=tuple(z))
        prob_b = cell_problem_on_cube(shift(fld, z), t, xi, cells_per_unit)
        for a, b in ((prob_a.lam, prob_b.lam), (prob_a.lam0, prob_b.lam0)):
            gap = np.subtract(a, b, out=np.zeros(a.shape), where=a != b)
            max_diff = float(np.maximum(max_diff, np.abs(gap).max()))  # NaN wins

    tasks = [SolveTask(spec, seed, r, t, xi, center=tuple(z) if r < n_real else None,
                       cells_per_unit=cells_per_unit, tol=tol) for r in range(2 * n_real)]
    vals, ok = map(np.array, zip(*((rep.normalized, rep.converged)
                                   for rep in solve_many(tasks, workers))))
    ts = two_sample_test(vals[:n_real], vals[n_real:])
    return _point_report("stationarity", n_real, [-max_diff, ts.threshold - ts.statistic],
                         n_flagged=int((~ok).sum()),
                         details={"matched_max_diff": max_diff, "two_sample": ts})


def recession(spec: FieldSpec, xi, s_list=(1.0, 2.0, 5.0), *, t: float, n_real: int,
              seed: int = 0, tol: float = 1e-5, cells_per_unit: int = 2,
              workers: int = 1) -> PropertyReport:
    """Normalized estimates f_hom(s xi)/s along a ray, at increasing s.

    Each step s -> s' is checked on the matched differences v(s) - v(s'),
    v = mu(s xi)/(s t^d) in [dual, primal]/s.  Without a lower-order term
    the energy is 1-homogeneous, so each realization's difference is 0
    (mode "constant"); with lam, v(s) = v_0 + L/s for the realization's
    mean weight L, so the mean difference is (1/s - 1/s') E[lam] within its
    CI, and the means decrease (mode "decreasing"): per step the point
    claim mean(s) - (the float after mean(s')) >= 0, which a tie fails.
    """
    xi = _as_xi(xi)
    s_list = increasing(s_list, "s_list")

    vals, duals, _, _, ok = _solve_cases(spec, [(t, s * xi) for s in s_list], n_real, seed,
                                         tol, cells_per_unit, workers)
    vals, duals = (a / np.array(s_list)[:, None] for a in (vals, duals))
    means = vals.mean(axis=1)
    details = {"s_list": s_list, "means": means, "values": vals,
               "ci_halves": np.array([mean_ci(row, exact=spec.deterministic)[1]
                                      for row in vals])}
    with np.errstate(invalid="ignore"):  # inf - inf of non-finite solves: NaN claims fail
        lo, hi = duals[:-1] - vals[1:], vals[:-1] - duals[1:]
        if spec.lower_order is None:
            details["mode"] = "constant"
            lo, hi = _zero(lo.ravel(), hi.ravel())
        else:
            c1 = growth_constants(spec).C1
            expected = (1.0 / np.array(s_list[:-1]) - 1.0 / np.array(s_list[1:])) * c1
            half = np.array([mean_ci(row, exact=spec.deterministic)[1]
                             for row in vals[:-1] - vals[1:]])
            lo, hi = _zero(lo.mean(axis=1) - expected - half,
                           hi.mean(axis=1) - expected + half)
            steps = _points(means[:-1] - np.nextafter(means[1:], np.inf))
            lo, hi = np.concatenate([lo, steps]), np.concatenate([hi, steps])
            details.update(mode="decreasing", expected_lambda_mean=c1)
    return _report("recession", len(s_list) - 1, lo, hi, n_flagged=int((~ok).sum()),
                   details=details)


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
    realization.  At each interior grid point the claim is the mean slack
    0.5 (v(a) + v(b)) - v(m) >= 0, from its solves' intervals and its CI.
    """
    xi_a, xi_b = rank_one_segment(xi_a, xi_b)
    lambdas = np.linspace(0.0, 1.0, n_grid)

    vals, duals, _, _, ok = _solve_cases(spec, [(t, lam * xi_a + (1.0 - lam) * xi_b)
                                                for lam in lambdas],
                                         n_real, seed, tol, cells_per_unit, workers)
    with np.errstate(invalid="ignore"):  # inf - inf of non-finite solves: NaN claims fail
        half = np.array([mean_ci(row, exact=spec.deterministic)[1]
                         for row in 0.5 * (vals[:-2] + vals[2:]) - vals[1:-1]])
        lo = (0.5 * (duals[:-2] + duals[2:]) - vals[1:-1]).mean(axis=1) - half
        hi = (0.5 * (vals[:-2] + vals[2:]) - duals[1:-1]).mean(axis=1) + half
    return _report("rank_one_convexity", n_grid - 2, lo, hi, n_flagged=int((~ok).sum()),
                   details={"lambdas": lambdas, "means": vals.mean(axis=1), "values": vals})
