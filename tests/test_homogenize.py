"""Effective-density estimation and its structural property checks."""

import dataclasses

import numpy as np
import pytest

from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate,
                    Periodic, check_rank_one_convexity,
                    check_stationarity_in_law, check_subadditivity,
                    decide, divergence_experiment, estimate_f_hom, mean_ci, recession,
                    sample_field, shift, solve_cell, verify_growth_sandwich)
from homlab.cell import cell_problem_on_cube

import conftest
import homlab.cell
import homlab.homogenize

E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])

IID_U12 = FieldSpec(dimension=2, structure=IidCubes(),
                    diagonal=DistributionSpec.uniform(1.0, 2.0))
CONST2 = FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec.constant(2.0))
LAM1D = FieldSpec(dimension=1, structure=Laminate(axis=1),
                  diagonal=DistributionSpec.uniform(1.0, 2.0))
# one shared law across diagonal slots (isotropic in law)
TP_ISO = FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0))


def test_constant_field_estimate_hits_closed_form():
    for xi, want in ((E1, 2.0), (E1 + E2, 2.0 * np.sqrt(2.0))):
        est = estimate_f_hom(CONST2, xi, t_list=(4, 8), n_real=3, seed=0)
        assert est.value == pytest.approx(want, rel=1e-6)
        assert est.ci_half <= 1e-8
        assert est.trend_consistent
        assert [lv.t for lv in est.levels] == [4.0, 8.0]
        for lv in est.levels:
            assert lv.n_flagged == 0
            assert lv.values.shape == (3,)
            assert np.all(lv.certified)


def test_realizations_shared_across_cube_sizes():
    a = estimate_f_hom(IID_U12, E1, t_list=(4, 8), n_real=4, seed=5)
    b = estimate_f_hom(IID_U12, E1, t_list=(4, 8), n_real=4, seed=5)
    short = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=4, seed=5)
    for lv_a, lv_b in zip(a.levels, b.levels):
        assert np.array_equal(lv_a.values, lv_b.values)
    # same realization indices at t=4 whether or not t=8 follows
    assert np.array_equal(a.levels[0].values, short.levels[0].values)
    # different seed: different draws
    c = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=4, seed=6)
    assert not np.array_equal(c.levels[0].values, short.levels[0].values)


def test_one_dimensional_ladder_matches_order_statistic_mean():
    # per realization the minimizer dumps all slope on the cheapest unit
    # cell, so the normalized energy is min of t iid uniform(1,2) draws
    # and its mean is 1 + 1/(t+1)
    est = estimate_f_hom(LAM1D, np.array([[1.0]]), t_list=(4, 8, 16),
                         n_real=40, seed=3)
    for lv in est.levels:
        want = 1.0 + 1.0 / (lv.t + 1.0)
        assert abs(lv.mean - want) <= lv.ci_half, (lv.t, lv.mean, want)
        assert np.all(lv.values >= 1.0) and np.all(lv.values <= 2.0)
    fld = sample_field(LAM1D, 3, 0)
    rep = solve_cell(cell_problem_on_cube(fld, 8.0, np.array([[1.0]])))
    assert rep.normalized == pytest.approx(float(est.levels[1].values[0]),
                                           rel=1e-12)


def test_growth_sandwich_two_point_isotropic():
    report = verify_growth_sandwich(TP_ISO, [E1, E1 + E2], t_list=(4, 8),
                                    n_real=6, seed=1)
    assert report.name == "growth_sandwich"
    assert report.passed
    # two claims per slope, each clear of its bound by the row's margin
    assert (report.holds, report.undecided, report.fails) == (4, 0, 0)
    for row in report.details["per_xi"]:
        est = row["estimate"]
        assert row["lower_margin"] >= 0.0
        assert row["upper_margin"] >= 0.0
        assert np.isfinite(row["upper_margin"])
        assert (est.lower, est.upper) == (est.levels[-1].lower, est.levels[-1].upper)
        assert est.lower < est.value < est.upper


def test_growth_sandwich_heavy_tail_upper_bound_is_vacuous():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.pareto(1.0, 1.0))
    report = verify_growth_sandwich(spec, [E2], t_list=(4,), n_real=4, seed=2)
    row = report.details["per_xi"][0]
    assert row["upper_margin"] == np.inf
    assert np.isinf(report.details["constants"].C0)
    assert report.passed  # decided by the lower bound alone
    assert report.fails == 0


def test_growth_sandwich_upper_bound_carries_the_monte_carlo_ci():
    # a C0 without atoms is a Monte Carlo estimate; both ends of the upper
    # claim move out by its CI times |xi|
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=(DistributionSpec.uniform(1.0, 2.0),
                               DistributionSpec.uniform(1.0, 4.0)))
    xi = E1 + E2
    report = verify_growth_sandwich(spec, [xi], t_list=(4,), n_real=3, seed=0)
    consts = report.details["constants"]
    assert consts.C0_method == "probe_mc" and consts.C0_ci > 0.0
    est = report.details["per_xi"][0]["estimate"]
    xin = float(np.sqrt(2.0))
    spread = consts.C0_ci * xin
    point_margin = consts.upper_bound(xin) - est.upper
    assert report.details["per_xi"][0]["upper_margin"] == pytest.approx(
        point_margin - spread, rel=0.0, abs=1e-12)
    assert report.details["upper"][1] == pytest.approx(
        consts.upper_bound(xin) - est.lower + spread, rel=0.0, abs=1e-12)


def test_subadditivity_constant_field_is_tight():
    report = check_subadditivity(CONST2, xi=E1, t=8, depth=1, n_real=2, seed=0)
    assert report.passed
    assert report.n_flagged == 0
    # partition energies add up exactly for a constant field, so each
    # realization's interval contains 0 and is as wide as the certificates
    assert np.max(np.abs(report.details["slacks"])) <= 1e-9 * 8 ** 2
    lo, hi = report.details["lower"], report.details["upper"]
    assert np.all(lo <= 0.0) and np.all(hi >= 0.0) and report.fails == 0
    assert np.all(hi - lo <= 2 * 1e-5 * 2.0 * 8 ** 2)


def test_subadditivity_random_battery():
    report = check_subadditivity(IID_U12, xi=None, t=8, depth=1, n_real=10, seed=4)
    assert report.passed
    assert report.n_instances == 10
    assert report.holds + report.undecided == 10 and report.fails == 0
    assert report.n_flagged == 0


def test_random_slope_of_zero_draws_falls_back_to_e1(monkeypatch):
    # every draw exactly 0.5 makes ndtri's slope zero, which cannot be normalized
    monkeypatch.setattr(homlab.homogenize, "keyed_uniform",
                        lambda *keys: np.full(np.shape(keys[-1]), 0.5))
    xi = homlab.homogenize._random_xi(0, "subadd-xi", 0, 3)
    assert np.array_equal(xi, [[1.0, 0.0, 0.0]])


def test_subadditivity_rejects_unsplittable_mesh():
    with pytest.raises(ValueError, match="divisible"):
        check_subadditivity(IID_U12, xi=E1, t=5, depth=2, n_real=1)
    # depth 0 would compare the cube with itself and pass for no reason
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            check_subadditivity(IID_U12, xi=E1, t=4, depth=depth, n_real=1)


def test_stationarity_matched_shift_is_exact():
    report = check_stationarity_in_law(IID_U12, E1, t=4, z=(1.0, 0.0), n_real=12, seed=0)
    assert report.details["matched_max_diff"] == 0.0
    # both claims hold: the weights match and the two samples agree in law
    ts = report.details["two_sample"]
    assert list(report.details["lower"]) == [0.0, ts.threshold - ts.statistic]
    assert (report.holds, report.fails) == (2, 0)
    assert report.passed


def test_stationarity_compares_matched_weights_without_solving(monkeypatch):
    # the matched pairs cost no solve: only the 2 n_real two-sample tasks run
    before = conftest.solve_audit_snapshot()["solves"]
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    assert conftest.solve_audit_snapshot()["solves"] - before == 4
    assert report.details["matched_max_diff"] == 0.0
    # a shift by the wrong vector assembles other weights, which the check reports
    monkeypatch.setattr(homlab.homogenize, "shift", lambda fld, z: shift(fld, 2 * z))
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    fld = sample_field(IID_U12, 0, 0)
    lam_a = cell_problem_on_cube(fld, 4.0, E1, center=(1.0, 0.0)).lam
    lam_b = cell_problem_on_cube(shift(fld, np.array([2.0, 0.0])), 4.0, E1).lam
    assert report.fails >= 1 and not report.passed
    assert report.details["matched_max_diff"] >= np.abs(lam_a - lam_b).max() > 0.0


def test_stationarity_sees_a_wrong_shift_past_matching_infinite_weights(monkeypatch):
    # an inf weight in the same cell of both placements matches, though
    # inf - inf is NaN: a largest difference over every cell would be NaN
    # and hide the cells that a wrong shift moves
    def with_inf(*args, **kwargs):
        prob = cell_problem_on_cube(*args, **kwargs)
        lam = prob.lam.copy()
        lam[:, 0, 0] = np.inf
        return dataclasses.replace(prob, lam=lam)

    monkeypatch.setattr(homlab.homogenize, "cell_problem_on_cube", with_inf)
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    assert report.details["matched_max_diff"] == 0.0 and report.passed
    monkeypatch.setattr(homlab.homogenize, "shift", lambda fld, z: shift(fld, 2 * z))
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    assert 0.0 < report.details["matched_max_diff"] < np.inf
    assert report.fails == 1 and not report.passed


def test_recession_without_lower_order_is_constant():
    report = recession(TP_ISO, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                       n_real=6, seed=0)
    assert report.details["mode"] == "constant"
    assert report.passed
    # x = 0 and -x = 0 for each of 6 realizations and 2 steps of the ray
    assert report.holds + report.undecided == 24 and report.fails == 0
    assert np.allclose(report.details["means"], report.details["means"][0], atol=1e-4)


def test_recession_along_a_short_ray_is_constant():
    # the solver normalizes the slope like the weights, so s = 0.001 steps
    # like s = 1; it used to run out of iterations and fail the check
    report = recession(IID_U12, E1, s_list=(0.001, 1.0), t=8, n_real=2, seed=0)
    assert report.details["mode"] == "constant"
    assert report.passed and report.n_flagged == 0
    means = report.details["means"]
    assert means[0] == pytest.approx(means[1], rel=1e-4)


def test_recession_with_lower_order_decreases_by_lambda_mean():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0),
                     lower_order=DistributionSpec.constant(1.0))
    report = recession(spec, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                       n_real=6, seed=0)
    assert report.details["mode"] == "decreasing"
    assert report.passed and report.fails == 0
    # per step x = 0 as two claims, then the point claim that the means
    # decrease, which holds
    assert report.holds + report.undecided == 6
    assert np.all(report.details["lower"][-2:] > 0.0)
    # f(s xi)/s = f(xi) + 1/s, so consecutive drops are 0.5 and 0.3
    assert np.diff(report.details["means"]) == pytest.approx([-0.5, -0.3], abs=1e-4)
    assert report.details["expected_lambda_mean"] == pytest.approx(1.0)


PARETO_LAMINATE = FieldSpec(dimension=2, structure=Laminate(axis=1),
                            diagonal=DistributionSpec.pareto(1.0, 1.0))


# each entry point that compares consecutive sizes or scales, given a list
UNORDERED = {
    "recession": lambda s: recession(IID_U12, E1, s_list=s, t=4, n_real=2),
    "estimate": lambda t: estimate_f_hom(IID_U12, E1, t_list=t, n_real=2),
    "growth-sandwich": lambda t: verify_growth_sandwich(IID_U12, [E1], t_list=t, n_real=2),
    "divergence": lambda t: divergence_experiment(PARETO_LAMINATE, xi=E2, t_list=t, n_real=2),
}


@pytest.mark.parametrize("values", [(5, 2, 1), (4, 2, 4), (2, 2)])
@pytest.mark.parametrize("check", UNORDERED)
def test_lists_that_do_not_strictly_increase_are_refused(check, values, monkeypatch):
    # refused before any solve: an unsorted s_list used to fail recession's
    # decreasing check falsely, and a repeated t was solved twice
    monkeypatch.setattr(homlab.cell, "solve_cell", None)
    with pytest.raises(ValueError, match="must be strictly increasing"):
        UNORDERED[check](values)


# each check on a tiny case; its report gives the verdict and the
# number of uncertified solves as (rep.passed, rep.n_flagged)
UNCERTIFIED = {
    "recession": lambda: recession(IID_U12, E1, s_list=(1, 2), t=4, n_real=2),
    "rank-one": lambda: check_rank_one_convexity(IID_U12, E1, E2, t=4, n_grid=3, n_real=2),
    "stationarity": lambda: check_stationarity_in_law(IID_U12, E1, t=4, n_real=3),
    "subadditivity": lambda: check_subadditivity(IID_U12, E1, t=4, n_real=2),
    "degenerate-divergence": lambda: divergence_experiment(PARETO_LAMINATE, xi=E2,
                                                           t_list=(2, 4), n_real=2),
    "growth-sandwich": lambda: verify_growth_sandwich(IID_U12, [E1], t_list=(4,), n_real=2),
}


@pytest.mark.parametrize("check", UNCERTIFIED)
def test_one_uncertified_solve_fails_the_check(check, request):
    rep = UNCERTIFIED[check]()
    assert (rep.passed, rep.n_flagged) == (True, 0)
    request.getfixturevalue("second_solve_uncertified")
    flagged = UNCERTIFIED[check]()
    assert (flagged.passed, flagged.n_flagged) == (False, 1)
    # one rule: the claims still decide as before, and the uncertified
    # solve alone fails the check
    assert (flagged.holds, flagged.undecided, flagged.fails) == (
        rep.holds, rep.undecided, rep.fails)
    for r in (rep, flagged):
        assert r.passed == (r.fails == 0 and r.n_flagged == 0)


# a lower-order total of 16 * 1e308 overflows: every solve ends non-finite
# at its first gap check, and its inf - inf claims are NaN, which fail
NONFINITE_U12 = dataclasses.replace(IID_U12, lower_order=DistributionSpec.constant(1e308))
NONFINITE = {
    "recession": (lambda: recession(NONFINITE_U12, E1, s_list=(1, 2), t=4, n_real=2), 4),
    "rank-one": (lambda: check_rank_one_convexity(NONFINITE_U12, E1, E2, t=4, n_grid=3,
                                                  n_real=2), 6),
    "subadditivity": (lambda: check_subadditivity(NONFINITE_U12, E1, t=4, n_real=2), 10),
}


@pytest.mark.parametrize("check", NONFINITE)
def test_nonfinite_solves_fail_the_check_without_a_warning(check):
    # the suite raises any numpy warning as an error
    run, n_solves = NONFINITE[check]
    rep = run()
    assert (rep.passed, rep.n_flagged) == (False, n_solves)


@pytest.mark.parametrize("means, passed", [
    ([3.0, 2.0, 1.0], True),
    ([3.0, 2.0, 2.0], False),  # a tie is no decrease
    ([3.0, 1.0, 2.0], False),
    ([3.0, np.nan, 1.0], False),  # a NaN comparison is false
])
def test_recession_needs_strictly_decreasing_means(means, passed, monkeypatch):
    # a lower-order ray whose solves return the values ``means`` per s, in
    # intervals so wide that only the decrease claims decide
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.constant(1.0),
                     lower_order=DistributionSpec.constant(1.0))
    real = homlab.homogenize._solve_cases

    def shifted(*args):
        vals, duals, gaps, iters, ok = real(*args)
        s = np.array([1.0, 2.0, 4.0])[:, None]
        vals = np.broadcast_to(np.array(means)[:, None] * s, vals.shape).copy()
        return vals, vals - 1e3 * s, gaps, iters, ok

    monkeypatch.setattr(homlab.homogenize, "_solve_cases", shifted)
    rep = recession(spec, E1, s_list=(1.0, 2.0, 4.0), t=4, n_real=2)
    assert rep.details["mode"] == "decreasing"
    assert rep.n_flagged == 0
    assert rep.passed is passed
    assert rep.fails == sum(not a > b for a, b in zip(means, means[1:]))


def test_subadditivity_counts_uncertified_solves_not_instances(monkeypatch):
    # solves 1 and 2 are subcubes of instance 0: two flagged solves, one instance
    conftest.uncertify_solves(monkeypatch, {1, 2})
    rep = check_subadditivity(IID_U12, E1, t=4, n_real=2)
    assert (rep.passed, rep.n_flagged) == (False, 2)


def test_all_flagged_level_keeps_its_confidence_interval(monkeypatch):
    # an uncertified solve keeps its [dual, primal]: the level's mean, CI
    # and interval use every solve, as when all of them certify
    (clean,) = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=2).levels
    conftest.uncertify_solves(monkeypatch, {0, 1})
    (lv,) = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=2).levels
    assert lv.n_flagged == 2 and not lv.certified.any()
    assert np.array_equal(lv.values, clean.values)
    assert (lv.mean, lv.ci_half, lv.lower, lv.upper) == (
        clean.mean, clean.ci_half, clean.lower, clean.upper)
    assert np.isfinite([lv.mean, lv.ci_half, lv.lower, lv.upper]).all()


def test_rank_one_rejects_full_rank_segment():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.uniform(1.0, 2.0))
    xi_a = np.eye(2)
    xi_b = np.zeros((2, 2))
    with pytest.raises(ValueError, match="rank one"):
        check_rank_one_convexity(spec, xi_a, xi_b, t=4, n_grid=3, n_real=1)


def test_rank_one_degenerate_segment_passes():
    report = check_rank_one_convexity(IID_U12, E1, E1, t=4, n_grid=3,
                                      n_real=2, seed=0)
    assert report.passed and report.fails == 0
    # every slope is e1, so the midpoint slacks are 0 and each interval
    # is as wide as the certificates of its three solves
    lo, hi = report.details["lower"], report.details["upper"]
    assert np.all(lo <= 0.0) and np.all(hi >= 0.0)
    assert np.all(hi - lo <= 4 * 1e-5 * np.abs(report.details["means"]).max())


def test_rank_one_periodic_runs_single_realization():
    spec = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                           [2.0, 1.0]]),
                     diagonal=None)
    report = check_rank_one_convexity(spec, E1, E2, t=8, n_grid=3,
                                      n_real=20, seed=0)
    assert report.details["values"].shape == (3, 1)
    assert report.passed
    # one realization is the periodic law itself: no CI widens the interval
    assert (report.holds, report.fails) == (1, 0)
    assert report.details["upper"] - report.details["lower"] <= (
        4 * 1e-5 * np.abs(report.details["means"]).max())


def test_estimate_periodic_forces_one_realization():
    spec = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                           [2.0, 1.0]]),
                     diagonal=None)
    est = estimate_f_hom(spec, E1, t_list=(4,), n_real=7, seed=0)
    assert est.levels[0].values.shape == (1,)


def _verdicts_on_scaled_tile(k):
    spec = FieldSpec(dimension=2, structure=Periodic(
        tile=np.array([[1.0, 4.0], [4.0, 1.0]]) * 2.0 ** k), diagonal=None)
    return (estimate_f_hom(spec, E1, t_list=(4, 8), n_real=1),
            recession(spec, E1 + E2, s_list=(1.0, 2.0), t=4, n_real=1),
            check_rank_one_convexity(spec, E1, E2, t=4, n_grid=3, n_real=1),
            check_subadditivity(spec, xi=E1 + E2, t=4, depth=1, n_real=1),
            verify_growth_sandwich(spec, [E1, E1 + E2], t_list=(4, 8), n_real=1))


@pytest.mark.parametrize("k", [-30, 0, 30], ids=lambda k: f"2^{k}")
def test_verdict_budgets_scale_with_the_weights(k):
    # the energy is 1-homogeneous in Lambda, and scaling by 2^k is exact
    # in floating point, so every interval must scale exactly and no count
    # or verdict may move; an absolute slack in an interval would not scale
    s = 2.0 ** k
    est, *reports = _verdicts_on_scaled_tile(k)
    est1, *reports1 = _verdicts_on_scaled_tile(0)
    for lv, lv1 in zip(est.levels, est1.levels):
        assert (lv.lower, lv.mean, lv.upper) == (lv1.lower * s, lv1.mean * s, lv1.upper * s)
    assert (est.lower, est.upper) == (est1.lower * s, est1.upper * s)
    assert est.trend_consistent == est1.trend_consistent
    for rep, rep1 in zip(reports, reports1):
        assert np.array_equal(rep.details["lower"], rep1.details["lower"] * s), rep.name
        assert np.array_equal(rep.details["upper"], rep1.details["upper"] * s), rep.name
        assert (rep.holds, rep.undecided, rep.fails, rep.passed) == (
            rep1.holds, rep1.undecided, rep1.fails, rep1.passed), rep.name
    for row, row1 in zip(reports[-1].details["per_xi"], reports1[-1].details["per_xi"]):
        assert (row["lower_margin"], row["upper_margin"]) == (
            row1["lower_margin"] * s, row1["upper_margin"] * s)


@pytest.mark.parametrize("lo, hi, counts", [
    (0.0, 1.0, (1, 0, 0)),  # touching 0 from above holds
    (0.0, 0.0, (1, 0, 0)),
    (-1.0, 0.0, (0, 1, 0)),  # touching 0 from below is undecided
    (-1.0, 1.0, (0, 1, 0)),  # straddles 0
    (-1.0, -0.0, (0, 1, 0)),
    (-2.0, -1.0, (0, 0, 1)),
    (-np.inf, np.inf, (0, 1, 0)),
    (0.5, np.inf, (1, 0, 0)),
    (np.inf, np.inf, (1, 0, 0)),
    (-np.inf, -1.0, (0, 0, 1)),
    (-np.inf, -np.inf, (0, 0, 1)),
    (np.nan, np.nan, (0, 1, 0)),  # no certified value decides nothing
    (np.nan, -1.0, (0, 0, 1)),
])
def test_decide_counts_one_claim(lo, hi, counts):
    assert decide(lo, hi) == counts
    assert decide([lo, lo], [hi, hi]) == tuple(2 * c for c in counts)


def test_decide_counts_claims_of_mixed_verdicts():
    assert decide([1.0, -1.0, -3.0, 0.0], [2.0, 1.0, -2.0, 0.0]) == (2, 1, 1)
    assert decide([], []) == (0, 0, 0)


def test_gap_zero_level_interval_is_its_ci():
    # every 1-d laminate solve certifies with gap 0, so a level's interval is
    # its CI and no tolerance widens it, whatever tol
    for tol in (1e-5, 1e-2):
        est = estimate_f_hom(LAM1D, np.array([[1.0]]), t_list=(4, 8), n_real=6,
                             seed=3, tol=tol)
        for lv in est.levels:
            assert np.all(lv.gaps == 0.0)
            assert (lv.lower, lv.upper) == (lv.mean - lv.ci_half, lv.mean + lv.ci_half)
        assert (est.lower, est.upper) == (est.levels[-1].lower, est.levels[-1].upper)


def test_one_value_of_a_random_field_has_an_infinite_ci():
    # one realization of a random field says nothing of its law's spread
    est = estimate_f_hom(IID_U12, E1, t_list=(4, 8), n_real=1)
    for lv in est.levels:
        assert lv.ci_half == np.inf
        assert (lv.lower, lv.upper) == (-np.inf, np.inf)
    assert est.trend_consistent
    report = verify_growth_sandwich(IID_U12, [E1], t_list=(4,), n_real=1)
    assert (report.holds, report.undecided, report.fails) == (0, 2, 0)
    assert report.passed
    assert mean_ci([3.0]) == (3.0, np.inf)


def test_one_value_of_a_periodic_field_is_its_law():
    spec = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0], [2.0, 1.0]]),
                     diagonal=None)
    (lv,) = estimate_f_hom(spec, E1, t_list=(4,), n_real=5).levels
    assert lv.values.shape == (1,)
    assert lv.ci_half == 0.0
    assert lv.lower <= lv.mean == lv.upper
    assert lv.mean - lv.lower <= 1e-5 * lv.mean
    assert mean_ci([3.0], exact=True) == (3.0, 0.0)
