"""Effective-density estimation and its structural property checks."""

import numpy as np
import pytest

from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate,
                    Periodic, check_rank_one_convexity,
                    check_stationarity_in_law, check_subadditivity,
                    divergence_experiment, estimate_f_hom, mean_ci, recession,
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
        assert not est.flagged
        assert est.flags == ()
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
        assert np.array_equal(lv_a.all_values, lv_b.all_values)
    # same realization indices at t=4 whether or not t=8 follows
    assert np.array_equal(a.levels[0].all_values, short.levels[0].all_values)
    # different seed: different draws
    c = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=4, seed=6)
    assert not np.array_equal(c.levels[0].all_values, short.levels[0].all_values)


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
    assert rep.normalized == pytest.approx(float(est.levels[1].all_values[0]),
                                           rel=1e-12)


def test_growth_sandwich_two_point_isotropic():
    report = verify_growth_sandwich(TP_ISO, [E1, E1 + E2], t_list=(4, 8),
                                    n_real=6, seed=1)
    assert report.name == "growth_sandwich"
    assert report.passed
    assert report.worst_slack >= 0.0
    for row in report.details["per_xi"]:
        assert row["lower_margin"] >= 0.0
        assert row["upper_margin"] >= 0.0
        assert np.isfinite(row["upper_margin"])


def test_growth_sandwich_heavy_tail_upper_bound_is_vacuous():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.pareto(1.0, 1.0))
    report = verify_growth_sandwich(spec, [E2], t_list=(4,), n_real=4, seed=2)
    row = report.details["per_xi"][0]
    assert row["upper_margin"] == np.inf
    assert np.isinf(report.details["constants"].C0)
    assert report.passed  # decided by the lower bound alone


def test_subadditivity_constant_field_is_tight():
    report = check_subadditivity(CONST2, xi=E1, t=8, depth=1, n_real=2, seed=0)
    # tol times the large cube's energy, 2 |e1| 8^2
    assert report.budget == pytest.approx(1e-5 * 2.0 * 8 ** 2)
    assert report.passed
    assert report.n_flagged == 0
    # partition energies add up exactly for a constant field
    assert np.max(np.abs(report.details["slacks"])) <= 1e-9 * 8 ** 2


def test_subadditivity_random_battery():
    report = check_subadditivity(IID_U12, xi=None, t=8, depth=1, n_real=10, seed=4)
    assert report.passed
    assert report.n_instances == 10
    assert report.worst_slack >= -report.budget
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
    assert report.matched_exact
    assert report.matched_max_diff == 0.0
    assert report.two_sample.same_law
    assert report.passed


def test_stationarity_compares_matched_weights_without_solving(monkeypatch):
    # the matched pairs cost no solve: only the 2 n_real two-sample tasks run
    before = conftest.solve_audit_snapshot()["solves"]
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    assert conftest.solve_audit_snapshot()["solves"] - before == 4
    assert report.matched_exact and report.matched_max_diff == 0.0
    # a shift by the wrong vector assembles other weights, which the check reports
    monkeypatch.setattr(homlab.homogenize, "shift", lambda fld, z: shift(fld, 2 * z))
    report = check_stationarity_in_law(IID_U12, E1, t=4, n_real=2, seed=0)
    fld = sample_field(IID_U12, 0, 0)
    lam_a = cell_problem_on_cube(fld, 4.0, E1, center=(1.0, 0.0)).lam
    lam_b = cell_problem_on_cube(shift(fld, np.array([2.0, 0.0])), 4.0, E1).lam
    assert not report.matched_exact and not report.passed
    assert report.matched_max_diff >= np.abs(lam_a - lam_b).max() > 0.0


def test_recession_without_lower_order_is_constant():
    report = recession(TP_ISO, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                       n_real=6, seed=0)
    assert report.mode == "constant"
    assert report.passed
    assert report.worst_dev <= report.budget
    assert np.allclose(report.means, report.means[0], atol=1e-4)


def test_recession_along_a_short_ray_is_constant():
    # the solver normalizes the slope like the weights, so s = 0.001 steps
    # like s = 1; it used to run out of iterations and fail the check
    report = recession(IID_U12, E1, s_list=(0.001, 1.0), t=8, n_real=2, seed=0)
    assert report.mode == "constant"
    assert report.passed and report.n_flagged == 0
    assert report.means[0] == pytest.approx(report.means[1], rel=1e-4)


def test_recession_with_lower_order_decreases_by_lambda_mean():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0),
                     lower_order=DistributionSpec.constant(1.0))
    report = recession(spec, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                       n_real=6, seed=0)
    assert report.mode == "decreasing"
    assert report.passed
    assert report.details["decreasing"]
    # f(s xi)/s = f(xi) + 1/s, so consecutive drops are 0.5 and 0.3
    assert np.diff(report.means) == pytest.approx([-0.5, -0.3], abs=1e-4)
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
    # one of the two solves at t=4 is more than the estimate allows
    "growth-sandwich": lambda: verify_growth_sandwich(IID_U12, [E1], t_list=(4,), n_real=2),
}


@pytest.mark.parametrize("check", UNCERTIFIED)
def test_one_uncertified_solve_fails_the_check(check, request):
    rep = UNCERTIFIED[check]()
    assert (rep.passed, rep.n_flagged) == (True, 0)
    request.getfixturevalue("second_solve_uncertified")
    rep = UNCERTIFIED[check]()
    assert (rep.passed, rep.n_flagged) == (False, 1)


def test_subadditivity_counts_uncertified_solves_not_instances(monkeypatch):
    # solves 1 and 2 are subcubes of instance 0: two flagged solves, one instance
    conftest.uncertify_solves(monkeypatch, {1, 2})
    rep = check_subadditivity(IID_U12, E1, t=4, n_real=2)
    assert (rep.passed, rep.n_flagged) == (False, 2)


def test_all_flagged_level_has_no_confidence_interval(monkeypatch):
    # no certified value: the level's mean and its CI half-width are both nan
    conftest.uncertify_solves(monkeypatch, {0, 1})
    (lv,) = estimate_f_hom(IID_U12, E1, t_list=(4,), n_real=2).levels
    assert lv.n_flagged == 2
    assert np.isnan(lv.mean) and np.isnan(lv.ci_half)
    assert mean_ci([3.0]) == (3.0, 0.0)


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
    assert report.passed
    assert report.worst_slack == pytest.approx(0.0, abs=1e-12)


def test_rank_one_periodic_runs_single_realization():
    spec = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                           [2.0, 1.0]]),
                     diagonal=None)
    report = check_rank_one_convexity(spec, E1, E2, t=8, n_grid=3,
                                      n_real=20, seed=0)
    assert report.details["values"].shape == (3, 1)
    assert report.passed
    assert report.budget == pytest.approx(
        2.0 * 1e-5 * 0.5 * float(np.abs(report.details["means"]).max()))


def test_estimate_periodic_forces_one_realization():
    spec = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                           [2.0, 1.0]]),
                     diagonal=None)
    est = estimate_f_hom(spec, E1, t_list=(4,), n_real=7, seed=0)
    assert est.levels[0].all_values.shape == (1,)


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
    # in floating point, so every budget and slack must scale exactly and
    # no verdict may move; a budget floored at 1 is absolute below scale 1
    s = 2.0 ** k
    est, rec, rank_one, subadd, sandwich = _verdicts_on_scaled_tile(k)
    est1, rec1, rank_one1, subadd1, sandwich1 = _verdicts_on_scaled_tile(0)
    assert [lv.mean for lv in est.levels] == [lv.mean * s for lv in est1.levels]
    assert est.trend_consistent == est1.trend_consistent
    assert (rec.budget, rec.worst_dev, rec.passed) == (
        rec1.budget * s, rec1.worst_dev * s, rec1.passed)
    assert (rank_one.budget, rank_one.worst_slack, rank_one.passed) == (
        rank_one1.budget * s, rank_one1.worst_slack * s, rank_one1.passed)
    assert (subadd.budget, subadd.worst_slack, subadd.passed) == (
        subadd1.budget * s, subadd1.worst_slack * s, subadd1.passed)
    assert (sandwich.worst_slack, sandwich.passed) == (
        sandwich1.worst_slack * s, sandwich1.passed)
    for row, row1 in zip(sandwich.details["per_xi"], sandwich1.details["per_xi"]):
        assert (row["slack"], row["lower_margin"], row["upper_margin"]) == (
            row1["slack"] * s, row1["lower_margin"] * s, row1["upper_margin"] * s)
