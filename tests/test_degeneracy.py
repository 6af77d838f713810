"""Heavy-tail blow-up and zero-cost interface probes."""

import dataclasses
import math

import numpy as np
import pytest

import homlab.cell
from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate,
                    cheap_interface, divergence_experiment, hitting_stats,
                    interface_limit_check)
from homlab.degeneracy import HittingStats, InterfaceProbe

E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


def laminate_spec(law, d=2, axis=1, lower=None):
    return FieldSpec(dimension=d, structure=Laminate(axis=axis), diagonal=law,
                     lower_order=lower)

PARETO = laminate_spec(DistributionSpec.pareto(1.0, 1.0))
TP_CHEAP = laminate_spec(DistributionSpec.two_point(0.05, 0.5, 1.0))
U01 = laminate_spec(DistributionSpec.uniform(0.0, 1.0))


def test_divergence_heavy_tail_tracks_the_spatial_average():
    report = divergence_experiment(PARETO, xi=E2, t_list=(4, 8, 16), n_real=6,
                                   seed=12)
    div = report.details
    assert report.fails == 0 and report.passed
    assert div["jensen_margin"] >= -1e-9 * max(1.0, np.max(div["jensen_bounds"]))
    assert div["heavy_tail"]
    assert report.n_flagged == 0
    # transverse slope: the zero corrector is optimal, so certified
    # primals can exceed the slicewise average bound only by the gap
    assert div["means"] == pytest.approx(div["jensen_bounds"], rel=2e-5)
    assert div["strictly_increasing"]
    assert div["growth_ratio"] > 1.0


def test_divergence_constant_control_stays_flat():
    spec = laminate_spec(DistributionSpec.constant(3.0))
    report = divergence_experiment(spec, xi=E2, t_list=(4, 8, 16), n_real=3,
                                   seed=0)
    div = report.details
    assert not div["heavy_tail"]
    assert div["growth_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert not div["strictly_increasing"]
    assert np.allclose(div["means"], 3.0, rtol=1e-6)


@pytest.mark.parametrize("k", [-30, 0], ids=lambda k: f"2^{k}")
def test_divergence_jensen_check_is_relative_at_any_weight_scale(k, monkeypatch):
    # a solver that undercuts every Jensen bound by 10% must fail the
    # check at any weight scale; an absolute slack hides it below scale 1
    inner = homlab.cell.solve_cell

    def undercutting_solve_cell(problem, **kwargs):
        rep = inner(problem, **kwargs)
        return dataclasses.replace(rep, primal=0.9 * rep.primal, dual=0.9 * rep.dual)

    monkeypatch.setattr(homlab.cell, "solve_cell", undercutting_solve_cell)
    s = 2.0 ** k
    spec = laminate_spec(DistributionSpec.two_point(s, 0.5, 4.0 * s))
    report = divergence_experiment(spec, t_list=(4, 8), n_real=2, seed=0)
    assert report.details["jensen_margin"] < 0.0
    assert report.fails == 4 and not report.passed


def test_divergence_validation():
    iid = FieldSpec(dimension=2, structure=IidCubes(),
                    diagonal=DistributionSpec.pareto(1.0, 1.0))
    with pytest.raises(ValueError, match="laminate"):
        divergence_experiment(iid, xi=E2, t_list=(4,), n_real=1)
    aniso = laminate_spec((DistributionSpec.pareto(1.0, 1.0),
                           DistributionSpec.uniform(1.0, 2.0)))
    with pytest.raises(ValueError, match="single scalar"):
        divergence_experiment(aniso, xi=E2, t_list=(4,), n_real=1)
    one_d = laminate_spec(DistributionSpec.pareto(1.0, 1.0), d=1)
    with pytest.raises(ValueError, match="dimension"):
        divergence_experiment(one_d, xi=np.array([[1.0]]), t_list=(4,), n_real=1)
    with_lower = laminate_spec(DistributionSpec.pareto(1.0, 1.0),
                               lower=DistributionSpec.constant(1.0))
    with pytest.raises(ValueError, match="lower-order"):
        divergence_experiment(with_lower, xi=E2, t_list=(4,), n_real=1)
    with pytest.raises(ValueError, match="vanish along"):
        divergence_experiment(PARETO, xi=E1, t_list=(4,), n_real=1)
    with pytest.raises(ValueError, match="nonzero"):
        divergence_experiment(PARETO, xi=np.zeros((1, 2)), t_list=(4,), n_real=1)


def test_cheap_interface_finds_a_stripe_below_delta():
    probe = cheap_interface(TP_CHEAP, delta=0.1, seed=0)
    assert probe.success
    assert probe.energy == 0.05
    assert probe.energy <= probe.delta
    assert probe.epsilon == pytest.approx(1.0 / (probe.k_index + 2.0))
    assert probe.l1_distance == pytest.approx(probe.epsilon / 4.0)
    assert probe.bv_limit == 1.0
    assert probe.p_delta == pytest.approx(0.5)
    assert probe.cells_scanned == probe.k_index + 1
    lo = probe.epsilon * probe.k_index
    hi = probe.epsilon * (probe.k_index + 1)
    assert 0.0 <= lo < hi <= 1.0


def test_cheap_interface_failure_reports_the_scan():
    spec = laminate_spec(DistributionSpec.constant(1.0))
    probe = cheap_interface(spec, delta=0.1, seed=0, search_limit=500)
    assert not probe.success
    assert probe.cells_scanned == 500
    assert probe.p_delta == 0.0
    assert math.isnan(probe.energy)
    assert math.isnan(probe.epsilon)
    assert probe.k_index == -1


def test_cheap_interface_errors():
    with pytest.raises(ValueError, match="positive"):
        cheap_interface(TP_CHEAP, delta=0.0, seed=0)


def test_interface_limit_on_one_realization():
    probes = [cheap_interface(U01, delta=d, seed=7) for d in (0.1, 0.01)]
    report = interface_limit_check(probes, [])
    # each probe hits below its delta, and the hit index does not fall
    assert (report.holds, report.undecided, report.fails) == (5, 0, 0)
    assert report.passed
    # rarer stripes cannot appear earlier on the same sample path
    k_coarse, k_fine = (p.k_index for p in report.details["probes"])
    assert k_fine >= k_coarse


def _fake_probe(delta, k):
    return InterfaceProbe(delta=delta, k_index=k, energy=0.5 * delta, cells_scanned=k + 1,
                          p_delta=0.5)


def test_interface_limit_flags_nonmonotone_hits():
    report = interface_limit_check([_fake_probe(0.1, 5), _fake_probe(0.01, 3)], [])
    # claims: both hit, both energies below delta, and the one step, which fails
    assert list(report.details["lower"]) == [5.0, 3.0, 0.05, 0.005, -2.0]
    assert report.fails == 1 and not report.passed
    # the order of the probes does not matter, only that of their deltas
    assert interface_limit_check([_fake_probe(0.01, 3), _fake_probe(0.1, 5)], []).fails == 1
    with pytest.raises(ValueError, match="at least one probe"):
        interface_limit_check([], [])


@pytest.mark.parametrize("k, energy, fails", [
    (-1, math.nan, 2),  # a missed scan: no hit, and no energy below delta
    (5, math.nan, 1),  # a NaN energy is not below delta
], ids=["miss", "nan-energy"])
def test_interface_check_fails_a_probe_without_a_cheap_stripe(k, energy, fails):
    probe = dataclasses.replace(_fake_probe(0.1, k), energy=energy)
    report = interface_limit_check([probe], [])
    assert (report.holds, report.undecided, report.fails) == (2 - fails, 0, fails)
    assert not report.passed


def _fake_stats(z, n_failed=0):
    return HittingStats(delta=0.1, n_scans=100, n_failed=n_failed, p_delta=0.5,
                        mean_expected=1.0, mean_observed=1.0 + 0.1 * z, se=0.1, z_score=z)


@pytest.mark.parametrize("stats, fails", [
    (_fake_stats(4.0), 0),  # |z| = 4 standard errors still holds
    (_fake_stats(-4.5), 1),
    (_fake_stats(0.0, n_failed=1), 1),
    (_fake_stats(math.inf, n_failed=100), 2),  # no scan hit
], ids=["z=4", "z=-4.5", "one-miss", "all-miss"])
def test_interface_check_decides_hitting_claims(stats, fails):
    report = interface_limit_check([_fake_probe(0.1, 5)], [stats])
    assert report.fails == fails and report.passed is (fails == 0)
    # the interface check solves nothing, so no solve goes uncertified
    assert report.n_flagged == 0
    assert report.passed == (report.fails == 0 and report.n_flagged == 0)
    assert report.n_instances == 2


def test_hitting_stats_match_the_geometric_law():
    stats = hitting_stats(TP_CHEAP, delta=0.1, n_scans=300, seed=0)
    assert stats.p_delta == pytest.approx(0.5)
    assert stats.mean_expected == pytest.approx(1.0)
    assert stats.n_failed == 0
    assert abs(stats.z_score) <= 4.0
    assert stats.se == pytest.approx(math.sqrt(0.5 / 0.25 / 300))

    u = hitting_stats(U01, delta=0.1, n_scans=200, seed=1)
    assert u.p_delta == pytest.approx(0.1)
    assert u.mean_expected == pytest.approx(9.0)
    assert abs(u.z_score) <= 4.0


def test_hitting_stats_requires_nondegenerate_probability():
    spec = laminate_spec(DistributionSpec.constant(1.0))
    with pytest.raises(ValueError, match="strictly between"):
        hitting_stats(spec, delta=0.1, n_scans=10)
