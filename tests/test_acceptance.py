"""Acceptance battery: one test, one verdict line, per stated criterion.

Each test computes its own pass/fail from analytic oracles, certified
solver reports, or pipeline outputs at the stated tolerances, appends
one line to the terminal acceptance section, and asserts.
"""

import json
import math
import threading
import time
from pathlib import Path

import numpy as np

import conftest
import homlab.cell
from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate,
                    Periodic, birkhoff_average, cell_problem_on_cube,
                    cheap_interface, check_rank_one_convexity,
                    check_subadditivity, divergence_experiment,
                    estimate_f_hom, hitting_stats, interface_limit_check,
                    recession, sample_field, solve_cell,
                    verify_growth_sandwich)
from homlab import runner
from homlab.config import parse_config_dict
from homlab.records import canonical_csv_bytes

TOL = 1e-5
E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])

CONST2 = FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec.constant(2.0))
U12_IID = FieldSpec(dimension=2, structure=IidCubes(),
                    diagonal=DistributionSpec.uniform(1.0, 2.0))
TP_ISO = FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0))
LAM_1D = FieldSpec(dimension=1, structure=Laminate(axis=1),
                   diagonal=DistributionSpec.uniform(1.0, 2.0))
PARETO_LAM = FieldSpec(dimension=2, structure=Laminate(axis=1),
                       diagonal=DistributionSpec.pareto(1.0, 1.0))
TILE = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0],
                                                       [2.0, 1.0]]))


def record(num, name, ok, detail=""):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_criterion_01_constant_field_exactness():
    worst_rel = 0.0
    worst_time = 0.0
    for xi in (E1, E1 + E2):
        fld = sample_field(CONST2, 0, 0)
        prob = cell_problem_on_cube(fld, 64.0, xi, 2)  # 128 cells per side
        t0 = time.perf_counter()
        rep = solve_cell(prob, tol=TOL)
        worst_time = max(worst_time, time.perf_counter() - t0)
        want = 2.0 * float(np.sqrt((xi * xi).sum()))
        worst_rel = max(worst_rel, abs(rep.normalized - want) / want)
        assert rep.converged
    ok = worst_rel <= 1e-4 and worst_time < 10.0
    assert record(1, "constant-field exactness", ok,
                  f"rel err {worst_rel:.1e}, slowest solve {worst_time:.2f}s")


def test_criterion_02_duality_certificates():
    tp_lower = FieldSpec(dimension=2, structure=IidCubes(),
                         diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0),
                         lower_order=DistributionSpec.constant(0.5))
    lognorm = FieldSpec(dimension=2, structure=IidCubes(),
                        diagonal=DistributionSpec.lognormal(0.0, 0.5))
    battery = [
        (CONST2, 8.0, E1, None),
        (U12_IID, 8.0, E1 + E2, None),
        (TP_ISO, 8.0, E2, None),
        (PARETO_LAM, 8.0, E2, (4.0, 4.0)),
        (TILE, 8.0, E1, None),
        (LAM_1D, 16.0, np.array([[1.0]]), None),
        (U12_IID, 8.0, np.eye(2), None),
        (tp_lower, 8.0, E1, None),
        (lognorm, 8.0, 2.0 * E1 - 0.5 * E2, None),
    ]
    certified = 0
    for spec, t, xi, center in battery:
        fld = sample_field(spec, 0, 0)
        prob = cell_problem_on_cube(fld, t, xi, 2, center=center)
        rep = solve_cell(prob, tol=TOL)
        if rep.converged and rep.dual <= rep.primal and rep.gap <= TOL:
            certified += 1
    snap = conftest.solve_audit_snapshot()
    ok = certified == len(battery) and not snap["violations"]
    assert record(2, "duality certificates", ok,
                  f"{certified}/{len(battery)} battery certified, "
                  f"{len(snap['violations'])} audit violations in "
                  f"{snap['solves']} solves")


def test_criterion_03_one_dimensional_laminate_law():
    t0 = time.perf_counter()
    est = estimate_f_hom(LAM_1D, np.array([[1.0]]), t_list=(16, 64, 256),
                         n_real=50, seed=0, tol=TOL)
    elapsed = time.perf_counter() - t0
    devs = []
    ok = True
    for lv in est.levels:
        want = 1.0 + 1.0 / (lv.t + 1.0)
        devs.append(abs(lv.mean - want) / lv.ci_half if lv.ci_half else math.inf)
        ok = ok and abs(lv.mean - want) <= lv.ci_half and lv.n_flagged == 0
    ok = ok and elapsed < 300.0
    assert record(3, "1-d laminate order-statistic law", ok,
                  f"dev/CI per t: {', '.join(f'{d:.2f}' for d in devs)}, "
                  f"{elapsed:.1f}s")


def test_criterion_04_growth_sandwich():
    report = verify_growth_sandwich(TP_ISO, [E1, E2, E1 + E2],
                                    t_list=(8, 16, 32), n_real=12, seed=0,
                                    tol=TOL)
    margins = [min(row["lower_margin"], row["upper_margin"])
               for row in report.details["per_xi"]]
    # a margin >= 0 is a claim that holds: each estimate's interval clears its bound
    ok = (report.passed and all(m >= 0.0 for m in margins)
          and (report.holds, report.undecided, report.fails) == (6, 0, 0))
    assert record(4, "growth sandwich", ok,
                  f"worst margin {min(margins):.3e}, {report.holds}/6 claims hold")


def test_criterion_05_subadditivity():
    report = check_subadditivity(U12_IID, xi=None, t=16, depth=1,
                                 n_real=100, seed=0, tol=TOL)
    # a realization fails when sum sub.primal < big.dual, which every raw
    # slack below -tol |big.primal| (the old budget) satisfies
    ok = report.passed and report.fails == 0 and report.n_flagged == 0
    assert record(5, "subadditivity over dyadic partitions", ok,
                  f"holds {report.holds}, undecided {report.undecided}, "
                  f"fails {report.fails}; least interval end "
                  f"{report.details['lower'].min():.3e}")


def test_criterion_06_ergodic_averaging():
    t0 = time.perf_counter()
    u1d = FieldSpec(dimension=1, structure=IidCubes(),
                    diagonal=DistributionSpec.uniform(1.0, 2.0))
    fld = sample_field(u1d, 21)
    (_, avg), = birkhoff_average(fld, [1000], observable="entry")
    se = (1.0 / math.sqrt(12.0)) / math.sqrt(1000.0)
    ok_mean = abs(avg - 1.5) <= 3.0 * se

    heavy = FieldSpec(dimension=1, structure=IidCubes(),
                      diagonal=DistributionSpec.pareto(1.0, 1.0))
    series = birkhoff_average(sample_field(heavy, 0),
                              [2 ** k for k in range(4, 13)])
    vals = [v for _, v in series]
    ok_heavy = vals[-1] > 2.0 * vals[0]
    elapsed = time.perf_counter() - t0
    ok = ok_mean and ok_heavy and elapsed < 60.0
    assert record(6, "ergodic averaging", ok,
                  f"|avg-1.5|/SE {abs(avg - 1.5) / se:.2f}, heavy ratio "
                  f"{vals[-1] / vals[0]:.2f}, {elapsed:.1f}s")


def test_criterion_07_divergence_regime():
    report = divergence_experiment(PARETO_LAM, xi=E2, t_list=(8, 32, 128),
                                   n_real=20, seed=13, tol=TOL)
    div = report.details
    # no Jensen claim fails: every solve sits above its per-realization bound
    ok = (report.fails == 0 and div["strictly_increasing"]
          and div["growth_ratio"] > 2.0 and div["heavy_tail"]
          and report.n_flagged == 0)
    assert record(7, "heavy-tail divergence", ok,
                  f"growth ratio {div['growth_ratio']:.2f}, jensen margin "
                  f"{div['jensen_margin']:.1e}")


def test_criterion_08_cheap_interfaces():
    def lam(law):
        return FieldSpec(dimension=2, structure=Laminate(axis=1), diagonal=law)

    tp_coarse = lam(DistributionSpec.two_point(0.05, 0.5, 1.0))
    tp_fine = lam(DistributionSpec.two_point(0.005, 0.5, 1.0))
    u01 = lam(DistributionSpec.uniform(0.0, 1.0))
    cases = [(tp_coarse, 0.1), (tp_fine, 0.01), (u01, 0.1), (u01, 0.01)]

    ok = True
    worst_z = 0.0
    for spec, delta in cases:
        probe = cheap_interface(spec, delta, seed=0)
        stats = hitting_stats(spec, delta, n_scans=1000, seed=0)
        worst_z = max(worst_z, abs(stats.z_score))
        # the probe hits below delta; every scan hits, within 4 standard errors
        ok = (ok and interface_limit_check([probe], [stats]).passed
              and probe.l1_distance <= probe.epsilon and probe.bv_limit == 1.0)
    # shrinking delta on one uniform realization: the zero-cost limit
    family = [cheap_interface(u01, d, seed=0) for d in (0.1, 0.01)]
    ok = ok and interface_limit_check(family, []).passed
    assert record(8, "zero-cost interfaces", ok,
                  f"worst hitting |z| {worst_z:.2f} over 1000 scans")


def test_criterion_09_recession_and_homogeneity():
    rec_off = recession(TP_ISO, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                        n_real=6, seed=0, tol=TOL)
    with_lam = FieldSpec(dimension=2, structure=IidCubes(),
                         diagonal=DistributionSpec.two_point(1.0, 0.5, 2.0),
                         lower_order=DistributionSpec.constant(1.0))
    rec_on = recession(with_lam, E1 + E2, s_list=(1.0, 2.0, 5.0), t=8,
                       n_real=6, seed=0, tol=TOL)
    ok = (rec_off.details["mode"] == "constant" and rec_off.passed
          and rec_on.details["mode"] == "decreasing" and rec_on.passed
          and rec_off.fails == rec_on.fails == 0)
    assert record(9, "recession along rays", ok,
                  f"homogeneous holds/undecided {rec_off.holds}/{rec_off.undecided}; "
                  f"decreasing holds/undecided {rec_on.holds}/{rec_on.undecided}")


def test_criterion_10_rank_one_convexity():
    report = check_rank_one_convexity(TILE, E1, E2, t=8, n_grid=5, n_real=1,
                                      seed=0, tol=TOL)
    # every claim holds: each midpoint slack's interval, and so the slack, is >= 0
    ok = report.passed and report.holds == 3
    assert record(10, "rank-one segment convexity", ok,
                  f"least midpoint slack interval end {report.details['lower'].min():.2e}")


def test_criterion_11_gluing_inequality(tmp_path):
    cfg = parse_config_dict({
        "command": "glue-check",
        "field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                  "diagonal": {"kind": "uniform", "a": 1.0, "b": 2.0}},
        "options": {"n_instances": 20, "side": 32, "delta_range": [0.3, 0.6]},
        "seed": 0,
    })
    code, _, summary_path = runner.run(cfg, workers=1,
                                       out_dir=str(tmp_path / "glue"))
    summary = json.loads(Path(summary_path).read_text())
    glue = summary["report"]["glue"]
    ok = (code == 0 and summary["verdict"] == "pass"
          and glue["n_instances"] == 20 and glue["worst_slack"] >= 0.0)
    assert record(11, "fundamental-estimate gluing", ok,
                  f"worst slack {glue['worst_slack']:.3e} over 20 instances")


def test_criterion_12_reproducibility(tmp_path, monkeypatch):
    # t = 56 is n = 112 at 2 cells per unit, 2 * 113^2 = 25538 dual entries:
    # large enough for the pool, so its solves run on pool threads at 8 workers
    raw = {
        "command": "verify-bounds",
        "field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                  "diagonal": {"kind": "two_point", "v1": 1.0, "p": 0.5,
                               "v2": 2.0}},
        "xi": "e1",
        "t_list": [4, 8, 56],
        "n_real": 6,
        "tol": 1e-2,
        "seed": 0,
    }
    assert 2 * (2 * 56 + 1) ** 2 >= homlab.cell._POOL_MIN_DUAL
    inner, threads = homlab.cell.solve_cell, []

    def solve_cell(problem, **kwargs):
        threads.append(threading.get_ident())
        return inner(problem, **kwargs)

    for mod in conftest._PATCH_MODULES:
        monkeypatch.setattr(mod, "solve_cell", solve_cell)
    blobs, pooled = [], []
    for sub, workers in (("w1", 1), ("w8", 8)):
        threads.clear()
        cfg = parse_config_dict(raw)
        code, csv_path, _ = runner.run(cfg, workers=workers,
                                       out_dir=str(tmp_path / sub))
        assert code == 0
        blobs.append(canonical_csv_bytes(csv_path))
        pooled.append(sum(ident != threading.get_ident() for ident in threads))
    assert pooled[0] == 0 and pooled[1] > 0
    ok = blobs[0] == blobs[1]
    assert record(12, "worker-count reproducibility", ok,
                  f"{len(blobs[0])} canonical bytes compared, "
                  f"{pooled[1]} solves on pool threads")
