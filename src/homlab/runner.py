"""Deterministic experiment execution: tasks in, CSV + JSON summary out.

Every command that solves cell problems builds an immutable list of
``SolveTask``s, runs it through ``cell.solve_many`` and records the
reports in task order; a single writer serializes the results.  All
randomness is keyed, so outputs are byte-identical across worker
counts; only the wall-time and timestamp fields vary between reruns.

Workers are threads, and a solve spends most of its time in small numpy
calls that hold the GIL, so more workers usually make a run slower.  On
2 Xeon vCPUs the 12 solves of ``perfbench/configs/iso2d-sandwich.json``
took 3.5-4.2 s serially and 7.0-8.8 s on two threads, over two seeds.
A two-process fork pool took 2.1-3.1 s with identical results, but a
solve in a child process escapes every in-process hook on
``homlab.cell.solve_cell`` (the test suite's certificate audit, the
benchmark's tracer), so threads stay.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from datetime import datetime, timezone

import numpy as np
from scipy.special import ndtri

from .cell import SolveTask, assemble, cube_grid, save_minimizer, solve_many
from .config import RunConfig
from .degeneracy import (cheap_interface, divergence_experiment, hitting_stats,
                         interface_limit_check)
from .fields import sample_field
from .glue import GlueGeometryError, glue_with_cutoff
from .homogenize import (check_rank_one_convexity, check_stationarity_in_law,
                         check_subadditivity, estimate_f_hom, recession,
                         verify_growth_sandwich)
from .integrand import growth_constants
from .fields import birkhoff_average
from .randomness import keyed_uniform
from .records import ResultRecord, run_id_for, write_csv

SUMMARY_SCHEMA_VERSION = 1


def _jsonable(obj):
    """Recursively convert reports to JSON-safe structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class _Ctx:
    """Shared bookkeeping for one run."""

    def __init__(self, cfg: RunConfig, workers: int, out_dir: str):
        self.cfg = cfg
        self.run_id = run_id_for(cfg.canonical, cfg.seed)
        self.workers = workers
        self.out_dir = out_dir
        self.timestamp = datetime.now(timezone.utc).isoformat()
        self.records = []
        self.flags = []
        self.report = {}
        self.constants = None
        self.verdict = True

    def rec(self, **kw):
        kw.setdefault("run_id", self.run_id)
        kw.setdefault("command", self.cfg.command)
        kw.setdefault("xi_label", "")
        kw.setdefault("timestamp", self.timestamp)
        self.records.append(ResultRecord(**kw))


def _estimate_records(ctx, label, est):
    for lv in est.levels:
        for r in range(lv.all_values.size):
            ctx.rec(xi_label=label, t=lv.t, realization=r, kind="solve",
                    value=float(lv.all_values[r]), gap=float(lv.gaps[r]),
                    iterations=int(lv.iterations[r]),
                    flags="" if lv.certified[r] else "flagged")
        ctx.rec(xi_label=label, t=lv.t, kind="level_mean", value=lv.mean,
                std=float(np.std(lv.values, ddof=1)) if lv.values.size > 1
                else None,
                ci_half=lv.ci_half,
                flags=f"n_flagged={lv.n_flagged}" if lv.n_flagged else "")
    ctx.rec(xi_label=label, kind="estimate", value=est.value,
            ci_half=est.ci_half, flags=";".join(est.flags))


def _cmd_field_stats(ctx):
    cfg = ctx.cfg
    ctx.constants = growth_constants(cfg.spec)
    obs = cfg.options.get("observable", "entry")
    entry = cfg.options.get("entry", 0)
    box = cfg.options.get("box")
    fld = sample_field(cfg.spec, cfg.seed, 0)
    kw = {"box": box} if box else {}
    if obs != "lower" or cfg.spec.lower_order is not None:
        for t, avg in birkhoff_average(fld, cfg.t_list, observable=obs,
                                       entry=entry, **kw):
            ctx.rec(t=t, kind=f"birkhoff_{obs}", value=float(avg))
    ctx.report["constants"] = ctx.constants
    ctx.flags.extend(ctx.constants.flags)


def _cmd_solve_cell(ctx):
    cfg = ctx.cfg
    t = float(cfg.options.get("t", cfg.t_list[0]))

    keys = [(label, r) for label in cfg.xi_labels for r in range(cfg.n_real)]
    tasks = [SolveTask(cfg.spec, cfg.seed, r, t, xi, cells_per_unit=cfg.cells_per_unit,
                       tol=cfg.tol) for xi in cfg.xi_list for r in range(cfg.n_real)]
    worst_gap = 0.0
    for (label, r), rep in zip(keys, solve_many(tasks, ctx.workers)):
        ctx.rec(xi_label=label, t=t, realization=r, kind="solve",
                value=rep.normalized, gap=rep.gap, iterations=rep.iterations,
                wall_time_s=rep.wall_time,
                flags="" if rep.converged else "flagged")
        worst_gap = max(worst_gap, rep.gap)
        if not rep.converged:
            ctx.verdict = False
            ctx.flags.append(f"flagged_solve:{label}:r={r}")
        if r == 0 and cfg.options.get("save_minimizer"):
            path = os.path.join(ctx.out_dir,
                                f"minimizer-{ctx.run_id}-{label}.bin")
            save_minimizer(rep, path)
    ctx.report["worst_gap"] = worst_gap
    ctx.report["t"] = t


def _cmd_estimate(ctx):
    cfg = ctx.cfg
    out = {}
    for label, xi in zip(cfg.xi_labels, cfg.xi_list):
        est = estimate_f_hom(cfg.spec, xi, t_list=cfg.t_list, n_real=cfg.n_real,
                             seed=cfg.seed, tol=cfg.tol,
                             cells_per_unit=cfg.cells_per_unit,
                             workers=ctx.workers)
        _estimate_records(ctx, label, est)
        out[label] = est
        if est.flagged:
            ctx.flags.extend(f"{label}:{f}" for f in est.flags)
        if any(f.startswith("flagged_solves") for f in est.flags):
            ctx.verdict = False
    ctx.report["estimates"] = out
    ctx.constants = growth_constants(cfg.spec)


def _cmd_verify_bounds(ctx):
    cfg = ctx.cfg
    rep = verify_growth_sandwich(cfg.spec, cfg.xi_list, t_list=cfg.t_list,
                                 n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
                                 cells_per_unit=cfg.cells_per_unit,
                                 workers=ctx.workers)
    ctx.constants = rep.details["constants"]
    for label, per in zip(cfg.xi_labels, rep.details["per_xi"]):
        _estimate_records(ctx, label, per["estimate"])
        ctx.rec(xi_label=label, kind="lower_margin", value=per["lower_margin"])
        ctx.rec(xi_label=label, kind="upper_margin",
                value=per["upper_margin"])
    ctx.report["sandwich"] = {"worst_slack": rep.worst_slack,
                              "passed": rep.passed,
                              "n_instances": rep.n_instances}
    ctx.verdict = ctx.verdict and rep.passed


def _cmd_subadditivity(ctx):
    cfg = ctx.cfg
    xi = cfg.xi_list[0] if cfg.xi_list else None
    rep = check_subadditivity(cfg.spec, xi=xi,
                              t=float(cfg.options.get("t", cfg.t_list[0])),
                              depth=int(cfg.options.get("depth", 1)),
                              n_instances=int(cfg.options.get("n_instances",
                                                              cfg.n_real)),
                              seed=cfg.seed, tol=cfg.tol,
                              cells_per_unit=cfg.cells_per_unit,
                              m=int(cfg.options.get("m", 1)),
                              workers=ctx.workers)
    for i, s in enumerate(rep.details["slacks"]):
        ctx.rec(xi_label=cfg.xi_labels[0] if cfg.xi_labels else "random",
                t=rep.details["t"], realization=i, kind="subadd_slack",
                value=float(s))
    ctx.report["subadditivity"] = {"worst_slack": rep.worst_slack,
                                   "budget": rep.budget, "passed": rep.passed,
                                   "n_flagged": rep.details["n_flagged"]}
    ctx.verdict = ctx.verdict and rep.passed


def _cmd_stationarity(ctx):
    cfg = ctx.cfg
    label, xi = cfg.xi_labels[0], cfg.xi_list[0]
    rep = check_stationarity_in_law(
        cfg.spec, xi, t=float(cfg.options.get("t", cfg.t_list[0])),
        z=cfg.options.get("z"), n_matched=int(cfg.options.get("n_matched", 5)),
        n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
        cells_per_unit=cfg.cells_per_unit, workers=ctx.workers)
    ctx.rec(xi_label=label, kind="matched_max_diff", value=rep.matched_max_diff)
    ctx.rec(xi_label=label, kind="two_sample_stat",
            value=rep.two_sample.statistic, ci_half=rep.two_sample.threshold)
    ctx.report["stationarity"] = rep
    ctx.verdict = ctx.verdict and rep.passed


def _cmd_recession(ctx):
    cfg = ctx.cfg
    label, xi = cfg.xi_labels[0], cfg.xi_list[0]
    s_list = tuple(cfg.options.get("s_list", (1.0, 2.0, 5.0)))
    rep = recession(cfg.spec, xi, s_list=s_list,
                    t=float(cfg.options.get("t", cfg.t_list[0])),
                    n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
                    cells_per_unit=cfg.cells_per_unit, workers=ctx.workers)
    for s, mean, ci in zip(rep.s_list, rep.means, rep.ci_halves):
        ctx.rec(xi_label=label, kind=f"ray_mean:s={s:g}", value=float(mean),
                ci_half=float(ci))
    ctx.report["recession"] = {"s_list": rep.s_list, "means": rep.means,
                               "mode": rep.mode, "worst_dev": rep.worst_dev,
                               "budget": rep.budget, "passed": rep.passed}
    ctx.verdict = ctx.verdict and rep.passed


def _cmd_rank_one(ctx):
    cfg = ctx.cfg
    from .config import parse_xi
    xi_a, la = parse_xi(cfg.options["xi_a"], cfg.spec.dimension, "options.xi_a")
    xi_b, lb = parse_xi(cfg.options["xi_b"], cfg.spec.dimension, "options.xi_b")
    rep = check_rank_one_convexity(
        cfg.spec, xi_a, xi_b, t=float(cfg.options.get("t", cfg.t_list[0])),
        n_grid=int(cfg.options.get("n_grid", 5)), n_real=cfg.n_real,
        seed=cfg.seed, tol=cfg.tol, cells_per_unit=cfg.cells_per_unit,
        workers=ctx.workers)
    for lam, mean in zip(rep.details["lambdas"], rep.details["means"]):
        ctx.rec(xi_label=f"{la}|{lb}", kind=f"segment_mean:lambda={lam:g}",
                value=float(mean))
    ctx.report["rank_one"] = {"worst_slack": rep.worst_slack,
                              "budget": rep.budget, "passed": rep.passed}
    ctx.verdict = ctx.verdict and rep.passed


def _cmd_divergence(ctx):
    cfg = ctx.cfg
    xi = cfg.xi_list[0] if cfg.xi_list else None
    rep = divergence_experiment(cfg.spec, xi=xi, t_list=cfg.t_list,
                                n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
                                cells_per_unit=cfg.cells_per_unit,
                                workers=ctx.workers)
    label = cfg.xi_labels[0] if cfg.xi_labels else "e_transverse"
    for t, mean, ci, jb in zip(rep.t_list, rep.means, rep.ci_halves,
                               rep.jensen_bounds):
        ctx.rec(xi_label=label, t=t, kind="mean", value=float(mean),
                ci_half=float(ci))
        ctx.rec(xi_label=label, t=t, kind="jensen_bound", value=float(jb))
    ctx.report["divergence"] = rep
    if rep.n_flagged:
        ctx.flags.append(f"n_flagged={rep.n_flagged}")
    ctx.verdict = ctx.verdict and rep.jensen_ok and rep.n_flagged == 0


def _cmd_interface(ctx):
    cfg = ctx.cfg
    deltas = cfg.options.get("delta_list", [0.1, 0.01])
    limit = int(cfg.options.get("search_limit", 10_000))
    n_scans = int(cfg.options.get("n_scans", 0))
    probes = [cheap_interface(cfg.spec, float(d), seed=cfg.seed, index=0,
                              search_limit=limit) for d in deltas]
    for p in probes:
        ctx.rec(xi_label=f"delta={p.delta:g}", kind="probe_energy",
                value=p.energy, flags="" if p.success else "no_hit")
        ctx.rec(xi_label=f"delta={p.delta:g}", kind="probe_l1",
                value=p.l1_distance, ci_half=p.epsilon)
    lim = interface_limit_check(probes)
    ctx.report["interface_limit"] = lim
    ctx.verdict = ctx.verdict and lim.passed
    if n_scans > 0:
        stats = []
        for d in deltas:
            hs = hitting_stats(cfg.spec, float(d), n_scans=n_scans,
                               seed=cfg.seed, search_limit=limit)
            ctx.rec(xi_label=f"delta={d:g}", kind="hitting_z",
                    value=hs.z_score)
            stats.append(hs)
            ctx.verdict = ctx.verdict and hs.within(4.0)
        ctx.report["hitting"] = stats


def _glue_instance(spec, seed, i, side, cells_per_unit, delta_range):
    d = spec.dimension
    u01 = keyed_uniform(seed, "glue-delta", i)
    delta = delta_range[0] + (delta_range[1] - delta_range[0]) * float(u01)
    n_layers = int(math.ceil(1.0 / delta))
    h = 1.0 / cells_per_unit
    thickness = 2.0 * math.sqrt(d) * h * 1.2  # margin over the resolvable bound
    dist = 2.0 * n_layers * thickness
    a = side / 2.0 - dist - 1.0
    if a < 0.5:
        raise GlueGeometryError(f"side {side} too small for delta {delta:g}")
    inner = tuple((-a, a) for _ in range(d))
    outer = tuple((-(a + dist), a + dist) for _ in range(d))
    other = tuple((-(a + dist + 0.5), a + dist + 0.5) for _ in range(d))

    fld = sample_field(spec, seed, i)
    grid = cube_grid(d, side, cells_per_unit, components=1)
    gu = ndtri(keyed_uniform(seed, "glue-xi-u", i, np.arange(d)))[None]
    gv = ndtri(keyed_uniform(seed, "glue-xi-v", i, np.arange(d)))[None]
    prob = assemble(fld, grid, gu)
    nodes = np.prod(grid.node_shape)
    mesh = np.stack(np.meshgrid(*[grid.center[j] - 0.5 * side
                                  + grid.h * np.arange(grid.cells + 1)
                                  for j in range(d)], indexing="ij"), axis=-1)
    u = np.tensordot(gu[0], np.moveaxis(mesh, -1, 0), axes=1)[None] * 0.2
    v = np.tensordot(gv[0], np.moveaxis(mesh, -1, 0), axes=1)[None] * 0.2
    noise = keyed_uniform(seed, "glue-noise", i, np.arange(nodes))
    v = v + 0.5 * (noise.reshape(grid.node_shape) - 0.5)[None]
    _, rep = glue_with_cutoff(u, v, prob, inner, outer, other, delta)
    return delta, rep


def _cmd_glue(ctx):
    cfg = ctx.cfg
    n_inst = int(cfg.options.get("n_instances", 20))
    side = float(cfg.options.get("side", 32.0))
    dr = cfg.options.get("delta_range", [0.3, 0.6])

    worst = math.inf
    layer_ok = True
    for i in range(n_inst):
        delta, rep = _glue_instance(cfg.spec, cfg.seed, i, side, cfg.cells_per_unit, dr)
        ctx.rec(realization=i, kind="glue_slack", value=rep.slack,
                flags=f"layers={rep.n_layers}")
        worst = min(worst, rep.slack)
        layer_ok = layer_ok and rep.n_layers == int(math.ceil(1.0 / delta))
    ctx.report["glue"] = {"n_instances": n_inst, "worst_slack": worst,
                          "layer_count_ok": layer_ok}
    ctx.verdict = ctx.verdict and worst >= 0.0 and layer_ok


_DISPATCH = {
    "field-stats": _cmd_field_stats,
    "solve-cell": _cmd_solve_cell,
    "estimate-fhom": _cmd_estimate,
    "verify-bounds": _cmd_verify_bounds,
    "subadditivity": _cmd_subadditivity,
    "stationarity": _cmd_stationarity,
    "recession": _cmd_recession,
    "rank-one": _cmd_rank_one,
    "degenerate-divergence": _cmd_divergence,
    "degenerate-interface": _cmd_interface,
    "glue-check": _cmd_glue,
}


def run(cfg: RunConfig, workers: int = None, out_dir: str = None):
    """Execute a validated config; returns (exit_code, csv_path, summary_path).

    Exit code 0 means every property verdict passed and no estimate was
    flagged; partial results are still written on failure.
    """
    workers = workers if workers is not None else cfg.workers
    out_dir = out_dir or cfg.out_dir or "homlab-out"
    os.makedirs(out_dir, exist_ok=True)
    ctx = _Ctx(cfg, workers, out_dir)
    t0 = time.perf_counter()
    _DISPATCH[cfg.command](ctx)
    wall = time.perf_counter() - t0
    ctx.rec(kind="run", value=None, wall_time_s=wall,
            flags=";".join(ctx.flags))

    base = f"{cfg.command}-{ctx.run_id}"
    csv_path = os.path.join(out_dir, base + ".csv")
    summary_path = os.path.join(out_dir, base + ".summary.json")
    write_csv(csv_path, ctx.records)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "run_id": ctx.run_id,
        "command": cfg.command,
        "verdict": "pass" if ctx.verdict else "fail",
        "flags": list(ctx.flags),
        "config": ctx.cfg.canonical,
        "report": _jsonable(ctx.report),
        "csv": os.path.basename(csv_path),
    }
    if ctx.constants is not None:
        summary["constants"] = _jsonable(ctx.constants)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if ctx.verdict else 1), csv_path, summary_path
