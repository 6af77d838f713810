"""Deterministic experiment execution: tasks in, CSV + JSON summary out.

Every command that solves cell problems builds an immutable list of
``SolveTask``s, runs it through ``cell.solve_many`` and records the
reports in task order; a single writer serializes the results, and
``run`` alone decides the verdict.  A property command's handler writes
its rows and summary from the ``PropertyReport`` of one library check
and returns its ``passed`` and ``n_flagged``; no handler decides a claim.
All randomness is keyed, so outputs are byte-identical across worker
counts; only the wall-time and timestamp fields vary between reruns.

Workers are threads.  On a small lattice a solve spends most of its time
in short numpy calls that hold the GIL, so ``solve_many`` gives the pool
only solves on lattices large enough for threads to pay and runs the rest,
the solves of most runs, in the calling thread.  A solve in a child
process would escape every in-process hook on ``homlab.cell.solve_cell``
(the test suite's certificate audit, the benchmark's tracer), so threads
stay.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from datetime import datetime, timezone

import numpy as np

from .cell import SolveTask, save_minimizer, solve_many
from .config import RunConfig
from .degeneracy import (cheap_interface, divergence_experiment, hitting_stats,
                         interface_limit_check)
from .fields import birkhoff_average, sample_field
from .glue import glue_check
from .homogenize import (check_rank_one_convexity, check_stationarity_in_law,
                         check_subadditivity, estimate_f_hom, recession,
                         verify_growth_sandwich)
from .integrand import growth_constants
from .records import ResultRecord, run_id_for, write_csv
from .stats import sample_std

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

    def rec(self, **kw):
        kw.setdefault("run_id", self.run_id)
        kw.setdefault("command", self.cfg.command)
        kw.setdefault("xi_label", "")
        kw.setdefault("timestamp", self.timestamp)
        self.records.append(ResultRecord(**kw))


def _summary(rep, *details) -> dict:
    """What the summary keeps of a PropertyReport: its counts and verdict,
    and the named entries of its details."""
    return {**{k: getattr(rep, k) for k in ("holds", "undecided", "fails", "passed",
                                            "n_flagged")},
            **{k: rep.details[k] for k in details}}


def _solve_row(ctx, label, t, r, value, gap, iterations, certified, wall_time_s=None):
    """Record one solve, flagged if uncertified and flagged;nonfinite if also not finite."""
    value, gap = float(value), float(gap)
    finite = math.isfinite(value) and math.isfinite(gap)
    ctx.rec(xi_label=label, t=t, realization=r, kind="solve", value=value, gap=gap,
            iterations=int(iterations), wall_time_s=wall_time_s,
            flags="" if certified else "flagged" if finite else "flagged;nonfinite")


def _estimate_records(ctx, label, est):
    """Record an estimate's solves, levels and value; an estimate whose last
    two levels disagree is flagged ``trend_inconsistent``, in the run's
    flags too."""
    for lv in est.levels:
        for r, solve in enumerate(zip(lv.values, lv.gaps, lv.iterations, lv.certified)):
            _solve_row(ctx, label, lv.t, r, *solve)
        ctx.rec(xi_label=label, t=lv.t, kind="level_mean", value=lv.mean,
                std=sample_std(lv.values) if lv.values.size > 1 else None,
                ci_half=lv.ci_half,
                flags=f"n_flagged={lv.n_flagged}" if lv.n_flagged else "")
    flag = "" if est.trend_consistent else "trend_inconsistent"
    ctx.rec(xi_label=label, kind="estimate", value=est.value, ci_half=est.ci_half, flags=flag)
    if flag:
        ctx.flags.append(f"{label}:{flag}")


def _cmd_field_stats(ctx):
    cfg = ctx.cfg
    ctx.constants = growth_constants(cfg.spec)
    obs = cfg.options["observable"]
    fld = sample_field(cfg.spec, cfg.seed, 0)
    for t, avg in birkhoff_average(fld, cfg.t_list, observable=obs, box=cfg.options["box"],
                                   entry=cfg.options["entry"]):
        ctx.rec(t=t, kind=f"birkhoff_{obs}", value=float(avg))
    ctx.flags.extend(ctx.constants.flags)


def _cmd_solve_cell(ctx):
    cfg = ctx.cfg
    t = cfg.t_list[0]
    n_real = cfg.spec.realizations(cfg.n_real)

    keys = [(label, r) for label in cfg.xi_labels for r in range(n_real)]
    tasks = [SolveTask(cfg.spec, cfg.seed, r, t, xi, cells_per_unit=cfg.cells_per_unit,
                       tol=cfg.tol) for xi in cfg.xi_list for r in range(n_real)]
    n_flagged = 0
    for (label, r), rep in zip(keys, solve_many(tasks, ctx.workers)):
        _solve_row(ctx, label, t, r, rep.normalized, rep.gap, rep.iterations, rep.converged,
                   wall_time_s=rep.wall_time)
        n_flagged += not rep.converged
        if r == 0 and cfg.options["save_minimizer"]:
            path = os.path.join(ctx.out_dir,
                                f"minimizer-{ctx.run_id}-{label}.npy")
            save_minimizer(rep, path)
    ctx.report["worst_gap"] = np.max([rec.gap for rec in ctx.records])  # NaN wins
    ctx.report["t"] = t
    return n_flagged == 0, n_flagged


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
    ctx.report["estimates"] = out
    ctx.constants = growth_constants(cfg.spec)
    n_flagged = sum(lv.n_flagged for est in out.values() for lv in est.levels)
    return n_flagged == 0, n_flagged


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
    ctx.report["sandwich"] = {"n_instances": rep.n_instances, **_summary(rep)}
    return rep.passed, rep.n_flagged


def _cmd_subadditivity(ctx):
    cfg = ctx.cfg
    rep = check_subadditivity(cfg.spec, *cfg.xi_list, t=cfg.t_list[0], n_real=cfg.n_real,
                              seed=cfg.seed, tol=cfg.tol, cells_per_unit=cfg.cells_per_unit,
                              workers=ctx.workers, **cfg.options)
    for i, s in enumerate(rep.details["slacks"]):
        ctx.rec(xi_label=cfg.xi_labels[0] if cfg.xi_labels else "random",
                t=rep.details["t"], realization=i, kind="subadd_slack",
                value=float(s))
    ctx.report["subadditivity"] = _summary(rep)
    return rep.passed, rep.n_flagged


def _cmd_stationarity(ctx):
    cfg = ctx.cfg
    label, xi = cfg.xi_labels[0], cfg.xi_list[0]
    rep = check_stationarity_in_law(
        cfg.spec, xi, t=cfg.t_list[0], n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
        cells_per_unit=cfg.cells_per_unit, workers=ctx.workers, **cfg.options)
    ctx.rec(xi_label=label, kind="matched_max_diff", value=rep.details["matched_max_diff"])
    ctx.rec(xi_label=label, kind="two_sample_stat",
            value=rep.details["two_sample"].statistic)
    ctx.report["stationarity"] = _summary(rep, "matched_max_diff", "two_sample")
    return rep.passed, rep.n_flagged


def _cmd_recession(ctx):
    cfg = ctx.cfg
    label, xi = cfg.xi_labels[0], cfg.xi_list[0]
    rep = recession(cfg.spec, xi, t=cfg.t_list[0], n_real=cfg.n_real, seed=cfg.seed,
                    tol=cfg.tol, cells_per_unit=cfg.cells_per_unit, workers=ctx.workers,
                    **cfg.options)
    ray = rep.details
    for s, mean, ci in zip(ray["s_list"], ray["means"], ray["ci_halves"]):
        ctx.rec(xi_label=label, kind=f"ray_mean:s={s:g}", value=float(mean),
                ci_half=float(ci))
    ctx.report["recession"] = _summary(rep, "s_list", "means", "mode")
    return rep.passed, rep.n_flagged


def _cmd_rank_one(ctx):
    cfg = ctx.cfg
    (xi_a, xi_b), (la, lb) = cfg.xi_list, cfg.xi_labels
    rep = check_rank_one_convexity(
        cfg.spec, xi_a, xi_b, t=cfg.t_list[0],
        n_grid=cfg.options["n_grid"], n_real=cfg.n_real,
        seed=cfg.seed, tol=cfg.tol, cells_per_unit=cfg.cells_per_unit,
        workers=ctx.workers)
    for lam, mean in zip(rep.details["lambdas"], rep.details["means"]):
        ctx.rec(xi_label=f"{la}|{lb}", kind=f"segment_mean:lambda={lam:g}",
                value=float(mean))
    ctx.report["rank_one"] = _summary(rep)
    return rep.passed, rep.n_flagged


def _cmd_divergence(ctx):
    cfg = ctx.cfg
    rep = divergence_experiment(cfg.spec, *cfg.xi_list, t_list=cfg.t_list,
                                n_real=cfg.n_real, seed=cfg.seed, tol=cfg.tol,
                                cells_per_unit=cfg.cells_per_unit,
                                workers=ctx.workers)
    label = cfg.xi_labels[0] if cfg.xi_labels else "e_transverse"
    div = rep.details
    for t, mean, ci, jb in zip(div["t_list"], div["means"], div["ci_halves"],
                               div["jensen_bounds"]):
        ctx.rec(xi_label=label, t=t, kind="mean", value=float(mean),
                ci_half=float(ci))
        ctx.rec(xi_label=label, t=t, kind="jensen_bound", value=float(jb))
    ctx.report["divergence"] = _summary(rep, "xi", "t_list", "means", "ci_halves",
                                        "jensen_bounds", "jensen_margin",
                                        "strictly_increasing", "growth_ratio", "heavy_tail")
    return rep.passed, rep.n_flagged


def _cmd_interface(ctx):
    cfg = ctx.cfg
    opts = cfg.options
    deltas, limit, n_scans = opts["delta_list"], opts["search_limit"], opts["n_scans"]
    probes = [cheap_interface(cfg.spec, d, seed=cfg.seed, index=0,
                              search_limit=limit) for d in deltas]
    stats = [hitting_stats(cfg.spec, d, n_scans=n_scans, seed=cfg.seed, search_limit=limit)
             for d in deltas] if n_scans > 0 else []
    rep = interface_limit_check(probes, stats)
    for p in rep.details["probes"]:
        ctx.rec(xi_label=f"delta={p.delta:g}", kind="probe_energy",
                value=p.energy, flags="" if p.success else "no_hit")
        ctx.rec(xi_label=f"delta={p.delta:g}", kind="probe_l1", value=p.l1_distance)
    for hs in rep.details["hitting"]:
        ctx.rec(xi_label=f"delta={hs.delta:g}", kind="hitting_z", value=hs.z_score)
    ctx.report["interface_limit"] = _summary(rep, "probes", "hitting")
    return rep.passed, rep.n_flagged


def _cmd_glue(ctx):
    cfg = ctx.cfg
    rep = glue_check(cfg.spec, seed=cfg.seed, cells_per_unit=cfg.cells_per_unit, **cfg.options)
    for i, (slack, layers) in enumerate(zip(rep.details["slacks"], rep.details["n_layers"])):
        ctx.rec(realization=i, kind="glue_slack", value=float(slack),
                flags=f"layers={layers}" + ("" if math.isfinite(slack) else ";nonfinite"))
    ctx.report["glue"] = {"n_instances": rep.n_instances, **_summary(rep),
                          "worst_slack": np.min(rep.details["slacks"])}  # NaN wins
    return rep.passed, rep.n_flagged


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


def run(cfg: RunConfig, workers: int = 1, out_dir: str = None):
    """Execute a validated config; returns (exit_code, csv_path, summary_path).

    Each command handler returns ``(passed, n_flagged)``, its verdict and
    its count of uncertified solves (``field-stats`` returns None and
    passes); only this function reads them, adding the run flag
    ``n_flagged=K`` when K > 0 and setting the summary's verdict and the
    exit code (0 pass, 1 fail).  Every command that solves fails on any
    uncertified solve: ``solve-cell`` and ``estimate-fhom`` by their count,
    the others by their ``PropertyReport``.  ``trend_inconsistent`` alone
    exits 0.  Partial results are still written on failure.
    """
    out_dir = out_dir or "homlab-out"
    os.makedirs(out_dir, exist_ok=True)
    ctx = _Ctx(cfg, workers, out_dir)
    t0 = time.perf_counter()
    passed, n_flagged = _DISPATCH[cfg.command](ctx) or (True, 0)
    if n_flagged:
        ctx.flags.append(f"n_flagged={n_flagged}")
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
        "verdict": "pass" if passed else "fail",
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
    return (0 if passed else 1), csv_path, summary_path
