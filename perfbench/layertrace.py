"""Spans and counters at homlab's layer boundaries, installed from outside.

A hook replaces a module attribute through which one layer calls the
next with a wrapper that times the call.  ``solve_cell`` looks up
``homlab.cell.project_radial`` at call time, for example, so rebinding
that attribute times every radial projection without touching the
package source.  Every ``homlab.*`` module attribute bound to the same
function object is rebound, so callers that imported the name directly
(``homlab.runner.solve_cell``) are covered too.

A hook whose target no longer exists is skipped; the metrics it feeds
are then left out of ``layer_metrics`` instead of failing the run.

Solves, assembly and CSV writing get one span each (name, start, end,
parent, thread).  Projections and Poisson solves run once per
iteration, so they are aggregated into the enclosing span as a call
count, a total time and a cell count.  Each thread keeps its own span
stack; a span opened on a pool thread with an empty stack is parented
to the run span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# (home module, attribute, span name, kind).  "span" records one span per
# call; "child" aggregates into the enclosing span; "factor" is a child
# that also wraps the returned sparse factor so its .solve is timed.
HOOKS = (
    ("homlab.cell", "solve_cell", "solve", "span"),
    ("homlab.cell", "cell_problem_on_cube", "assemble", "span"),
    ("homlab.cell", "assemble", "assemble", "span"),
    ("homlab.records", "write_csv", "write_csv", "span"),
    ("homlab.cell", "project_radial", "radial", "child"),
    ("homlab.cell", "project_ellipsoid", "ellipsoid", "child"),
    ("homlab.cell", "splu", "poisson_factor", "factor"),
)

# Per-layer metric -> (unit, the hooks it needs, what it should move).
# The last field is the layer-to-end-to-end map: a change to the layer
# should show in that end-to-end metric on those workloads.  cell.self_s
# is solve time not covered by a hooked child, so it absorbs the work of
# any child whose hook is missing.
LAYER_METRICS = {
    "cell.solves": ("count", ("solve",), "base of certified_frac; all"),
    "cell.certified_frac": ("ratio", ("solve",), "certified_frac; all"),
    "cell.iterations": ("count", ("solve",), "wall_s; iso2d-sandwich, iso3d-cell"),
    "cell.gap_checks": ("count", ("solve",), "wall_s; iso3d-cell"),
    "cell.solve_s": ("s", ("solve",), "wall_s; all"),
    "cell.solve_s_p50": ("s", ("solve",), "wall_s; all"),
    "cell.solve_s_max": ("s", ("solve",), "wall_s; all"),
    "cell.self_s": ("s", ("solve",), "wall_s; iso2d-sandwich"),
    "cell.self_ns_per_cell_iter": ("ns", ("solve",),
                                   "wall_s; iso2d-sandwich, iso3d-cell"),
    "cell.assemble_s": ("s", ("assemble",), "wall_s; iso2d-sandwich"),
    "cell.poisson_factors": ("count", ("poisson_factor",),
                             "wall_s, peak_rss_mb; iso3d-cell"),
    "cell.poisson_factor_s": ("s", ("poisson_factor",),
                              "wall_s, peak_rss_mb; iso3d-cell"),
    "cell.poisson_fill_mnz": ("Mnnz", ("poisson_factor",),
                              "wall_s, peak_rss_mb; iso3d-cell"),
    "cell.poisson_solves": ("count", ("poisson_factor",), "wall_s; iso3d-cell"),
    "cell.poisson_solve_s": ("s", ("poisson_factor",), "wall_s; iso3d-cell"),
    "projections.radial_calls": ("count", ("radial",),
                                 "wall_s; iso2d-sandwich, iso3d-cell"),
    "projections.radial_s": ("s", ("radial",), "wall_s; iso2d-sandwich, iso3d-cell"),
    "projections.radial_ns_per_cell": ("ns", ("radial",),
                                       "wall_s; iso2d-sandwich, iso3d-cell"),
    "projections.ellipsoid_calls": ("count", ("ellipsoid",), "wall_s; aniso2d-ladder"),
    "projections.ellipsoid_s": ("s", ("ellipsoid",), "wall_s; aniso2d-ladder"),
    "projections.ellipsoid_ns_per_cell": ("ns", ("ellipsoid",),
                                          "wall_s; aniso2d-ladder"),
    "runner.cpu_s": ("s", (), "wall_s; iso2d-sandwich-w2"),
    "runner.cpu_util": ("ratio", (), "wall_s; iso2d-sandwich-w2"),
    "runner.solve_concurrency": ("ratio", ("solve",), "wall_s; iso2d-sandwich-w2"),
    "runner.outside_solve_s": ("s", ("solve",), "wall_s; all (small)"),
    "records.write_s": ("s", ("write_csv",), "wall_s; all (small)"),
    "records.csv_bytes": ("bytes", (), "wall_s; all (small)"),
}


class _TimedFactor:
    """Sparse factor whose ``solve`` is timed as a Poisson solve."""

    def __init__(self, factor, tracer):
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._factor.solve(*args, **kwargs)
        finally:
            self._tracer._add_child("poisson_solve", time.perf_counter() - t0, 0)

    def __getattr__(self, name):
        return getattr(self._factor, name)


def _cells(arr) -> int:
    size = 1
    for n in getattr(arr, "shape", ())[2:]:
        size *= n
    return size


class Tracer:
    """Collects spans for one run; install the hooks, run, then read metrics."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.installed = set()
        self.missing = []
        self.root = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # -- hooks -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every hook target that exists; record the ones that do not."""
        for module, attr, name, kind in HOOKS:
            try:
                target = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(target, name, kind)
            for modname, mod in list(sys.modules.items()):
                if modname != "homlab" and not modname.startswith("homlab."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is target:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, target))
            self.installed.add(name)

    def uninstall(self) -> None:
        for mod, key, target in reversed(self._restore):
            setattr(mod, key, target)
        self._restore.clear()

    def _wrap(self, fn, name, kind):
        if kind == "span":
            @functools.wraps(fn)
            def span_wrapper(*args, **kwargs):
                stack = self._stack()
                # assemble calls assemble: time the outermost call only
                if stack and stack[-1]["name"] == name:
                    return fn(*args, **kwargs)
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                    if name == "solve":
                        _record_solve(span, result)
                    return result
                finally:
                    self._close(span)
            return span_wrapper

        @functools.wraps(fn)
        def child_wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._add_child(name, time.perf_counter() - t0,
                                _cells(args[0]) if args else 0)
            if kind == "factor":
                span = self._top()
                # entries the factor stores; reading .L/.U would copy them
                fill = int(result.nnz)
                span["attrs"]["fill_nnz"] = span["attrs"].get("fill_nnz", 0) + fill
                return _TimedFactor(result, self)
            return result
        return child_wrapper

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self) -> dict:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def _open(self, name) -> dict:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else (self.root["id"] if self.root else None)
        span = {"id": next(self._ids), "name": name, "parent": parent,
                "thread": threading.get_ident(), "start": time.perf_counter() - self.t0,
                "end": None, "attrs": {}, "children": {}}
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span["end"] = time.perf_counter() - self.t0
        self._stack().pop()

    def _add_child(self, name, seconds, cells) -> None:
        agg = self._top()["children"].setdefault(name, [0, 0.0, 0])
        agg[0] += 1
        agg[1] += seconds
        agg[2] += cells

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span that parents every other span."""
        self.root = self._open("run")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(self.root)

    # -- metrics -----------------------------------------------------------
    def layer_metrics(self, wall_s: float, cpu_s: float, csv_bytes: int) -> dict:
        """Per-layer metrics of the finished run, leaving out those whose
        hooks could not be installed."""
        solves = [s for s in self.spans if s["name"] == "solve"]
        dur = [s["end"] - s["start"] for s in solves]
        solve_s = sum(dur)

        def child(name, field):
            return sum(s["children"].get(name, (0, 0.0, 0))[field] for s in solves)

        kids = sum(child(k, 1) for k in ("radial", "ellipsoid", "poisson_factor",
                                         "poisson_solve"))
        self_s = solve_s - kids
        cell_iters = sum(s["attrs"].get("cell_iters", 0) for s in solves)

        def per_cell_ns(name):
            cells = child(name, 2)
            return 1e9 * child(name, 1) / cells if cells else 0.0

        values = {
            "cell.solves": len(solves),
            "cell.certified_frac": (sum(bool(s["attrs"].get("converged")) for s in solves)
                                    / len(solves)) if solves else 0.0,
            "cell.iterations": sum(s["attrs"].get("iterations", 0) for s in solves),
            "cell.gap_checks": sum(s["attrs"].get("gap_checks", 0) for s in solves),
            "cell.solve_s": solve_s,
            "cell.solve_s_p50": statistics.median(dur) if dur else 0.0,
            "cell.solve_s_max": max(dur, default=0.0),
            "cell.self_s": self_s,
            "cell.self_ns_per_cell_iter": 1e9 * self_s / cell_iters if cell_iters else 0.0,
            "cell.assemble_s": sum(s["end"] - s["start"] for s in self.spans
                                   if s["name"] == "assemble"),
            "cell.poisson_factors": child("poisson_factor", 0),
            "cell.poisson_factor_s": child("poisson_factor", 1),
            "cell.poisson_fill_mnz": sum(s["attrs"].get("fill_nnz", 0)
                                         for s in solves) / 1e6,
            "cell.poisson_solves": child("poisson_solve", 0),
            "cell.poisson_solve_s": child("poisson_solve", 1),
            "projections.radial_calls": child("radial", 0),
            "projections.radial_s": child("radial", 1),
            "projections.radial_ns_per_cell": per_cell_ns("radial"),
            "projections.ellipsoid_calls": child("ellipsoid", 0),
            "projections.ellipsoid_s": child("ellipsoid", 1),
            "projections.ellipsoid_ns_per_cell": per_cell_ns("ellipsoid"),
            "runner.cpu_s": cpu_s,
            "runner.cpu_util": cpu_s / wall_s,
            "runner.solve_concurrency": solve_s / wall_s,
            "runner.outside_solve_s": wall_s - _union_length(solves),
            "records.write_s": sum(s["end"] - s["start"] for s in self.spans
                                   if s["name"] == "write_csv"),
            "records.csv_bytes": csv_bytes,
        }
        return {k: v for k, v in values.items()
                if self.installed.issuperset(LAYER_METRICS[k][1])}


def _record_solve(span, report) -> None:
    attrs = span["attrs"]
    for key in ("iterations", "gap_checks", "converged"):
        if hasattr(report, key):
            attrs[key] = getattr(report, key)
    grid = getattr(report, "grid", None)
    if grid is not None and "iterations" in attrs:
        attrs["cell_iters"] = (attrs["iterations"] * grid.cells ** grid.dimension
                               * grid.components)


def _union_length(spans) -> float:
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["end"] > end:
            total += s["end"] - max(s["start"], end)
            end = s["end"]
    return total
