"""Guards on the package source, the demo scripts and the suite's own solve audit."""

import ast
import csv
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest
import homlab
import homlab.cell
from homlab import (DistributionSpec, FieldSpec, IidCubes, config, degeneracy, glue,
                    homogenize, integrand, runner, sample_field)
from homlab.config import parse_config, parse_config_dict

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_compiles_with_warnings_as_errors():
    sources = sorted(Path(homlab.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_no_module_reads_the_process_environment():
    # a run's settings come from its config and its flags only
    readers = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, attr) for node in ast.walk(tree)
                 for attr in ("attr", "id", "name") if isinstance(getattr(node, attr, None), str)}
        assert not names & readers, f"{path.name} reads the environment: {names & readers}"


def test_every_list_of_commands_agrees():
    schema = json.loads((Path(homlab.__file__).parent / "schemas" / "summary.schema.json")
                        .read_text(encoding="utf-8"))
    commands = sorted(config.COMMANDS)
    assert len(commands) == len(set(commands))
    assert commands == sorted(config._COMMAND_TABLE)
    assert all(0 <= least and (most is None or least <= most)
               and set(row.reads) <= set(config._READS)
               for row in config._COMMAND_TABLE.values()
               for least, most in (row.slopes, row.sizes))
    assert sorted(runner._DISPATCH) == commands
    assert sorted(schema["properties"]["command"]["enum"]) == commands


def test_each_command_reads_exactly_the_values_its_row_names():
    # a handler that skipped a value its row accepts would drop it unseen,
    # and one that read a value its row rejects would run on a default
    tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for command, row in config._COMMAND_TABLE.items():
        handler = handlers[runner._DISPATCH[command].__name__]
        read = {node.attr for node in ast.walk(handler) if isinstance(node, ast.Attribute)
                and node.attr in (*config._READS, "xi_list")}
        assert read == {"xi_list" if key == "xi" else key for key in row.reads}, command


def test_each_option_is_read_or_forwarded_to_a_parameter_of_its_name():
    # an option neither read nor named by the function it is forwarded to
    # would be accepted and dropped, or stop the run with a TypeError
    tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for command, row in config._COMMAND_TABLE.items():
        handler = handlers[runner._DISPATCH[command].__name__]
        read = {node.slice.value for node in ast.walk(handler) if isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)}
        for call in ast.walk(handler):
            if isinstance(call, ast.Call) and any(
                    kw.arg is None and ast.unparse(kw.value) == "cfg.options"
                    for kw in call.keywords):
                read |= set(inspect.signature(getattr(runner, call.func.id)).parameters)
        assert set(row.options) <= read, (command, set(row.options) - read)


def test_one_call_writes_every_solve_row():
    # a second writer of kind="solve" rows could flag them under another rule
    tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    writers = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and any(kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                       and kw.value.value == "solve" for kw in node.keywords)]
    assert len(writers) == 1, [ast.unparse(call) for call in writers]


def test_one_executor_runs_every_thread():
    # a second pool or thread would run solves outside solve_many's rule
    # for which lattices threads pay
    users = {}
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names
                 if (getattr(node, "module", None) or alias.name).split(".")[0]
                 in ("concurrent", "multiprocessing", "threading")}
        for top in tree.body:
            used = {node.id for node in ast.walk(top)
                    if isinstance(node, ast.Name) and node.id in bound}
            if used:
                owner = getattr(top, "name", None) or ast.unparse(top.targets[0])
                users[f"{path.name}:{owner}"] = used
    assert users == {"cell.py:solve_many": {"ThreadPoolExecutor"}}


def _importers(prefix):
    """'module:top-level name' of every import of a module under ``prefix``."""
    importers = []
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [f"{node.module}.{alias.name}" for alias in node.names]
                         if isinstance(node, ast.ImportFrom) and node.module else [])
                if any(name.startswith(prefix) for name in names):
                    importers.append(f"{path.name}:{getattr(top, 'name', ast.unparse(top))}")
    return importers


def test_only_the_normal_law_helper_imports_scipy_special():
    # scipy.special costs a run about 3.5 MB and 50 ms to load, and only the
    # lognormal law and the random slopes need it
    assert _importers("scipy.special") == ["randomness.py:_special"]


def test_only_the_1d_repair_imports_scipy_sparse():
    # scipy.sparse costs a run about 27 MB and 0.19 s to load, and no repair
    # needs it: splu, which imports it on its first call, is kept only as
    # the frozen benchmark's hook target (perfbench/layertrace.py)
    assert _importers("scipy.sparse") == ["cell.py:splu"]


@pytest.mark.parametrize("d", [2, 3])
def test_growth_constants_draw_the_monte_carlo_table_once(d, monkeypatch):
    # every column-mass probe reads one shared sample: d draws of the whole
    # budget, one per slot, however many probes there are
    sizes = []
    real = integrand.keyed_uniform

    def counting(*key):
        u = real(*key)
        sizes.append(np.size(u))
        return u

    monkeypatch.setattr(integrand, "keyed_uniform", counting)
    laws = (DistributionSpec.uniform(1.0, 2.0),) * (d - 1) + (DistributionSpec.lognormal(0.0, 0.4),)
    gc = integrand.growth_constants(FieldSpec(dimension=d, structure=IidCubes(), diagonal=laws))
    assert gc.C0_method == "probe_mc"
    assert sizes.count(integrand._MC_BUDGET) == d


@pytest.mark.parametrize("d, n", [(3, 24), (2, 128)])
def test_poisson_solver_stores_no_sparse_factor(d, n):
    # a solve needs only the sine matrix and 1 / E; a sparse factor's fill
    # grows far faster with n and set a run's memory
    arrays = homlab.cell._sine_basis(d, n)
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert sum(a.size for a in arrays) <= (n - 1) ** 2 + (n - 1) ** d


def test_projections_hold_no_loop():
    # both projections are closed form: a per-cell iterative solve, such as
    # a Newton loop on a secular equation, costs far more per call
    tree = ast.parse((Path(homlab.__file__).parent / "projections.py").read_text(encoding="utf-8"))
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]


def test_only_run_decides_the_verdict():
    # a handler that set the verdict itself could pass a run its report
    # fails; each returns (passed, n_flagged) for run to apply
    tree = ast.parse(Path(runner.__file__).read_text(encoding="utf-8"))
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "verdict"]
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert {h.name for h in handlers} == {f.__name__ for f in runner._DISPATCH.values()}
    for handler in handlers:
        returns = [node for node in ast.walk(handler) if isinstance(node, ast.Return)]
        if handler.name == "_cmd_field_stats":
            assert returns == []
        else:
            assert handler.body[-1] in returns, handler.name
            assert all(node.value is not None for node in returns), handler.name


def test_no_check_builds_a_slack_from_tol():
    # tol only asks each solve for a certificate; an interval is as wide as
    # the certificate the solve returned, so tol is passed on or stored and
    # never multiplied or added into a quantity
    tree = ast.parse(Path(homogenize.__file__).read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "tol"
            or isinstance(node, ast.Attribute) and node.attr == "tol"]
    assert uses
    for node in uses:
        parent = parents[node]
        assert isinstance(node.ctx, ast.Store) or isinstance(parent, ast.keyword) or (
            isinstance(parent, ast.Call) and node in parent.args), ast.unparse(parent)


def test_every_claim_is_counted_by_decide():
    # a check that counted its own claims could decide by another rule
    counted = {}
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            # each name bound in the function, and whether every binding is decide's
            bound = {}
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
                    by_decide = (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                                 and ast.unparse(node.value.func) == "decide")
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        for elt in ast.walk(target):
                            if isinstance(elt, ast.Name):
                                bound[elt.id] = bound.get(elt.id, True) and by_decide
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "PropertyReport":
                    counts = {kw.arg: kw.value for kw in call.keywords
                              if kw.arg in ("holds", "undecided", "fails")}
                    counted[f"{path.name}:{func.name}"] = len(counts) == 3 and all(
                        isinstance(value, ast.Name) and bound.get(value.id, False)
                        for value in counts.values())
            if func.name == "estimate_f_hom":
                assert "decide" in {ast.unparse(node.func) for node in ast.walk(func)
                                    if isinstance(node, ast.Call)}
    assert counted == {"homogenize.py:_report": True}


def test_one_report_class_carries_a_verdict():
    # a second class with its own `passed` would decide its claims by its own
    # rule; every check returns a PropertyReport, whose claims decide counts
    carriers = []
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            names = set()
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
            if "passed" in names:
                carriers.append(f"{path.name}:{cls.name}")
    assert carriers == ["homogenize.py:PropertyReport"]


# every library entry point that solves, scans or glues, and its count of
# realizations, scans or instances and its cube sizes; the config table holds
# their one default
_SIZED = {homogenize.estimate_f_hom: ("t_list", "n_real"),
          homogenize.verify_growth_sandwich: ("t_list", "n_real"),
          homogenize.check_subadditivity: ("t", "n_real"),
          homogenize.check_stationarity_in_law: ("t", "n_real"),
          homogenize.recession: ("t", "n_real"),
          homogenize.check_rank_one_convexity: ("t", "n_real"),
          degeneracy.divergence_experiment: ("t_list", "n_real"),
          degeneracy.hitting_stats: ("n_scans",),
          glue.glue_check: ("n_instances", "side")}


@pytest.mark.parametrize("func", _SIZED, ids=lambda f: f.__name__)
def test_library_takes_counts_and_sizes_without_a_default(func):
    params = inspect.signature(func).parameters
    for name in _SIZED[func]:
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert params[name].default is inspect.Parameter.empty, name


def test_library_defaults_equal_the_config_defaults():
    # the config table is the one place a default lives: a library default
    # of tol, cells_per_unit, seed or an option that differed from it would
    # run another experiment than the config that leaves the value out
    want = {key: config._VALUES[key].default for key in ("tol", "cells_per_unit", "seed")}
    for row in config._COMMAND_TABLE.values():
        for key, rule in row.options.items():
            assert want.setdefault(key, rule.default) == rule.default, key
    checked = set()
    for path in sorted(Path(homlab.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"homlab.{path.stem}")
        for name, obj in vars(module).items():
            if not ((inspect.isfunction(obj) or dataclasses.is_dataclass(obj))
                    and obj.__module__ == module.__name__):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.name in want and param.default is not inspect.Parameter.empty:
                    assert param.default == want[param.name], (
                        f"{path.stem}.{name}({param.name}={param.default!r}) differs from "
                        f"the config default {want[param.name]!r}")
                    checked.add(param.name)
    # every value with a library default is compared; the rest are required
    assert checked == {"tol", "cells_per_unit", "seed", "observable", "entry", "box",
                       "depth", "z", "s_list", "n_grid", "search_limit"}


def test_audit_sees_every_solve_of_a_threaded_run(tmp_path):
    cfg = parse_config_dict({
        "command": "verify-bounds",
        "field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                  "diagonal": {"kind": "uniform", "a": 1.0, "b": 2.0}},
        "xi": ["e1", "e1+e2"],
        "t_list": [64, 66],  # n = 128 and 132: every solve goes to the pool
        "n_real": 2,
        "tol": 1e-2,
    })
    before = conftest.solve_audit_snapshot()["solves"]
    code, csv_path, _ = runner.run(cfg, workers=2, out_dir=str(tmp_path))
    audited = conftest.solve_audit_snapshot()["solves"] - before
    with open(csv_path, newline="", encoding="utf-8") as fh:
        solve_rows = sum(1 for row in csv.DictReader(fh) if row["kind"] == "solve")
    assert code == 0
    assert solve_rows == 8
    assert audited == solve_rows


@pytest.mark.parametrize("script", sorted(ROOT.glob("demos/*.py")), ids=lambda p: p.name)
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", ["iso2d-sandwich", "aniso2d-ladder", "iso3d-cell", "tiny"])
def test_benchmark_config_matches_its_reference(name, tmp_path, monkeypatch):
    # in-process, at the config's own seed, so the audit sees every solve;
    # the benchmark's own helpers read the CSV and compare the certificates
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("run")
    cfg = parse_config(ROOT / "perfbench" / "configs" / f"{name}.json")
    ref = json.loads((ROOT / "perfbench" / "reference" / f"{name}.json").read_text(
        encoding="utf-8"))
    assert cfg.seed == ref["seed"]
    code, csv_path, _ = runner.run(cfg, workers=1, out_dir=str(tmp_path))
    rows = bench.solve_rows(csv_path)
    assert code == 0
    assert all(gap <= cfg.tol and "flagged" not in flags.split(";")
               for _, gap, flags, _ in rows.values())
    assert bench.reference_problems(rows, ref) == []


_U12, _U14 = DistributionSpec.uniform(1.0, 2.0), DistributionSpec.uniform(1.0, 4.0)


@pytest.mark.parametrize("diagonal, used, unused", [
    ((_U12, _U14), "projections.ellipsoid_calls", "projections.radial_calls"),
    (_U12, "projections.radial_calls", "projections.ellipsoid_calls"),
], ids=["anisotropic", "isotropic"])
def test_layer_trace_sees_one_projection_per_iteration(diagonal, used, unused, monkeypatch):
    # the benchmark's tracer, unmodified, counts the projections solve_cell
    # makes through homlab.cell's module globals; a projection that bypassed
    # them would go uncounted and its time would land in the solver's own
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("layertrace").Tracer()
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=diagonal)
    problem = homlab.cell.cell_problem_on_cube(sample_field(spec, 0), 4.0,
                                               np.array([[1.0, 1.0]]))
    tracer.install()
    try:
        report = tracer.run(homlab.cell.solve_cell, problem)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1.0, 1.0, 0)
    assert metrics["cell.solves"] == 1 and report.converged
    assert metrics[used] == metrics["cell.iterations"] == report.iterations > 0
    assert metrics[unused] == 0
