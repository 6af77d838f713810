"""Output format of the benchmark: names, units and presence, never timings.

    python3 -m pytest perfbench -q

Runs ``run.py`` on the ``tiny`` workload (one small 2-d solve-cell
config), so it takes a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert out["failed"] == 0
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    return out


def test_untraced_run_reports_every_end_to_end_metric():
    out = _result(_bench("--workload", "tiny", "--seed", "1", "--seconds", "1",
                         "--trace", "0"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = _result(_bench("--workload", "tiny", "--seed", "1", "--seconds", "1",
                         "--trace", "1"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["metrics"]["cell.solves"]["value"] == 2


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in run.WORKLOADS if w != "tiny"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_check_uses_certificate_width():
    ref = {"dimension": 2, "solves": [["e1", 4.0, 0, 1.5, 1e-5]]}
    # at t=4, d=2 the certified interval is [1.5 - 1.5e-5, 1.5]
    assert run.reference_problems({("e1", 4.0, 0): (1.5 - 1e-5, 1e-6, "", 1)}, ref) == []
    assert run.reference_problems({("e1", 4.0, 0): (1.5 - 1e-4, 1e-6, "", 1)}, ref)
    assert run.reference_problems({("e1", 8.0, 0): (1.5, 1e-6, "", 1)}, ref)


def test_missing_hook_target_drops_its_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    import homlab.cell
    from homlab import DistributionSpec, FieldSpec, IidCubes, sample_field

    monkeypatch.delattr(homlab.cell, "splu")
    tracer = Tracer()
    tracer.install()
    try:
        spec = FieldSpec(dimension=2, structure=IidCubes(),
                         diagonal=DistributionSpec.uniform(1.0, 2.0))
        prob = tracer.run(homlab.cell.cell_problem_on_cube, sample_field(spec, 0, 0), 2.0,
                          np.array([[1.0, 0.0]]))
    finally:
        tracer.uninstall()
    assert tracer.missing == ["homlab.cell.splu"]
    metrics = tracer.layer_metrics(1.0, 1.0, 0)
    assert "cell.poisson_factor_s" not in metrics
    assert metrics["cell.assemble_s"] > 0 and metrics["cell.solves"] == 0
    assert prob.lam.shape == (2, 4, 4)
