"""Guards on the package source and on the suite's own solve audit."""

import csv
import warnings
from pathlib import Path

import conftest
import homlab
from homlab import runner
from homlab.config import parse_config_dict


def test_every_module_compiles_with_warnings_as_errors():
    sources = sorted(Path(homlab.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_audit_sees_every_solve_of_a_threaded_run(tmp_path):
    cfg = parse_config_dict({
        "command": "verify-bounds",
        "field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                  "diagonal": {"kind": "uniform", "a": 1.0, "b": 2.0}},
        "xi": ["e1", "e1+e2"],
        "t_list": [2, 4],
        "n_real": 2,
    })
    before = conftest.solve_audit_snapshot()["solves"]
    code, csv_path, _ = runner.run(cfg, workers=2, out_dir=str(tmp_path))
    audited = conftest.solve_audit_snapshot()["solves"] - before
    with open(csv_path, newline="", encoding="utf-8") as fh:
        solve_rows = sum(1 for row in csv.DictReader(fh) if row["kind"] == "solve")
    assert code == 0
    assert solve_rows == 8
    assert audited == solve_rows
