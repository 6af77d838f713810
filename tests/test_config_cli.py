"""Config parsing, result records, CLI behavior, and rerun determinism."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from homlab import runner
from homlab.cli import main
from homlab.config import (ConfigError, parse_config, parse_config_dict,
                           parse_xi)
from homlab.records import (CSV_COLUMNS, ResultRecord, canonical_csv_bytes,
                            run_id_for, write_csv)


def base_config(**over):
    cfg = {
        "command": "estimate-fhom",
        "field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                  "diagonal": {"kind": "constant", "value": 2.0}},
        "xi": "e1",
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**over)))
    return str(path)


def test_defaults_fill_in():
    cfg = parse_config_dict(base_config())
    assert cfg.tol == 1e-5
    assert cfg.n_real == 50
    assert cfg.t_list == (16.0, 64.0, 256.0)
    assert cfg.seed == 0
    assert cfg.cells_per_unit == 2
    assert cfg.workers == 1
    assert cfg.canonical["schema_version"] == 1
    assert cfg.canonical["tol"] == 1e-5
    assert cfg.canonical["n_real"] == 50
    assert cfg.canonical["seed"] == 0
    assert cfg.xi_labels == ["e1"]
    assert np.array_equal(cfg.xi_list[0], [[1.0, 0.0]])


@pytest.mark.parametrize("over, needle", [
    ({"t_list": [0, 4]}, "t_list"),
    ({"t_list": "all"}, "t_list"),
    ({"n_real": 0}, "n_real"),
    ({"tol": 2.0}, "tol"),
    ({"seed": "zero"}, "seed"),
    ({"workers": 0}, "workers"),
    ({"schema_version": 99}, "schema_version"),
    ({"frobnicate": 1}, "unknown top-level keys"),
    ({"field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                "diagonal": {"kind": "uniform", "a": 1.0}}},
     "missing parameters"),
    ({"field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                "diagonal": {"kind": "uniform", "a": 1.0, "b": 2.0,
                             "c": 3.0}}}, "unknown keys"),
    ({"field": {"dimension": 2, "structure": {"kind": "spiral"},
                "diagonal": {"kind": "constant", "value": 1.0}}},
     "unknown structure kind"),
    ({"field": {"dimension": 2, "structure": {"kind": "iid_cubes"},
                "diagonal": {"kind": "gaussian", "mu": 0.0}}},
     "unknown distribution kind"),
    ({"options": {"bogus": 1}}, "not accepted by command"),
])
def test_each_problem_is_named(over, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(base_config(**over))
    assert any(needle in e for e in exc.value.errors), exc.value.errors


def test_xi_required_or_rejected_by_command():
    cfg = base_config()
    del cfg["xi"]
    with pytest.raises(ConfigError, match="xi: required"):
        parse_config_dict(cfg)
    glue = base_config(command="glue-check", xi="e1")
    with pytest.raises(ConfigError, match="not accepted"):
        parse_config_dict(glue)


def test_all_errors_collected_at_once():
    cfg = base_config(t_list=[-1], n_real=0, tol=5.0, frobnicate=True)
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(cfg)
    assert len(exc.value.errors) >= 4


def test_unknown_command_fails_fast():
    with pytest.raises(ConfigError, match="command: expected one of"):
        parse_config_dict({"command": "launch", "field": {}})


def test_parse_xi_shorthand():
    xi, label = parse_xi("e1", 2)
    assert np.array_equal(xi, [[1.0, 0.0]]) and label == "e1"
    xi, _ = parse_xi("2e1-0.5e2", 2)
    assert np.array_equal(xi, [[2.0, -0.5]])
    xi, _ = parse_xi("e1+e1", 2)
    assert np.array_equal(xi, [[2.0, 0.0]])
    xi, label = parse_xi([[1, 0], [0, 1]], 2)
    assert xi.shape == (2, 2) and label == "[1,0;0,1]"
    xi, _ = parse_xi([1, 0], 2)
    assert xi.shape == (1, 2)
    with pytest.raises(ValueError, match="exceeds dimension"):
        parse_xi("e3", 2)
    with pytest.raises(ValueError, match="cannot parse term"):
        parse_xi("north", 2)
    with pytest.raises(ValueError, match="empty slope"):
        parse_xi("", 2)
    with pytest.raises(ValueError, match="expected an m x 2"):
        parse_xi([[1, 0, 0]], 2)


def test_xi_block_accepts_a_list_of_slopes():
    cfg = parse_config_dict(base_config(xi=["e1", "e1+e2", [[0.5, 0.5]]]))
    assert cfg.xi_labels == ["e1", "e1+e2", "[0.5,0.5]"]
    assert len(cfg.xi_list) == 3
    assert np.array_equal(cfg.xi_list[1], [[1.0, 1.0]])


def test_parse_config_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(p))


def test_run_id_is_stable_and_seed_sensitive():
    rid = run_id_for({"a": 1}, 0)
    assert rid == run_id_for({"a": 1}, 0)
    assert len(rid) == 16 and set(rid) <= set("0123456789abcdef")
    assert rid != run_id_for({"a": 1}, 1)
    assert rid != run_id_for({"a": 2}, 0)


def test_records_roundtrip_and_volatile_columns(tmp_path):
    recs = [
        ResultRecord(run_id="r", command="c", xi_label="e1", t=4.0,
                     realization=1, value=1.5, wall_time_s=0.25,
                     timestamp="now"),
        ResultRecord(run_id="r", command="c", xi_label="e1", t=4.0,
                     realization=0, value=float("nan")),
    ]
    p1 = tmp_path / "a.csv"
    write_csv(p1, recs)
    rows = p1.read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    # sorted by realization, None fields blank, nan spelled out
    assert rows[1].split(",")[5] == "0" and rows[1].split(",")[7] == "nan"
    assert rows[2].split(",")[5] == "1" and rows[2].split(",")[7] == "1.5"

    recs[0].wall_time_s = 99.0
    recs[0].timestamp = "later"
    p2 = tmp_path / "b.csv"
    write_csv(p2, recs)
    assert p1.read_bytes() != p2.read_bytes()
    assert canonical_csv_bytes(p1) == canonical_csv_bytes(p2)


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["estimate-fhom", "--config", missing]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(t_list=[-1])))
    assert main(["estimate-fhom", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    ok = write_config(tmp_path)
    assert main(["solve-cell", "--config", ok]) == 2
    assert "names command" in capsys.readouterr().err


def test_cli_estimate_end_to_end(tmp_path, capsys):
    cfg_path = write_config(tmp_path, t_list=[4, 8], n_real=2)
    out = tmp_path / "out"
    code = main(["estimate-fhom", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict: pass" in printed

    csvs = list(out.glob("estimate-fhom-*.csv"))
    summaries = list(out.glob("estimate-fhom-*.summary.json"))
    assert len(csvs) == 1 and len(summaries) == 1
    summary = json.loads(summaries[0].read_text())
    assert summary["verdict"] == "pass"
    assert summary["report"]["estimates"]["e1"]["value"] == pytest.approx(2.0)
    assert summary["csv"] == csvs[0].name

    schema = json.loads(resources.files("homlab")
                        .joinpath("schemas/summary.schema.json").read_text())
    jsonschema.validate(summary, schema)

    header = csvs[0].read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    estimate_rows = [r for r in csvs[0].read_text().splitlines()
                     if ",estimate," in r]
    assert len(estimate_rows) == 1


def test_cli_seed_override_changes_run_id(tmp_path):
    cfg_path = write_config(tmp_path, t_list=[4], n_real=1)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["estimate-fhom", "--config", cfg_path, "--out",
                 str(out_a)]) == 0
    assert main(["estimate-fhom", "--config", cfg_path, "--seed", "5",
                 "--out", str(out_b)]) == 0
    rid_a = json.loads(next(out_a.glob("*.summary.json")).read_text())["run_id"]
    rid_b = json.loads(next(out_b.glob("*.summary.json")).read_text())["run_id"]
    assert rid_a != rid_b
    assert json.loads(next(out_b.glob("*.summary.json")).read_text()
                      )["config"]["seed"] == 5


UNIFORM = {"dimension": 2, "structure": {"kind": "iid_cubes"},
           "diagonal": {"kind": "uniform", "a": 1.0, "b": 2.0}}
PARETO_LAMINATE = {"dimension": 2, "structure": {"kind": "laminate", "axis": 1},
                   "diagonal": {"kind": "pareto", "x_m": 1.0, "alpha_tail": 1.0}}

# one tiny config for every command that fans out over realizations
FAN_OUT = {
    "estimate-fhom": dict(t_list=[4], n_real=3),
    "solve-cell": dict(t_list=[4], n_real=3, xi=["e1", "e1+e2"]),
    "subadditivity": dict(xi=None, options={"t": 4, "n_instances": 2}),
    "stationarity": dict(t_list=[4], n_real=3, options={"n_matched": 1}),
    "recession": dict(n_real=2, options={"t": 4, "s_list": [1, 2]}),
    "rank-one": dict(xi=None, n_real=2,
                     options={"t": 4, "xi_a": "e1", "xi_b": "e2", "n_grid": 3}),
    "degenerate-divergence": dict(field=PARETO_LAMINATE, xi="e2", t_list=[2, 4],
                                  n_real=2),
    "glue-check": dict(xi=None, options={"n_instances": 3}),
}


@pytest.mark.parametrize("command", list(FAN_OUT))
def test_outputs_identical_across_workers_and_reruns(command, tmp_path, monkeypatch):
    raw = base_config(command=command, **{"field": UNIFORM, **FAN_OUT[command]})
    if raw["xi"] is None:
        del raw["xi"]
    paths = []
    for sub, workers in (("w1", 1), ("w3", 3)):
        cfg = parse_config_dict(raw)
        code, csv_path, _ = runner.run(cfg, workers=workers,
                                       out_dir=str(tmp_path / sub))
        assert code == 0
        paths.append(csv_path)
    assert canonical_csv_bytes(paths[0]) == canonical_csv_bytes(paths[1])

    # the env variable supplies the worker count when --workers is absent
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    monkeypatch.setenv("HOMLAB_WORKERS", "2")
    out_env = tmp_path / "env"
    assert main([command, "--config", str(cfg_path), "--out",
                 str(out_env)]) == 0
    env_csv = next(out_env.glob("*.csv"))
    assert canonical_csv_bytes(env_csv) == canonical_csv_bytes(paths[0])
