"""Config parsing, result records, CLI behavior, and rerun determinism."""

import csv
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import conftest
from homlab import (birkhoff_average, cell_problem_on_cube, cheap_interface,
                    interface_limit_check, load_minimizer, runner, sample_field, solve_cell)
from homlab.cli import main
from homlab.config import (COMMANDS, ConfigError, parse_config, parse_config_dict,
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


# the options each command accepts, the commands that take xi, the
# commands that read one cube size, and the top-level values each reads
OPTION_KEYS = {
    "field-stats": {"observable", "entry", "box"},
    "solve-cell": {"save_minimizer"},
    "estimate-fhom": set(),
    "verify-bounds": set(),
    "subadditivity": {"depth"},
    "stationarity": {"z"},
    "recession": {"s_list"},
    "rank-one": {"n_grid"},
    "degenerate-divergence": set(),
    "degenerate-interface": {"delta_list", "search_limit", "n_scans"},
    "glue-check": {"n_instances", "side", "delta_range"},
}
XI_COMMANDS = {"solve-cell", "estimate-fhom", "verify-bounds", "subadditivity",
               "stationarity", "recession", "rank-one", "degenerate-divergence"}
ONE_SIZE = {"solve-cell", "subadditivity", "stationarity", "recession", "rank-one"}
_SOLVES = {"t_list", "n_real", "tol", "cells_per_unit"}
READS = {**{c: _SOLVES | {"xi"} for c in XI_COMMANDS}, "field-stats": {"t_list"},
         "degenerate-interface": set(), "glue-check": {"cells_per_unit"}}


def test_defaults_fill_in():
    cfg = parse_config_dict(base_config())
    assert cfg.tol == 1e-5
    assert cfg.n_real == 50
    assert cfg.t_list == (16.0, 64.0, 256.0)
    assert cfg.seed == 0
    assert cfg.cells_per_unit == 2
    assert cfg.canonical["schema_version"] == 1
    assert cfg.canonical["tol"] == 1e-5
    assert cfg.canonical["n_real"] == 50
    assert cfg.canonical["seed"] == 0
    assert cfg.xi_labels == ["e1"]
    assert np.array_equal(cfg.xi_list[0], [[1.0, 0.0]])

    # every command's options come back whole, defaults filled in
    for command, keys in OPTION_KEYS.items():
        raw = _malformed(command)
        if "t_list" in raw and command not in ONE_SIZE:
            raw["t_list"] = [4, 8]
        if command.startswith("degenerate-"):
            raw["field"] = PARETO_LAMINATE  # the only field they accept
            raw.pop("xi", None)  # e1 runs along its lamination axis
        cfg = parse_config_dict(raw)
        assert set(cfg.options) == keys, command
        if command in ONE_SIZE:
            assert cfg.t_list == (4.0,) and isinstance(cfg.t_list[0], float)
    sub = parse_config_dict(_malformed("subadditivity", n_real=3))
    assert sub.options == {"depth": 1}
    assert (sub.t_list, sub.n_real) == ((4.0,), 3)
    rank = parse_config_dict(_malformed("rank-one", xi=["e1", [0, 1]]))
    assert rank.xi_labels == ["e1", "[0,1]"]
    assert np.array_equal(rank.xi_list[1], [[0.0, 1.0]])


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
    ({"field": 3}, "field: required, as an object"),
    ({"field": {**base_config()["field"], "colour": "red"}}, "field: unknown keys ['colour']"),
    ({"field": {k: v for k, v in base_config()["field"].items() if k != "dimension"}},
     "field.dimension: required"),
    ({"options": []}, "options: expected an object"),
    ({"xi": 3}, "xi: expected a slope or a list of slopes"),
    ([], "config root must be a JSON object"),
])
def test_each_problem_is_named(over, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(base_config(**over) if isinstance(over, dict) else over)
    assert any(needle in e for e in exc.value.errors), exc.value.errors


def test_each_law_error_is_reported_once():
    field = {**UNIFORM, "diagonal": {"kind": "uniform", "a": 2.0, "b": 1.0},
             "lower_order": {"kind": "pareto", "x_m": 0.0, "alpha_tail": 1.0}}
    for structure, extra in (({"kind": "iid_cubes"}, 0),
                             ({"kind": "laminate", "axis": 3}, 1),
                             ({"kind": "spiral"}, 1),
                             (None, 1)):
        raw = base_config(field={**field, "structure": structure})
        if structure is None:
            del raw["field"]["structure"]
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(raw)
        errors = exc.value.errors
        assert len(errors) == 2 + extra, errors
        assert sum("structure" in e for e in errors) == extra, errors
        for needle in ("b > a", "x_m > 0"):
            assert sum(needle in e for e in errors) == 1, errors
    # a law that does not parse is reported once too, and its siblings checked
    bad = {"kind": "uniform", "a": 1.0}
    for diagonal, want in ((bad, 2), ([bad, field["diagonal"]], 3)):
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(base_config(field={**field, "diagonal": diagonal}))
        errors = exc.value.errors
        assert len(errors) == want, errors
        assert sum("missing parameters" in e for e in errors) == 1, errors


def test_xi_required_or_rejected_by_command():
    cfg = base_config()
    del cfg["xi"]
    with pytest.raises(ConfigError, match="xi: required"):
        parse_config_dict(cfg)
    glue = base_config(command="glue-check", xi="e1")
    with pytest.raises(ConfigError, match="not accepted"):
        parse_config_dict(glue)
    rank = base_config(command="rank-one", xi=["e1", "e2", "e1+e2"], t_list=[4])
    with pytest.raises(ConfigError, match="xi: command 'rank-one' takes exactly 2, got 3"):
        parse_config_dict(rank)


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


@pytest.mark.parametrize("command, key, value", [
    ("solve-cell", "t_list", "four"),
    ("solve-cell", "t_list", True),
    ("subadditivity", "depth", "1"),
])
def test_cli_rejects_wrong_typed_option(tmp_path, capsys, command, key, value):
    where = "" if key == "t_list" else "options."
    over = {key: value} if key == "t_list" else {"options": {key: value}}
    path = write_config(tmp_path, command=command, **{"t_list": [4], "n_real": 1, **over})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {where}{key}: expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
CHEAP_LAMINATE = {**PARETO_LAMINATE, "diagonal": {"kind": "uniform", "a": 0.0, "b": 1.0}}
ANISO_3D = {"dimension": 3, "structure": {"kind": "iid_cubes"},
            "diagonal": [{"kind": "uniform", "a": 1.0, "b": 2.0},
                         {"kind": "uniform", "a": 1.0, "b": 4.0},
                         {"kind": "uniform", "a": 1.0, "b": 2.0}]}

# one tiny config for every command
FAN_OUT = {
    "field-stats": dict(xi=None, t_list=[4, 8]),
    "estimate-fhom": dict(t_list=[4], n_real=3),
    "verify-bounds": dict(t_list=[4], n_real=2),
    "solve-cell": dict(t_list=[4], n_real=3, xi=["e1", "e1+e2"]),
    "subadditivity": dict(xi=None, t_list=[4], n_real=2),
    "stationarity": dict(t_list=[4], n_real=3),
    "recession": dict(t_list=[4], n_real=2, options={"s_list": [1, 2]}),
    "rank-one": dict(xi=["e1", "e2"], t_list=[4], n_real=2, options={"n_grid": 3}),
    "degenerate-divergence": dict(field=PARETO_LAMINATE, xi="e2", t_list=[2, 4],
                                  n_real=2),
    "degenerate-interface": dict(field=CHEAP_LAMINATE, xi=None,
                                 options={"delta_list": [0.1, 0.01], "n_scans": 20}),
    "glue-check": dict(xi=None, options={"n_instances": 3}),
}


def test_fan_out_runs_every_command():
    assert set(FAN_OUT) == set(COMMANDS)


def _fan_out(command, **over):
    """The parsed FAN_OUT config of ``command``, with the values ``over``."""
    raw = base_config(command=command, **{"field": UNIFORM, **FAN_OUT[command], **over})
    if raw["xi"] is None:
        del raw["xi"]
    return parse_config_dict(raw)


# every tiny config, whose solves all stay in the calling thread, one
# ladder whose t=64 solves (n = 128) are large enough for the thread pool,
# and anisotropic 3-d solves (n = 20, 3 * 21^3 = 27783 dual entries) that
# run side by side on pool threads, each with its own projection scratch
@pytest.mark.parametrize("command, over, workers", [
    *(pytest.param(command, {}, 3, id=command) for command in FAN_OUT),
    pytest.param("estimate-fhom", dict(t_list=[4, 64], n_real=2, tol=1e-2), 2,
                 id="estimate-fhom-pooled"),
    pytest.param("estimate-fhom", dict(field=ANISO_3D, t_list=[10], n_real=2, tol=1e-3), 2,
                 id="estimate-fhom-aniso-pooled"),
])
def test_outputs_identical_across_workers_and_reruns(command, over, workers, tmp_path):
    paths = []
    for sub, count in (("w1", 1), (f"w{workers}", workers)):
        code, csv_path, _ = runner.run(_fan_out(command, **over), workers=count,
                                       out_dir=str(tmp_path / sub))
        assert code == 0
        paths.append(csv_path)
    assert canonical_csv_bytes(paths[0]) == canonical_csv_bytes(paths[1])


def test_interface_summary_keeps_the_terms_a_probe_can_fail(tmp_path):
    code, _, summary_path = runner.run(_fan_out("degenerate-interface"), out_dir=str(tmp_path))
    limit = json.loads(Path(summary_path).read_text())["report"]["interface_limit"]
    assert code == 0 and limit["passed"] is True
    assert set(limit) == {"holds", "undecided", "fails", "passed", "n_flagged", "probes",
                          "hitting"}
    # every probe keeps its delta, hit index and hit weight
    assert all({"delta", "k_index", "energy"} <= set(p) for p in limit["probes"])


@pytest.mark.parametrize("command", ["recession", "rank-one", "stationarity",
                                     "subadditivity", "degenerate-divergence",
                                     "solve-cell", "estimate-fhom", "verify-bounds"])
def test_uncertified_solve_fails_the_run_and_is_flagged(command, tmp_path,
                                                        second_solve_uncertified):
    code, _, summary_path = runner.run(_fan_out(command), out_dir=str(tmp_path))
    summary = json.loads(Path(summary_path).read_text())
    assert code == 1 and summary["verdict"] == "fail"
    assert "n_flagged=1" in summary["flags"]
    assert not [f for f in summary["flags"] if f.startswith("flagged_solve:")]


@pytest.mark.parametrize("delta", [0.01, 0.5])
def test_interface_run_fails_when_a_scan_finds_no_hit(delta, tmp_path):
    # one cell per scan: at delta 0.01 the probe and every scan miss; at 0.5
    # the probe hits and some scans miss, so the hitting verdict alone fails
    cfg = _fan_out("degenerate-interface",
                   options={"delta_list": [delta], "search_limit": 1, "n_scans": 20})
    code, _, summary_path = runner.run(cfg, out_dir=str(tmp_path))
    summary = json.loads(Path(summary_path).read_text())
    limit = summary["report"]["interface_limit"]
    (probe,), (hitting,) = limit["probes"], limit["hitting"]
    assert code == 1 and summary["verdict"] == "fail"
    # the check decides the probe alone to pass only at 0.5, where it hits
    assert probe["k_index"] == (-1 if delta == 0.01 else 0)
    alone = cheap_interface(cfg.spec, delta, seed=cfg.seed, search_limit=1)
    assert interface_limit_check([alone], []).passed is (delta == 0.5)
    if delta == 0.01:
        assert (hitting["n_failed"], hitting["mean_observed"], hitting["z_score"]) == (
            20, "nan", "inf")
    else:
        assert 0 < hitting["n_failed"] < 20


def test_field_stats_averages_over_its_box(tmp_path):
    box = [[0.0, 0.5], [0.25, 1.0]]
    cfg = _fan_out("field-stats", options={"box": box})
    code, csv_path, summary_path = runner.run(cfg, out_dir=str(tmp_path))
    with open(csv_path, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["kind"] == "birkhoff_entry"]
    want = birkhoff_average(sample_field(cfg.spec, cfg.seed, 0), [4, 8], observable="entry",
                            box=box, entry=0)
    assert code == 0
    assert [(float(r["t"]), float(r["value"])) for r in rows] == want
    # the growth constants are written once, at the summary's top level
    summary = json.loads(Path(summary_path).read_text())
    assert summary["report"] == {} and summary["constants"]["C1"] == 0.0


def test_summary_takes_numpy_scalars():
    out = runner._jsonable({"n": np.int64(3), "ok": np.bool_(True)})
    assert out == {"n": 3, "ok": True}
    assert (type(out["n"]), type(out["ok"])) == (int, bool)


def test_verify_bounds_fails_on_an_estimate_with_uncertified_solves(tmp_path,
                                                                   second_solve_uncertified):
    # one of the two solves at t=4 is uncertified, and its claims still hold
    raw = base_config(command="verify-bounds", field=UNIFORM, xi="e1", t_list=[4], n_real=2)
    code, _, summary_path = runner.run(parse_config_dict(raw), out_dir=str(tmp_path))
    summary = json.loads(Path(summary_path).read_text())
    sandwich = summary["report"]["sandwich"]
    assert code == 1 and summary["verdict"] == "fail"
    assert summary["flags"] == ["n_flagged=1"]
    assert (sandwich["fails"], sandwich["n_flagged"], sandwich["passed"]) == (0, 1, False)


def test_one_uncertified_solve_in_eleven_fails_the_estimate(tmp_path, monkeypatch):
    # an estimate used to drop up to 10% of a level's solves and pass; now
    # the run fails, and the level's mean and interval include the solve
    raw = base_config(command="estimate-fhom", field=UNIFORM, xi="e1", t_list=[4], n_real=11)
    code, _, clean_path = runner.run(parse_config_dict(raw), out_dir=str(tmp_path / "clean"))
    assert code == 0
    conftest.uncertify_solves(monkeypatch, {3})
    code, csv_path, summary_path = runner.run(parse_config_dict(raw),
                                              out_dir=str(tmp_path / "flagged"))
    summary = json.loads(Path(summary_path).read_text())
    assert code == 1 and summary["verdict"] == "fail"
    assert summary["flags"] == ["n_flagged=1"]
    (level,) = summary["report"]["estimates"]["e1"]["levels"]
    (clean,) = json.loads(Path(clean_path).read_text())["report"]["estimates"]["e1"]["levels"]
    assert level["n_flagged"] == 1 and level["certified"].count(False) == 1
    assert len(level["values"]) == 11
    for key in ("values", "mean", "ci_half", "lower", "upper"):
        assert level[key] == clean[key], key
    rows = list(csv.DictReader(Path(csv_path).read_text().splitlines()))
    assert [r["flags"] for r in rows if r["kind"] == "level_mean"] == ["n_flagged=1"]


def test_outputs_depend_on_the_experiment_only(tmp_path):
    # neither the worker count nor the output directory reaches a file
    path = write_config(tmp_path, t_list=[4], n_real=3)
    outputs = []
    for out, workers in (("a", "1"), ("b", "2")):
        out = tmp_path / out
        assert main(["estimate-fhom", "--config", path, "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append((sorted(p.name for p in out.iterdir()),
                        canonical_csv_bytes(next(out.glob("*.csv"))),
                        next(out.glob("*.summary.json")).read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_cell_saves_one_minimizer_per_slope(tmp_path):
    raw = base_config(command="solve-cell", field=UNIFORM, xi=["e1", [[1, 0], [0, 1]]],
                      t_list=[4], n_real=2, options={"save_minimizer": True})
    cfg = parse_config_dict(raw)
    rid = run_id_for(cfg.canonical, cfg.seed)
    dumps = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code, _, _ = runner.run(cfg, workers=workers, out_dir=str(out))
        assert code == 0
        names = sorted(p.name for p in out.glob("minimizer-*"))
        assert names == sorted(f"minimizer-{rid}-{label}.npy{ext}"
                               for label in ("e1", "[1,0;0,1]") for ext in ("", ".json"))
        dumps.append({p.name: p.read_bytes() for p in out.glob("minimizer-*")})
        for label, xi in zip(cfg.xi_labels, cfg.xi_list):
            # realization 0 only, as a direct solve of the same task
            rep = solve_cell(cell_problem_on_cube(sample_field(cfg.spec, cfg.seed, 0),
                                                  4.0, xi, cfg.cells_per_unit), tol=cfg.tol)
            sidecar, data = load_minimizer(out / f"minimizer-{rid}-{label}.npy")
            assert data.tobytes() == rep.minimizer.tobytes()
            assert data.shape == rep.minimizer.shape
            assert (sidecar["primal"], sidecar["dual"], sidecar["gap"]) == (
                rep.primal, rep.dual, rep.gap)
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("command", ["solve-cell", "estimate-fhom", "verify-bounds"])
def test_solve_cell_flags_a_nonfinite_solve(command, tmp_path):
    # the lower-order total overflows: every command's solve stops at its
    # first check, uncertified, and its row says why; the estimates take
    # both inf values into their statistics without a numpy warning
    field = dict(UNIFORM, lower_order={"kind": "constant", "value": 1e308})
    raw = base_config(command=command, field=field, xi="e1", t_list=[4], n_real=2)
    code, csv_path, summary_path = runner.run(parse_config_dict(raw), out_dir=str(tmp_path))
    rows = list(csv.DictReader(Path(csv_path).read_text().splitlines()))
    assert code == 1
    assert [(r["value"], r["gap"], r["iterations"], r["flags"])
            for r in rows if r["kind"] == "solve"] == [("inf", "nan", "0", "flagged;nonfinite")] * 2
    assert "n_flagged=2" in json.loads(Path(summary_path).read_text())["flags"]
    if command != "solve-cell":
        (level,) = [r for r in rows if r["kind"] == "level_mean"]
        assert (level["value"], level["std"], level["ci_half"]) == ("inf", "nan", "nan")
    if command == "solve-cell":
        summary = json.loads(Path(summary_path).read_text())
        assert summary["report"]["worst_gap"] == "nan"


def test_solve_cell_solves_a_periodic_field_once(tmp_path):
    # a periodic field is deterministic, so its realizations are one problem
    tile = {"dimension": 2, "structure": {"kind": "periodic", "tile": [[1.0, 2.0], [2.0, 1.0]]}}
    raw = base_config(command="solve-cell", field=tile, xi=["e1", "e2"], t_list=[4], n_real=3)
    code, csv_path, _ = runner.run(parse_config_dict(raw), out_dir=str(tmp_path))
    rows = [row.split(",") for row in Path(csv_path).read_text().splitlines()[1:]]
    assert code == 0
    assert [(row[3], row[5]) for row in rows if row[6] == "solve"] == [("e1", "0"), ("e2", "0")]


@pytest.mark.parametrize("key, value", [("workers", 2), ("out_dir", "elsewhere")])
def test_config_naming_an_execution_setting_exits_2(tmp_path, capsys, monkeypatch,
                                                    key, value):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, t_list=[4], n_real=1, **{key: value})
    assert main(["estimate-fhom", "--config", path]) == 2
    assert f"config error: unknown top-level keys ['{key}']" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_run_writes_under_homlab_out_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, csv_path, summary_path = runner.run(parse_config_dict(base_config(t_list=[4],
                                                                            n_real=1)))
    assert code == 0
    assert Path(csv_path).parent == Path(summary_path).parent == Path("homlab-out")
    assert sorted(p.name for p in (tmp_path / "homlab-out").iterdir()) == sorted(
        [Path(csv_path).name, Path(summary_path).name])


def _malformed(command, options=None, **over):
    """A config of ``command`` on UNIFORM that gives only the values it reads."""
    given = {"xi": ["e1", "e2"] if command == "rank-one" else "e1", "t_list": [4],
             "n_real": 1}
    raw = base_config(command=command, **{"field": UNIFORM, "xi": None, **{
        k: v for k, v in given.items() if k in READS[command]}, **over})
    raw = {k: v for k, v in raw.items() if v is not None}  # None drops a key
    if options is not None:
        raw["options"] = options
    return raw


_TWO_LAWS = [UNIFORM["diagonal"], UNIFORM["diagonal"]]
_ONE_LAW = {"kind": "constant", "value": 1.0}
_UNIFORM_LAMINATE = {**UNIFORM, "structure": {"kind": "laminate", "axis": 1}}

# Cases 1-34 passed the checks of earlier versions, spelled with the
# keys of their time (`options.t` for a one-entry `t_list`, subadditivity's
# `options.n_instances` for `n_real`, rank-one's `options.xi_a` and
# `options.xi_b` for `xi`). Cases 1-16, 24-29, 31 and 32 then died in a
# traceback (exit 1); the rest ran to exit 0, the rank-one slopes of two
# shapes as one 2 x 2 problem, and the duplicate slope label and the one
# slope spelled three ways after solving each task once per spelling.
# Cases 35-51 passed the checks of the version before: 44-49 died in a
# traceback, and the rest ran to exit 0 with a pass, each dropping a
# value it was given (the second slope or size, the value it never read,
# the rows of an observable the field lacks) or, with no slope, solving
# nothing.
MALFORMED = [
    ("options.depth", _malformed("subadditivity", {"depth": 0})),
    ("n_real", _malformed("subadditivity", n_real=0)),
    ("options.s_list", _malformed("recession", {"s_list": ["a"]})),
    ("options.s_list", _malformed("recession", {"s_list": []})),
    ("options.z", _malformed("stationarity", {"z": [1]})),
    ("t_list", _malformed("solve-cell", t_list=[-2])),
    ("options.box", _malformed("field-stats", {"box": [[0, 1]]})),
    ("options.entry", _malformed("field-stats", {"entry": 5})),
    ("options.observable", _malformed("field-stats", {"observable": "nope"})),
    ("options.delta_range", _malformed("glue-check", {"delta_range": [0.5]})),
    ("options.delta_list", _malformed("degenerate-interface", {"delta_list": [-0.1]})),
    ("options.n_grid", _malformed("rank-one", {"n_grid": 1})),
    ("options.n_grid", _malformed("rank-one", {"n_grid": 2})),
    ("xi[0]", _malformed("rank-one", xi=["e9", "e2"])),
    ("xi", _malformed("rank-one", xi=["e2"])),
    ("field.dimension", _malformed("estimate-fhom", field={**UNIFORM, "dimension": True})),
    ("options: keys ['n_matched'] not accepted by command 'stationarity'",
     _malformed("stationarity", {"n_matched": 1})),
    ("options.n_instances", _malformed("glue-check", {"n_instances": 0})),
    ("seed", _malformed("estimate-fhom", seed=True)),
    ("n_real", _malformed("estimate-fhom", n_real=True)),
    ("cells_per_unit", _malformed("estimate-fhom", cells_per_unit=True)),
    ("t_list", _malformed("estimate-fhom", t_list=[True])),
    ("field.structure.axis", _malformed("estimate-fhom", field={
        **UNIFORM, "structure": {"kind": "laminate", "axis": True}})),
    ("not valid JSON: Infinity", _malformed("solve-cell", t_list=[math.inf])),
    ("field", _malformed("degenerate-interface", {"delta_list": [0.1]})),
    ("field", _malformed("degenerate-divergence", field={
        **UNIFORM, "structure": {"kind": "periodic", "tile": [[1.0, 2.0]]},
        "diagonal": None})),
    ("field", _malformed("degenerate-interface", field={
        **PARETO_LAMINATE, "diagonal": _TWO_LAWS})),
    ("field", _malformed("degenerate-divergence", field={
        **PARETO_LAMINATE, "diagonal": _TWO_LAWS})),
    ("options.depth", _malformed("subadditivity", {"depth": 3})),
    ("xi", _malformed("rank-one", xi=["e1", [[0, 0], [0, 0]]])),
    ("xi", _malformed("rank-one", xi=[[[1, 0], [0, 1]], [[0, 0], [0, 0]]])),
    ("options.side", _malformed("glue-check", {"side": 4})),
    ("xi: duplicate slope label 'e1'", _malformed("estimate-fhom", xi=["e1", "e1"])),
    ("xi: slope '[1,0]' equals slope 'e1'",
     _malformed("estimate-fhom", xi=["e1", [1, 0], "1e1"])),
    # a value the command would drop: more slopes or sizes than it reads
    ("xi: command 'recession' takes exactly 1, got 2",
     _malformed("recession", xi=["e1", "e2"])),
    ("xi: command 'estimate-fhom' takes at least 1, got 0", _malformed("estimate-fhom", xi=[])),
    ("t_list: command 'stationarity' takes exactly 1, got 2",
     _malformed("stationarity", xi=["e1", "e2"], t_list=[2, 4])),
    ("t_list: command 'solve-cell' takes exactly 1, got 2",
     _malformed("solve-cell", t_list=[2, 4])),
    ("t_list: required by command 'solve-cell'", _malformed("solve-cell", t_list=None)),
    # or a value it does not read at all
    ("tol: not accepted by command 'glue-check'", _malformed("glue-check", tol=1e-3)),
    ("n_real: not accepted by command 'glue-check'", _malformed("glue-check", n_real=2)),
    ("t_list: not accepted by command 'glue-check'", _malformed("glue-check", t_list=[4])),
    ("cells_per_unit: not accepted by command 'degenerate-interface'",
     _malformed("degenerate-interface", field=CHEAP_LAMINATE, cells_per_unit=3)),
    ("n_real: not accepted by command 'field-stats'", _malformed("field-stats", n_real=2)),
    # settings the degenerate experiments and field-stats cannot run
    ("field", _malformed("degenerate-divergence", field={**PARETO_LAMINATE,
                                                         "lower_order": _ONE_LAW})),
    ("field", _malformed("degenerate-divergence", xi=None,
                         field={**PARETO_LAMINATE, "dimension": 1})),
    ("field", _malformed("degenerate-divergence", field=PARETO_LAMINATE, xi="e1")),
    ("field", _malformed("degenerate-divergence", field=PARETO_LAMINATE, xi=[0, 0])),
    ("field", _malformed("degenerate-interface", field={**PARETO_LAMINATE,
                                                        "lower_order": _ONE_LAW})),
    ("field", _malformed("degenerate-interface", {"n_scans": 5}, field=_UNIFORM_LAMINATE)),
    ("options.observable", _malformed("field-stats", {"observable": "lower"})),
    # an option read only beside another value, and a list that says an entry
    # twice or out of order; each exited 0 in the version before
    ("options: keys ['m'] not accepted by command 'subadditivity'",
     _malformed("subadditivity", {"m": 3}, n_real=2)),
    ("options.entry: read only with observable 'entry', not 'lambda_norm'",
     _malformed("field-stats", {"observable": "lambda_norm", "entry": 0})),
    ("t_list: expected array", _malformed("estimate-fhom", t_list=[4, 2, 4], n_real=2)),
    ("t_list: expected array", _malformed("estimate-fhom", t_list=[4, 4])),
    ("options.s_list: expected array", _malformed("recession", {"s_list": [2, 1]})),
    ("options.delta_list: expected array",
     _malformed("degenerate-interface", {"delta_list": [0.1, 0.1]}, field=CHEAP_LAMINATE)),
    # a sign that starts no term, and a coefficient with no digit; the first
    # four ran to exit 0 with the stray sign dropped, and the last was refused
    # with a float conversion error that named no slope
    *((f"xi[0]: stray sign in slope {xi!r}", _malformed("estimate-fhom", xi=xi))
      for xi in ("e1+", "e1-", "e1+-e2", "e1++e2")),
    ("xi[1]: cannot parse term '.e1' of slope '.e1'",
     _malformed("estimate-fhom", xi=["e1", ".e1"])),
]


@pytest.mark.parametrize("key, raw", MALFORMED)
def test_cli_rejects_malformed_value(tmp_path, capsys, key, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([raw["command"], "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


_HUGE = 7.25e77  # a placeholder, spelled out of float range in the file


# json reads 1e400 as inf, and a 400-digit integer has no float; each
# exited 0 or died in a traceback in the version before
@pytest.mark.parametrize("key, raw", [
    ("t_list", _malformed("estimate-fhom", t_list=[4, _HUGE])),
    ("field.diagonal: parameters ['b']", _malformed("field-stats", field={
        **UNIFORM, "diagonal": {"kind": "uniform", "a": 1.0, "b": _HUGE}})),
    ("options.side", _malformed("glue-check", {"side": _HUGE})),
    ("options.z", _malformed("stationarity", {"z": [_HUGE, 0]})),
    ("xi[0]", _malformed("estimate-fhom", xi=[[_HUGE, 0]])),
    ("field", _malformed("estimate-fhom", field={
        **UNIFORM, "structure": {"kind": "periodic", "tile": [[1.0, _HUGE]]},
        "diagonal": None})),
], ids=["t_list", "law", "side", "z", "xi", "tile"])
@pytest.mark.parametrize("spelling", ["1e400", "1" + "0" * 400])
def test_cli_rejects_numbers_out_of_float_range(tmp_path, capsys, key, raw, spelling):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace(repr(_HUGE), spelling))
    out = tmp_path / "out"
    assert main([raw["command"], "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()
    huge = float("inf") if "e" in spelling else int(spelling)
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(json.loads(json.dumps(raw), parse_float=lambda s: huge
                                     if float(s) == _HUGE else float(s)))
    assert any(e.startswith(key) for e in exc.value.errors), exc.value.errors


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_bad_worker_count(tmp_path, capsys, workers):
    path = write_config(tmp_path, t_list=[4], n_real=1)
    out = tmp_path / "out"
    assert main(["estimate-fhom", "--config", path, "--out", str(out),
                 "--workers", workers]) == 2
    assert (f"config error: --workers: expected integer >= 1, got {workers}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_trend_flag_alone_leaves_exit_code_0(tmp_path):
    # the 1-d ladder is solved in closed form; its means drift past their CIs
    path = Path(__file__).resolve().parents[1] / "demos/configs/laminate-ladder.json"
    code, _, summary_path = runner.run(parse_config(str(path)), out_dir=str(tmp_path))
    summary = json.loads(Path(summary_path).read_text())
    assert code == 0 and summary["verdict"] == "pass"
    assert summary["flags"] == ["e1:trend_inconsistent"]


def test_every_shipped_config_parses():
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("demos/configs/*.json")) + sorted(
        root.glob("perfbench/configs/*.json"))
    assert len(paths) >= 9
    for path in paths:
        before = path.read_bytes()
        cfg = parse_config(str(path))
        assert set(cfg.options) == OPTION_KEYS[cfg.command], path.name
        assert path.read_bytes() == before
