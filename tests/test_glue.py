"""Layered-cutoff gluing and its verified energy inequality."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from homlab import (DistributionSpec, FieldSpec, GlueGeometryError, Grid,
                    IidCubes, cell_problem_on_cube, glue_check, glue_with_cutoff,
                    runner, sample_field)
from homlab.config import parse_config_dict
from homlab.glue import affine_field
from homlab.randomness import keyed_uniform

U12 = DistributionSpec.uniform(1.0, 2.0)


def make_problem(side=40.0, seed=0, law=U12, d=2, lower=None):
    spec = FieldSpec(dimension=d, structure=IidCubes(), diagonal=law,
                     lower_order=lower)
    fld = sample_field(spec, seed)
    return cell_problem_on_cube(fld, side, np.zeros((1, d)))


def boxes(a=3.0, dist=16.0, other_pad=0.5, d=2):
    inner = tuple((-a, a) for _ in range(d))
    outer = tuple((-(a + dist), a + dist) for _ in range(d))
    other = tuple((-(a + dist + other_pad), a + dist + other_pad) for _ in range(d))
    return inner, outer, other


def node_coords(grid):
    axes = [grid.center[j] - 0.5 * grid.side + np.arange(grid.cells + 1) * grid.h
            for j in range(grid.dimension)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def test_affine_field_nodal_values():
    g = Grid(dimension=2, side=4.0, cells=4)
    u = affine_field(g, np.array([[1.0, 0.0]])) + 7.0
    # value = x1 + 7 at every node
    xs = -2.0 + np.arange(5) * 1.0
    assert np.allclose(u[0], xs[:, None] + 7.0)


def test_layer_count_follows_delta():
    prob = make_problem()
    inner, outer, other = boxes()
    u = affine_field(prob.grid, np.array([[0.2, 0.0]]))
    v = affine_field(prob.grid, np.array([[0.0, 0.2]]))
    _, rep_half = glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.5)
    _, rep_quarter = glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.25)
    assert rep_half.n_layers == 2
    assert rep_quarter.n_layers == 4
    assert rep_quarter.n_layers == 2 * rep_half.n_layers
    assert rep_half.n_layers == math.ceil(1.0 / 0.5)


def test_glued_field_matches_inputs_away_from_the_band():
    prob = make_problem(seed=3)
    inner, outer, other = boxes()
    u = affine_field(prob.grid, np.array([[0.3, -0.1]]))
    noise = keyed_uniform(5, "v", np.arange(u.size)).reshape(u.shape)
    v = affine_field(prob.grid, np.array([[-0.2, 0.25]])) + 0.3 * noise
    w, rep = glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.5)

    nodes = node_coords(prob.grid)
    inside = np.all(np.abs(nodes) <= 3.0, axis=-1)       # distance 0: phi = 1
    far = np.max(np.abs(nodes), axis=-1) >= 11.0         # beyond dist/2: phi = 0
    assert np.array_equal(w[0][inside], u[0][inside])
    assert np.array_equal(w[0][far], v[0][far])
    assert rep.slack >= 0.0


def test_equal_inputs_glue_to_themselves():
    prob = make_problem(seed=1)
    inner, outer, other = boxes()
    u = affine_field(prob.grid, np.array([[0.4, 0.1]]))
    w, rep = glue_with_cutoff(u, u.copy(), prob, inner, outer, other, delta=0.5)
    assert np.array_equal(w, u)
    assert rep.transport_term == 0.0
    assert rep.lower_term == 0.0
    assert rep.slack >= 0.0

    centers = prob.grid.cell_centers()
    in_box = lambda b: np.all((centers > np.array(b)[:, 0])
                              & (centers < np.array(b)[:, 1]), axis=-1)
    base = 1.5 * (prob.energy(u, in_box(outer)) + prob.energy(u, in_box(other)))
    assert rep.base_term == pytest.approx(base, rel=1e-12)
    assert rep.lhs == pytest.approx(prob.energy(u, in_box(inner) | in_box(other)),
                                    rel=1e-12)


def test_report_terms_recomputable():
    prob = make_problem(seed=7)
    inner, outer, other = boxes()
    u = affine_field(prob.grid, np.array([[0.25, 0.0]]))
    v = affine_field(prob.grid, np.array([[0.0, -0.3]]))
    delta = 0.4
    w, rep = glue_with_cutoff(u, v, prob, inner, outer, other, delta=delta)

    g = prob.grid
    centers = g.cell_centers()
    inner_b = np.array(inner)
    in_box = lambda b: np.all((centers > np.array(b)[:, 0])
                              & (centers < np.array(b)[:, 1]), axis=-1)
    gap = np.maximum(np.maximum(inner_b[:, 0] - centers,
                                centers - inner_b[:, 1]), 0.0)
    center_dist = np.sqrt((gap ** 2).sum(axis=-1))
    overlap = in_box(outer) & (center_dist > 0) & in_box(other)

    base = (1.0 + delta) * (prob.energy(u, in_box(outer))
                            + prob.energy(v, in_box(other)))
    low = tuple(slice(0, g.cells) for _ in range(2))
    diff_low = np.abs((u - v)[0][low])
    lam_norm = np.sqrt((prob.lam ** 2).sum(axis=0))
    transport = (4.0 / rep.dist) * g.h ** 2 * float(
        (diff_low * lam_norm)[overlap].sum())
    lhs = prob.energy(w, in_box(inner) | in_box(other))

    assert rep.dist == pytest.approx(16.0)
    assert rep.n_layers == 3
    assert rep.base_term == pytest.approx(base, rel=1e-12)
    assert rep.transport_term == pytest.approx(transport, rel=1e-12)
    assert rep.lower_term == 0.0
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(base + transport, rel=1e-12)
    assert rep.slack == pytest.approx(rep.rhs - rep.lhs, abs=1e-12)
    assert len(rep.layer_energies) == rep.n_layers
    assert rep.chosen_layer == int(np.argmin(rep.layer_energies))


def test_lower_order_term_scales_with_delta():
    prob = make_problem(seed=2, lower=DistributionSpec.constant(1.0))
    inner, outer, other = boxes()
    u = affine_field(prob.grid, np.array([[0.2, 0.0]]))
    v = affine_field(prob.grid, np.array([[0.0, 0.2]]))
    _, rep4 = glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.4)
    _, rep2 = glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.2)
    assert rep4.n_layers == 3 and rep2.n_layers == 5
    assert rep4.lower_term > 0.0
    # same overlap cells, delta halved: the lower-order share halves exactly
    assert rep2.lower_term == pytest.approx(0.5 * rep4.lower_term, rel=1e-12)
    # lam0 = 1 everywhere, so the term counts overlap volume directly
    centers = prob.grid.cell_centers()
    in_box = lambda b: np.all((centers > np.array(b)[:, 0])
                              & (centers < np.array(b)[:, 1]), axis=-1)
    inner_b = np.array(inner)
    gap = np.maximum(np.maximum(inner_b[:, 0] - centers,
                                centers - inner_b[:, 1]), 0.0)
    outside_inner = np.sqrt((gap ** 2).sum(axis=-1)) > 0
    n_overlap = int((in_box(outer) & outside_inner & in_box(other)).sum())
    assert rep4.lower_term == pytest.approx(
        0.4 * prob.grid.h ** 2 * n_overlap, rel=1e-12)


def test_random_instances_always_verify():
    for i in range(8):
        prob = make_problem(seed=100 + i)
        inner, outer, other = boxes()
        gu = keyed_uniform(50, "gu", i, np.arange(2)) - 0.5
        gv = keyed_uniform(50, "gv", i, np.arange(2)) - 0.5
        u = affine_field(prob.grid, gu[None] * 0.4)
        noise = keyed_uniform(50, "noise", i, np.arange(u.size)).reshape(u.shape)
        v = affine_field(prob.grid, gv[None] * 0.4) + 0.4 * (noise - 0.5)
        delta = 0.3 + 0.4 * float(keyed_uniform(50, "delta", i))
        w, rep = glue_with_cutoff(u, v, prob, inner, outer, other, delta=delta)
        assert rep.slack >= 0.0, f"instance {i}: slack {rep.slack}"
        assert rep.n_layers == math.ceil(1.0 / delta)
        assert rep.chosen_layer == int(np.argmin(rep.layer_energies))


# weights above about 1e154 overflow the squared norms of the glue energies:
# every slack of the tile and 3 of the 5 Pareto slacks come out NaN, and
# each used to pass the run; the suite raises any numpy warning as an error
@pytest.mark.parametrize("field, n_instances, n_nonfinite", [
    ({"dimension": 2, "structure": {"kind": "periodic", "tile": [[1e200, 1.0], [1.0, 1e200]]}},
     2, 2),
    ({"dimension": 2, "structure": {"kind": "iid_cubes"},
      "diagonal": {"kind": "pareto", "x_m": 1.0, "alpha_tail": 0.02}}, 5, 3),
], ids=["tile-1e200", "pareto-0.02"])
def test_nonfinite_slacks_fail_the_glue_check(field, n_instances, n_nonfinite, tmp_path):
    cfg = parse_config_dict({"command": "glue-check", "field": field,
                             "options": {"n_instances": n_instances}, "seed": 0})
    code, csv_path, summary_path = runner.run(cfg, out_dir=str(tmp_path))
    summary = json.loads(Path(summary_path).read_text())
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if row["kind"] == "glue_slack"]
    assert code == 1 and summary["verdict"] == "fail"
    assert f"n_flagged={n_nonfinite}" in summary["flags"]
    assert summary["report"]["glue"]["worst_slack"] == "nan"
    assert len(rows) == n_instances
    for row in rows:
        assert ("nonfinite" in row["flags"].split(";")) is (not math.isfinite(float(row["value"])))
    rep = glue_check(cfg.spec, n_instances=n_instances, side=32.0, delta_range=(0.3, 0.6))
    # a NaN slack's claim fails, as well as being flagged
    assert (rep.passed, rep.n_flagged, rep.fails) == (False, n_nonfinite, n_nonfinite)
    assert rep.passed == (rep.fails == 0 and rep.n_flagged == 0)
    assert rep.holds + rep.undecided + rep.fails == n_instances


def test_equal_layers_choose_the_first():
    # u = v = 0 gives every layer energy 0; as with np.argmin, the first wins
    prob = make_problem()
    inner, outer, other = boxes()
    zero = affine_field(prob.grid, np.zeros((1, 2)))
    _, rep = glue_with_cutoff(zero, zero, prob, inner, outer, other, delta=0.2)
    assert rep.n_layers == 5
    assert rep.layer_energies == [0.0] * 5
    assert rep.chosen_layer == 0


def test_geometry_errors():
    prob = make_problem()
    u = affine_field(prob.grid, np.array([[0.1, 0.0]]))
    v = affine_field(prob.grid, np.array([[0.0, 0.1]]))
    inner, outer, other = boxes()
    # inner not strictly inside outer
    with pytest.raises(GlueGeometryError, match="strictly inside"):
        glue_with_cutoff(u, v, prob, outer, outer, other, delta=0.5)
    # a box of the wrong dimension, or with an empty interval
    with pytest.raises(GlueGeometryError, match="nondegenerate intervals"):
        glue_with_cutoff(u, v, prob, inner[:1], outer, other, delta=0.5)
    with pytest.raises(GlueGeometryError, match="nondegenerate intervals"):
        glue_with_cutoff(u, v, prob, inner, outer, ((1.0, 1.0), (-1.0, 1.0)), delta=0.5)
    # nonpositive delta
    with pytest.raises(GlueGeometryError, match="delta"):
        glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.0)
    # layers thinner than the mesh can resolve
    with pytest.raises(GlueGeometryError, match="thickness"):
        glue_with_cutoff(u, v, prob, inner, outer, other, delta=0.01)
    # a face of the inner box through a cell center (centers at 0.25 + k/2)
    with pytest.raises(GlueGeometryError, match="cell center"):
        glue_with_cutoff(u, v, prob, ((-2.25, 2.25), (-2.25, 2.25)),
                         outer, other, delta=0.5)
    # other box inside the inner box leaves nothing to glue over
    with pytest.raises(GlueGeometryError, match="overlap"):
        glue_with_cutoff(u, v, prob, inner, outer,
                         ((-1.0, 1.0), (-1.0, 1.0)), delta=0.5)
