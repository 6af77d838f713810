r"""Gluing two competitors across a layered cutoff, with a verified bound.

Given fields u (on an outer box) and v (on another box), the glued
field w = v + phi_i (u - v) uses the best of N cutoff layers between an
inner box and the outer box.  The construction certifies

    E(w, inner u other)  <=  (1 + delta) (E(u, outer) + E(v, other))
                             + (4 / dist) * sum_S h^d |u - v| |Lambda|_F
                             + delta * sum_S h^d lam

with S the overlap (outer \ closure(inner)) ^ other and
dist = dist(inner, boundary of outer).  The layer count is
N = ceil(max(1/alpha, 1) / delta), with alpha = ``integrand.ALPHA`` the
constant in f >= alpha |xi Lambda|; each cutoff transitions over the
middle half of its layer, so its slope stays within the 2N/R budget
(R = dist/2) while cells classify cleanly as u-cells, v-cells or
transition cells.  That classification needs layers at least
2 sqrt(d) h thick; thinner geometry raises GlueGeometryError.

``glue_check`` runs the inequality on keyed random instances and returns
a ``homogenize.PropertyReport`` with one point claim, slack >= 0, per
instance; a non-finite slack is counted in ``n_flagged`` and fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cell import CellProblem, cell_problem_on_cube
from .fields import FieldSpec, sample_field
from .homogenize import PropertyReport, _point_report
from .integrand import ALPHA
from .randomness import keyed_uniform, normal_quantile


class GlueGeometryError(ValueError):
    """Raised when boxes leave no usable overlap or layers for gluing."""


@dataclass
class GlueReport:
    """Terms of the verified gluing inequality (slack = rhs - lhs >= 0)."""

    n_layers: int
    chosen_layer: int
    dist: float
    lhs: float
    base_term: float
    transport_term: float
    lower_term: float
    rhs: float
    slack: float
    layer_energies: list
    delta: float


def layer_count(delta: float) -> int:
    """N = ceil(max(1/alpha, 1) / delta), the number of cutoff layers."""
    return math.ceil(max(1.0 / ALPHA, 1.0) / delta)


def glue_boxes(d: int, side: float, cells_per_unit: int, delta: float):
    """The (inner, outer, other) boxes of a glue check on the cube of side
    ``side`` centered at 0, with the layer_count(delta) layers each thick
    enough to resolve cells of size 1/cells_per_unit; a smaller delta needs
    more room, so the least delta of a range decides whether the range fits."""
    n_layers = layer_count(delta)
    h = 1.0 / cells_per_unit
    thickness = 2.0 * math.sqrt(d) * h * 1.2  # margin over the resolvable bound
    dist = 2.0 * n_layers * thickness
    a = side / 2.0 - dist - 1.0
    if a < 0.5:
        raise GlueGeometryError(f"side {side} too small for delta {delta:g}")
    inner = tuple((-a, a) for _ in range(d))
    outer = tuple((-(a + dist), a + dist) for _ in range(d))
    other = tuple((-(a + dist + 0.5), a + dist + 0.5) for _ in range(d))
    return inner, outer, other


def affine_field(grid, xi) -> np.ndarray:
    """Nodal values of the linear map x -> xi x, (m, nodes)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return np.moveaxis(grid.nodes() @ xi.T, -1, 0)


def _box_array(box, d):
    box = np.asarray(box, dtype=float)
    if box.shape != (d, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise GlueGeometryError(f"box must be d nondegenerate intervals, got {box!r}")
    return box


def _dist_to_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Euclidean distance from points (..., d) to an axis-aligned box."""
    below = box[:, 0] - points
    above = points - box[:, 1]
    gap = np.maximum(np.maximum(below, above), 0.0)
    return np.sqrt(np.sum(gap * gap, axis=-1))


def _in_open_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    return np.all((points > box[:, 0]) & (points < box[:, 1]), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def glue_with_cutoff(u: np.ndarray, v: np.ndarray, problem: CellProblem,
                     inner, outer, other, delta: float):
    """Glue u and v across cutoff layers between inner and outer boxes.

    u, v are nodal fields on problem.grid; inner strictly inside outer;
    boxes given as d pairs (lo, hi) in physical coordinates.  Returns
    (w, GlueReport); ties between equally good layers break toward the
    smallest index.  Weights above about 1e154 overflow the squared norms,
    silently: the energies and the slack come out inf or NaN.
    """
    grid = problem.grid
    d = grid.dimension
    h = grid.h
    inner_b = _box_array(inner, d)
    outer_b = _box_array(outer, d)
    other_b = _box_array(other, d)
    if np.any(inner_b[:, 0] <= outer_b[:, 0]) or np.any(inner_b[:, 1] >= outer_b[:, 1]):
        raise GlueGeometryError("inner box must be strictly inside the outer box")
    if delta <= 0:
        raise GlueGeometryError("delta must be positive")

    gaps = np.concatenate([inner_b[:, 0] - outer_b[:, 0], outer_b[:, 1] - inner_b[:, 1]])
    dist = float(gaps.min())
    R = 0.5 * dist
    n_layers = layer_count(delta)
    layer = R / n_layers
    if layer < 2.0 * math.sqrt(d) * h:
        raise GlueGeometryError(
            f"layers of thickness {layer:.3g} cannot resolve cells of size {h:.3g}; "
            "enlarge the margin between boxes or increase delta")

    node_dist = _dist_to_box(grid.nodes(), inner_b)
    centers = grid.cell_centers()
    center_dist = _dist_to_box(centers, inner_b)

    in_other = _in_open_box(centers, other_b)
    in_outer = _in_open_box(centers, outer_b)
    in_inner = _in_open_box(centers, inner_b)
    if bool(np.any((center_dist == 0.0) & ~in_inner)):
        raise GlueGeometryError("a face of the inner box passes exactly through a cell "
                                "center; move the box by a fraction of h")
    overlap = in_outer & (center_dist > 0.0) & in_other  # (outer \ closure(inner)) ^ other
    if not overlap.any():
        raise GlueGeometryError("empty overlap between the outer box and the other box")

    quarter = 0.25 * layer
    layer_energies = []
    chosen = 0
    for i in range(n_layers):
        r_lo = i * layer + quarter
        r_hi = (i + 1) * layer - quarter
        phi = np.clip((r_hi - node_dist) / (r_hi - r_lo), 0.0, 1.0)
        # Bit-exact where the cutoff saturates, so u-cells and v-cells
        # contribute exactly E(u) and E(v).
        w_i = np.where(phi[None] == 1.0, u, v + phi[None] * (u - v))
        in_layer = (center_dist > i * layer) & (center_dist < (i + 1) * layer) & overlap
        layer_energies.append(problem.energy(w_i, in_layer))
        # the running least layer; on a tie the first wins, as with np.argmin
        if i == 0 or layer_energies[i] < layer_energies[chosen]:
            chosen, w = i, w_i

    lhs = problem.energy(w, in_inner | in_other)
    base = (1.0 + delta) * (problem.energy(u, in_outer) + problem.energy(v, in_other))

    # |u - v| at cell low corners, matching the discrete product rule.
    low = tuple(slice(0, grid.cells) for _ in range(d))
    diff = u - v
    diff_low = np.sqrt(np.sum(diff[(slice(None),) + low] ** 2, axis=0))
    lam_norm = np.sqrt(np.sum(problem.lam * problem.lam, axis=0))
    hd = h**d
    transport = (4.0 / dist) * hd * float((diff_low * lam_norm)[overlap].sum())
    lower = delta * hd * float(problem.lam0[overlap].sum())

    rhs = base + transport + lower
    report = GlueReport(
        n_layers=n_layers, chosen_layer=chosen, dist=dist, lhs=lhs,
        base_term=base, transport_term=transport, lower_term=lower,
        rhs=rhs, slack=rhs - lhs, layer_energies=layer_energies, delta=delta,
    )
    return w, report


def glue_check(spec: FieldSpec, *, n_instances: int, side: float, delta_range,
               seed: int = 0, cells_per_unit: int = 2) -> PropertyReport:
    """The gluing inequality on ``n_instances`` keyed instances: the claim
    slack >= 0 per instance, a point.

    Instance i draws delta uniformly from ``delta_range``, glues two
    affine fields of keyed normal slopes (the second with keyed nodal
    noise) across glue_boxes on realization i over the cube of side
    ``side``, and records its slack and layer count in ``details``.  A
    non-finite slack verifies nothing; each is counted in ``n_flagged``
    and fails the check.
    """
    d = spec.dimension
    slacks, n_layers = [], []
    for i in range(n_instances):
        u01 = float(keyed_uniform(seed, "glue-delta", i))
        delta = delta_range[0] + (delta_range[1] - delta_range[0]) * u01
        inner, outer, other = glue_boxes(d, side, cells_per_unit, delta)
        gu = normal_quantile(keyed_uniform(seed, "glue-xi-u", i, np.arange(d)))[None]
        gv = normal_quantile(keyed_uniform(seed, "glue-xi-v", i, np.arange(d)))[None]
        prob = cell_problem_on_cube(sample_field(spec, seed, i), side, gu, cells_per_unit)
        grid = prob.grid
        noise = keyed_uniform(seed, "glue-noise", i, np.arange(np.prod(grid.node_shape)))
        u = affine_field(grid, gu) * 0.2
        v = affine_field(grid, gv) * 0.2 + 0.5 * (noise.reshape(grid.node_shape) - 0.5)[None]
        rep = glue_with_cutoff(u, v, prob, inner, outer, other, delta)[1]
        slacks.append(rep.slack)
        n_layers.append(rep.n_layers)
    slacks = np.array(slacks)
    return _point_report("glue", n_instances, slacks, n_flagged=int((~np.isfinite(slacks)).sum()),
                         details={"slacks": slacks, "n_layers": n_layers})
