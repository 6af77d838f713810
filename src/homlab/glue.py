r"""Gluing two competitors across a layered cutoff, with a verified bound.

Given fields u (on an outer box) and v (on another box), the glued
field w = v + phi_i (u - v) uses the best of N cutoff layers between an
inner box and the outer box.  The construction certifies

    E(w, inner u other)  <=  (1 + delta) (E(u, outer) + E(v, other))
                             + (4 / dist) * sum_S h^d |u - v| |Lambda|_F
                             + delta * sum_S h^d lam

with S the overlap (outer \ closure(inner)) ^ other and
dist = dist(inner, boundary of outer).  The layer count is
N = ceil(max(1/alpha, 1) / delta); each cutoff transitions over the
middle half of its layer, so its slope stays within the 2N/R budget
(R = dist/2) while cells classify cleanly as u-cells, v-cells or
transition cells.  That classification needs layers at least
2 sqrt(d) h thick; thinner geometry raises GlueGeometryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cell import CellProblem
from .integrand import ALPHA


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

    @property
    def verified(self) -> bool:
        return self.slack >= 0.0


def affine_field(grid, xi, origin_value: float = 0.0) -> np.ndarray:
    """Nodal values of the affine map x -> xi x (+ constant), (m, nodes)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    axes = [grid.center[j] - 0.5 * grid.side + np.arange(grid.cells + 1) * grid.h
            for j in range(grid.dimension)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return np.moveaxis(mesh @ xi.T, -1, 0) + origin_value


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


def glue_with_cutoff(u: np.ndarray, v: np.ndarray, problem: CellProblem,
                     inner, outer, other, delta: float, alpha: float = ALPHA):
    """Glue u and v across cutoff layers between inner and outer boxes.

    u, v are nodal fields on problem.grid; inner strictly inside outer;
    boxes given as d pairs (lo, hi) in physical coordinates.  Returns
    (w, GlueReport); ties between equally good layers break toward the
    smallest index.
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
    n_layers = math.ceil(max(1.0 / alpha, 1.0) / delta)
    layer = R / n_layers
    if layer < 2.0 * math.sqrt(d) * h:
        raise GlueGeometryError(
            f"layers of thickness {layer:.3g} cannot resolve cells of size {h:.3g}; "
            "enlarge the margin between boxes or increase delta")

    # Node geometry.
    axes = [grid.center[j] - 0.5 * grid.side + np.arange(grid.cells + 1) * h
            for j in range(d)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    node_dist = _dist_to_box(nodes, inner_b)
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
    candidates = []
    layer_energies = []
    for i in range(n_layers):
        r_lo = i * layer + quarter
        r_hi = (i + 1) * layer - quarter
        phi = np.clip((r_hi - node_dist) / (r_hi - r_lo), 0.0, 1.0)
        # Bit-exact where the cutoff saturates, so u-cells and v-cells
        # contribute exactly E(u) and E(v).
        w_i = np.where(phi[None] == 1.0, u, v + phi[None] * (u - v))
        in_layer = (center_dist > i * layer) & (center_dist < (i + 1) * layer) & overlap
        e_i = problem.energy(w_i, in_layer)
        candidates.append(w_i)
        layer_energies.append(e_i)
    chosen = int(np.argmin(layer_energies))
    w = candidates[chosen]

    lhs = problem.energy(w, in_inner | in_other)
    base = (1.0 + delta) * (problem.energy(u, in_outer) + problem.energy(v, in_other))

    # |u - v| at cell low corners, matching the discrete product rule.
    low = tuple(slice(0, grid.cells) for _ in range(d))
    diff = u - v
    diff_low = np.sqrt(np.sum(diff[(slice(None),) + low] ** 2, axis=0))
    lam_norm = np.sqrt(np.sum(problem.lam * problem.lam, axis=0))
    hd = h**d
    transport = (4.0 / dist) * hd * float((diff_low * lam_norm)[overlap].sum())
    lower = delta * hd * float(problem.lam0[overlap].sum()) if problem.lam0 is not None else 0.0

    rhs = base + transport + lower
    report = GlueReport(
        n_layers=n_layers, chosen_layer=chosen, dist=dist, lhs=lhs,
        base_term=base, transport_term=transport, lower_term=lower,
        rhs=rhs, slack=rhs - lhs, layer_energies=layer_energies, delta=delta,
    )
    return w, report
