"""Cell problems on cubes: discretization and a gap-certified solver.

The cell problem minimizes the weighted linear-growth energy

    E(v) = sum_K h^d ( |(Gv + xi) Lambda_K|_F + lam_K )

over perturbations v that vanish on the cube boundary, where G is the
forward-difference gradient on a uniform grid and the weights live at
cell centers.  The minimization runs a primal-dual (Chambolle-Pock)
iteration whose dual iterates are repaired into exactly feasible dual
points, so every reported value carries a certified duality gap

    gap = (primal - dual) / max(1, |primal|).

Weights are normalized by their maximum before iterating (the energy is
1-homogeneous in Lambda), which keeps step sizes well scaled for
heavy-tailed fields; reported values are restored to the original
scale.
"""

from __future__ import annotations

import json
import math
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fields import FieldSample, FieldSpec, sample_field
from .projections import project_ellipsoid, project_radial

MAGIC = b"HLMF"
DUMP_VERSION = 1
_DUMP_FMT = "<4sIIIId"  # magic, version, d, m, n, t


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``cells`` cells per side on the cube Q_side(center)."""

    dimension: int
    side: float
    cells: int
    components: int = 1
    center: tuple = None

    def __post_init__(self):
        if self.cells < 2:
            raise ValueError("grid needs at least 2 cells per side")
        if self.side <= 0:
            raise ValueError("cube side must be positive")
        c = self.center
        if c is None:
            c = (0.0,) * self.dimension
        c = tuple(float(x) for x in np.atleast_1d(c))
        if len(c) != self.dimension:
            raise ValueError("center must have one coordinate per dimension")
        object.__setattr__(self, "center", c)

    @property
    def h(self) -> float:
        return self.side / self.cells

    @property
    def node_shape(self) -> tuple:
        return (self.cells + 1,) * self.dimension

    @property
    def cell_shape(self) -> tuple:
        return (self.cells,) * self.dimension

    def cell_centers(self) -> np.ndarray:
        """Physical coordinates of cell centers, shape (*cells, d)."""
        axes = [self.center[j] - 0.5 * self.side + (np.arange(self.cells) + 0.5) * self.h
                for j in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def domain(self) -> tuple:
        return tuple((self.center[j] - 0.5 * self.side, self.center[j] + 0.5 * self.side)
                     for j in range(self.dimension))


@dataclass(eq=False)
class CellProblem:
    """Discretized cell problem: grid, boundary slope xi, cell weights."""

    grid: Grid
    xi: np.ndarray          # (m, d)
    lam: np.ndarray         # (d, *cells) diagonal entries at cell centers
    lam0: np.ndarray = None  # (*cells,) lower-order weight, or None

    def gradient_plus_xi(self, v: np.ndarray) -> np.ndarray:
        xib = self.xi.reshape(self.xi.shape + (1,) * self.grid.dimension)
        return _grad(v, self.grid.h) + xib

    def energy_density(self, v: np.ndarray) -> np.ndarray:
        """Per-cell energy h^d (|(Gv+xi) Lambda|_F + lam), shape (*cells,)."""
        w = self.gradient_plus_xi(v) * self.lam[None]
        dens = np.sqrt(np.sum(w * w, axis=(0, 1)))
        if self.lam0 is not None:
            dens = dens + self.lam0
        return self.grid.h ** self.grid.dimension * dens

    def energy(self, v: np.ndarray, cell_mask=None) -> float:
        dens = self.energy_density(v)
        if cell_mask is not None:
            dens = dens[cell_mask]
        return float(dens.sum())


def assemble(field: FieldSample, grid: Grid, xi, include_lambda=None) -> CellProblem:
    """Sample the field at cell centers and freeze a CellProblem.

    Piecewise-constant fields make center sampling exact as soon as the
    grid refines unit cells evenly (default policy: 2 cells per unit).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if xi.shape != (grid.components, grid.dimension):
        raise ValueError(
            f"xi must have shape ({grid.components}, {grid.dimension}), got {xi.shape}")
    if field.spec.dimension != grid.dimension:
        raise ValueError("field dimension does not match grid dimension")
    centers = grid.cell_centers()
    lam = np.moveaxis(field.lambda_diag(centers), -1, 0).copy()
    if include_lambda is None:
        include_lambda = field.spec.lower_order is not None
    lam0 = field.lower(centers) if include_lambda and field.spec.lower_order is not None else None
    return CellProblem(grid=grid, xi=xi, lam=lam, lam0=lam0)


def cube_grid(dimension: int, t: float, cells_per_unit: int = 2,
              components: int = 1, center=None) -> Grid:
    """Resolution policy: n = cells_per_unit * t cells per side (min 2)."""
    n = max(2, int(round(cells_per_unit * t)))
    return Grid(dimension=dimension, side=float(t), cells=n,
                components=components, center=center)


def cell_problem_on_cube(field: FieldSample, t: float, xi, cells_per_unit: int = 2,
                         center=None, include_lambda=None) -> CellProblem:
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    grid = cube_grid(field.spec.dimension, t, cells_per_unit,
                     components=xi.shape[0], center=center)
    return assemble(field, grid, xi, include_lambda=include_lambda)


@dataclass(eq=False)
class SolveReport:
    """Certified outcome of one cell-problem solve."""

    primal: float
    dual: float
    gap: float
    iterations: int
    converged: bool
    minimizer: np.ndarray
    problem: CellProblem
    tol: float
    wall_time: float
    gap_checks: int

    @property
    def grid(self) -> Grid:
        return self.problem.grid

    @property
    def flagged(self) -> bool:
        return not self.converged

    @property
    def normalized(self) -> float:
        """primal / t^d."""
        return self.primal / self.grid.side ** self.grid.dimension


def _grad(v: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference cell gradients: (m, *(n+1)^d) -> (m, d, *n^d)."""
    m = v.shape[0]
    d = v.ndim - 1
    n = v.shape[1] - 1
    out = np.empty((m, d) + (n,) * d)
    base = tuple(slice(0, n) for _ in range(d))
    low = (slice(None),) + base
    for j in range(d):
        sl = list(base)
        sl[j] = slice(1, n + 1)
        out[:, j] = v[(slice(None),) + tuple(sl)]
        out[:, j] -= v[low]
    out /= h
    return out


def _zero_boundary(u: np.ndarray) -> None:
    for axis in range(1, u.ndim):
        sl = [slice(None)] * u.ndim
        sl[axis] = 0
        u[tuple(sl)] = 0.0
        sl[axis] = -1
        u[tuple(sl)] = 0.0


def _grad_adjoint(p: np.ndarray, h: float) -> np.ndarray:
    """Adjoint of _grad onto interior nodes (boundary rows zeroed)."""
    m, d = p.shape[0], p.shape[1]
    n = p.shape[2]
    u = np.zeros((m,) + (n + 1,) * d)
    base = tuple(slice(0, n) for _ in range(d))
    low = (slice(None),) + base
    for j in range(d):
        sl = list(base)
        sl[j] = slice(1, n + 1)
        u[(slice(None),) + tuple(sl)] += p[:, j]
        u[low] -= p[:, j]
    u /= h
    _zero_boundary(u)
    return u


@lru_cache(maxsize=32)
def _laplacian_lu(d: int, n: int):
    """Sparse LU of the Dirichlet graph Laplacian on the interior lattice."""
    k = n - 1
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k), format="csc")
    eye = sp.identity(k, format="csc")
    A = None
    for j in range(d):
        term = None
        for axis in range(d):
            f = T if axis == j else eye
            term = f if term is None else sp.kron(term, f, format="csc")
        A = term if A is None else A + term
    return splu(A.tocsc())


def _certified_dual(p, lam_n, xi, h, lu) -> float:
    """Lower bound from a ball-feasible dual point made divergence-free.

    Subtracts the gradient of a discrete Poisson solve so the repaired
    point annihilates all interior nodes, then rescales it into the
    dual balls; the resulting value bounds the discrete minimum from
    below (up to sparse-LU roundoff).
    """
    m = p.shape[0]
    d = p.shape[1]
    n = p.shape[2]
    r = _grad_adjoint(p, 1.0)  # D^T p on interior nodes
    interior = (slice(None),) + tuple(slice(1, n) for _ in range(d))
    rhs = r[interior].reshape(m, -1).T * h
    psi_flat = lu.solve(rhs)
    psi = np.zeros_like(r)
    psi[interior] = psi_flat.T.reshape((m,) + (n - 1,) * d)
    ptil = p - _grad(psi, h)
    ratio = ptil / lam_n[None]
    nb = np.sqrt(np.sum(ratio * ratio, axis=(0, 1)))
    mx = float(nb.max())
    s = 1.0 if mx <= 1.0 else 1.0 / mx
    cell_axes = tuple(range(2, 2 + d))
    return s * h**d * float((ptil.sum(axis=cell_axes) * xi).sum())


def _primal_normalized(v, xib, lam_n, h, d) -> float:
    w = (_grad(v, h) + xib) * lam_n[None]
    return h**d * float(np.sqrt(np.sum(w * w, axis=(0, 1))).sum())


def default_step_ratio(grid: Grid, xi: np.ndarray) -> float:
    """Primal/dual step balance.

    The primal iterate scale grows with the cell count per side and the
    slope magnitude while the dual stays in unit balls; benchmarks put
    the optimum near cells/16 * |xi| with a floor of 2.
    """
    xin = float(np.sqrt((xi * xi).sum()))
    return max(2.0, grid.cells / 16.0 * max(1.0, xin))


def solve_cell(problem: CellProblem, tol: float = 1e-5, max_iter: int = 150_000,
               step_ratio: float = None, check_every: int = 20) -> SolveReport:
    """Minimize the cell energy with a certified relative duality gap.

    Never raises on slow convergence: if ``max_iter`` is hit before the
    gap reaches ``tol`` the report comes back with converged=False and
    the best certified pair found.
    """
    t0 = time.perf_counter()
    grid = problem.grid
    d, n, m, h = grid.dimension, grid.cells, grid.components, grid.h
    hd = h**d
    xi = problem.xi
    xib = xi.reshape((m, d) + (1,) * d)

    scale = float(problem.lam.max())
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError("weights must be positive and finite")
    lam_n = problem.lam / scale
    iso = bool(np.all(lam_n == lam_n[:1]))
    radii = lam_n[0] if iso else None
    lam0_total = hd * float(problem.lam0.sum()) if problem.lam0 is not None else 0.0

    L = 2.0 * math.sqrt(d) * h ** (d - 1)
    ratio = default_step_ratio(grid, xi) if step_ratio is None else float(step_ratio)
    tau = ratio / L
    sigma = 1.0 / (ratio * L)

    lu = _laplacian_lu(d, n)
    v = np.zeros((m,) + grid.node_shape)
    vbar = v.copy()
    # Dual warm start: exact maximizer of <p, xi> over the ball, cellwise.
    wxi = xib * lam_n[None]
    nrm = np.sqrt(np.sum(wxi * wxi, axis=(0, 1)))
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(nrm > 0, xib * lam_n[None] ** 2 / nrm, 0.0)
    xin = float(np.sqrt((xi * xi).sum()))
    if d == 1 and xin > 0.0:
        # One dimension is closed form: all slope mass on the cheapest
        # cell, dual constant at that weight.  The certificate below
        # still validates the pair; iterations only run on roundoff.
        a = lam_n[0]
        k_star = int(np.argmin(a))
        nodes = np.arange(n + 1, dtype=float)
        ramp = np.where(nodes > k_star, grid.side, 0.0) - h * nodes
        v = xi[:, 0:1] * ramp[None, :]
        vbar = v.copy()
        p = np.repeat(((xi[:, 0] / xin) * float(a[k_star]))[:, None, None], n, axis=2)

    best_primal = math.inf
    best_dual = -math.inf
    best_v = v.copy()
    it = 0
    next_check = 0
    interval = max(1, int(check_every))
    checks = 0
    converged = False
    gap = math.inf
    while True:
        if it >= next_check or it >= max_iter:
            primal_n = _primal_normalized(v, xib, lam_n, h, d)
            if primal_n < best_primal:
                best_primal = primal_n
                best_v = v.copy()
            dual_n = _certified_dual(p, lam_n, xi, h, lu)
            # clamp: roundoff in the repair can edge past an exact primal
            best_dual = max(best_dual, min(dual_n, best_primal))
            checks += 1
            primal_rep = scale * best_primal + lam0_total
            dual_rep = scale * best_dual + lam0_total
            gap = (primal_rep - dual_rep) / max(1.0, abs(primal_rep))
            if gap <= tol:
                converged = True
            next_check = it + interval
            interval = min(int(interval * 1.3) + 1, 250)
        if converged or it >= max_iter:
            break
        w = _grad(vbar, h)
        w += xib
        arg = p + (sigma * hd) * w
        p = project_radial(arg, radii) if iso else project_ellipsoid(arg, lam_n)
        v_new = v - (tau * hd) * _grad_adjoint(p, h)
        np.subtract(2.0 * v_new, v, out=vbar)
        v = v_new
        it += 1

    return SolveReport(
        primal=scale * best_primal + lam0_total,
        dual=scale * best_dual + lam0_total,
        gap=gap,
        iterations=it,
        converged=converged,
        minimizer=best_v,
        problem=problem,
        tol=tol,
        wall_time=time.perf_counter() - t0,
        gap_checks=checks,
    )


@dataclass(frozen=True, eq=False)
class SolveTask:
    """One cell solve, the step behind every Monte Carlo estimate.

    Realization ``realization`` of ``spec`` under ``seed`` is assembled on
    the cube of side ``t`` centered at ``center`` (the origin if None)
    with slope ``xi``, and solved to the relative gap ``tol``.
    """

    spec: FieldSpec
    seed: int
    realization: int
    t: float
    xi: np.ndarray
    center: tuple = None
    cells_per_unit: int = 2
    tol: float = 1e-5
    max_iter: int = 150_000


def _solve_task(task: SolveTask) -> SolveReport:
    fld = sample_field(task.spec, task.seed, task.realization)
    problem = cell_problem_on_cube(fld, task.t, task.xi, task.cells_per_unit,
                                   center=task.center)
    return solve_cell(problem, tol=task.tol, max_iter=task.max_iter)


def solve_many(tasks, workers: int = 1):
    """Yield one SolveReport per task, in task order.

    With one worker this is a plain generator that solves each task when
    it is asked for, so a caller that reduces as it goes holds a single
    minimizer at a time.  More workers share a thread pool; solves
    mostly hold the GIL, so this rarely shortens a run.  Every solve
    goes through this module's ``solve_cell``, which is what
    instrumentation that rebinds it sees.
    """
    if workers <= 1:
        yield from map(_solve_task, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_solve_task, tasks)


def save_minimizer(report: SolveReport, path) -> Path:
    """Dump the minimizer as flat row-major float64 with a JSON sidecar.

    Binary layout: magic 'HLMF', uint32 version, uint32 (d, m, n),
    float64 t, then m*(n+1)^d little-endian float64 nodal values in C
    order.  The sidecar <path>.json records the problem and
    certificates.
    """
    path = Path(path)
    grid = report.grid
    header = struct.pack(_DUMP_FMT, MAGIC, DUMP_VERSION,
                         grid.dimension, grid.components, grid.cells, float(grid.side))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(report.minimizer, dtype="<f8").tobytes())
    sidecar = {
        "dimension": grid.dimension,
        "components": grid.components,
        "cells": grid.cells,
        "side": grid.side,
        "center": list(grid.center),
        "xi": report.problem.xi.tolist(),
        "primal": report.primal,
        "dual": report.dual,
        "gap": report.gap,
        "iterations": report.iterations,
        "converged": report.converged,
        "tol": report.tol,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return path


def load_minimizer(path):
    """Read a minimizer dump; returns (metadata dict, nodal array)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(_DUMP_FMT))
        magic, version, d, m, n, t = struct.unpack(_DUMP_FMT, head)
        if magic != MAGIC:
            raise ValueError(f"not a minimizer dump: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f8").reshape((m,) + (n + 1,) * d)
    meta = {"version": version, "dimension": d, "components": m, "cells": n, "side": t}
    with open(str(path) + ".json") as fh:
        meta["sidecar"] = json.load(fh)
    return meta, data.copy()
