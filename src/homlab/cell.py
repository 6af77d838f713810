"""Cell problems on cubes: discretization and a gap-certified solver.

The cell problem minimizes the weighted linear-growth energy

    E(v) = sum_K h^d ( |(Gv + xi) Lambda_K|_F + lam_K )

over perturbations v that vanish on the cube boundary, where G is the
forward-difference gradient on a uniform grid and the weights live at
cell centers.  The minimization runs a primal-dual (Chambolle-Pock)
iteration whose dual iterates are repaired into exactly feasible dual
points, so every reported value carries a certified duality gap

    gap = (primal - dual) / |primal|,

relative at every weight scale (0 when the primal is exactly 0, as for
xi = 0 with no lower-order term).  Weights are normalized by their
maximum before iterating (the energy is 1-homogeneous in Lambda), which
keeps step sizes well scaled for heavy-tailed fields; reported values
are restored to the original scale, so scaling Lambda and lam by a power
of two scales primal and dual exactly and changes nothing else.

The iteration is over-relaxed (Condat 2013, Alg. 3.2).  With u = tau h^d
G^T p, one step sets p~ = proj(p + sigma h^d (G vbar + xi)), then
p <- p + rho (p~ - p) and v <- v - rho u, then vbar = 2 (v - u') - v with
u' = tau h^d G^T p for the new p.  rho = _RELAXATION = 1.9; any rho in
(0, 2) converges at these step sizes, and rho = 1 is plain Chambolle-Pock.
The gap checks certify the relaxed pair (v, p): a relaxed p may leave the
dual balls, and the repair in _certified_dual rescales it back into them.

One class, _Lattice, defines the discretization: flat buffers over the
padded node lattice, nodes (m, N) with N = (n+1)^d and cells (m, d, N),
each at its lowest-corner node, so a cell with a coordinate n is a ghost.
A step along axis j is the flat stride (n+1)^(d-1-j).  The iteration, the
primal energy, the certificate and its Poisson matrix all run on it, and
match the plain (m, d, *cells) reference kept in the tests bit for bit.
Both projections run in place on the whole cell buffer.  The ellipsoid
gets unit axes on the ghosts, whose p is exactly 0, so they stay inside
and untouched, and it keeps one multiplier per cell from one iteration
to the next as its Newton warm start.
"""

from __future__ import annotations

import json
import math
import struct
import threading
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
_RELAXATION = 1.9  # rho of the over-relaxed step, in (0, 2)


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
        return self._lattice(self.cells, 0.5)

    def nodes(self) -> np.ndarray:
        """Physical coordinates of grid nodes, shape (*(cells + 1), d)."""
        return self._lattice(self.cells + 1, 0.0)

    def _lattice(self, count: int, shift: float) -> np.ndarray:
        axes = [c - 0.5 * self.side + (np.arange(count) + shift) * self.h
                for c in self.center]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(eq=False)
class CellProblem:
    """Discretized cell problem: grid, boundary slope xi, cell weights."""

    grid: Grid
    xi: np.ndarray          # (m, d)
    lam: np.ndarray         # (d, *cells) diagonal entries at cell centers
    lam0: np.ndarray = None  # (*cells,) lower-order weight, or None

    def energy_density(self, v: np.ndarray) -> np.ndarray:
        """Per-cell energy h^d (|(Gv+xi) Lambda|_F + lam), shape (*cells,)."""
        grid = self.grid
        d = grid.dimension
        dens = _cell_norms(_Lattice(d, grid.cells), v.reshape(v.shape[0], -1), self.xi,
                           self.lam.reshape(d, -1), grid.h)
        if self.lam0 is not None:
            dens = dens + self.lam0.ravel()
        return (grid.h ** d * dens).reshape(grid.cell_shape)

    def energy(self, v: np.ndarray, cell_mask=None) -> float:
        dens = self.energy_density(v)
        if cell_mask is not None:
            dens = dens[cell_mask]
        return float(dens.sum())


def assemble(field: FieldSample, grid: Grid, xi) -> CellProblem:
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
    lam0 = field.lower(centers) if field.spec.lower_order is not None else None
    return CellProblem(grid=grid, xi=xi, lam=lam, lam0=lam0)


def cube_grid(dimension: int, t: float, cells_per_unit: int = 2,
              components: int = 1, center=None) -> Grid:
    """Resolution policy: n = cells_per_unit * t cells per side (min 2)."""
    n = max(2, int(round(cells_per_unit * t)))
    return Grid(dimension=dimension, side=float(t), cells=n,
                components=components, center=center)


def cell_problem_on_cube(field: FieldSample, t: float, xi, cells_per_unit: int = 2,
                         center=None) -> CellProblem:
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    grid = cube_grid(field.spec.dimension, t, cells_per_unit,
                     components=xi.shape[0], center=center)
    return assemble(field, grid, xi)


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

    def __post_init__(self):
        broken = [what for what, bad in (
            ("dual exceeds primal", self.dual > self.primal), ("negative gap", self.gap < 0),
            ("converged with gap above tol", self.converged and self.gap > self.tol),
            ("not converged with gap within tol", not self.converged and self.gap <= self.tol),
        ) if bad]
        if broken:
            raise ValueError(f"certificate broken ({'; '.join(broken)}): primal "
                             f"{self.primal!r}, dual {self.dual!r}, gap {self.gap!r}")

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


class _Lattice:
    """The padded node lattice of n^d cells, flat in C order: N = (n+1)^d
    nodes, cell k at its lowest-corner node k; ``real`` indexes the cells
    with every coordinate below n, ``interior`` the nodes off the boundary."""

    def __init__(self, d: int, n: int):
        self.d = d
        self.N = (n + 1) ** d
        self.strides = [(n + 1) ** (d - 1 - j) for j in range(d)]
        coords = np.indices((n + 1,) * d).reshape(d, self.N)
        self.real = np.flatnonzero(np.all(coords < n, axis=0))
        self.interior = np.flatnonzero(np.all((coords > 0) & (coords < n), axis=0))

    def diff_views(self, V, G):
        """(out, hi, lo) per axis: G[:, j] = V[+e_j] - V, exact on real cells."""
        N = self.N
        return [(G[:, j, :N - s], V[:, s:], V[:, :N - s]) for j, s in enumerate(self.strides)]

    def adjoint_views(self, P, U):
        """(out, lo, hi) per axis: U = sum_j P_j[-e_j] - P_j, exact on interior nodes."""
        N = self.N
        return [(U[:, s:], P[:, j, :N - s], P[:, j, s:]) for j, s in enumerate(self.strides)]


def _forward(views) -> None:
    for out, hi, lo in views:
        np.subtract(hi, lo, out=out)


def _adjoint(views) -> None:
    (out, lo, hi), *rest = views
    np.subtract(lo, hi, out=out)
    for out, lo, hi in rest:
        np.add(out, lo, out=out)
        np.subtract(out, hi, out=out)


def _differences(lat: _Lattice, V: np.ndarray, h: float) -> np.ndarray:
    """Forward differences DV / h on the real cells, (m, d, cells) in C order."""
    D = np.empty((V.shape[0], lat.d, lat.N))  # only real cells are read
    _forward(lat.diff_views(V, D))
    # np.take returns a C-ordered copy, so later sums add in reference order
    return np.take(D, lat.real, axis=-1) / h


def _cell_norms(lat: _Lattice, V, xi, lam, h) -> np.ndarray:
    """|(DV/h + xi) Lambda|_F on each real cell; lam is (d, cells)."""
    w = (_differences(lat, V, h) + xi[..., None]) * lam[None]
    return np.sqrt(np.sum(w * w, axis=(0, 1)))


# serializes cache misses, so concurrent solves of one size factor it once
_LU_LOCK = threading.Lock()


@lru_cache(maxsize=32)
def _laplacian_lu(d: int, n: int):
    """Sparse LU of the Dirichlet graph Laplacian on the interior nodes."""
    lat = _Lattice(d, n)
    offsets = [0] + [sign * s for s in lat.strides for sign in (1, -1)]
    A = sp.diags([2.0 * d] + [-1.0] * (2 * d), offsets, shape=(lat.N, lat.N), format="csr")
    A = A[lat.interior][:, lat.interior]
    # symmetric positive definite: a symmetric ordering and no pivoting
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _certified_dual(lat: _Lattice, P, lam, xi, h, lu) -> float:
    """Lower bound from any dual point, made divergence-free and feasible.

    Subtracts the gradient of a discrete Poisson solve so the repaired
    point annihilates all interior nodes, then rescales it into the
    dual balls (a relaxed iterate may lie outside them); the resulting
    value bounds the discrete minimum from below (up to sparse-LU roundoff).
    """
    m = P.shape[0]
    R = np.zeros((m, lat.N))
    _adjoint(lat.adjoint_views(P, R))  # D^T p on interior nodes
    psi = np.zeros((m, lat.N))
    psi[:, lat.interior] = lu.solve(R[:, lat.interior].T * h).T
    ptil = np.take(P, lat.real, axis=-1) - _differences(lat, psi, h)
    ratio = ptil / lam[None]
    nb = np.sqrt(np.sum(ratio * ratio, axis=(0, 1)))
    mx = float(nb.max())
    s = 1.0 if mx <= 1.0 else 1.0 / mx
    return s * h**lat.d * float((ptil.sum(axis=-1) * xi).sum())


def default_step_ratio(grid: Grid, xi: np.ndarray) -> float:
    """Primal/dual step balance.

    The primal iterate scale grows with the cell count per side and the
    slope magnitude while the dual stays in unit balls; benchmarks put
    the optimum near cells/16 * |xi| with a floor of 2.
    """
    xin = float(np.sqrt((xi * xi).sum()))
    return max(2.0, grid.cells / 16.0 * max(1.0, xin))


def solve_cell(problem: CellProblem, tol: float = 1e-5,
               max_iter: int = 150_000) -> SolveReport:
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
    lam0_total = hd * float(problem.lam0.sum()) if problem.lam0 is not None else 0.0

    L = 2.0 * math.sqrt(d) * h ** (d - 1)
    ratio = default_step_ratio(grid, xi)
    tau = ratio / L
    sigma = 1.0 / (ratio * L)

    with _LU_LOCK:
        lu = _laplacian_lu(d, n)
    v = np.zeros((m,) + grid.node_shape)
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
        p = np.repeat(((xi[:, 0] / xin) * float(a[k_star]))[:, None, None], n, axis=2)

    # Iterate on the padded node lattice (see the module docstring).
    lat = _Lattice(d, n)
    N = lat.N
    lam_k = lam_n.reshape(d, -1)
    step_p, step_v = np.zeros(N), np.zeros(N)
    step_p[lat.real] = sigma * hd
    step_v[lat.interior] = tau * hd
    if iso:
        radii = np.zeros(N)
        radii[lat.real] = lam_k[0]
    else:  # ghost cells get unit axes; their p is 0, so they stay inside
        axes = np.ones((d, N))
        axes[:, lat.real] = lam_k
        nu = np.zeros(N)  # each cell's multiplier, carried across iterations
    V, W, U = v.reshape(m, N).copy(), np.empty((m, N)), np.zeros((m, N))
    Vbar = V.copy()
    G, P, P_old = np.zeros((m, d, N)), np.zeros((m, d, N)), np.empty((m, d, N))
    P[..., lat.real] = p.reshape(m, d, -1)
    xi_col = xi.reshape(m, d, 1)
    grad_views, adjoint_views = lat.diff_views(Vbar, G), lat.adjoint_views(P, U)

    best_primal = math.inf
    best_dual = -math.inf
    best_v = V.copy()
    it = 0
    next_check = 0
    interval = 20  # iterations to the second gap check, then 1.3x per check
    checks = 0
    converged = False
    gap = math.inf
    while True:
        if it >= next_check or it >= max_iter:
            primal_n = hd * float(_cell_norms(lat, V, xi, lam_k, h).sum())
            if primal_n < best_primal:
                best_primal = primal_n
                best_v = V.copy()
            dual_n = _certified_dual(lat, P, lam_k, xi, h, lu)
            # clamp: roundoff in the repair can edge past an exact primal
            best_dual = max(best_dual, min(dual_n, best_primal))
            checks += 1
            primal_rep = scale * best_primal + lam0_total
            dual_rep = scale * best_dual + lam0_total
            gap = (primal_rep - dual_rep) / abs(primal_rep) if primal_rep else 0.0
            if gap <= tol:
                converged = True
            next_check = it + interval
            interval = min(int(interval * 1.3) + 1, 250)
        if converged or it >= max_iter:
            break
        _forward(grad_views)  # G = D vbar
        G /= h
        G += xi_col
        G *= step_p  # sigma h^d on real cells, 0 on ghosts
        np.copyto(P_old, P)
        P += G
        if iso:
            project_radial(P, radii, out=P)
        else:
            project_ellipsoid(P, axes, nu=nu, out=P)
        P -= P_old  # P = P_old + rho (projected - P_old)
        P *= _RELAXATION
        P += P_old
        U *= _RELAXATION  # U still holds the adjoint of P_old
        V -= U
        _adjoint(adjoint_views)  # U = D^T P
        U /= h
        U *= step_v  # tau h^d on interior nodes, 0 on the boundary
        np.subtract(V, U, out=W)
        np.multiply(W, 2.0, out=Vbar)
        Vbar -= V
        it += 1

    return SolveReport(
        primal=scale * best_primal + lam0_total,
        dual=scale * best_dual + lam0_total,
        gap=gap,
        iterations=it,
        converged=converged,
        minimizer=best_v.reshape((m,) + grid.node_shape),
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


def _solve_task(task: SolveTask) -> SolveReport:
    fld = sample_field(task.spec, task.seed, task.realization)
    problem = cell_problem_on_cube(fld, task.t, task.xi, task.cells_per_unit,
                                   center=task.center)
    return solve_cell(problem, tol=task.tol)


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
