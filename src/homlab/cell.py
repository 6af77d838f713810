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
keeps step sizes well scaled for heavy-tailed fields, and the slope by
c = 2^floor(log2 |xi|_F) (it is 1-homogeneous in xi too, before the
lower-order total is added).  Reported values are restored to the
original scale, so scaling Lambda and lam, or xi without lam, by a power
of two scales primal, dual and minimizer exactly and changes nothing else.

The iteration is over-relaxed (Condat 2013, Alg. 3.2).  With u = T h^d
G^T p, one step sets p~ = proj(p + Sigma h^d (G vbar + xi)), then
p <- p + rho (p~ - p) and v <- v - rho u, then vbar = v - 2 u' with
u' = T h^d G^T p for the new p.  With isotropic weights Sigma = sigma,
T = tau and proj is the Euclidean projection onto the dual balls.  With
anisotropic ones both steps are diagonally preconditioned (Pock &
Chambolle, ICCV 2011).  Sigma = sigma omega, where omega_Kj =
(s_Kj / max_i s_Ki)^2 <= 1 for the semiaxes s_K = diag Lambda_K of cell
K's dual ball, and proj projects in the metric Sigma^-1, where it is the
closed-form shrink q / max(1, |q/s|_F) (the projections module says why).
T = tau kappa, where kappa_x = 2d / (omega summed over the 2d grid edges
at node x) is in [1, 2d]: it gives back to the primal step what omega
takes from the dual one.  Every row of |K|, K = h^d G, sums to at most
2 h^(d-1) and column x of Sigma |K| to sigma h^(d-1) times that sum of
omega, so Cauchy-Schwarz on each row gives |Sigma^(1/2) K T^(1/2)|^2 <=
4 d sigma tau h^(2d-2) = sigma tau L^2 = 1, the bound of the isotropic
steps.  rho = _RELAXATION = 1.9; any rho in (0, 2) converges at these
step sizes, and rho = 1 is plain Chambolle-Pock.
The gap checks certify the relaxed pair (v, p): a relaxed p may leave the
dual balls, and the repair in _certified_dual rescales it back into them.

One class, _Lattice, defines the discretization: flat buffers over the
padded node lattice, nodes (m, N) with N = (n+1)^d and cells (m, d, N),
each at its lowest-corner node, so a cell with a coordinate n is a ghost.
A step along axis j is the flat stride (n+1)^(d-1-j).  The iteration, the
primal energy and the certificate all run on it, and match the plain
(m, d, *cells) reference kept in the tests bit for bit.  The certificate's
Poisson solve is exact in the sine basis when d >= 2, where the interior
Laplacian is diagonal: 2d dense sine products per solve and no factor; the
1-d tridiagonal one gets a sparse LU per grid size.
With D = h G the raw differences and c_p = sigma h^d / h, the primal
iterate is W = c_p (v + xi.x), x the node coordinates from the lowest
corner: D W = sigma h^d (G v + xi) on every real cell, the whole dual
step before p is added, and W stays c_p xi.x on the boundary.  A step
(18 numpy calls in 2-d, m = 1; 20 with anisotropic weights, which
multiply D Wbar by omega and divide by the semiaxes in the projection)
projects the gradient buffer D Wbar + P in place, the projection
returning rho times the projected point, then runs
P <- (1 - rho) P + that, W -= U, U = D^T P step_w = c_p rho u' (step_w is
c_p rho T h^d / h on interior nodes, 0 on the boundary) and
Wbar = W - 2 U / rho; no copy of the old p is kept.  The gap checks read
v = W / c_p - xi.x on interior nodes and set it exactly 0 on the boundary,
so the primal is the energy of an admissible v and that v is the minimizer
returned.  The ghosts get unit radii or axes, so omega 1.  Their entries
of G and P are bounded (a projected point is in a unit ball, and P
contracts by |1 - rho| < 1 before it is added), and no real cell, interior
node or certificate reads them.  omega, kappa and the projection's
divisors depend on the weights alone, so a solve computes them once; a
projection carries nothing from one step to the next.

Precision.  A large lattice (_large_lattice: a dual array of at least
_LARGE_DUAL entries, where arithmetic rather than call overhead sets the
cost of a step) whose normalized weights are all normal float32 numbers
iterates in float32: the warm start and check 0 run in float64, then W,
Wbar, U, G, P and the step arrays are cast to float32.  Every gap check
still runs in float64, on exact casts of W and P, so the reported bounds
are float64 functions of the iterate whatever its precision.  float32
steps can stall a few decades above tol, so the first check after check
0 whose gap is not strictly below the previous check's casts the iterate
back to float64, where it stays.  Every other lattice runs in float64
throughout.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldSample, FieldSpec, sample_field
from .projections import (ellipsoid_bounds, ellipsoid_weights, project_ellipsoid,
                          project_radial)

_RELAXATION = 1.9  # rho of the over-relaxed step, in (0, 2)

# Smallest dual array, m*d*(n+1)^d entries, of a large lattice: there
# arithmetic, not the overhead of short numpy calls, sets the cost of a
# step, so its solve goes to the pool and iterates in float32.  Below it
# the calls hold the GIL and threads slow a solve: four solves on 2 CPUs
# at workers 1 -> 2 took 3.6 -> 4.0 s at 18,818 entries, tied at 22,050
# and 24,000 and took 5.9 -> 5.2 s at 25,538 (README, Performance).
_LARGE_DUAL = 25_000


def _large_lattice(m: int, d: int, n: int) -> bool:
    """Whether the dual array of m rows on n^d cells is large."""
    return m * d * (n + 1) ** d >= _LARGE_DUAL


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

    def open_mesh(self, nodes: bool = False) -> tuple:
        """Physical coordinates of the cell centers (or of the nodes) along
        each axis, as the ``np.ix_`` open mesh: d arrays that broadcast to
        the grid's shape."""
        count, shift = (self.cells + 1, 0.0) if nodes else (self.cells, 0.5)
        return np.ix_(*(c - 0.5 * self.side + (np.arange(count) + shift) * self.h
                        for c in self.center))

    def cell_centers(self) -> np.ndarray:
        """Physical coordinates of cell centers, shape (*cells, d)."""
        return np.stack(np.broadcast_arrays(*self.open_mesh()), axis=-1)

    def nodes(self) -> np.ndarray:
        """Physical coordinates of grid nodes, shape (*(cells + 1), d)."""
        return np.stack(np.broadcast_arrays(*self.open_mesh(nodes=True)), axis=-1)


@dataclass(eq=False)
class CellProblem:
    """Discretized cell problem: grid, boundary slope xi, cell weights."""

    grid: Grid
    xi: np.ndarray          # (m, d)
    lam: np.ndarray         # (d, *cells) diagonal entries at cell centers
    lam0: np.ndarray        # (*cells,) lower-order weight, 0 without one

    def energy_density(self, v: np.ndarray) -> np.ndarray:
        """Per-cell energy h^d (|(Gv+xi) Lambda|_F + lam), shape (*cells,)."""
        grid = self.grid
        d = grid.dimension
        dens = _cell_norms(_Lattice(d, grid.cells), v.reshape(v.shape[0], -1), self.xi,
                           self.lam.reshape(d, -1), grid.h) + self.lam0.ravel()
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
    lam, lam0 = field.at_cells(*(np.floor(x + o).astype(np.int64)
                                 for x, o in zip(grid.open_mesh(), field.origin)))
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
    def nonfinite(self) -> bool:
        """Overflow or NaN ended the solve at a gap check, uncertified."""
        return not (math.isfinite(self.primal) and math.isfinite(self.dual))

    @property
    def grid(self) -> Grid:
        return self.problem.grid

    @property
    def normalized(self) -> float:
        """primal / t^d."""
        return self.primal / self.grid.side ** self.grid.dimension


class _Lattice:
    """The padded node lattice of n^d cells, flat in C order: N = (n+1)^d
    nodes, cell k at its lowest-corner node k; ``coords`` holds each node's
    integer coordinates, (d, N), ``real`` indexes the cells with every
    coordinate below n, ``interior`` the nodes off the boundary."""

    def __init__(self, d: int, n: int):
        self.d = d
        self.N = (n + 1) ** d
        self.strides = [(n + 1) ** (d - 1 - j) for j in range(d)]
        self.coords = coords = np.indices((n + 1,) * d).reshape(d, self.N)
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


# serializes cache misses, so concurrent 1-d solves of one size factor once
_LU_LOCK = threading.Lock()


def splu(A, **options):
    """scipy.sparse.linalg.splu, imported on the first call: only 1-d
    repairs factor, so a 2-d or 3-d run never loads scipy.sparse."""
    from scipy.sparse.linalg import splu as factor
    return factor(A, **options)


@dataclass(frozen=True)
class _SinePoisson:
    """Solver of A x = rhs, rhs ((n-1)^d, m) as for a sparse factor, where
    A = S^(x)d diag(E) S^(x)d: x = S^(x)d ((S^(x)d rhs) / E)."""

    S: np.ndarray      # (n-1, n-1), orthogonal and symmetric
    inv_E: np.ndarray  # (n-1,)*d, 1 / E

    def _sines(self, x: np.ndarray) -> np.ndarray:
        """S along every axis of each row of x, (m, (n-1)^d) in C order."""
        k, d = len(self.S), self.inv_E.ndim
        for j in range(d - 1):
            x = self.S @ x.reshape(-1, k, k ** (d - 1 - j))
        return x.reshape(-1, k) @ self.S  # the last axis; S is symmetric

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m = rhs.shape[1]
        y = self._sines(rhs.T).reshape((m,) + self.inv_E.shape) * self.inv_E
        return self._sines(y).reshape(m, -1).T


@lru_cache(maxsize=32)
def _poisson_solver(d: int, n: int):
    """Solver of the Dirichlet graph Laplacian on the interior nodes, the
    kron sum A of T = tridiag(-1, 2, -1) along every axis.  The orthogonal
    sine matrix S_jk = sqrt(2/n) sin(pi j k / n) diagonalizes T, so S^(x)d
    diagonalizes A, with eigenvalues E = sum_j (2 - 2 cos(pi k_j / n)).  In
    1-d, where S would hold n^2 entries and T's LU fills nothing, T is
    factored instead."""
    if d == 1:
        import scipy.sparse as sp
        T = sp.diags([2.0, -1.0, -1.0], [0, 1, -1], shape=(n - 1, n - 1), format="csc")
        # symmetric positive definite: a symmetric ordering and no pivoting
        return splu(T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    k = np.arange(1, n)
    eig = 2.0 - 2.0 * np.cos(np.pi / n * k)
    return _SinePoisson(math.sqrt(2.0 / n) * np.sin(np.pi / n * np.outer(k, k)),
                        1.0 / sum(np.ix_(*(eig,) * d)))


def _certified_dual(lat: _Lattice, P, lam, xi, h, poisson) -> float:
    """Lower bound from any dual point, made divergence-free and feasible.

    Subtracts the gradient of a discrete Poisson solve so the repaired
    point annihilates all interior nodes, then rescales it into the
    dual balls (a relaxed iterate may lie outside them); the resulting
    value bounds the discrete minimum from below (up to roundoff of the
    sine transforms, or of the LU in 1-d).
    """
    m = P.shape[0]
    R = np.zeros((m, lat.N))
    _adjoint(lat.adjoint_views(P, R))  # D^T p on interior nodes
    psi = np.zeros((m, lat.N))
    psi[:, lat.interior] = poisson.solve(R[:, lat.interior].T * h).T
    ptil = np.take(P, lat.real, axis=-1) - _differences(lat, psi, h)
    ratio = ptil / lam[None]
    with np.errstate(over="ignore"):  # an infinite norm scales ptil to 0, still a bound
        nb = np.sqrt(np.sum(ratio * ratio, axis=(0, 1)))
    mx = float(nb.max())
    s = 1.0 if mx <= 1.0 else 1.0 / mx
    return s * h**lat.d * float((ptil.sum(axis=-1) * xi).sum())


def slope_unit(xi: np.ndarray) -> float:
    """c = 2^floor(log2 |xi|_F), or 1 for xi = 0: a power of two, so xi / c
    is exact and has |xi / c|_F in [1, 2).  The norm is taken of xi scaled
    below 1 by a power of two, so its squares cannot overflow."""
    if not np.any(xi):
        return 1.0
    top = math.frexp(float(np.abs(xi).max()))[1]  # every |entry| < 2^top
    r = np.ldexp(xi, -top)
    return math.ldexp(1.0, top + math.frexp(float(np.sqrt((r * r).sum())))[1] - 1)


def default_step_ratio(grid: Grid, xi: np.ndarray) -> float:
    """Primal/dual step balance for a normalized slope (|xi|_F in [1, 2), or 0).

    The primal iterate scale grows with the cell count per side and the
    slope magnitude while the dual stays in unit balls; benchmarks put
    the optimum near cells/16 * |xi| with a floor of 2.
    """
    xin = float(np.sqrt((xi * xi).sum()))
    return max(2.0, grid.cells / 16.0 * xin)


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
    c = slope_unit(problem.xi)
    xi = problem.xi / c  # exact: c is a power of two

    scale = float(problem.lam.max())
    lam_n = problem.lam / scale if 0.0 < scale < math.inf else None
    if lam_n is None or not lam_n.min() > 0.0:  # the certificate divides by every weight
        raise ValueError(f"weights must be finite and positive fractions of the largest; got "
                         f"{float(problem.lam.min())!r} to {scale!r}")
    iso = bool(np.all(lam_n == lam_n[:1]))
    unit = scale * c  # a normalized value times unit is the reported one
    with np.errstate(over="ignore"):  # an infinite total ends the solve at its first check
        lam0_total = hd * float(problem.lam0.sum())

    L = 2.0 * math.sqrt(d) * h ** (d - 1)
    ratio = default_step_ratio(grid, xi)
    tau, sigma = ratio / L, 1.0 / (ratio * L)

    with _LU_LOCK:
        poisson = _poisson_solver(d, n)
    # Iterate on the padded node lattice (see the module docstring).
    lat = _Lattice(d, n)
    N = lat.N
    lam_k = lam_n.reshape(d, -1)
    xi_col = xi.reshape(m, d, 1)
    rho = _RELAXATION
    c_p = sigma * hd / h  # W = c_p (v + xi.x) carries the slope
    X = sum(xi[:, j, None] * (lat.coords[j] * h) for j in range(d))  # xi.x on the nodes
    V, U = np.zeros((m, N)), np.zeros((m, N))
    G, P = np.zeros((m, d, N)), np.zeros((m, d, N))
    xin = float(np.sqrt((xi * xi).sum()))
    if d == 1 and xin > 0.0:
        # One dimension is closed form: all slope mass on the cheapest
        # cell, dual constant at that weight.  The certificate below
        # still validates the pair; iterations only run on roundoff.
        a = lam_n[0]
        k_star = int(np.argmin(a))
        nodes = np.arange(n + 1, dtype=float)
        V[:] = xi[:, 0:1] * (np.where(nodes > k_star, grid.side, 0.0) - h * nodes)
        P[..., lat.real] = ((xi[:, 0] / xin) * float(a[k_star]))[:, None, None]
    else:
        # Dual warm start: exact maximizer of <p, xi> over the ball, cellwise.
        wxi = xi_col * lam_k[None]
        nrm = np.sqrt(np.sum(wxi * wxi, axis=(0, 1)))
        with np.errstate(invalid="ignore", divide="ignore"):
            P[..., lat.real] = np.where(nrm > 0, xi_col * lam_k[None] ** 2 / nrm, 0.0)
    W = (V + X) * c_p
    Wbar = W.copy()
    step_w = np.zeros(N)
    step_w[lat.interior] = c_p * (rho * tau * hd / h)
    axes = np.ones((d, N))  # ghost cells get unit axes
    axes[:, lat.real] = lam_k
    radii = axes[0]  # all rows agree when iso
    if not iso:  # the preconditioned steps (see the module docstring)
        omega, bounds = ellipsoid_weights(axes), ellipsoid_bounds(axes)
        near = omega.sum(axis=0)  # omega over the 2d edges at each node
        for j, s in enumerate(lat.strides):
            near[s:] += omega[j, :N - s]
        step_w[lat.interior] *= 2 * d / near[lat.interior]  # T = tau kappa
    else:
        omega = bounds = None
    f64_steps = (step_w, radii, omega, bounds)
    grad_views, adjoint_views = lat.diff_views(Wbar, G), lat.adjoint_views(P, U)
    interior, X_in = lat.interior, X[:, lat.interior]
    # a large lattice iterates in float32 after check 0 (module docstring)
    single = _large_lattice(m, d, n) and float(lam_n.min()) >= np.finfo(np.float32).tiny

    best_primal, best_dual, best_v = math.inf, -math.inf, V
    it = next_check = checks = 0
    last_gap = math.inf
    interval = 20  # iterations to the second gap check, then 1.3x per check
    while True:
        if it >= next_check or it >= max_iter:
            V = np.zeros((m, N))  # exactly 0 on the boundary
            V[:, interior] = W[:, interior].astype(np.float64, copy=False) / c_p - X_in
            primal_n = hd * float(_cell_norms(lat, V, xi, lam_k, h).sum())
            if primal_n < best_primal:
                best_primal, best_v = primal_n, V
            dual_n = _certified_dual(lat, P.astype(np.float64, copy=False), lam_k, xi, h,
                                     poisson)
            # clamp: roundoff in the repair can edge past an exact primal
            best_dual = max(best_dual, min(dual_n, best_primal))
            checks += 1
            primal_rep = unit * best_primal + lam0_total
            dual_rep = unit * best_dual + lam0_total
            gap = (primal_rep - dual_rep) / abs(primal_rep) if primal_rep else 0.0
            converged = gap <= tol
            next_check = it + interval
            interval = min(int(interval * 1.3) + 1, 250)
            # overflowed or NaN iterates stay so, and a reported dual of +inf
            # can only rise: the first such check ends the solve uncertified
            done = (converged or dual_rep == math.inf
                    or not (math.isfinite(primal_n) and math.isfinite(dual_n)))
            if single and checks > 1 and not gap < last_gap:
                single = False  # float64 for good
            last_gap = gap
            if not done and single != (W.dtype == np.float32):  # cast, rebuild the views
                dtype = np.float32 if single else np.float64
                W, Wbar, U, G, P = (a.astype(dtype) for a in (W, Wbar, U, G, P))
                step_w, radii, omega, bounds = (
                    a if a is None else a.astype(dtype, copy=False) for a in f64_steps)
                grad_views, adjoint_views = lat.diff_views(Wbar, G), lat.adjoint_views(P, U)
        if done or it >= max_iter:
            break
        _forward(grad_views)  # G = D Wbar, sigma h^d (grad vbar + xi) on real cells
        if not iso:
            G *= omega  # the dual step Sigma = sigma omega
        G += P
        if iso:
            project_radial(G, radii, rho)
        else:
            project_ellipsoid(G, bounds, rho)
        P *= 1.0 - rho  # P <- P + rho (projected - P)
        P += G
        W -= U  # U is c_p rho u for the p before this step
        _adjoint(adjoint_views)  # U = D^T P
        U *= step_w  # c_p rho T h^d / h on interior nodes, 0 on the boundary
        np.multiply(U, -2.0 / rho, out=Wbar)  # Wbar = W - 2 c_p u
        Wbar += W
        it += 1

    return SolveReport(primal=primal_rep, dual=dual_rep, gap=gap, iterations=it,
                       converged=converged, minimizer=(best_v * c).reshape((m,) + grid.node_shape),
                       problem=problem, tol=tol, wall_time=time.perf_counter() - t0,
                       gap_checks=checks)


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
    minimizer at a time.  With more workers, each run of consecutive
    tasks on large lattices (``_large_lattice``) goes to a thread pool and
    every other task is solved in the calling thread, where threads would
    only trade the GIL.  Every solve goes through this module's
    ``solve_cell``, which is what instrumentation that rebinds it sees.
    """
    if workers <= 1:
        yield from map(_solve_task, tasks)
        return
    from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

    def pooled(task):
        d = task.spec.dimension
        n = cube_grid(d, task.t, task.cells_per_unit).cells
        return _large_lattice(np.atleast_2d(task.xi).shape[0], d, n)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for large, run in itertools.groupby(tasks, pooled):
            yield from (pool.map if large else map)(_solve_task, run)


def save_minimizer(report: SolveReport, path) -> None:
    """Dump the minimizer as a numpy ``.npy`` file with a JSON sidecar.

    The array is the (m, *(n + 1)^d) float64 nodal field; the ``.npy``
    header records its dtype and shape.  The sidecar <path>.json records
    the grid, the slope and the certificates.
    """
    grid = report.grid
    with open(path, "wb") as fh:  # np.save(path) would append ".npy"
        np.save(fh, report.minimizer, allow_pickle=False)
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


def load_minimizer(path):
    """Read a minimizer dump; returns (sidecar dict, nodal array).

    The array is read first and pickled data is refused, so a junk file,
    an empty one included, raises ValueError before its sidecar is opened.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except EOFError as exc:  # what numpy raises on an empty file
        raise ValueError(f"{path}: not a numpy array file ({exc})") from exc
    with open(str(path) + ".json") as fh:
        return json.load(fh), data
