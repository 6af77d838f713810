"""Cell-problem discretization and the certified primal-dual solver."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.linalg import splu

import homlab.cell
from homlab import (CellProblem, DistributionSpec, FieldSpec, Grid, IidCubes,
                    Laminate, SolveReport, SolveTask, assemble, cell_problem_on_cube,
                    cube_grid, load_minimizer, sample_field, save_minimizer,
                    solve_cell, solve_many)
from homlab.cell import _Lattice, _poisson_solver, default_step_ratio, slope_unit
from homlab.projections import ellipsoid_bounds, project_ellipsoid, project_radial
from homlab.randomness import keyed_uniform

U12 = DistributionSpec.uniform(1.0, 2.0)
U14 = DistributionSpec.uniform(1.0, 4.0)
TP = DistributionSpec.two_point(1.0, 0.5, 2.0)


def const_spec(c=2.0, d=2):
    return FieldSpec(dimension=d, structure=IidCubes(),
                     diagonal=DistributionSpec.constant(c))


# ------------------------------------------- plain-array reference operators
# The discretization on (m, *(n+1)^d) node and (m, d, *n^d) cell arrays.
# homlab.cell runs it on the flat padded lattice; the bitwise tests below
# check that every iterate, energy and certificate matches these.


def _grad(v: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference cell gradients: (m, *(n+1)^d) -> (m, d, *n^d)."""
    cells = (slice(None),) + (slice(0, v.shape[1] - 1),) * (v.ndim - 1)
    return np.stack([np.diff(v, axis=j)[cells] for j in range(1, v.ndim)], axis=1) / h


def _zero_boundary(u: np.ndarray) -> None:
    for axis in range(1, u.ndim):
        np.moveaxis(u, axis, 0)[[0, -1]] = 0.0


def _grad_adjoint(p: np.ndarray, h: float) -> np.ndarray:
    """Adjoint of _grad onto interior nodes (boundary rows zeroed)."""
    m, d = p.shape[0], p.shape[1]
    n = p.shape[2]
    u = np.zeros((m,) + (n + 1,) * d, dtype=p.dtype)
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


def _certified_dual(p, lam_n, xi, h, poisson) -> float:
    """Lower bound from any dual point, made divergence-free and feasible.

    Subtracts the gradient of a discrete Poisson solve so the repaired
    point annihilates all interior nodes, then rescales it into the
    dual balls (a relaxed iterate may lie outside them); the resulting
    value bounds the discrete minimum from below (up to roundoff of the
    sine transforms, or of the LU in 1-d).
    """
    m = p.shape[0]
    d = p.shape[1]
    n = p.shape[2]
    r = _grad_adjoint(p, 1.0)  # D^T p on interior nodes
    interior = (slice(None),) + tuple(slice(1, n) for _ in range(d))
    rhs = r[interior].reshape(m, -1).T * h
    psi_flat = poisson.solve(rhs)
    psi = np.zeros_like(r)
    psi[interior] = psi_flat.T.reshape((m,) + (n - 1,) * d)
    ptil = p - _grad(psi, h)
    ratio = ptil / lam_n[None]
    nb = np.sqrt(np.sum(ratio * ratio, axis=(0, 1)))
    mx = float(nb.max())
    s = 1.0 if mx <= 1.0 else 1.0 / mx
    cell_axes = tuple(range(2, 2 + d))
    return s * h**d * float((ptil.sum(axis=cell_axes) * xi).sum())


def _kron_laplacian(d: int, n: int):
    """Dirichlet graph Laplacian on the interior nodes as a kron sum."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n - 1, n - 1), format="csc")
    eye = sp.identity(n - 1, format="csc")
    A = None
    for j in range(d):
        term = None
        for axis in range(d):
            f = T if axis == j else eye
            term = f if term is None else sp.kron(term, f, format="csc")
        A = term if A is None else A + term
    return A.tocsc()


def _primal_normalized(v, xib, lam_n, h, d) -> float:
    w = (_grad(v, h) + xib) * lam_n[None]
    return h**d * float(np.sqrt(np.sum(w * w, axis=(0, 1))).sum())


# ------------------------------------------------------------------ grid


def test_grid_basic_geometry():
    g = Grid(dimension=2, side=4.0, cells=8)
    assert g.h == 0.5
    assert g.node_shape == (9, 9)
    assert g.cell_shape == (8, 8)
    centers = g.cell_centers()
    assert centers.shape == (8, 8, 2)
    assert centers[0, 0] == pytest.approx([-1.75, -1.75])
    assert centers[-1, -1] == pytest.approx([1.75, 1.75])
    nodes = g.nodes()
    assert nodes.shape == (9, 9, 2)
    assert nodes[0, 0].tolist() == [-2.0, -2.0]
    assert nodes[-1, -1].tolist() == [2.0, 2.0]


def test_grid_center_offset_and_validation():
    g = Grid(dimension=1, side=2.0, cells=4, center=(3.0,))
    assert g.nodes()[:, 0].tolist() == [2.0, 2.5, 3.0, 3.5, 4.0]
    assert g.cell_centers()[:, 0].tolist() == [2.25, 2.75, 3.25, 3.75]
    with pytest.raises(ValueError):
        Grid(dimension=2, side=1.0, cells=1)
    with pytest.raises(ValueError):
        Grid(dimension=2, side=-1.0, cells=4)
    with pytest.raises(ValueError):
        Grid(dimension=2, side=1.0, cells=4, center=(0.0,))


def test_cube_grid_resolution_policy():
    g = cube_grid(2, 16.0, cells_per_unit=2)
    assert g.cells == 32 and g.side == 16.0
    assert cube_grid(1, 0.5).cells == 2  # floor of the policy


# ----------------------------------------------------------- assembly


def test_assemble_constant_weights():
    fld = sample_field(const_spec(3.0), 0)
    prob = cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]]))
    assert prob.lam.shape == (2, 8, 8)
    assert np.all(prob.lam == 3.0)
    assert prob.lam0.shape == (8, 8) and not prob.lam0.any()


def test_assemble_laminate_constant_transverse():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1), diagonal=U12)
    prob = cell_problem_on_cube(sample_field(spec, 4), 4.0, np.array([[1.0, 0.0]]))
    # weights depend on the first coordinate only
    assert np.all(prob.lam == prob.lam[:, :, :1])


def test_assemble_deterministic_and_validates_xi():
    fld = sample_field(FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP), 7)
    g = cube_grid(2, 4.0)
    a = assemble(fld, g, np.array([[1.0, 2.0]]))
    b = assemble(fld, g, np.array([[1.0, 2.0]]))
    assert np.array_equal(a.lam, b.lam)
    with pytest.raises(ValueError):
        assemble(fld, g, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="field dimension"):
        assemble(sample_field(const_spec(d=3), 7), g, np.array([[1.0, 2.0]]))


def test_energy_density_hand_value():
    fld = sample_field(const_spec(2.0), 0)
    prob = cell_problem_on_cube(fld, 2.0, np.array([[1.0, 1.0]]))
    v = np.zeros((1,) + prob.grid.node_shape)
    dens = prob.energy_density(v)
    # per cell: h^d * |xi Lambda|_F = 0.25 * 2 sqrt(2)
    assert np.allclose(dens, 0.25 * 2.0 * math.sqrt(2.0))
    assert prob.energy(v) == pytest.approx(2.0 ** 2 * 2.0 * math.sqrt(2.0))


# ------------------------------------------------------- finite differences


def test_gradient_adjoint_identity():
    for d, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
        n = 6
        h = 0.37
        v = keyed_uniform(1, "v", np.arange(m * (n + 1) ** d)).reshape(
            (m,) + (n + 1,) * d)
        # boundary rows of v do not matter for the inner-product identity,
        # but the adjoint lands on interior nodes only, so zero them
        _zero_boundary(v)
        p = keyed_uniform(2, "p", np.arange(m * d * n ** d)).reshape(
            (m, d) + (n,) * d)
        lhs = float((_grad(v, h) * p).sum())
        rhs = float((v * _grad_adjoint(p, h)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

        # the same operators on the flat lattice, ghost cells at 0
        lat = _Lattice(d, n)
        V = v.reshape(m, -1)
        P = np.zeros((m, d, lat.N))
        P[..., lat.real] = p.reshape(m, d, -1)
        grad = homlab.cell._differences(lat, V, h)
        assert grad.tobytes() == _grad(v, h).tobytes()
        U = np.zeros((m, lat.N))
        homlab.cell._adjoint(lat.adjoint_views(P, U))
        reference = _grad_adjoint(p, 1.0).reshape(m, -1)
        assert U[:, lat.interior].tobytes() == reference[:, lat.interior].tobytes()
        G = np.zeros((m, d, lat.N))
        G[..., lat.real] = grad
        U_interior = np.zeros_like(U)
        U_interior[:, lat.interior] = U[:, lat.interior] / h
        assert float((G * P).sum()) == pytest.approx(float((V * U_interior).sum()),
                                                     rel=1e-12)


@pytest.mark.parametrize("d, n", [(1, 8), (2, 8), (2, 17), (2, 128), (3, 6), (3, 24)])
def test_lattice_laplacian_solves_like_the_kron_sum(d, n):
    # 1-d factors T = tridiag(-1, 2, -1) itself; from 2-d on the sine matrix S
    # along every axis diagonalizes the kron sum A, and no factor is made
    poisson = _poisson_solver(d, n)
    A = _kron_laplacian(d, n)
    rhs = keyed_uniform(3, "rhs", np.arange(2 * (n - 1) ** d)).reshape(-1, 2)
    x = poisson.solve(rhs)
    if d == 1:
        reference = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        assert x.tobytes() == reference.solve(rhs).tobytes()
    else:
        assert np.abs(poisson.S @ poisson.S - np.eye(n - 1)).max() <= 1e-14
    # the solution, and with it the residual's roundoff, grows like n^2 |rhs|
    eps = np.finfo(float).eps
    assert np.abs(A @ x - rhs).max() <= 4 * eps * n**2 * np.abs(rhs).max()


def test_only_a_pool_loads_concurrent_futures():
    # the executor, and the logging it imports, load only for workers > 1
    code = (
        "import sys, tempfile\n"
        "import homlab.cli\n"
        "from homlab.config import parse_config_dict\n"
        "from homlab.runner import run\n"
        "cfg = {'command': 'solve-cell', 'field': {'dimension': 2, 'structure':"
        " {'kind': 'iid_cubes'}, 'diagonal': {'kind': 'uniform', 'a': 1.0, 'b': 2.0}},"
        " 'xi': 'e1', 't_list': [2], 'n_real': 2, 'tol': 1e-5, 'seed': 0}\n"
        "for workers in (1, 2):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert run(parse_config_dict(cfg), workers=workers, out_dir=out)[0] == 0\n"
        "    print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_only_a_1d_solve_loads_scipy_sparse():
    # the repair's sine transforms need no sparse matrix from 2-d on; only
    # the tridiagonal LU of a 1-d repair imports scipy.sparse, on first use
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from homlab import (DistributionSpec, FieldSpec, IidCubes, cell_problem_on_cube,"
        " sample_field, solve_cell)\n"
        "for d in (2, 3, 1):\n"
        "    spec = FieldSpec(dimension=d, structure=IidCubes(),"
        " diagonal=DistributionSpec.uniform(1.0, 2.0))\n"
        "    prob = cell_problem_on_cube(sample_field(spec, 0, 0), 3.0, np.eye(1, d))\n"
        "    assert solve_cell(prob).converged\n"
        "    print('scipy.sparse' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_repaired_dual_point_is_divergence_free(d, m):
    # _certified_dual's repair: ptil = P - D psi / h with psi = A^-1 D^T P h
    n, h = 7, 0.37
    lat = _Lattice(d, n)
    P = np.zeros((m, d, lat.N))
    P[..., lat.real] = keyed_uniform(4, "P", d, m, np.arange(m * d * n ** d)).reshape(
        m, d, -1) - 0.5
    R = np.zeros((m, lat.N))
    homlab.cell._adjoint(lat.adjoint_views(P, R))
    psi = np.zeros((m, lat.N))
    psi[:, lat.interior] = _poisson_solver(d, n).solve(R[:, lat.interior].T * h).T
    ptil = np.zeros_like(P)
    ptil[..., lat.real] = np.take(P, lat.real, axis=-1) - homlab.cell._differences(lat, psi, h)
    div = np.zeros((m, lat.N))
    homlab.cell._adjoint(lat.adjoint_views(ptil, div))
    assert np.abs(div[:, lat.interior]).max() <= 1e-12 * np.abs(R[:, lat.interior]).max()


def test_gradient_of_affine_field_is_constant():
    from homlab.glue import affine_field
    g = Grid(dimension=2, side=3.0, cells=6)
    xi = np.array([[0.7, -1.2]])
    u = affine_field(g, xi)
    grad = homlab.cell._differences(_Lattice(2, g.cells), u.reshape(1, -1), g.h)
    assert np.allclose(grad[0, 0], 0.7, atol=1e-12)
    assert np.allclose(grad[0, 1], -1.2, atol=1e-12)


# ----------------------------------------------------------------- solves


def test_constant_field_solve_is_exact():
    fld = sample_field(const_spec(2.0), 0)
    for xi, want in ((np.array([[1.0, 0.0]]), 2.0),
                     (np.array([[1.0, 1.0]]), 2.0 * math.sqrt(2.0))):
        prob = cell_problem_on_cube(fld, 8.0, xi)
        rep = solve_cell(prob, tol=1e-5)
        val = rep.normalized
        assert rep.converged
        assert rep.dual <= rep.primal
        assert rep.gap <= 1e-5
        assert val == pytest.approx(want, rel=1e-4)
        # the affine function itself is the minimizer
        assert float(np.abs(rep.minimizer).max()) < 1e-6 * rep.primal


def test_one_dimensional_two_weights_oracle():
    # weight 1 on the left half, 2 on the right, slope 1 on (0, 1):
    # all derivative mass moves to the cheap half, energy exactly 1
    grid = Grid(dimension=1, side=1.0, cells=8)
    lam = np.array([[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]])
    prob = CellProblem(grid=grid, xi=np.array([[1.0]]), lam=lam, lam0=np.zeros(8))
    rep = solve_cell(prob, tol=1e-7)
    assert rep.converged
    assert rep.primal == pytest.approx(1.0, abs=1e-7)


def test_one_dimensional_closed_form_random_weights():
    spec = FieldSpec(dimension=1, structure=IidCubes(), diagonal=U12)
    for idx in range(4):
        fld = sample_field(spec, 23, index=idx)
        t = 16.0
        prob = cell_problem_on_cube(fld, t, np.array([[1.5]]))
        rep = solve_cell(prob, tol=1e-6)
        want = 1.5 * t * float(prob.lam.min())
        assert rep.converged
        assert rep.primal == pytest.approx(want, rel=1e-6)
        assert rep.iterations == 0  # warm start is the exact pair


def smoothed_minimum_oracle(prob, eps=1e-6):
    """Independent route: L-BFGS on the eps-smoothed energy."""
    grid = prob.grid
    m, d, n, h = grid.components, grid.dimension, grid.cells, grid.h
    shape = (m,) + grid.node_shape
    interior = (slice(None),) + (slice(1, n),) * d
    xib = prob.xi.reshape((m, d) + (1,) * d)
    hd = h ** d

    def unpack(x):
        v = np.zeros(shape)
        v[interior] = x.reshape((m,) + (n - 1,) * d)
        return v

    def fun(x):
        v = unpack(x)
        w = (_grad(v, h) + xib) * prob.lam[None]
        dens = np.sqrt(np.sum(w * w, axis=(0, 1)) + eps ** 2)
        val = hd * dens.sum()
        gw = w / dens[None, None]
        gv = _grad_adjoint(gw * prob.lam[None], h) * hd
        return val, gv[interior].ravel()

    x0 = np.zeros(m * (n - 1) ** d)
    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 4000, "ftol": 1e-14, "gtol": 1e-10})
    return float(res.fun)


def test_checkerboard_matches_independent_descent_oracle():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    fld = sample_field(spec, 12)
    prob = cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]]))
    rep = solve_cell(prob, tol=1e-7)
    oracle = smoothed_minimum_oracle(prob)
    assert rep.converged
    assert abs(rep.primal - oracle) <= 1e-3 * max(1.0, oracle)
    # the certified dual cannot exceed the oracle either
    assert rep.dual <= oracle + 1e-6


def test_positive_homogeneity_of_solves():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    fld = sample_field(spec, 3)
    xi = np.array([[1.0, 0.5]])
    tol = 1e-6
    rep1 = solve_cell(cell_problem_on_cube(fld, 8.0, xi), tol=tol)
    for s in (2.0, 5.0):
        rep = solve_cell(cell_problem_on_cube(fld, 8.0, s * xi), tol=tol)
        assert rep.converged and rep1.converged
        assert rep.normalized / s == pytest.approx(rep1.normalized, rel=2.0 * tol * 2.0)


def test_mesh_refinement_stays_within_five_percent():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    fld = sample_field(spec, 6)
    xi = np.array([[0.0, 1.0]])
    vals = []
    for cpu in (2, 4):
        rep = solve_cell(cell_problem_on_cube(fld, 8.0, xi, cells_per_unit=cpu),
                         tol=1e-6)
        assert rep.converged
        vals.append(rep.normalized)
    assert abs(vals[1] - vals[0]) < 0.05 * vals[0]


def test_zero_slope_gives_zero():
    fld = sample_field(const_spec(2.0), 0)
    rep = solve_cell(cell_problem_on_cube(fld, 4.0, np.zeros((1, 2))))
    assert rep.normalized == pytest.approx(0.0, abs=1e-12)


def test_lower_order_term_adds_cell_average():
    lower = DistributionSpec.constant(0.5)
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.constant(2.0), lower_order=lower)
    fld = sample_field(spec, 0)
    rep = solve_cell(cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]])))
    assert rep.normalized == pytest.approx(2.5, rel=1e-6)


def test_two_component_solve_certifies():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=(U12, TP))
    fld = sample_field(spec, 9)
    xi = np.array([[1.0, 0.0], [0.0, -1.0]])
    prob = cell_problem_on_cube(fld, 4.0, xi)
    rep = solve_cell(prob, tol=1e-5)
    assert rep.converged
    assert rep.dual <= rep.primal
    assert rep.gap <= 1e-5


def test_non_convergence_is_flagged_never_raised():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.lognormal(0.0, 1.5))
    fld = sample_field(spec, 1)
    prob = cell_problem_on_cube(fld, 8.0, np.array([[1.0, 1.0]]))
    rep = solve_cell(prob, tol=1e-12, max_iter=3)
    assert not rep.converged
    assert rep.dual <= rep.primal
    assert rep.iterations == 3


def test_heavy_tail_weights_still_certify():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.pareto(1.0, 1.0))
    fld = sample_field(spec, 2)
    prob = cell_problem_on_cube(fld, 8.0, np.array([[0.0, 1.0]]),
                                center=(4.0, 4.0))
    rep = solve_cell(prob, tol=1e-5)
    assert rep.converged
    assert rep.gap <= 1e-5


@pytest.mark.parametrize("d, law, lower, t", [
    (2, U12, None, 4.0),
    (3, U12, None, 4.0),
    (2, DistributionSpec.lognormal(0.0, 1.0), U12, 4.0),
    (2, (U12, U14), None, 4.0),
    (3, (U12, U14, U12), None, 4.0),
    (3, U12, None, 10.0),
    (3, (U12, U14, U12), U12, 10.0),
], ids=["2d", "3d", "2d-lognormal-lower", "2d-aniso", "3d-aniso", "3d-large",
        "3d-large-aniso-lower"])
def test_certificate_is_invariant_under_weight_scaling(d, law, lower, t):
    # the energy is 1-homogeneous in (Lambda, lam): scaling both by 2^k
    # is exact in floating point, so the run must not change at all; on
    # anisotropic laws the step weights omega are ratios of the weights.
    # At t = 10 the lattice is large and iterates in float32 (fewer scales
    # keep the test short)
    spec = FieldSpec(dimension=d, structure=IidCubes(), diagonal=law, lower_order=lower)
    xi = np.array([[1.0, 0.5] + [0.0] * (d - 2)])
    prob = cell_problem_on_cube(sample_field(spec, 0), t, xi)
    base = solve_cell(prob)
    assert base.converged
    for k in range(-60, 61, 1 if t == 4.0 else 15):
        s = 2.0 ** k
        rep = solve_cell(CellProblem(prob.grid, prob.xi, prob.lam * s, prob.lam0 * s))
        assert (rep.iterations, rep.converged, rep.gap) == (
            base.iterations, base.converged, base.gap), k
        assert (rep.primal, rep.dual) == (base.primal * s, base.dual * s), k
        assert rep.minimizer.tobytes() == base.minimizer.tobytes(), k


def test_tiny_heavy_tailed_weights_certify_a_relative_gap():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.pareto(1e-300, 1.0))
    prob = cell_problem_on_cube(sample_field(spec, 0), 8.0, np.array([[1.0, 0.0]]))
    tol = 1e-5
    rep = solve_cell(prob, tol=tol)
    assert rep.converged
    assert rep.dual >= (1.0 - tol) * rep.primal > 0.0


@pytest.mark.parametrize("primal, dual, gap, converged, broken", [
    (1.0, 1.5, 0.0, True, "dual exceeds primal"),
    (1.0, 1.0, -1e-3, True, "negative gap"),
    (1.0, 0.9, 0.1, True, "converged with gap above tol"),
    (1.0, 1.0, 0.0, False, "not converged with gap within tol"),
], ids=["dual-above-primal", "negative-gap", "converged-above-tol", "unconverged-within-tol"])
def test_report_refuses_a_broken_certificate(primal, dual, gap, converged, broken):
    with pytest.raises(ValueError, match=broken):
        SolveReport(primal=primal, dual=dual, gap=gap, iterations=1, converged=converged,
                    minimizer=np.zeros((1, 3, 3)), problem=None, tol=1e-5,
                    wall_time=0.0, gap_checks=1)


DEGENERATE_LAWS = {
    "uniform(1,2)": U12,
    "two_point(1,0.5,10)": DistributionSpec.two_point(1.0, 0.5, 10.0),
    "two_point(0.01,0.5,1)": DistributionSpec.two_point(0.01, 0.5, 1.0),
    "lognormal(0,1)": DistributionSpec.lognormal(0.0, 1.0),
    "pareto(1,1.5)": DistributionSpec.pareto(1.0, 1.5),
}


def test_relaxation_cuts_iterations_on_degenerate_laws(monkeypatch):
    problems = [cell_problem_on_cube(
        sample_field(FieldSpec(dimension=2, structure=IidCubes(), diagonal=law), 0, 0),
        8.0, np.array([[1.0, 0.0]])) for law in DEGENERATE_LAWS.values()]
    relaxed = [solve_cell(prob) for prob in problems]
    monkeypatch.setattr(homlab.cell, "_RELAXATION", 1.0)
    plain = [solve_cell(prob) for prob in problems]
    for name, a, b in zip(DEGENERATE_LAWS, relaxed, plain):
        assert a.converged and b.converged, name
        # both certified intervals [dual, primal] hold the discrete minimum
        assert a.dual <= b.primal and b.dual <= a.primal, name
        assert a.iterations <= b.iterations, name
    assert sum(a.iterations for a in relaxed) <= 0.7 * sum(b.iterations for b in plain)


def reference_solve(problem, tol, max_iter, switches=None):
    """solve_cell without the padded lattice: the same slope and weight
    normalization, warm start, step sizes, check schedule, over-relaxed step
    in the same operation order (the slope carried in the primal iterate
    w = c_p (v + xi.x), 1/h folded into c_p and the step size, rho into the
    projection's scale, the anisotropic dual step weighted by
    omega = (s / max s)^2 per cell and the primal one by kappa per node),
    with each iteration built from _grad, _grad_adjoint and the projections
    on (m, d, *cells) arrays, and the certificate from _primal_normalized and
    the array _certified_dual.  The same precision rule: on a large lattice
    whose normalized weights are normal float32 numbers the steps after check
    0 run in float32, until the first check that does not lower the gap; the
    checks run on float64 casts.  The iteration of each change of precision
    is appended to ``switches``.  Returns (primal, dual, iterations,
    minimizer)."""
    grid = problem.grid
    d, n, m, h = grid.dimension, grid.cells, grid.components, grid.h
    hd = h ** d
    c = slope_unit(problem.xi)
    xi = problem.xi / c
    xib = xi.reshape((m, d) + (1,) * d)
    scale = float(problem.lam.max())
    lam_n = problem.lam / scale
    unit = scale * c
    iso = bool(np.all(lam_n == lam_n[:1]))
    lam0_total = hd * float(problem.lam0.sum())
    L = 2.0 * math.sqrt(d) * h ** (d - 1)
    ratio = default_step_ratio(grid, xi)
    tau, sigma = ratio / L, 1.0 / (ratio * L)
    rho = homlab.cell._RELAXATION
    c_p = sigma * hd / h
    poisson = _poisson_solver(d, n)
    x = np.indices(grid.node_shape) * h  # node coordinates from the lowest corner
    slope = sum(xib[:, j] * x[j] for j in range(d))  # xi.x, (m, *(n+1)^d)
    interior = (slice(None),) + (slice(1, n),) * d
    v = np.zeros((m,) + grid.node_shape)
    wxi = xib * lam_n[None]
    nrm = np.sqrt(np.sum(wxi * wxi, axis=(0, 1)))
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(nrm > 0, xib * lam_n[None] ** 2 / nrm, 0.0)
    xin = float(np.sqrt((xi * xi).sum()))
    if d == 1 and xin > 0.0:
        k_star = int(np.argmin(lam_n[0]))
        nodes = np.arange(n + 1, dtype=float)
        v = xi[:, 0:1] * (np.where(nodes > k_star, grid.side, 0.0) - h * nodes)[None, :]
        p = np.repeat(((xi[:, 0] / xin) * float(lam_n[0, k_star]))[:, None, None], n, axis=2)
    w = (v + slope) * c_p
    wbar, u = w.copy(), np.zeros_like(w)
    top = lam_n / lam_n.max(axis=0)
    omega = top ** 2
    step = np.full(grid.node_shape, c_p * (rho * tau * hd / h))
    if not iso:  # kappa = 2d / (omega summed over the 2d edges at each interior node)
        inner = (slice(1, n),) * d
        near = omega[(slice(None),) + inner].sum(axis=0)
        for j in range(d):
            below = tuple(slice(0, n - 1) if k == j else slice(1, n) for k in range(d))
            near += omega[j][below]
        step[inner] *= 2 * d / near
    single = (m * d * (n + 1) ** d >= homlab.cell._LARGE_DUAL
              and lam_n.min() >= np.finfo(np.float32).tiny)
    weights = [lam_n, omega, step]  # in the iterate's precision
    best_primal, best_dual, best_v = math.inf, -math.inf, v
    it, next_check, interval, checks, last_gap = 0, 0, 20, 0, math.inf
    while True:
        if it >= next_check or it >= max_iter:
            v = np.zeros(w.shape)
            v[interior] = w[interior].astype(float) / c_p - slope[interior]
            primal_n = _primal_normalized(v, xib, lam_n, h, d)
            if primal_n < best_primal:
                best_primal, best_v = primal_n, v
            best_dual = max(best_dual, min(_certified_dual(p.astype(float), lam_n, xi, h,
                                                           poisson), best_primal))
            primal_rep = unit * best_primal + lam0_total
            dual_rep = unit * best_dual + lam0_total
            gap = (primal_rep - dual_rep) / abs(primal_rep) if primal_rep else 0.0
            if gap <= tol:
                break
            checks += 1
            if single and checks > 1 and not gap < last_gap:
                single = False
            last_gap = gap
            next_check = it + interval
            interval = min(int(interval * 1.3) + 1, 250)
        if it >= max_iter:
            break
        if single != (w.dtype == np.float32):
            dtype = np.float32 if single else np.float64
            w, wbar, u, p = (a.astype(dtype) for a in (w, wbar, u, p))
            weights = [a.astype(dtype) for a in (lam_n, omega, step)]
            if switches is not None:
                switches.append(it)
        lam_it, omega_it, step_it = weights
        if iso:
            g = project_radial(_grad(wbar, 1.0) + p, lam_it[0], rho)
        else:
            g = project_ellipsoid(_grad(wbar, 1.0) * omega_it + p, ellipsoid_bounds(lam_it), rho)
        p = p * (1.0 - rho) + g
        w = w - u  # u is c_p rho T h^d D^T p / h for the p before this step
        u = _grad_adjoint(p, 1.0) * step_it
        wbar = u * (-2.0 / rho) + w
        it += 1
    return primal_rep, dual_rep, it, best_v * c


def _bitwise_case(d, m, aniso=False, lower=False, cells_per_unit=2, t=None):
    diagonal = (U12, TP, DistributionSpec.lognormal(0.0, 1.0))[:d] if aniso else TP
    spec = FieldSpec(dimension=d, structure=IidCubes(), diagonal=diagonal,
                     lower_order=U12 if lower else None)
    xi = keyed_uniform(5, "xi", np.arange(m * d)).reshape(m, d) - 0.25
    t = t or {1: 8.0, 2: 4.0, 3: 2.0}[d]
    return cell_problem_on_cube(sample_field(spec, 3), t, xi, cells_per_unit)


BITWISE_CASES = {
    "1d": dict(d=1, m=1), "1d-m2-aniso": dict(d=1, m=2, aniso=True),
    "2d": dict(d=2, m=1), "2d-m2": dict(d=2, m=2),
    "2d-aniso": dict(d=2, m=1, aniso=True), "2d-m2-aniso": dict(d=2, m=2, aniso=True),
    "2d-lower": dict(d=2, m=1, lower=True), "2d-h-third": dict(d=2, m=1, cells_per_unit=3),
    "2d-aniso-h-third": dict(d=2, m=2, aniso=True, cells_per_unit=3),
    "3d": dict(d=3, m=1), "3d-m2-lower": dict(d=3, m=2, lower=True),
    "3d-aniso-h-third": dict(d=3, m=1, aniso=True, cells_per_unit=3),
    # 3 * 21^3 = 27783 dual entries: a large lattice, iterated in float32
    "3d-large": dict(d=3, m=1, t=10.0), "3d-large-aniso": dict(d=3, m=1, aniso=True, t=10.0),
}


@pytest.mark.parametrize("name", BITWISE_CASES)
@pytest.mark.parametrize("tol", [1e-5, 1e-300])
def test_lattice_loop_is_bit_identical_to_reference(name, tol):
    problem = _bitwise_case(**BITWISE_CASES[name])
    for k in (1, 7, 60):
        rep = solve_cell(problem, tol=tol, max_iter=k)
        primal, dual, iterations, minimizer = reference_solve(problem, tol, k)
        assert (rep.primal, rep.dual, rep.iterations) == (primal, dual, iterations)
        assert rep.minimizer.tobytes() == minimizer.tobytes()
        grid = problem.grid
        xib = problem.xi.reshape(problem.xi.shape + (1,) * grid.dimension)
        w = (_grad(minimizer, grid.h) + xib) * problem.lam[None]
        dens = np.sqrt(np.sum(w * w, axis=(0, 1))) + problem.lam0
        density = grid.h ** grid.dimension * dens
        assert problem.energy_density(rep.minimizer).tobytes() == density.tobytes()


def test_weights_below_float32_tiny_keep_the_float64_loop(monkeypatch):
    # a normalized weight that is not a normal float32 would round to 0 or
    # lose bits as a radius, so that large lattice iterates in float64 as
    # a small one does: the run is the reference's with float32 ruled out
    problem = _bitwise_case(**BITWISE_CASES["3d-large"])
    lam = problem.lam.copy()
    lam[0, 3, 4, 5] = 1e-39 * lam.max()
    problem = CellProblem(problem.grid, problem.xi, lam, problem.lam0)
    reports = [solve_cell(problem, tol=1e-300, max_iter=k) for k in (1, 7, 60)]
    monkeypatch.setattr(homlab.cell, "_LARGE_DUAL", math.inf)
    for k, rep in zip((1, 7, 60), reports):
        primal, dual, iterations, minimizer = reference_solve(problem, 1e-300, k)
        assert (rep.primal, rep.dual, rep.iterations) == (primal, dual, iterations)
        assert rep.minimizer.tobytes() == minimizer.tobytes()


def _degenerate_problem(law, t=8.0):
    return cell_problem_on_cube(
        sample_field(FieldSpec(dimension=2, structure=IidCubes(), diagonal=law), 0, 0),
        t, np.array([[1.0, 0.0]]))


def test_a_stalled_float32_solve_finishes_in_float64(monkeypatch):
    # with every lattice counted large, every step after check 0 starts in
    # float32.  Plain float32 stalls on two_point(0.01, 1) at gap 1.6e-5
    # (60,000 iterations); the switch to float64 certifies each law in at
    # most 10% more iterations than float64 throughout, on an interval that
    # overlaps the float64 one
    problems = [_degenerate_problem(law) for law in DEGENERATE_LAWS.values()]
    plain = [solve_cell(prob) for prob in problems]
    monkeypatch.setattr(homlab.cell, "_LARGE_DUAL", 0)
    for name, prob, b in zip(DEGENERATE_LAWS, problems, plain):
        a = solve_cell(prob)
        assert a.converged and b.converged, name
        assert a.dual <= b.primal and b.dual <= a.primal, name
        assert a.iterations <= 1.1 * b.iterations, name


def test_the_switch_to_float64_is_bit_identical_to_reference(monkeypatch):
    # on two_point(0.01, 1) the check at iteration 20 does not lower the
    # gap, so float32 runs from check 0 to there and float64 from there on
    monkeypatch.setattr(homlab.cell, "_LARGE_DUAL", 0)
    problem = _degenerate_problem(DEGENERATE_LAWS["two_point(0.01,0.5,1)"])
    switches = []
    primal, dual, iterations, minimizer = reference_solve(problem, 1e-5, 60, switches)
    assert switches == [0, 20]
    rep = solve_cell(problem, max_iter=60)
    assert (rep.primal, rep.dual, rep.iterations) == (primal, dual, iterations)
    assert rep.minimizer.tobytes() == minimizer.tobytes()


@pytest.mark.parametrize("aniso", [False, True], ids=["iso", "aniso"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_minimizer_vanishes_exactly_on_the_boundary(d, m, aniso):
    # the primal is the energy of the returned minimizer, so that must be a
    # competitor: exactly 0 on every boundary node, not 0 up to roundoff.
    # In 1-d the closed-form start certifies at check 0
    problem = _bitwise_case(d=d, m=m, aniso=aniso)
    for k in (0, 1, 7, 60, 150_000):
        rep = solve_cell(problem, max_iter=k)
        assert rep.primal == pytest.approx(problem.energy(rep.minimizer), rel=1e-13), k
        for axis in range(1, d + 1):
            ends = np.moveaxis(rep.minimizer, axis, 0)[[0, -1]]
            assert np.all(ends == 0.0), (k, axis)
    assert rep.converged


def test_solver_input_validation():
    grid = Grid(dimension=1, side=1.0, cells=4)
    bad = CellProblem(grid=grid, xi=np.array([[1.0]]),
                      lam=np.zeros((1, 4)), lam0=np.zeros(4))
    with pytest.raises(ValueError):
        solve_cell(bad)


@pytest.mark.parametrize("least, largest", [(0.0, None), (1e-30, 1e300), (-1.0, None)],
                         ids=["zero", "underflows-against-the-largest", "negative"])
def test_weights_the_certificate_cannot_divide_by_are_refused(least, largest):
    # the certificate divides by every normalized weight; a zero one used to
    # run all 150000 iterations and come back with dual -inf and gap inf
    prob = cell_problem_on_cube(sample_field(FieldSpec(
        dimension=2, structure=IidCubes(), diagonal=U12), 0, 0), 2.0, np.array([[1.0, 0.0]]))
    lam = prob.lam.copy()
    lam[0, 0, 0] = least
    if largest is not None:
        lam[1, 1, 1] = largest
    with pytest.raises(ValueError, match="positive fractions of the largest"):
        solve_cell(CellProblem(prob.grid, prob.xi, lam, prob.lam0))


def test_a_nonfinite_check_ends_the_solve_and_is_flagged():
    # the reported bounds overflow at check 0 while the normalized ones stay
    # finite; either solve used to run all 150000 iterations before reporting it
    huge = DistributionSpec.constant(1e308)
    for spec in (FieldSpec(dimension=2, structure=IidCubes(), diagonal=U12, lower_order=huge),
                 FieldSpec(dimension=2, structure=IidCubes(), diagonal=huge)):
        fld = sample_field(spec, 0, 0)
        rep = solve_cell(cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]])))
        assert (rep.iterations, rep.gap_checks, rep.converged) == (0, 1, False)
        assert rep.primal == rep.dual == math.inf and rep.nonfinite
    fld = sample_field(FieldSpec(dimension=2, structure=IidCubes(), diagonal=U12), 0, 0)
    assert not solve_cell(cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]]))).nonfinite


@pytest.mark.parametrize("d", [1, 2])
def test_scaling_xi_by_a_power_of_two_scales_the_solve_exactly(d):
    # xi is divided by c = 2^floor(log2 |xi|_F), so xi 2^k runs the same
    # iterations and every reported number scales by 2^k, minimizer included
    spec = FieldSpec(dimension=d, structure=IidCubes(), diagonal=U12)
    fld = sample_field(spec, 0, 0)
    xi = np.array([[1.0, 0.75][:d]])
    base = solve_cell(cell_problem_on_cube(fld, 4.0, xi))
    assert base.converged
    for k in range(-20, 21):
        rep = solve_cell(cell_problem_on_cube(fld, 4.0, xi * 2.0 ** k))
        assert (rep.iterations, rep.gap_checks, rep.gap) == (
            base.iterations, base.gap_checks, base.gap), k
        assert (rep.primal, rep.dual) == (base.primal * 2.0 ** k, base.dual * 2.0 ** k), k
        assert rep.minimizer.tobytes() == (base.minimizer * 2.0 ** k).tobytes(), k


def test_slopes_of_every_decade_certify():
    # without the slope normalization xi = 1e-3 e1 ran out of iterations here
    fld = sample_field(FieldSpec(dimension=2, structure=IidCubes(), diagonal=U12), 0, 0)
    for k in range(-6, 7):
        rep = solve_cell(cell_problem_on_cube(fld, 8.0, np.array([[10.0 ** k, 0.0]])))
        assert rep.converged, k


@pytest.mark.parametrize("xi, c", [
    ([[0.0, 0.0]], 1.0), ([[1.0, 0.0]], 1.0), ([[1.0, 1.0]], 1.0), ([[3.0, 4.0]], 4.0),
    ([[1e-3, 0.0]], 2.0 ** -10), ([[1e308, 1e308]], 2.0 ** 1023), ([[5e-324, 0.0]], 5e-324),
], ids=["zero", "e1", "e1+e2", "3-4-5", "1e-3", "square-overflows", "subnormal"])
def test_slope_unit_is_the_power_of_two_below_the_norm(xi, c):
    # computed without forming |xi|^2, which would overflow or underflow here
    assert slope_unit(np.array(xi)) == c


@pytest.mark.parametrize("aniso", [False, True], ids=["radial", "ellipsoid"])
def test_each_step_projects_once_through_the_module_globals(aniso, monkeypatch):
    # the layer trace times projections by rebinding these two names, so a
    # step must make exactly one call, through homlab.cell, of the right one
    calls = {"project_radial": 0, "project_ellipsoid": 0}
    for name in calls:
        def counting(*args, _inner=getattr(homlab.cell, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(homlab.cell, name, counting)
    problem = _bitwise_case(d=2, m=1, aniso=aniso)
    used, unused = ("project_ellipsoid", "project_radial")[::1 if aniso else -1]
    for k in (1, 7, 60):
        before = dict(calls)
        assert solve_cell(problem, tol=1e-300, max_iter=k).iterations == k
        assert (calls[used] - before[used], calls[unused] - before[unused]) == (k, 0)


def test_solve_many_yields_in_task_order_at_any_worker_count(monkeypatch):
    finished = []
    inner = homlab.cell.solve_cell

    def recording_solve_cell(problem, **kwargs):
        rep = inner(problem, **kwargs)
        finished.append(problem.grid.side)
        return rep

    monkeypatch.setattr(homlab.cell, "solve_cell", recording_solve_cell)
    spec = FieldSpec(dimension=3, structure=IidCubes(), diagonal=TP)
    # every cube is large enough for the pool; the first is solved to a
    # tight tol and the others to a loose one, which keeps them quick
    sides = (12.0, 11.0, 11.5, 11.0, 11.5, 11.0)
    tasks = [SolveTask(spec, 4, r, t, np.array([[1.0, 0.5, 0.0]]),
                       tol=1e-2 if r else 1e-4)
             for r, t in enumerate(sides)]
    serial = list(solve_many(tasks))
    assert finished == list(sides)
    finished.clear()
    threaded = list(solve_many(tasks, workers=3))
    # the slow first cube finishes after others, yet its report comes first
    assert sorted(finished) == sorted(sides) and finished != list(sides)
    assert [rep.grid.side for rep in threaded] == list(sides)
    for a, b in zip(serial, threaded):
        assert (a.primal, a.dual, a.gap, a.iterations) == (b.primal, b.dual, b.gap,
                                                           b.iterations)
        assert a.minimizer.tobytes() == b.minimizer.tobytes()


def test_concurrent_solves_of_one_size_factor_the_laplacian_once(monkeypatch):
    # only 1-d repairs factor; n = 25200 makes 25201 dual entries, large
    # enough for the pool, so the three solves run concurrently
    factored = []
    inner = homlab.cell.splu

    def slow_counting_splu(A, **kwargs):
        factored.append(A.shape)
        time.sleep(0.1)  # keep the other threads waiting on the cache miss
        return inner(A, **kwargs)

    homlab.cell._poisson_solver.cache_clear()
    monkeypatch.setattr(homlab.cell, "splu", slow_counting_splu)
    tasks = [SolveTask(const_spec(d=1), 0, r, 12_600.0, np.array([[1.0]]))
             for r in range(3)]
    assert homlab.cell._large_lattice(1, 1, 25_200)
    reports = list(solve_many(tasks, workers=3))
    assert all(rep.converged for rep in reports)
    assert factored == [(25_199, 25_199)]


def test_only_large_lattices_go_to_the_pool(monkeypatch):
    # the stub records where each solve would run, so no large one runs
    ran = []

    def recording_solve_cell(problem, **kwargs):
        ran.append(threading.get_ident())
        return problem.grid.side, problem.xi.shape[0]

    monkeypatch.setattr(homlab.cell, "solve_cell", recording_solve_cell)
    # m*d*(n+1)^d = 24642, 25088, 25600 and 12800 dual entries, about the
    # 25000 of the size rule that also picks each solve's precision
    keys = [(55.0, 1), (55.5, 1), (39.5, 2), (39.5, 1)]
    assert [homlab.cell._large_lattice(m, 2, cube_grid(2, t).cells) for t, m in keys] == [
        False, True, True, False]
    tasks = [SolveTask(const_spec(), 0, r, t, np.ones((m, 2)))
             for r, (t, m) in enumerate(keys)]
    assert list(solve_many(tasks, workers=3)) == keys
    caller = threading.get_ident()
    assert ran[0] == ran[3] == caller
    assert caller not in ran[1:3]


# ------------------------------------------------------------ minimizers


def test_minimizer_dump_roundtrip(tmp_path):
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    fld = sample_field(spec, 5)
    prob = cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]]))
    rep = solve_cell(prob, tol=1e-5)
    path = tmp_path / "minimizer.npy"
    save_minimizer(rep, path)
    sidecar, data = load_minimizer(path)
    assert sidecar["dimension"] == 2
    assert sidecar["components"] == 1
    assert sidecar["cells"] == prob.grid.cells
    assert sidecar["side"] == 4.0
    assert data.dtype == np.float64 and data.shape == rep.minimizer.shape
    assert np.array_equal(data, rep.minimizer)
    assert sidecar["primal"] == rep.primal
    assert sidecar["dual"] == rep.dual
    assert sidecar["converged"] is True


def test_minimizer_load_rejects_bad_magic(tmp_path):
    # a file that is not a dump raises before its (absent) sidecar is read
    path = tmp_path / "junk.npy"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError):
        load_minimizer(path)


def test_minimizer_load_rejects_an_empty_or_cut_dump(tmp_path):
    rep = solve_cell(cell_problem_on_cube(sample_field(FieldSpec(
        dimension=2, structure=IidCubes(), diagonal=TP), 5), 2.0, np.array([[1.0, 0.0]])))
    whole = tmp_path / "whole.npy"
    save_minimizer(rep, whole)
    dump = whole.read_bytes()
    # empty, cut in the magic string, in the header and in the data
    for size in (0, 6, 20, len(dump) - 8):
        path = tmp_path / f"cut{size}.npy"
        path.write_bytes(dump[:size])
        with pytest.raises(ValueError):
            load_minimizer(path)
