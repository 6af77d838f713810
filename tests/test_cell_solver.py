"""Cell-problem discretization and the certified primal-dual solver."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from homlab import (CellProblem, DistributionSpec, FieldSpec, Grid, IidCubes,
                    Laminate, SolveTask, assemble, cell_problem_on_cube, cube_grid,
                    load_minimizer, sample_field, save_minimizer, solve_cell,
                    solve_many)
from homlab.cell import _grad, _grad_adjoint
from homlab.randomness import keyed_uniform

U12 = DistributionSpec.uniform(1.0, 2.0)
TP = DistributionSpec.two_point(1.0, 0.5, 2.0)


def const_spec(c=2.0, d=2):
    return FieldSpec(dimension=d, structure=IidCubes(),
                     diagonal=DistributionSpec.constant(c))


# ------------------------------------------------------------------ grid


def test_grid_basic_geometry():
    g = Grid(dimension=2, side=4.0, cells=8)
    assert g.h == 0.5
    assert g.node_shape == (9, 9)
    assert g.cell_shape == (8, 8)
    assert g.domain() == ((-2.0, 2.0), (-2.0, 2.0))
    centers = g.cell_centers()
    assert centers.shape == (8, 8, 2)
    assert centers[0, 0] == pytest.approx([-1.75, -1.75])
    assert centers[-1, -1] == pytest.approx([1.75, 1.75])


def test_grid_center_offset_and_validation():
    g = Grid(dimension=1, side=2.0, cells=4, center=(3.0,))
    assert g.domain() == ((2.0, 4.0),)
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
    assert prob.lam0 is None


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
    for d, m in ((1, 1), (2, 1), (2, 2)):
        n = 6
        h = 0.37
        v = keyed_uniform(1, "v", np.arange(m * (n + 1) ** d)).reshape(
            (m,) + (n + 1,) * d)
        # boundary rows of v do not matter for the inner-product identity,
        # but the adjoint lands on interior nodes only, so zero them
        from homlab.cell import _zero_boundary
        _zero_boundary(v)
        p = keyed_uniform(2, "p", np.arange(m * d * n ** d)).reshape(
            (m, d) + (n,) * d)
        lhs = float((_grad(v, h) * p).sum())
        rhs = float((v * _grad_adjoint(p, h)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_of_affine_field_is_constant():
    from homlab.glue import affine_field
    g = Grid(dimension=2, side=3.0, cells=6)
    xi = np.array([[0.7, -1.2]])
    u = affine_field(g, xi)
    grad = _grad(u, g.h)
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
    prob = CellProblem(grid=grid, xi=np.array([[1.0]]), lam=lam)
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
    assert rep.flagged
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


def test_solver_input_validation():
    grid = Grid(dimension=1, side=1.0, cells=4)
    bad = CellProblem(grid=grid, xi=np.array([[1.0]]),
                      lam=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        solve_cell(bad)


def test_solve_many_yields_in_task_order_at_any_worker_count(monkeypatch):
    import homlab.cell

    finished = []
    inner = homlab.cell.solve_cell

    def recording_solve_cell(problem, **kwargs):
        rep = inner(problem, **kwargs)
        finished.append(problem.grid.side)
        return rep

    monkeypatch.setattr(homlab.cell, "solve_cell", recording_solve_cell)
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    sides = (12.0, 1.0, 2.0, 1.5, 1.0, 3.0)
    tasks = [SolveTask(spec, 4, r, t, np.array([[1.0, 0.5]]))
             for r, t in enumerate(sides)]
    serial = list(solve_many(tasks))
    assert finished == list(sides)
    finished.clear()
    threaded = list(solve_many(tasks, workers=3))
    # the big first cube finishes last, yet its report still comes first
    assert sorted(finished) == sorted(sides) and finished != list(sides)
    assert [rep.grid.side for rep in threaded] == list(sides)
    for a, b in zip(serial, threaded):
        assert (a.primal, a.dual, a.gap, a.iterations) == (b.primal, b.dual, b.gap,
                                                           b.iterations)
        assert a.minimizer.tobytes() == b.minimizer.tobytes()


# ------------------------------------------------------------ minimizers


def test_minimizer_dump_roundtrip(tmp_path):
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    fld = sample_field(spec, 5)
    prob = cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.0]]))
    rep = solve_cell(prob, tol=1e-5)
    path = tmp_path / "minimizer.bin"
    save_minimizer(rep, path)
    meta, data = load_minimizer(path)
    assert meta["dimension"] == 2
    assert meta["components"] == 1
    assert meta["cells"] == prob.grid.cells
    assert meta["side"] == 4.0
    assert np.array_equal(data, rep.minimizer)
    sidecar = meta["sidecar"]
    assert sidecar["primal"] == rep.primal
    assert sidecar["dual"] == rep.dual
    assert sidecar["converged"] is True


def test_minimizer_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError, match="magic"):
        load_minimizer(path)
