"""Projections onto spheres and axis-aligned ellipsoids of dual blocks."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import homlab.projections
from homlab import (CellProblem, DistributionSpec, FieldSpec, IidCubes, sample_field,
                    solve_cell)
from homlab.cell import cell_problem_on_cube
from homlab.projections import (_A, ellipsoid_bounds, ellipsoid_weights, project_ellipsoid,
                                project_radial)
from homlab.randomness import keyed_uniform


def ell_norm(q, s):
    return np.sqrt(np.sum((q / s) ** 2, axis=(0, 1)))


def ellipsoid(p, axes, scale=1.0):
    """project_ellipsoid on a copy of p, for the semiaxes themselves."""
    return project_ellipsoid(p.copy(), ellipsoid_bounds(axes), scale)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_out_is_bit_identical_to_the_shrink_formula(m, d):
    # entries from 1e-8 to 1e8, so the row-by-row sum of squares rounds
    n = 40
    mag = 10.0 ** (16 * keyed_uniform(7, "mag", np.arange(m * d * n)) - 8)
    sign = np.where(keyed_uniform(7, "sign", np.arange(m * d * n)) < 0.5, -1.0, 1.0)
    p = (sign * mag).reshape(m, d, n)
    radii = 10.0 ** (8 * keyed_uniform(7, "radii", np.arange(n)) - 4)
    nrm = np.sqrt(np.sum(p * p, axis=(0, 1)))
    want = (p * np.minimum(1.0, radii / np.maximum(nrm, 1e-300))).tobytes()
    q = p.copy()
    assert project_radial(q, radii) is q
    assert q.tobytes() == want


def _scaled_case(m, d, cells=400):
    # a third of the cells inside their balls, the rest up to 1e3 outside
    rng = np.random.default_rng(10 * m + d)
    axes = 10.0 ** rng.uniform(-2.0, 0.0, (d, cells))
    p = rng.normal(size=(m, d, cells))
    p *= axes[None] / np.sqrt(np.sum((p / axes[None]) ** 2, axis=(0, 1)))
    return p * 10.0 ** rng.uniform(-0.5, 3.0, cells), axes


@pytest.mark.parametrize("scale", [1.9, 0.3, 0.5, 4.0])
@pytest.mark.parametrize("m, d", [(1, 1), (1, 2), (2, 2), (1, 3), (3, 3)])
def test_scale_multiplies_the_projection(m, d, scale):
    # the solver folds its relaxation rho into the projection's last factor,
    # so p f s is rounded as p (f s), where s times the unscaled result rounds
    # it as (p f) s: two roundings each, so they may differ by 2 ulps (the
    # most seen on these cases); a power-of-two scale is exact either way
    p, axes = _scaled_case(m, d)
    radii = axes[0]
    pairs = []
    q1, qs = p.copy(), p.copy()
    assert project_radial(qs, radii, scale) is qs
    pairs.append((project_radial(q1, radii), qs))
    bounds = ellipsoid_bounds(axes)
    for q in (p, p * 1.01, p * 1e-4):  # the last with every cell inside
        qs = q.copy()
        assert project_ellipsoid(qs, bounds, scale) is qs
        pairs.append((ellipsoid(q, axes), qs))
    for unscaled, scaled in pairs:
        if scale in (0.5, 4.0):
            assert scaled.tobytes() == (unscaled * scale).tobytes()
        else:
            np.testing.assert_array_max_ulp(scaled, unscaled * scale, maxulp=2)


@pytest.mark.parametrize("radius", [1e-300, 1.0, 1e300])
def test_radial_keeps_a_zero_block_zero(radius):
    # sqrt(0) against a positive radius: the factor is radius / radius, no 0/0
    p = np.zeros((2, 3, 4))
    assert project_radial(p, np.full(4, radius)).tobytes() == np.zeros((2, 3, 4)).tobytes()


def test_radial_keeps_the_bits_of_a_block_on_its_sphere():
    # each block's norm is exactly its radius
    p = np.array([[[3.0, 1.0, 0.0, -0.5], [4.0, 0.0, -2.0, 0.5]],
                  [[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, -0.5]]])
    radii = np.array([5.0, 1.0, 2.0, 1.0])
    q = project_radial(p.copy(), radii)
    assert q.tobytes() == p.tobytes()


def test_radial_inside_unchanged_outside_on_sphere():
    p = np.zeros((1, 2, 3))
    p[0, 0] = [0.3, 5.0, -2.0]
    p[0, 1] = [0.1, 0.0, 2.0]
    radii = np.array([1.0, 1.0, 2.0])
    q = project_radial(p.copy(), radii)
    assert np.array_equal(q[..., 0], p[..., 0])  # norm 0.316 < 1
    nrm = np.sqrt(np.sum(q * q, axis=(0, 1)))
    assert nrm[1] == pytest.approx(1.0)
    assert nrm[2] == pytest.approx(2.0)
    # direction preserved
    assert np.allclose(q[..., 1] * np.sqrt((p[..., 1] ** 2).sum()), p[..., 1])


# ----------------------------------------------- the ellipsoid's metric shrink


def test_ellipsoid_matches_radial_when_isotropic():
    p = keyed_uniform(0, "p", np.arange(2 * 2 * 5)).reshape(2, 2, 5) * 6 - 3
    axes = np.full((2, 5), 1.7)
    q_ell = ellipsoid(p, axes)
    q_rad = project_radial(p.copy(), np.full(5, 1.7))
    assert np.allclose(q_ell, q_rad, atol=1e-12)


def test_ellipsoid_interior_points_fixed():
    axes = np.array([[2.0], [0.5]])
    p = np.array([[[0.3], [0.2]]])  # norm (0.15^2 + 0.4^2)^(1/2) < 1
    q = ellipsoid(p, axes)
    assert np.array_equal(q, p)


@pytest.mark.parametrize("scale", [1.0, 1.9, 0.3])
def test_ellipsoid_inside_blocks_are_only_multiplied_by_scale(scale):
    # blocks strictly inside, and blocks exactly on the boundary: s_j e_j
    # and (3, 4) s / 5, whose |q/s| is exactly 1
    p, axes = _scaled_case(2, 3)
    inside = ell_norm(p, axes) <= 1.0
    p[:, :, :3] = 0.0
    p[0, 1, 0], p[1, 2, 1] = axes[1, 0], -axes[2, 1]
    p[0, 0, 2], p[0, 2, 2] = 0.6 * axes[0, 2], 0.8 * axes[2, 2]
    inside[:3] = True
    assert 0 < inside.sum() < inside.size
    q = ellipsoid(p, axes, scale)
    assert q[:, :, inside].tobytes() == (p[:, :, inside] * scale).tobytes()


def test_ellipsoid_outside_block_lands_on_the_boundary_along_its_ray():
    p, axes = _scaled_case(3, 3)
    outside = ell_norm(p, axes) > 1.0
    assert outside.sum() > 150
    q = ellipsoid(p, axes)
    nrm = ell_norm(q[:, :, outside], axes[:, outside])
    assert np.all(np.abs(nrm - 1.0) <= 4e-16 * 4)
    # q = c p with one factor c in (0, 1) per cell, c = 1 / |p/s|_F
    c = q[:, :, outside] / p[:, :, outside]
    want = 1.0 / ell_norm(p[:, :, outside], axes[:, outside])
    assert np.all(np.abs(c / want - 1.0) <= 1e-15)


def test_ellipsoid_feasibility_and_kkt_consistency():
    # in the metric sum_ij (x_ij / s_j)^2 the stationarity of the projection
    # reads (x - p) / s^2 + nu x / s^2 = 0: p = (1 + nu) q with one
    # multiplier per cell, 1 + nu = |p/s|_F on an active one
    u = keyed_uniform(5, "kkt", np.arange(3 * 2 * 40))
    p = (u.reshape(3, 2, 40) - 0.5) * 10.0
    axes = keyed_uniform(6, "ax", np.arange(2 * 40)).reshape(2, 40) * 2.0 + 0.1
    q = ellipsoid(p, axes)
    nrm = ell_norm(q, axes)
    assert np.all(nrm <= 1.0 + 1e-12)
    outside = ell_norm(p, axes) > 1.0
    for cell in np.nonzero(outside)[0]:
        mask = np.abs(q[:, :, cell]) > 1e-9
        ratios = (p[:, :, cell] / np.where(mask, q[:, :, cell], 1.0))[mask]
        assert ratios.size > 0
        assert np.ptp(ratios) <= 1e-12 * ratios.max()
        assert ratios.mean() == pytest.approx(ell_norm(p[:, :, cell:cell + 1],
                                                       axes[:, cell:cell + 1])[0], rel=1e-12)


def metric_minimizer(p, s):
    """Independent single-cell oracle: SLSQP on the metric distance
    sum_ij ((x_ij - p_ij) / s_j)^2 over sum_ij (x_ij / s_j)^2 <= 1, from 0.
    Returns the point, scaled into the ball if it ends a little outside,
    and its distance.  SLSQP may end on a failed line search at the
    optimum, so its flag is not read; the caller compares."""
    shape, inv = p.shape, np.broadcast_to(1.0 / s, p.shape).ravel()
    q = p.ravel()
    w = float((q * inv) @ (q * inv))  # the distance of 0, to normalize

    def dist(x):
        r = (x - q) * inv
        return float(r @ r) / w, 2.0 * r * inv / w

    def slack(x):
        r = x * inv
        return 1.0 - float(r @ r)

    res = minimize(dist, np.zeros_like(q), jac=True, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": slack,
                                 "jac": lambda x: -2.0 * x * inv * inv}],
                   options={"ftol": 1e-14, "maxiter": 1000})
    assert slack(res.x) >= -1e-9
    x = res.x / max(1.0, float(np.sqrt(1.0 - slack(res.x))))
    return x.reshape(shape), dist(x)[0] * w


def test_ellipsoid_is_the_minimizer_in_its_metric():
    # no point of the ball is closer to p in sum ((x - p) / s)^2 than the
    # shrink, which differs from the Euclidean projection on anisotropic cells
    rng_p = keyed_uniform(9, "op", np.arange(2 * 3 * 25)).reshape(2, 3, 25)
    p = (rng_p - 0.5) * 8.0
    axes = keyed_uniform(10, "oa", np.arange(3 * 25)).reshape(3, 25) * 3.0 + 0.05
    q = ellipsoid(p, axes)
    outside = 0
    for cell in range(25):
        want, best = metric_minimizer(p[:, :, cell], axes[:, cell])
        got = float((((q[:, :, cell] - p[:, :, cell]) / axes[None, :, cell]) ** 2).sum())
        assert got <= best * (1.0 + 1e-12) + 1e-14, cell
        assert np.allclose(q[:, :, cell], want, atol=1e-6, rtol=1e-6), cell
        outside += best > 0.0
    assert outside > 20


def brentq_projection(p, s):
    """Independent single-cell oracle from the projection's KKT system in
    its metric: stationarity gives x = p / (1 + nu), and on an active cell
    the multiplier nu >= 0 is brentq's root of sum_ij (p_ij / s_j)^2 /
    (1 + nu)^2 = 1, bracketed by [0, |p/s|_F^2]."""
    sq = float(((p / s[None]) ** 2).sum())
    if sq <= 1.0:
        return p.copy()
    nu = brentq(lambda x: sq / (1.0 + x) ** 2 - 1.0, 0.0, sq, xtol=1e-15, rtol=1e-15)
    return p / (1.0 + nu)


def test_ellipsoid_against_brentq_oracle():
    rng_p = keyed_uniform(9, "op", np.arange(2 * 3 * 25)).reshape(2, 3, 25)
    p = (rng_p - 0.5) * 8.0
    axes = keyed_uniform(10, "oa", np.arange(3 * 25)).reshape(3, 25) * 3.0 + 0.05
    q = ellipsoid(p, axes)
    outside = 0
    for cell in range(25):
        want = brentq_projection(p[:, :, cell], axes[:, cell])
        assert np.allclose(q[:, :, cell], want, atol=1e-12, rtol=1e-12), cell
        outside += not np.array_equal(want, p[:, :, cell])
    assert outside > 20


def test_ellipsoid_idempotent():
    p = (keyed_uniform(11, "idem", np.arange(1 * 2 * 30)).reshape(1, 2, 30)
         - 0.5) * 20.0
    axes = keyed_uniform(12, "idax", np.arange(2 * 30)).reshape(2, 30) + 0.2
    q1 = ellipsoid(p, axes)
    q2 = ellipsoid(q1, axes)
    assert np.allclose(q1, q2, atol=1e-10)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_ellipsoid_randomized_feasibility(seed, m, d):
    cells = 7
    p = (keyed_uniform(seed, "hp", np.arange(m * d * cells)).reshape(m, d, cells)
         - 0.5) * 30.0
    axes = keyed_uniform(seed, "ha", np.arange(d * cells)).reshape(d, cells) * 4 + 1e-3
    q = ellipsoid(p, axes)
    nrm = ell_norm(q, axes)
    assert np.all(nrm <= 1.0 + 1e-10)
    inside = ell_norm(p, axes) <= 1.0
    assert np.array_equal(q[:, :, inside], p[:, :, inside])
    # projection never increases the distance-to-origin in ball metric
    assert np.all(nrm <= ell_norm(p, axes) + 1e-12)


def mp_projection(p, s):
    """Single-cell oracle in 60-digit arithmetic: p / max(1, |p/s|_F)."""
    with mpmath.workdps(60):
        P = [[mpmath.mpf(float(x)) for x in row] for row in p]
        S = [mpmath.mpf(float(x)) for x in s]
        norm = mpmath.sqrt(sum((row[j] / S[j]) ** 2 for row in P for j in range(len(S))))
        c = max(mpmath.mpf(1), norm)
        return np.array([[float(x / c) for x in row] for row in P])


def _assert_matches_oracle(q, p, axes, rtol=4e-16):
    """Relative per entry, down to where doubles underflow."""
    want = np.stack([mp_projection(p[:, :, c], axes[:, c]) for c in range(p.shape[2])], axis=-1)
    assert np.all(np.abs(q - want) <= rtol * np.abs(want) + 1e-300)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ellipsoid_exact_on_extreme_outside_cells(m, d):
    # entries of p/s spread over ten decades and |p/s| up to 1e10; the shrink
    # is three roundings of p per entry: p / (s / _A), the norm and the factor
    cells = 200
    rng = np.random.default_rng(100 * m + d)
    axes = 10.0 ** rng.uniform(-4.0, 0.0, (d, cells))
    spread = 10.0 ** rng.uniform(-10.0, 0.0, (m, d, cells))
    dirs = rng.normal(size=(m, d, cells)) * spread
    dirs /= np.sqrt(np.sum(dirs ** 2, axis=(0, 1)))
    ratio = 10.0 ** rng.uniform(1e-3, 10.0, cells)  # |p/s|_F of each cell
    p = dirs * axes[None] * ratio
    _assert_matches_oracle(ellipsoid(p, axes), p, axes, rtol=4 * 2.0 ** -52)


def test_ellipsoid_out_may_alias_p():
    # the projection overwrites its input: p is read only before it is written
    p, axes = _scaled_case(2, 3)
    inside = ell_norm(p, axes) <= 1.0
    q = p.copy()
    assert project_ellipsoid(q, ellipsoid_bounds(axes)) is q
    _assert_matches_oracle(q, p, axes, rtol=4 * 2.0 ** -52)
    assert q[:, :, inside].tobytes() == p[:, :, inside].tobytes()


def allocating_project_ellipsoid(q, axes, scale):
    """The shrink of project_ellipsoid written out with fresh arrays: the
    squares of q / (s / _A) summed row by row, in order, then one factor
    per cell."""
    r = q / (axes[None] / _A)
    total = r[0, 0] * r[0, 0]
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            if i or j:
                total = total + r[i, j] * r[i, j]
    return q * (scale * (_A / np.maximum(np.sqrt(total), _A)))


@pytest.mark.parametrize("low", [-3.0, -120.0])
@pytest.mark.parametrize("m, d", [(m, d) for d in (1, 2, 3) for m in range(1, 9 // d + 1)])
def test_workspace_keeps_the_bits_of_the_allocating_projection(m, d, low):
    # project_ellipsoid works in place, in p and one per-cell buffer that
    # holds the sum of squares and then the factors; it must give the bits
    # of the allocating formula on a solve's calls: the point drifts from
    # call to call, jumps now and then, and some calls find every cell
    # inside or every cell outside.  Entries of p/s spread over six
    # decades, so each order of the row sums rounds differently
    rng = np.random.default_rng(100 * m + d)
    cells = 40
    axes = 10.0 ** rng.uniform(low, 0.0, (d, cells))
    dirs = rng.normal(size=(m, d, cells)) * 10.0 ** rng.uniform(-6.0, 0.0, (m, d, cells))
    dirs /= np.sqrt(np.sum(dirs ** 2, axis=(0, 1)))
    p = dirs * axes[None] * 10.0 ** rng.uniform(-0.5, 3.0, cells)
    bounds = ellipsoid_bounds(axes)
    kinds = set()
    for call in range(24):
        p = p * (1.0 + (0.5 if call % 8 == 7 else 1e-3) * rng.normal(size=p.shape))
        q = p * {5: 1e-8, 6: 1e8}.get(call, 1.0)  # all inside, then all outside
        outside = ell_norm(q, axes) > 1.0
        kinds.add("all outside" if outside.all() else "all inside" if not outside.any()
                  else "mixed")
        scale = 1.0 if call % 2 else 1.9
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            want = allocating_project_ellipsoid(q, axes, scale)
            got = q.copy()
            assert project_ellipsoid(got, bounds, scale) is got
        assert got.tobytes() == want.tobytes(), call
    assert kinds == {"all outside", "all inside", "mixed"}


def test_ellipsoid_weights_are_at_most_one_and_one_on_the_largest_semiaxis():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        axes = 10.0 ** rng.uniform(-150.0, 0.0, (d, 500))
        omega = ellipsoid_weights(axes)
        assert omega.shape == axes.shape
        assert np.all((omega > 0.0) & (omega <= 1.0))
        top = np.argmax(axes, axis=0)
        assert np.all(omega[top, np.arange(500)] == 1.0)
        assert np.allclose(omega, (axes / axes.max(axis=0)) ** 2, rtol=1e-15, atol=0.0)
        # scaling a cell by a power of two leaves its weights alone
        assert ellipsoid_weights(axes * 2.0 ** -40).tobytes() == omega.tobytes()
    # a ratio below 1e-162 underflows to 0, which numpy does not report
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        assert ellipsoid_weights(np.array([[1.0], [1e-163]]))[:, 0].tolist() == [1.0, 0.0]


# ---------------------------------------------------- extreme anisotropy


def _semiaxes_spanning_1e120_case():
    """Semiaxes from 1e-120 to 1 in every cell and |p/s| from 0.3 to 1e3."""
    rng = np.random.default_rng(23)
    m, d, cells = 2, 3, 40
    axes = 10.0 ** rng.uniform(-120.0, 0.0, (d, cells))
    axes[0] = 10.0 ** rng.uniform(-120.0, -119.0, cells)
    axes[-1] = 10.0 ** rng.uniform(-0.5, 0.0, cells)
    dirs = rng.normal(size=(m, d, cells))
    dirs /= np.sqrt(np.sum(dirs ** 2, axis=(0, 1)))
    return dirs * axes[None] * 10.0 ** rng.uniform(-0.5, 3.0, cells), axes


def test_ellipsoid_is_finite_and_exact_on_semiaxes_spanning_1e120():
    # p / s is formed by one division, never from s^2 or 1 / s^2, which
    # underflow and overflow at these semiaxes
    p, axes = _semiaxes_spanning_1e120_case()
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        q = ellipsoid(p, axes)
        omega = ellipsoid_weights(axes)
    _assert_matches_oracle(q, p, axes, rtol=4 * 2.0 ** -52)
    assert np.all(ell_norm(q, axes) <= 1.0 + 1e-15)
    assert np.all(omega > 0.0)


def test_ellipsoid_is_exact_where_phi_overflows_at_zero():
    # every |p_ij / s_j| is 9.9e153, under the documented 1e154, but their
    # squares sum past the largest double, so |p/s|_F^2 overflows unless the
    # sums are scaled; the sums must not overflow or warn.  In the second
    # case the semiaxes of one cell are 78 decades apart
    axes = np.array([[1.0, 0.5, 1e-3], [1e-40, 0.75, 1e-3]])
    cases = [(9.9e153 * axes[None] * np.array([[[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]]), axes),
             (np.array([[0.9, 9.9e75], [0.0, 9.9e75]])[:, :, None], np.array([[1.0], [1e-78]]))]
    for p, axes in cases:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            q = ellipsoid(p, axes)
        _assert_matches_oracle(q, p, axes, rtol=4 * 2.0 ** -52)
        assert np.all(ell_norm(q, axes) <= 1.0 + 1e-15)


def test_solve_where_a_step_weight_underflows_warns_nothing():
    # semiaxes 1e-163 beside ones of 1 to 2 in the same cell: their step
    # weights underflow to 0, so those dual entries stay at their start
    fld = sample_field(FieldSpec(dimension=2, structure=IidCubes(),
                                 diagonal=DistributionSpec.uniform(1.0, 2.0)), 0, 0)
    prob = cell_problem_on_cube(fld, 4.0, np.array([[1.0, 0.5]]))
    lam = prob.lam.copy()
    lam[1, ::2, 1::2] *= 1e-163
    assert ellipsoid_weights(lam.reshape(2, -1)).min() == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = solve_cell(CellProblem(prob.grid, prob.xi, lam, prob.lam0),
                                max_iter=5000)
        except ValueError as err:
            assert "certificate broken" not in str(err)
            report = None
    assert [str(w.message) for w in caught] == []
    if report is not None and not report.converged:
        assert np.isfinite(report.primal) and np.isfinite(report.dual)


def test_solve_on_extreme_anisotropy_warns_nothing_from_the_projection():
    # lognormal(0, 60) puts semiaxis ratios up to 2.7e55 in one cell and
    # 8.7e103 across the cube; the projection used to divide by an
    # underflowed (s^2 + nu)^2 three times per iteration
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=(
        DistributionSpec.lognormal(0.0, 60.0), DistributionSpec.uniform(1.0, 2.0)))
    problem = cell_problem_on_cube(sample_field(spec, 0), 4.0, np.array([[1.0, 1.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve_cell(problem, max_iter=300)
    assert [str(w.message) for w in caught
            if w.filename == homlab.projections.__file__] == []
    assert np.isfinite(report.primal) and np.isfinite(report.dual)


@given(sigma=st.floats(min_value=1.0, max_value=60.0), t=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       xi=st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                    st.floats(min_value=-2.0, max_value=2.0)))
# derandomized: the same examples on every run, so the suite's solve
# audit tally can be compared between trees
@settings(max_examples=15, deadline=None, derandomize=True)
def test_solves_on_extreme_laws_are_certified_flagged_or_refused(sigma, t, seed, xi):
    # lognormal(0, 60) spreads the semiaxes of one cell over 1e50 and more,
    # and their step weights over the squares of that
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=(
        DistributionSpec.lognormal(0.0, sigma), DistributionSpec.uniform(1.0, 2.0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            problem = cell_problem_on_cube(sample_field(spec, seed), float(t), np.array([xi]))
            report = solve_cell(problem, max_iter=200)
        except ValueError as err:
            assert "certificate broken" not in str(err)
            report = None
    assert [str(w.message) for w in caught
            if w.filename == homlab.projections.__file__] == []
    if report is not None and not report.converged:
        assert np.isfinite(report.primal) and np.isfinite(report.dual)
