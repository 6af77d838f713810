"""Projections onto spheres and axis-aligned ellipsoids of dual blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import homlab.projections
from homlab.projections import project_ellipsoid, project_radial
from homlab.randomness import keyed_uniform


def ell_norm(q, s):
    return np.sqrt(np.sum((q / s) ** 2, axis=(0, 1)))


def scaled_brentq_projection(p, s):
    """Independent single-cell oracle: root of the multiplier equation.

    The tolerance is relative to the multiplier nu, so nu is resolved to
    a few ulp whatever its size; an absolute one is far from exact once
    the semiaxes, and with them nu, are small.
    """
    if float(np.sqrt(np.sum((p / s[None]) ** 2))) <= 1.0:
        return p.copy()
    c = (p * s[None]) ** 2
    hi = float(np.sqrt(c.sum()))
    nu = brentq(lambda x: float((c / (s[None] ** 2 + x) ** 2).sum()) - 1.0,
                0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return p * (s[None] ** 2 / (s[None] ** 2 + nu))


def test_radial_inside_unchanged_outside_on_sphere():
    p = np.zeros((1, 2, 3))
    p[0, 0] = [0.3, 5.0, -2.0]
    p[0, 1] = [0.1, 0.0, 2.0]
    radii = np.array([1.0, 1.0, 2.0])
    q = project_radial(p, radii)
    assert np.array_equal(q[..., 0], p[..., 0])  # norm 0.316 < 1
    nrm = np.sqrt(np.sum(q * q, axis=(0, 1)))
    assert nrm[1] == pytest.approx(1.0)
    assert nrm[2] == pytest.approx(2.0)
    # direction preserved
    assert np.allclose(q[..., 1] * np.sqrt((p[..., 1] ** 2).sum()), p[..., 1])


def test_ellipsoid_matches_radial_when_isotropic():
    p = keyed_uniform(0, "p", np.arange(2 * 2 * 5)).reshape(2, 2, 5) * 6 - 3
    axes = np.full((2, 5), 1.7)
    q_ell = project_ellipsoid(p, axes)
    q_rad = project_radial(p, np.full(5, 1.7))
    assert np.allclose(q_ell, q_rad, atol=1e-12)


def test_ellipsoid_interior_points_fixed():
    axes = np.array([[2.0], [0.5]])
    p = np.array([[[0.3], [0.2]]])  # norm (0.15^2 + 0.4^2)^(1/2) < 1
    q = project_ellipsoid(p, axes)
    assert np.array_equal(q, p)


def test_ellipsoid_feasibility_and_kkt_consistency():
    u = keyed_uniform(5, "kkt", np.arange(3 * 2 * 40))
    p = (u.reshape(3, 2, 40) - 0.5) * 10.0
    axes = keyed_uniform(6, "ax", np.arange(2 * 40)).reshape(2, 40) * 2.0 + 0.1
    q = project_ellipsoid(p, axes)
    nrm = ell_norm(q, axes)
    assert np.all(nrm <= 1.0 + 1e-12)
    outside = ell_norm(p, axes) > 1.0
    # on active cells the multiplier nu = s_j^2 (p_ij/q_ij - 1) must be
    # a single per-cell scalar
    for cell in np.nonzero(outside)[0]:
        s2 = axes[:, cell] ** 2
        mask = np.abs(q[:, :, cell]) > 1e-9
        nus = (s2[None] * (p[:, :, cell] / np.where(mask, q[:, :, cell], 1.0)
                           - 1.0))[mask]
        assert nus.size > 0
        assert np.ptp(nus) <= 1e-6 * (1.0 + np.abs(nus).max())


def test_ellipsoid_against_brentq_oracle():
    rng_p = keyed_uniform(9, "op", np.arange(2 * 3 * 25)).reshape(2, 3, 25)
    p = (rng_p - 0.5) * 8.0
    axes = keyed_uniform(10, "oa", np.arange(3 * 25)).reshape(3, 25) * 3.0 + 0.05
    q = project_ellipsoid(p, axes)
    for cell in range(25):
        want = scaled_brentq_projection(p[:, :, cell], axes[:, cell])
        assert np.allclose(q[:, :, cell], want, atol=1e-9, rtol=1e-9)


def test_ellipsoid_idempotent():
    p = (keyed_uniform(11, "idem", np.arange(1 * 2 * 30)).reshape(1, 2, 30)
         - 0.5) * 20.0
    axes = keyed_uniform(12, "idax", np.arange(2 * 30)).reshape(2, 30) + 0.2
    q1 = project_ellipsoid(p, axes)
    q2 = project_ellipsoid(q1, axes)
    assert np.allclose(q1, q2, atol=1e-10)


def test_ellipsoid_radius_scales_the_ball():
    p = np.array([[[4.0], [4.0]]])
    axes = np.array([[1.0], [2.0]])
    q_half = project_ellipsoid(p, axes, radius=0.5)
    assert ell_norm(q_half, 0.5 * axes)[0] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_ellipsoid_randomized_feasibility(seed, m, d):
    cells = 7
    p = (keyed_uniform(seed, "hp", np.arange(m * d * cells)).reshape(m, d, cells)
         - 0.5) * 30.0
    axes = keyed_uniform(seed, "ha", np.arange(d * cells)).reshape(d, cells) * 4 + 1e-3
    q = project_ellipsoid(p, axes)
    nrm = ell_norm(q, axes)
    assert np.all(nrm <= 1.0 + 1e-10)
    inside = ell_norm(p, axes) <= 1.0
    assert np.array_equal(q[:, :, inside], p[:, :, inside])
    # projection never increases the distance-to-origin in ball metric
    assert np.all(nrm <= ell_norm(p, axes) + 1e-12)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ellipsoid_exact_on_extreme_outside_cells(m, d):
    cells = 200
    rng = np.random.default_rng(100 * m + d)
    axes = 10.0 ** rng.uniform(-4.0, 0.0, (d, cells))
    # entries of p/s spread over ten decades, so the multiplier sits far
    # from most s_j^2 and phi spans many orders of magnitude
    spread = 10.0 ** rng.uniform(-10.0, 0.0, (m, d, cells))
    dirs = rng.normal(size=(m, d, cells)) * spread
    dirs /= np.sqrt(np.sum(dirs ** 2, axis=(0, 1)))
    ratio = 10.0 ** rng.uniform(1e-3, 10.0, cells)  # |p/s|_F of each cell
    p = dirs * axes[None] * ratio
    q = project_ellipsoid(p, axes)
    for cell in range(cells):
        want = scaled_brentq_projection(p[:, :, cell], axes[:, cell])
        err = np.abs(q[:, :, cell] - want).max() / np.abs(want).max()
        assert err <= 1e-12, (cell, err)


def test_ellipsoid_oracle_inputs_need_few_newton_trips(monkeypatch):
    monkeypatch.setattr(homlab.projections, "_NEWTON_MAX", 16)
    test_ellipsoid_against_brentq_oracle()
