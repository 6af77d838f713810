"""Pointwise energy density and the linear-growth sandwich constants."""

import math

import numpy as np
import pytest

from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate,
                    Periodic, assemble, coercivity_constant, cube_grid,
                    growth_constants, sample_field)
from homlab.randomness import keyed_uniform

U12 = DistributionSpec.uniform(1.0, 2.0)
TP = DistributionSpec.two_point(1.0, 0.5, 2.0)


def const_field(values, lower=None):
    laws = tuple(DistributionSpec.constant(v) for v in values)
    spec = FieldSpec(dimension=len(values), structure=IidCubes(),
                     diagonal=laws, lower_order=lower)
    return sample_field(spec, 0)


def density(field, xi):
    """f(x, xi) at the cell centers of Q_4, from the cell energy of v = 0."""
    xi = np.atleast_2d(xi)
    grid = cube_grid(field.spec.dimension, 4.0, components=xi.shape[0])
    prob = assemble(field, grid, xi)
    v = np.zeros((grid.components,) + grid.node_shape)
    return prob.energy_density(v) / grid.h ** grid.dimension


def test_eval_zero_slope():
    assert np.all(density(const_field((2.0, 3.0)), np.zeros((1, 2))) == 0.0)


def test_eval_column_scaling_hand_value():
    val = density(const_field((2.0, 3.0)), np.array([[1.0, 1.0]]))
    assert np.allclose(val, math.sqrt(13.0), rtol=0.0, atol=1e-14)


def test_eval_two_components():
    xi = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(density(const_field((2.0, 3.0)), xi), math.sqrt(13.0))
    grid = cube_grid(2, 4.0, components=2)
    with pytest.raises(ValueError):
        assemble(const_field((2.0, 3.0)), grid, np.array([[1.0, 0.0]]))


def test_eval_lower_order_flag():
    lower = DistributionSpec.constant(0.25)
    fld = const_field((2.0, 2.0), lower=lower)
    xi = np.array([[1.0, 0.0]])
    assert np.allclose(density(fld, xi), 2.25)
    assert np.all(density(const_field((2.0, 2.0)), xi) == 2.0)


def test_eval_one_homogeneous_and_convex_on_random_probes():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=(U12, TP))
    fld = sample_field(spec, 3)
    g = keyed_uniform(1, "xi", np.arange(80)).reshape(20, 2, 2) - 0.5
    for k in range(20):
        xi1, xi2 = g[k, 0][None], g[k, 1][None]
        f1 = density(fld, xi1)
        assert np.allclose(density(fld, 3.0 * xi1), 3.0 * f1, rtol=1e-12, atol=0.0)
        mid = density(fld, 0.5 * (xi1 + xi2))
        assert np.all(mid <= 0.5 * (f1 + density(fld, xi2)) + 1e-12)


def test_eval_stays_inside_its_own_bounds():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=U12,
                     lower_order=TP)
    fld = sample_field(spec, 11)
    xi = np.array([[0.4, -1.1]])
    centers = cube_grid(2, 4.0).cell_centers()
    lam, lam0 = fld.at_cells(*np.floor(centers).astype(np.int64).T)
    norm = np.sqrt(((xi[0] * lam.T) ** 2).sum(axis=-1))
    val = density(fld, xi)
    assert np.all(norm <= val)
    assert np.all(val <= norm + lam0.T + 1e-12)


# ------------------------------------------------------------- constants


def test_coercivity_closed_forms():
    assert coercivity_constant(
        const_field((2.0, 2.0)).spec) == pytest.approx(math.sqrt(2.0) / 2.0)
    d1 = FieldSpec(dimension=1, structure=Laminate(axis=1), diagonal=U12)
    assert coercivity_constant(d1) == pytest.approx(1.0)
    iso = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    assert coercivity_constant(iso) == pytest.approx(math.sqrt(2.0))


def test_coercivity_degenerate_regimes():
    z = FieldSpec(dimension=2, structure=IidCubes(),
                  diagonal=DistributionSpec.uniform(0.0, 1.0))
    assert math.isinf(coercivity_constant(z))
    gc = growth_constants(z)
    assert gc.c0 == 0.0
    assert "zero_coercivity" in gc.flags
    assert gc.degenerate
    small = FieldSpec(dimension=1, structure=IidCubes(),
                      diagonal=DistributionSpec.two_point(1e-4, 0.5, 1.0))
    assert coercivity_constant(small) == pytest.approx(1e4)


def test_growth_constants_constant_field():
    gc = growth_constants(const_field((2.0, 2.0)).spec)
    assert gc.alpha == 1.0
    assert gc.c0 == pytest.approx(2.0 / math.sqrt(2.0))
    assert gc.C0 == pytest.approx(2.0)
    assert gc.C1 == 0.0
    assert not gc.degenerate
    assert gc.lower_bound(2.0) == pytest.approx(2.0 * math.sqrt(2.0))
    assert gc.upper_bound(2.0) == pytest.approx(4.0)


def test_growth_constants_isotropic_two_point():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP)
    gc = growth_constants(spec)
    assert gc.c0 == pytest.approx(1.0 / math.sqrt(2.0))
    assert gc.C0 == pytest.approx(1.5)
    assert gc.C0_ci == 0.0


def test_growth_constants_heavy_tail_flagged():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1),
                     diagonal=DistributionSpec.pareto(1.0, 1.0))
    gc = growth_constants(spec)
    assert math.isinf(gc.C0)
    assert "C0_infinite" in gc.flags
    assert gc.degenerate
    assert math.isinf(gc.upper_bound(1.0))
    assert gc.lower_bound(1.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_growth_constants_lower_order_mean():
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP,
                     lower_order=U12)
    assert growth_constants(spec).C1 == pytest.approx(1.5)
    heavy = FieldSpec(dimension=2, structure=IidCubes(), diagonal=TP,
                      lower_order=DistributionSpec.pareto(1.0, 1.0))
    gc = growth_constants(heavy)
    assert math.isinf(gc.C1)
    assert "C1_infinite" in gc.flags


def test_growth_constants_independent_entries_vs_gridded_oracle():
    # E|eta Lambda| depends on eta only through the column masses c and
    # is concave there; brute-force the simplex on a fine grid and
    # require C0 to climb from the best probe (1.733305) to its maximum.
    laws = (DistributionSpec.two_point(0.1, 0.5, 3.0),
            DistributionSpec.two_point(1.4, 0.5, 1.6))
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=laws)
    gc = growth_constants(spec)
    c = np.linspace(0.0, 1.0, 200001)
    vals = np.zeros_like(c)
    for v1, p1 in zip(*laws[0].atoms()):
        for v2, p2 in zip(*laws[1].atoms()):
            vals += p1 * p2 * np.sqrt(c * v1 ** 2 + (1.0 - c) * v2 ** 2)
    grid_max = float(vals.max())
    axis_max = max(law.mean() for law in laws)
    assert gc.C0_method == "probe_exact"
    assert gc.C0 >= axis_max - 1e-12
    assert grid_max - 1e-12 <= gc.C0 <= grid_max * (1.0 + 1e-9)


def test_growth_constants_monte_carlo_reports_ci():
    laws = (DistributionSpec.lognormal(0.0, 0.4), U12)
    spec = FieldSpec(dimension=2, structure=IidCubes(), diagonal=laws)
    gc = growth_constants(spec)
    assert gc.C0_method == "probe_mc"
    assert gc.C0_ci > 0.0
    # axis probe at slot 1 gives E[lognormal]; C0 must dominate it
    assert gc.C0 >= math.exp(0.08) - gc.C0_ci - 1e-12


def test_growth_constants_periodic_tile():
    tile = np.array([[1.0, 2.0], [2.0, 1.0]])
    spec = FieldSpec(dimension=2, structure=Periodic(tile=tile))
    gc = growth_constants(spec)
    assert gc.c0 == pytest.approx(1.0 / math.sqrt(2.0))
    assert gc.C0 == pytest.approx(1.5)
    assert gc.C1 == 0.0


def test_one_table_serves_periodic_tiles_and_finite_laws():
    # a per-slot tile whose four cells list the atoms of two iid p = 0.5
    # laws is the same cell law, so it has the same C0
    a = DistributionSpec.two_point(0.1, 0.5, 3.0)
    b = DistributionSpec.two_point(1.4, 0.5, 1.6)
    tile = np.array([[[0.1, 1.4], [0.1, 1.6]], [[3.0, 1.4], [3.0, 1.6]]])
    periodic = growth_constants(FieldSpec(dimension=2, structure=Periodic(tile=tile)))
    iid = growth_constants(FieldSpec(dimension=2, structure=IidCubes(), diagonal=(a, b)))
    assert periodic.C0_method == iid.C0_method == "probe_exact"
    assert abs(periodic.C0 - iid.C0) <= 1e-15 * iid.C0
    assert periodic.C0_ci == iid.C0_ci == 0.0


@pytest.mark.parametrize("values", [(2.0, 3.0), (0.1, 0.1), (7.3, 7.3, 7.3),
                                    (1.3, 0.2, 1.3), (0.7, 2.0, 1e-3, 2.0)])
def test_all_constant_law_gives_its_largest_entry(values):
    gc = growth_constants(const_field(values).spec)
    assert gc.C0 == max(values)
    assert (gc.C0_method, gc.C0_ci) == ("probe_exact", 0.0)
