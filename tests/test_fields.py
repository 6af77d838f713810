"""Weight fields: laws, structures, shifts, exact spatial averages."""

import math

import numpy as np
import pytest
from scipy import integrate

import homlab.fields
from homlab import (DistributionSpec, FieldSpec, IidCubes, Laminate, Periodic, assemble,
                    birkhoff_average, cube_grid, growth_constants, sample_field, shift,
                    two_sample_test)
from homlab.fields import _ISO_SLOT, _REALM_DIAG, _REALM_LOWER
from homlab.randomness import key_chain, keyed_uniform

U12 = DistributionSpec.uniform(1.0, 2.0)


def iid_iso(law, d=2, lower=None):
    return FieldSpec(dimension=d, structure=IidCubes(), diagonal=law,
                     lower_order=lower)


def at_points(fld, x):
    """``at_cells`` on the cells floor(x + origin) holding the points x of
    shape (..., d): the diagonal entries (..., d) and the lower weight (...)."""
    cells = np.floor(np.asarray(x, dtype=float) + fld.origin).astype(np.int64)
    lam, lam0 = fld.at_cells(*cells.T)
    return lam.T, lam0.T


def diag_at(fld, x):
    return at_points(fld, x)[0]


# ---------------------------------------------------------------- laws


def test_distribution_validation_errors():
    assert DistributionSpec.constant(-1.0).validate()
    assert DistributionSpec.uniform(2.0, 1.0).validate()
    assert DistributionSpec.uniform(-0.5, 1.0).validate()
    assert DistributionSpec.two_point(1.0, 0.0, 2.0).validate()
    assert DistributionSpec.two_point(-1.0, 0.5, 2.0).validate()
    assert DistributionSpec.pareto(1.0, 0.0).validate()
    assert DistributionSpec.pareto(0.0, 1.0).validate()
    assert DistributionSpec.lognormal(0.0, 0.0).validate()
    assert DistributionSpec("weibull", (1.0,)).validate()
    assert not U12.validate()


@pytest.mark.parametrize("law", [
    DistributionSpec.uniform(1.0, 2.0),
    DistributionSpec.two_point(1.0, 0.25, 3.0),
    DistributionSpec.pareto(1.0, 3.0),
    DistributionSpec.lognormal(0.3, 0.5),
])
def test_moments_match_inverse_cdf_quadrature(law):
    mean, _ = integrate.quad(lambda u: float(law.sample(np.array(u))), 0.0, 1.0,
                             limit=200)
    assert mean == pytest.approx(law.mean(), rel=1e-6)


def test_infinite_moments():
    assert math.isinf(DistributionSpec.pareto(1.0, 1.0).mean())
    assert DistributionSpec.pareto(1.0, 1.5).mean() == pytest.approx(3.0)


def test_empirical_cdf_tracks_analytic_cdf():
    u = keyed_uniform(4, "cdf-probe", np.arange(20000))
    for law in (U12, DistributionSpec.lognormal(0.0, 1.0),
                DistributionSpec.pareto(1.0, 2.0)):
        x = np.sort(law.sample(u))
        ecdf = np.arange(1, x.size + 1) / x.size
        cdf = np.array([law.mass_below(v) for v in x[:: 50]])
        assert np.max(np.abs(ecdf[::50] - cdf)) < 0.02


def test_mass_below_closed_forms():
    assert DistributionSpec.uniform(0.0, 1.0).mass_below(0.1) == pytest.approx(0.1)
    assert DistributionSpec.two_point(0.05, 0.5, 1.0).mass_below(0.1) == 0.5
    assert DistributionSpec.two_point(0.05, 0.5, 1.0).mass_below(0.01) == 0.0
    assert DistributionSpec.pareto(1.0, 1.0).mass_below(2.0) == pytest.approx(0.5)
    assert DistributionSpec.constant(2.0).mass_below(3.0) == 1.0


def test_atoms_and_support():
    vals, probs = DistributionSpec.two_point(1.0, 0.25, 3.0).atoms()
    assert np.allclose(vals, [1.0, 3.0]) and np.allclose(probs, [0.25, 0.75])
    assert U12.atoms() is None
    assert U12.support_inf() == 1.0
    assert DistributionSpec.lognormal(0.0, 1.0).support_inf() == 0.0


# ----------------------------------------------------------- structures


def test_spec_validation_errors():
    errs = FieldSpec(dimension=2, structure=Laminate(axis=3),
                     diagonal=U12).validate()
    assert any("axis" in e for e in errs)
    errs = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=(U12,)).validate()
    assert any("2 laws" in e for e in errs)
    errs = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0]]),
                     diagonal=U12).validate()
    assert any("tile" in e for e in errs)
    errs = FieldSpec(dimension=1, structure=Periodic(tile=[1.0, -2.0])).validate()
    assert any("> 0" in e for e in errs)
    errs = FieldSpec(dimension=2, structure=Periodic(tile=[[1.0, 2.0], [2.0, 1.0]]),
                     lower_order=U12).validate()
    assert any("deterministic" in e for e in errs)
    for spec, needle in [
        (FieldSpec(dimension=0, structure=IidCubes(), diagonal=U12),
         "dimension must be an integer >= 1, got 0"),
        (FieldSpec(dimension=2, structure=Periodic(tile=np.ones((2, 2, 3)))),
         "periodic tile must have shape dims or dims+(2,), got (2, 2, 3)"),
        (FieldSpec(dimension=1, structure=Periodic(tile=[])), "periodic tile must be non-empty"),
        (FieldSpec(dimension=2, structure="spiral", diagonal=U12), "unknown structure 'spiral'"),
        (FieldSpec(dimension=2, structure=IidCubes(), diagonal="uniform"),
         "diagonal must be a DistributionSpec or a tuple of them"),
        (FieldSpec(dimension=2, structure=IidCubes(), diagonal=U12, lower_order=1.0),
         "lower_order must be a DistributionSpec or None"),
        (FieldSpec(dimension=2, structure=IidCubes(),
                   diagonal=DistributionSpec("uniform", (1.0,))),
         "diagonal: uniform law needs parameters (a, b)"),
    ]:
        assert needle in spec.validate(), (needle, spec.validate())
    with pytest.raises(ValueError, match="alpha_tail"):
        sample_field(iid_iso(DistributionSpec.pareto(1.0, 0.0)), 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_periodic_tiles_of_shape_dims_or_dims_plus_d_validate(d):
    dims = (3, 2, 2)[:d]
    for shape in (dims, dims + (d,)):
        assert FieldSpec(dimension=d, structure=Periodic(tile=np.ones(shape))).validate() == []
    for shape in (dims[:-1] or (3, 3), dims + (d + 1,), dims + (d, 1)):
        errs = FieldSpec(dimension=d, structure=Periodic(tile=np.ones(shape))).validate()
        assert f"periodic tile must have shape dims or dims+({d},), got {shape}" in errs


def test_constant_field_everywhere():
    fld = sample_field(iid_iso(DistributionSpec.constant(2.0)), 9)
    pts = keyed_uniform(1, "pts", np.arange(60)).reshape(30, 2) * 20 - 10
    lam, lam0 = at_points(fld, pts)
    assert lam.shape == (30, 2) and lam0.shape == (30,)
    assert np.all(lam == 2.0)
    assert np.all(lam0 == 0.0)


def test_points_and_cells_need_one_coordinate_per_axis():
    fld = sample_field(iid_iso(U12), 9)
    for pts in (np.zeros((4, 1)), np.zeros((4, 3))):
        with pytest.raises(ValueError, match="2 cell-index arrays"):
            fld.at_cells(*np.floor(pts).astype(np.int64).T)
    with pytest.raises(ValueError, match="2 cell-index arrays"):
        fld.at_cells(np.arange(4))


def test_iid_piecewise_constant_on_unit_cells():
    fld = sample_field(iid_iso(U12), 3)
    a = diag_at(fld, np.array([0.2, 0.7]))
    b = diag_at(fld, np.array([0.9, 0.01]))
    c = diag_at(fld, np.array([1.1, 0.5]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_isotropic_shares_one_draw_across_slots():
    iso = sample_field(iid_iso(U12), 5)
    vals = diag_at(iso, keyed_uniform(2, "p", np.arange(40)).reshape(20, 2) * 9)
    assert np.array_equal(vals[:, 0], vals[:, 1])
    indep = sample_field(FieldSpec(dimension=2, structure=IidCubes(),
                                   diagonal=(U12, U12)), 5)
    vals = diag_at(indep, np.array([[0.5, 0.5], [3.2, 7.9]]))
    assert not np.array_equal(vals[:, 0], vals[:, 1])


def test_laminate_depends_on_axis_only():
    spec = FieldSpec(dimension=2, structure=Laminate(axis=2), diagonal=U12)
    fld = sample_field(spec, 8)
    along = diag_at(fld, np.array([[0.1, 0.4], [57.9, 0.4], [-3.2, 0.6]]))
    assert np.array_equal(along[0], along[1])
    assert np.array_equal(along[0], along[2])
    across = diag_at(fld, np.array([[0.1, 1.4]]))
    assert not np.array_equal(along[0], across[0])


LOGNORMAL = DistributionSpec.lognormal(0.0, 1.0)
PARETO_LOWER = DistributionSpec.pareto(0.5, 2.0)
PER_SLOT = (U12, DistributionSpec.pareto(1.0, 1.5), DistributionSpec.two_point(1.0, 0.3, 4.0))
CENTER = (0.3, -7.2, 2.0)


def _per_cell_weights(fld, grid):
    """Every cell keyed on its own from its floored center, as the key
    chain is defined: (d, *cells) diagonal entries and the lower weight."""
    spec = fld.spec
    cells = np.moveaxis(np.floor(grid.cell_centers() + fld.origin).astype(np.int64), -1, 0)
    st = spec.structure
    if isinstance(st, Periodic):
        vals = st.slot_values(spec.dimension)[tuple(map(np.mod, cells, st.tile.shape))]
        return np.moveaxis(vals, -1, 0), np.full(cells.shape[1:], spec.lower_order.params[0])
    keys = cells[st.axis - 1:st.axis] if isinstance(st, Laminate) else cells
    slots = [_ISO_SLOT] * 3 if spec.is_isotropic_law else range(3)
    lam = [law.sample(keyed_uniform(fld.seed, _REALM_DIAG, fld.index, j, *keys))
           for j, law in zip(slots, spec.diagonal_laws())]
    lam0 = spec.lower_order.sample(keyed_uniform(fld.seed, _REALM_LOWER, fld.index, *keys))
    return np.stack(lam), lam0


# every structure, each cell against its own draw; the ids diagonal0 and
# diagonal1 are the laminate cases on the lattice-aligned center
@pytest.mark.parametrize("structure, diagonal, lower, center", [
    (Laminate(axis=2), LOGNORMAL, PARETO_LOWER, CENTER),
    (Laminate(axis=2), PER_SLOT, PARETO_LOWER, CENTER),
    (IidCubes(), LOGNORMAL, PARETO_LOWER, CENTER),
    (IidCubes(), PER_SLOT, PARETO_LOWER, CENTER),
    (Periodic(tile=np.arange(1.0, 25.0).reshape(2, 3, 4)), None,
     DistributionSpec.constant(0.7), CENTER),
    (Laminate(axis=3), PER_SLOT, PARETO_LOWER, (0.37, -7.21, 2.05)),
    (IidCubes(), LOGNORMAL, PARETO_LOWER, (0.37, -7.21, 2.05)),
], ids=["diagonal0", "diagonal1", "iid-iso", "iid-per-slot", "periodic-lower",
        "laminate-off-lattice", "iid-off-lattice"])
def test_laminate_assembly_matches_the_per_cell_draw(structure, diagonal, lower, center):
    spec = FieldSpec(dimension=3, structure=structure, diagonal=diagonal,
                     lower_order=lower)
    fld = shift(sample_field(spec, 11, index=4), np.array([2.0, -1.0, 3.0]))
    grid = cube_grid(3, 5.0, cells_per_unit=3, center=center)
    prob = assemble(fld, grid, np.array([[1.0, 0.0, 0.0]]))
    lam, lam0 = _per_cell_weights(fld, grid)
    assert prob.lam.flags.c_contiguous and prob.lam0.flags.c_contiguous
    assert prob.lam.tobytes() == lam.tobytes()
    assert prob.lam0.tobytes() == lam0.tobytes()


def test_laminate_keys_each_stripe_once(monkeypatch):
    # a 256 x 256 grid of a two-slot laminate with a lower-order term keys
    # 256 stripes per draw, not 65536 cells
    keyed = []

    def counting(seed, *components):
        state = key_chain(seed, *components)
        keyed.append(state.size)
        return state

    monkeypatch.setattr(homlab.fields, "key_chain", counting)
    spec = FieldSpec(dimension=2, structure=Laminate(axis=1), diagonal=(U12, LOGNORMAL),
                     lower_order=PARETO_LOWER)
    prob = assemble(sample_field(spec, 3), cube_grid(2, 128.0), np.array([[1.0, 0.0]]))
    assert prob.lam.shape == (2, 256, 256)
    assert keyed == [256, 256, 256]


def test_periodic_tile_lookup_with_negatives():
    tile = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = FieldSpec(dimension=2, structure=Periodic(tile=tile))
    fld = sample_field(spec, 0)
    pts = np.array([[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5],
                    [-0.5, -0.5], [2.5, -1.5]])
    vals = diag_at(fld, pts)[:, 0]
    assert np.array_equal(vals, [1.0, 2.0, 3.0, 4.0, 4.0, 1.0])
    assert np.array_equal(diag_at(fld, pts)[:, 0], diag_at(fld, pts)[:, 1])


def test_periodic_tile_per_diagonal_slot():
    # shape dims + (d,): slot j of cell k is tile[k mod 2][j]
    tile = np.stack([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]], axis=-1)
    spec = FieldSpec(dimension=2, structure=Periodic(tile=tile))
    assert spec.validate() == []
    grid = cube_grid(2, 4.0)
    prob = assemble(sample_field(spec, 0), grid, np.array([[1.0, 0.0]]))
    k = np.floor(grid.cell_centers()).astype(int) % 2
    assert np.array_equal(np.moveaxis(prob.lam, 0, -1), tile[k[..., 0], k[..., 1]])
    gc = growth_constants(spec)
    # the least weights sit in one cell, (1, 5); slot 1 averages 6.5
    assert gc.c0 == pytest.approx(1.0 / math.sqrt(1.0 + 1.0 / 25.0))
    assert gc.C0 == pytest.approx(6.5)


def test_periodic_one_dimensional_tile():
    spec = FieldSpec(dimension=1, structure=Periodic(tile=[1.0, 2.0]))
    fld = sample_field(spec, 0)
    xs = np.array([[0.5], [1.5], [2.5], [-0.5]])
    assert np.array_equal(diag_at(fld, xs)[:, 0], [1.0, 2.0, 1.0, 2.0])


def test_positivity_on_many_probes():
    spec = iid_iso(DistributionSpec.lognormal(0.0, 1.0), lower=U12)
    fld = sample_field(spec, 17)
    pts = keyed_uniform(6, "pos", np.arange(2 * 10 ** 5)).reshape(-1, 2) * 2000 - 1000
    lam, lam0 = at_points(fld, pts)
    assert np.all(lam > 0.0)
    assert np.all(lam0 >= 0.0)


def test_empirical_cell_mean_clt_interval():
    fld = sample_field(iid_iso(U12), 31)
    cells = np.stack(np.meshgrid(np.arange(100), np.arange(100), indexing="ij"),
                     axis=-1) + 0.5
    vals = diag_at(fld, cells.reshape(-1, 2))[:, 0]
    assert abs(vals.mean() - 1.5) < 3.0 * (1.0 / math.sqrt(12.0)) / 100.0


# ---------------------------------------------------------------- shift


def test_shift_is_bit_exact_on_integer_vectors():
    fld = sample_field(iid_iso(U12, lower=U12), 5)
    z = np.array([3.0, -2.0])
    g = shift(fld, z)
    x = keyed_uniform(7, "x", np.arange(100)).reshape(50, 2) * 10 - 5
    for a, b in zip(at_points(g, x), at_points(fld, x + z)):
        assert np.array_equal(a, b)


def test_shift_group_property():
    fld = sample_field(iid_iso(U12), 5)
    z1 = np.array([1.0, 4.0])
    z2 = np.array([-2.0, 7.0])
    x = np.array([[0.3, 0.9], [5.5, -3.25]])
    assert np.array_equal(diag_at(shift(shift(fld, z1), z2), x),
                          diag_at(shift(fld, z1 + z2), x))
    assert np.array_equal(diag_at(shift(fld, np.zeros(2)), x),
                          diag_at(fld, x))
    with pytest.raises(ValueError):
        shift(fld, np.zeros(3))


def test_shifted_marginal_same_law():
    spec = iid_iso(U12)
    cells = np.stack(np.meshgrid(np.arange(20), np.arange(20), indexing="ij"),
                     axis=-1).reshape(-1, 2) + 0.5
    a = shift(sample_field(spec, 10, index=0), np.array([11.0, -4.0]))
    b = sample_field(spec, 10, index=1)
    res = two_sample_test(diag_at(a, cells)[:, 0], diag_at(b, cells)[:, 0])
    assert res.statistic <= res.threshold


def test_two_sample_test_rejects_different_laws():
    u = keyed_uniform(3, "ts", np.arange(800))
    a = U12.sample(u[:400])
    b = DistributionSpec.uniform(1.5, 2.5).sample(u[400:])
    res = two_sample_test(a, b)
    assert res.statistic > res.threshold


# ---------------------------------------------------- birkhoff averages


def test_birkhoff_constant_is_exact():
    fld = sample_field(iid_iso(DistributionSpec.constant(3.0)), 0)
    for t, avg in birkhoff_average(fld, [1, 7, 100], observable="entry"):
        assert avg == pytest.approx(3.0, abs=1e-12)


def test_birkhoff_periodic_tile_mean_exact_at_integer_t():
    tile = np.array([[1.0, 2.0], [3.0, 4.0]])
    fld = sample_field(FieldSpec(dimension=2, structure=Periodic(tile=tile)), 0)
    (t, avg), = birkhoff_average(fld, [4], observable="entry")
    assert avg == pytest.approx(tile.mean(), abs=1e-12)


def test_birkhoff_fractional_box_overlap_weights():
    # interval (0, 1.5) over the period-2 tile [1, 2]:
    # cell [0,1) weight 1 value 1, cell [1,1.5) weight 0.5 value 2
    fld = sample_field(FieldSpec(dimension=1, structure=Periodic(tile=[1.0, 2.0])), 0)
    (t, avg), = birkhoff_average(fld, [2.0], box=[(0.0, 0.75)])
    assert avg == pytest.approx((1.0 * 1.0 + 0.5 * 2.0) / 1.5, abs=1e-12)


@pytest.mark.parametrize("observable, entry", [("entry", 0), ("entry", 1),
                                               ("lambda_norm", 0), ("lower", 0)])
def test_birkhoff_laminate_fractional_box_matches_the_per_cell_sum(observable, entry):
    spec = FieldSpec(dimension=2, structure=Laminate(axis=2), diagonal=(U12, LOGNORMAL),
                     lower_order=PARETO_LOWER)
    fld = shift(sample_field(spec, 6, index=2), np.array([0.25, -3.5]))
    box = [(0.1, 0.83), (-0.4, 0.35)]
    t = 7.5
    lo = [t * a + o for (a, _), o in zip(box, fld.origin)]
    hi = [t * b + o for (_, b), o in zip(box, fld.origin)]
    total = 0.0
    for k1 in range(math.floor(lo[0]), math.ceil(hi[0])):
        for k2 in range(math.floor(lo[1]), math.ceil(hi[1])):
            overlap = ((min(k1 + 1, hi[0]) - max(k1, lo[0]))
                       * (min(k2 + 1, hi[1]) - max(k2, lo[1])))
            lam = [law.sample(keyed_uniform(6, _REALM_DIAG, 2, j, k2))
                   for j, law in enumerate(spec.diagonal)]
            value = {"entry": lam[entry], "lambda_norm": math.hypot(*lam),
                     "lower": PARETO_LOWER.sample(keyed_uniform(6, _REALM_LOWER, 2, k2))}
            total += overlap * value[observable]
    (_, avg), = birkhoff_average(fld, [t], observable=observable, box=box, entry=entry)
    assert avg == pytest.approx(total / (t * 0.73 * t * 0.75), rel=1e-12)


def test_birkhoff_uniform_clt_interval():
    fld = sample_field(FieldSpec(dimension=1, structure=IidCubes(), diagonal=U12), 21)
    (t, avg), = birkhoff_average(fld, [1000], observable="entry")
    assert abs(avg - 1.5) < 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(1000.0)


def test_birkhoff_heavy_tail_grows():
    fld = sample_field(FieldSpec(dimension=1, structure=IidCubes(),
                                 diagonal=DistributionSpec.pareto(1.0, 1.0)), 0)
    series = birkhoff_average(fld, [2 ** k for k in range(4, 13)])
    vals = [v for _, v in series]
    assert vals[-1] > 2.0 * vals[0]


def test_birkhoff_lambda_norm_observable():
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.constant(2.0))
    fld = sample_field(spec, 0)
    (t, avg), = birkhoff_average(fld, [8], observable="lambda_norm")
    assert avg == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_birkhoff_input_validation():
    fld = sample_field(iid_iso(U12), 0)
    with pytest.raises(ValueError):
        birkhoff_average(fld, [-1.0])
    with pytest.raises(ValueError):
        birkhoff_average(fld, [4.0], box=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        birkhoff_average(fld, [4.0], observable="trace")
    # 10^8 cells to enumerate, above the cap
    with pytest.raises(ValueError, match="enumerates 100000000 cells"):
        birkhoff_average(fld, [10000.0])
