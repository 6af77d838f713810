"""Random diagonal weight fields on the unit-cell lattice.

A field assigns to every unit cell ``[k, k+1)^d`` (or stripe, or tile
cell) a diagonal matrix ``Lambda = diag(L_1, ..., L_d)`` with positive
entries, plus an optional scalar lower-order weight ``lam``.  Values are
piecewise constant in space and are produced by the keyed generator in
:mod:`homlab.randomness`, so any cell of any realization is computable
in O(1) without storing the realization.

A realization is evaluated one way, ``FieldSample.at_cells``: on d
integer cell-index arrays that broadcast together.  Each draw is keyed
by the indices it depends on, all d of them for iid cubes and the axis
index alone for a laminate, so on the ``np.ix_`` open mesh of a grid a
laminate is keyed once per stripe; a periodic field indexes its tile.
A point lies in the cell ``floor(x + origin)``, where ``origin`` is the
shift the realization has accumulated.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .randomness import key_chain, normal_cdf, normal_quantile, uniform01

_REALM_DIAG = 1
_REALM_LOWER = 2
_ISO_SLOT = -1

# Hard cap on cells enumerated by exact spatial integration.
_MAX_INTEGRATION_CELLS = 50_000_000


# One row per law kind, and the one place a law is defined: its parameter
# names in ``params`` order; its bounds as (words, test) pairs; and, as
# functions of the parameters, its inverse CDF of uniforms u in (0, 1),
# mean, essential infimum, P(value < x) and, for finite support, its
# atoms as (values, probabilities).
_Law = namedtuple("_Law", "names bounds sample mean inf below atoms",
                  defaults=(None,))
LAWS = {
    "constant": _Law(
        ("value",), [("value > 0", lambda v: v > 0)],
        sample=lambda u, v: np.full_like(np.asarray(u, dtype=float), v),
        mean=lambda v: v,
        inf=lambda v: v,
        below=lambda x, v: 1.0 if v < x else 0.0,
        atoms=lambda v: ([v], [1.0])),
    "uniform": _Law(
        ("a", "b"), [("a >= 0", lambda a, b: a >= 0), ("b > a", lambda a, b: b > a)],
        sample=lambda u, a, b: a + (b - a) * u,
        mean=lambda a, b: 0.5 * (a + b),
        inf=lambda a, b: a,
        below=lambda x, a, b: float(np.clip((x - a) / (b - a), 0.0, 1.0))),
    "two_point": _Law(
        ("v1", "p", "v2"), [("v1 > 0 and v2 > 0", lambda v1, p, v2: v1 > 0 and v2 > 0),
                            ("p in (0, 1)", lambda v1, p, v2: 0.0 < p < 1.0)],
        sample=lambda u, v1, p, v2: np.where(u < p, v1, v2),
        mean=lambda v1, p, v2: p * v1 + (1.0 - p) * v2,
        inf=lambda v1, p, v2: min(v1, v2),
        below=lambda x, v1, p, v2: p * (v1 < x) + (1.0 - p) * (v2 < x),
        atoms=lambda v1, p, v2: ([v1, v2], [p, 1.0 - p])),
    # an infinite mean iff alpha_tail <= 1
    "pareto": _Law(
        ("x_m", "alpha_tail"), [("x_m > 0", lambda xm, al: xm > 0),
                                ("alpha_tail > 0", lambda xm, al: al > 0)],
        sample=lambda u, xm, al: xm * u ** (-1.0 / al),
        mean=lambda xm, al: math.inf if al <= 1.0 else al * xm / (al - 1.0),
        inf=lambda xm, al: xm,
        below=lambda x, xm, al: 0.0 if x <= xm else 1.0 - (xm / x) ** al),
    "lognormal": _Law(
        ("mu", "sigma"), [("sigma > 0", lambda mu, sigma: sigma > 0)],
        sample=lambda u, mu, sigma: np.exp(mu + sigma * normal_quantile(u)),
        mean=lambda mu, sigma: math.exp(mu + 0.5 * sigma * sigma),
        inf=lambda mu, sigma: 0.0,
        below=lambda x, mu, sigma: (0.0 if x <= 0.0
                                    else float(normal_cdf((math.log(x) - mu) / sigma)))),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar law with support in (0, inf): a kind of ``LAWS`` and its
    parameters in that row's order."""

    kind: str
    params: tuple

    @staticmethod
    def constant(value: float) -> "DistributionSpec":
        return DistributionSpec("constant", (float(value),))

    @staticmethod
    def uniform(a: float, b: float) -> "DistributionSpec":
        return DistributionSpec("uniform", (float(a), float(b)))

    @staticmethod
    def two_point(v1: float, p: float, v2: float) -> "DistributionSpec":
        return DistributionSpec("two_point", (float(v1), float(p), float(v2)))

    @staticmethod
    def pareto(x_m: float, alpha_tail: float) -> "DistributionSpec":
        return DistributionSpec("pareto", (float(x_m), float(alpha_tail)))

    @staticmethod
    def lognormal(mu: float, sigma: float) -> "DistributionSpec":
        return DistributionSpec("lognormal", (float(mu), float(sigma)))

    def validate(self) -> list:
        law = LAWS.get(self.kind)
        if law is None:
            return [f"unknown distribution kind {self.kind!r}"]
        if len(self.params) != len(law.names):
            return [f"{self.kind} law needs parameters ({', '.join(law.names)})"]
        return [f"{self.kind} law needs {words}, got {self.params}"
                for words, ok in law.bounds if not ok(*self.params)]

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in (0, 1)."""
        return LAWS[self.kind].sample(u, *self.params)

    def mean(self) -> float:
        return LAWS[self.kind].mean(*self.params)

    def support_inf(self) -> float:
        return LAWS[self.kind].inf(*self.params)

    def mass_below(self, x: float) -> float:
        """P(value < x)."""
        return LAWS[self.kind].below(x, *self.params)

    def atoms(self):
        """(values, probabilities) for finite-support laws, else None."""
        atoms = LAWS[self.kind].atoms
        return None if atoms is None else tuple(np.array(a) for a in atoms(*self.params))


@dataclass(frozen=True)
class IidCubes:
    """Independent values on every unit cell of Z^d."""

    kind: str = "iid_cubes"


@dataclass(frozen=True)
class Laminate:
    """Values constant in all directions except ``axis`` (1-based)."""

    axis: int = 1
    kind: str = "laminate"


@dataclass(frozen=True, eq=False)
class Periodic:
    """Deterministic field repeating a tile of per-cell values.

    ``tile`` has shape dims (scalar weight per cell, shared by all
    diagonal slots) or dims + (d,) (one value per diagonal slot).
    """

    tile: np.ndarray
    kind: str = "periodic"

    def __post_init__(self):
        object.__setattr__(self, "tile", np.asarray(self.tile, dtype=float))

    def slot_values(self, d: int) -> np.ndarray:
        """The tile with one value per diagonal slot: shape dims + (d,)."""
        return self.tile[..., None] * np.ones(d) if self.tile.ndim == d else self.tile


Structure = Union[IidCubes, Laminate, Periodic]


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """Law of a stationary diagonal weight field.

    ``diagonal`` is either a single DistributionSpec (isotropic: one
    draw per cell shared by all d slots) or a length-d tuple of laws
    (independent entries).  For periodic structure the tile supplies
    the values and ``diagonal`` must be None.
    """

    dimension: int
    structure: Structure
    diagonal: object = None
    lower_order: DistributionSpec = None

    def validate(self) -> list:
        errs = []
        d = self.dimension
        if not isinstance(d, int) or d < 1:
            errs.append(f"dimension must be an integer >= 1, got {d!r}")
            return errs
        st = self.structure
        if isinstance(st, Laminate):
            if not 1 <= st.axis <= d:
                errs.append(f"laminate axis must lie in 1..{d}, got {st.axis}")
        elif isinstance(st, Periodic):
            tile = st.tile
            if not (tile.ndim == d or tile.shape[d:] == (d,)):
                errs.append(
                    f"periodic tile must have shape dims or dims+({d},), got {tile.shape}"
                )
            if tile.size == 0:
                errs.append("periodic tile must be non-empty")
            elif not np.all((tile > 0) & np.isfinite(tile)):
                errs.append("periodic tile values must be finite and > 0")
        elif not isinstance(st, IidCubes):
            errs.append(f"unknown structure {st!r}")

        diag = self.diagonal
        if isinstance(st, Periodic):
            if diag is not None:
                errs.append("periodic structure takes its values from the tile; diagonal must be None")
            if isinstance(self.lower_order, DistributionSpec) and self.lower_order.kind != "constant":
                errs.append("periodic fields are deterministic: lower_order must be constant or None")
        elif isinstance(diag, (tuple, list)):
            if len(diag) != d:
                errs.append(f"diagonal needs {d} laws, got {len(diag)}")
            errs.extend(f"diagonal[{j}] is not a DistributionSpec"
                        for j, law in enumerate(diag) if not isinstance(law, DistributionSpec))
        elif not isinstance(diag, DistributionSpec):
            errs.append("diagonal must be a DistributionSpec or a tuple of them")
        if self.lower_order is not None and not isinstance(self.lower_order, DistributionSpec):
            errs.append("lower_order must be a DistributionSpec or None")
        return errs + self.law_errors()

    def law_errors(self) -> list:
        """The bounds each given law breaks, whatever the structure."""
        diag = self.diagonal
        named = ([(f"diagonal[{j}]", law) for j, law in enumerate(diag)]
                 if isinstance(diag, (tuple, list)) else [("diagonal", diag)])
        named.append(("lower_order", self.lower_order))
        return [f"{name}: {e}" for name, law in named
                if isinstance(law, DistributionSpec) for e in law.validate()]

    @property
    def is_isotropic_law(self) -> bool:
        return isinstance(self.diagonal, DistributionSpec)

    @property
    def deterministic(self) -> bool:
        """A periodic field has one realization, which is its law."""
        return isinstance(self.structure, Periodic)

    def realizations(self, n_real: int) -> int:
        """How many of n_real realizations differ: 1 for a deterministic field."""
        return 1 if self.deterministic else n_real

    def diagonal_laws(self) -> tuple:
        """Per-slot laws; isotropic specs repeat the single law."""
        if self.is_isotropic_law:
            return (self.diagonal,) * self.dimension
        return tuple(self.diagonal)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """One realization: spec + (seed, index) + accumulated shift."""

    spec: FieldSpec
    seed: int
    index: int
    origin: np.ndarray

    def at_cells(self, *cells):
        """The weights on the unit cells with integer indices ``cells``.

        ``cells`` are d index arrays that broadcast together, such as the
        columns of a point array or the ``np.ix_`` open mesh of a grid.
        Returns the diagonal entries, C-contiguous of shape (d, *shape),
        and the lower-order weight (0 without one), of shape (*shape).
        Each draw is keyed by the indices it depends on: all d for iid
        cubes, the axis index alone for a laminate, so an open mesh keys
        each stripe once.
        """
        spec = self.spec
        d = spec.dimension
        if len(cells) != d:
            raise ValueError(f"need {d} cell-index arrays, got {len(cells)}")
        shape = np.broadcast_shapes(*map(np.shape, cells))
        lam = np.empty((d,) + shape)
        lam0 = np.zeros(shape)
        st = spec.structure
        if isinstance(st, Periodic):
            tile = np.moveaxis(st.slot_values(d), -1, 0)
            lam[...] = tile[(slice(None),) + tuple(map(np.mod, cells, tile.shape[1:]))]
            if spec.lower_order is not None:
                lam0[...] = spec.lower_order.params[0]
            return lam, lam0
        if isinstance(st, Laminate):
            cells = cells[st.axis - 1:st.axis]

        def draw(law, *keys):
            return law.sample(uniform01(key_chain(self.seed, *keys, *cells)))

        if spec.is_isotropic_law:
            lam[...] = draw(spec.diagonal, _REALM_DIAG, self.index, _ISO_SLOT)
        else:
            for j, law in enumerate(spec.diagonal):
                lam[j] = draw(law, _REALM_DIAG, self.index, j)
        if spec.lower_order is not None:
            lam0[...] = draw(spec.lower_order, _REALM_LOWER, self.index)
        return lam, lam0


def sample_field(spec: FieldSpec, seed: int, index: int = 0) -> FieldSample:
    """Materialize realization ``index`` of the field law under ``seed``."""
    errs = spec.validate()
    if errs:
        raise ValueError("invalid FieldSpec: " + "; ".join(errs))
    return FieldSample(spec=spec, seed=int(seed), index=int(index),
                       origin=np.zeros(spec.dimension))


def shift(sample: FieldSample, z) -> FieldSample:
    """Shifted realization: eval(shift(f, z), x) == eval(f, x + z).

    Exact (bit-equal) whenever x + z incurs no rounding, e.g. for the
    integer shifts used by stationarity checks.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (sample.spec.dimension,):
        raise ValueError(f"shift vector must have shape ({sample.spec.dimension},)")
    return replace(sample, origin=sample.origin + z)


def birkhoff_average(sample: FieldSample, t_list, observable: str = "entry",
                     box=None, entry: int = 0):
    """Exact averages of a cell observable over the scaled boxes t*B.

    The field is piecewise constant on unit cells, so the spatial
    average over ``t * B`` is the overlap-volume-weighted cell sum,
    computed exactly.  Returns a list of (t, average) pairs.
    """
    d = sample.spec.dimension
    if box is None:
        box = tuple((0.0, 1.0) for _ in range(d))
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != d or any(hi <= lo for lo, hi in box):
        raise ValueError("box must give d nondegenerate (lo, hi) intervals")
    if observable not in ("lambda_norm", "entry", "lower"):
        raise ValueError(f"unknown observable {observable!r}; use lambda_norm, entry or lower")

    out = []
    for t in t_list:
        t = float(t)
        if t <= 0:
            raise ValueError("t values must be positive")
        axes_cells = []
        axes_weights = []
        for j, (lo, hi) in enumerate(box):
            a = t * lo + sample.origin[j]
            b = t * hi + sample.origin[j]
            ks = np.arange(math.floor(a), math.ceil(b), dtype=np.int64)
            w = np.minimum(ks + 1.0, b) - np.maximum(ks.astype(float), a)
            axes_cells.append(ks[w > 0])
            axes_weights.append(w[w > 0])
        total = math.prod(ks.size for ks in axes_cells)
        if total > _MAX_INTEGRATION_CELLS:
            raise ValueError(
                f"exact integration over t={t} enumerates {total} cells; reduce t or the box"
            )
        lam, lam0 = sample.at_cells(*np.ix_(*axes_cells))
        vals = (np.sqrt(np.sum(lam * lam, axis=0)) if observable == "lambda_norm"
                else lam[entry] if observable == "entry" else lam0)
        weight = functools.reduce(np.multiply, np.ix_(*axes_weights))
        volume = math.prod(t * (hi - lo) for lo, hi in box)
        out.append((t, float(np.sum(weight * vals) / volume)))
    return out
