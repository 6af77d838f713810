"""Random diagonal weight fields on the unit-cell lattice.

A field assigns to every unit cell ``[k, k+1)^d`` (or stripe, or tile
cell) a diagonal matrix ``Lambda = diag(L_1, ..., L_d)`` with positive
entries, plus an optional scalar lower-order weight ``lam``.  Values are
piecewise constant in space and are produced by the keyed generator in
:mod:`homlab.randomness`, so any cell of any realization is computable
in O(1) without storing the realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

from .randomness import key_chain, uniform01

_REALM_DIAG = 1
_REALM_LOWER = 2
_ISO_SLOT = -1

# Hard cap on cells enumerated by exact spatial integration.
_MAX_INTEGRATION_CELLS = 50_000_000


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar law with support in (0, inf); parameters by kind.

    kinds: constant(value), uniform(a, b), two_point(v1, p, v2),
    pareto(x_m, alpha_tail), lognormal(mu, sigma).  ``pareto`` has an
    infinite mean iff alpha_tail <= 1.
    """

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
        errs = []
        k, p = self.kind, self.params
        if k == "constant":
            if len(p) != 1:
                errs.append("constant law needs exactly one parameter")
            elif p[0] <= 0:
                errs.append(f"constant law needs value > 0, got {p[0]}")
        elif k == "uniform":
            if len(p) != 2:
                errs.append("uniform law needs parameters (a, b)")
            else:
                a, b = p
                if a < 0:
                    errs.append(f"uniform law needs a >= 0, got a={a}")
                if b <= a:
                    errs.append(f"uniform law needs b > a, got ({a}, {b})")
        elif k == "two_point":
            if len(p) != 3:
                errs.append("two_point law needs parameters (v1, p, v2)")
            else:
                v1, pr, v2 = p
                if v1 <= 0 or v2 <= 0:
                    errs.append(f"two_point values must be > 0, got ({v1}, {v2})")
                if not 0.0 < pr < 1.0:
                    errs.append(f"two_point probability must lie in (0,1), got {pr}")
        elif k == "pareto":
            if len(p) != 2:
                errs.append("pareto law needs parameters (x_m, alpha_tail)")
            else:
                xm, al = p
                if xm <= 0:
                    errs.append(f"pareto law needs x_m > 0, got {xm}")
                if al <= 0:
                    errs.append(f"pareto law needs alpha_tail > 0, got {al}")
        elif k == "lognormal":
            if len(p) != 2:
                errs.append("lognormal law needs parameters (mu, sigma)")
            elif p[1] <= 0:
                errs.append(f"lognormal law needs sigma > 0, got {p[1]}")
        else:
            errs.append(f"unknown distribution kind {k!r}")
        return errs

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in (0, 1)."""
        k, p = self.kind, self.params
        if k == "constant":
            return np.full_like(np.asarray(u, dtype=float), p[0])
        if k == "uniform":
            a, b = p
            return a + (b - a) * u
        if k == "two_point":
            v1, pr, v2 = p
            return np.where(u < pr, v1, v2)
        if k == "pareto":
            xm, al = p
            return xm * u ** (-1.0 / al)
        if k == "lognormal":
            mu, sigma = p
            return np.exp(mu + sigma * ndtri(u))
        raise ValueError(f"unknown distribution kind {k!r}")

    def mean(self) -> float:
        k, p = self.kind, self.params
        if k == "constant":
            return p[0]
        if k == "uniform":
            return 0.5 * (p[0] + p[1])
        if k == "two_point":
            v1, pr, v2 = p
            return pr * v1 + (1.0 - pr) * v2
        if k == "pareto":
            xm, al = p
            return math.inf if al <= 1.0 else al * xm / (al - 1.0)
        if k == "lognormal":
            mu, sigma = p
            return math.exp(mu + 0.5 * sigma * sigma)
        raise ValueError(f"unknown distribution kind {k!r}")

    def support_inf(self) -> float:
        k, p = self.kind, self.params
        if k == "constant":
            return p[0]
        if k == "uniform":
            return p[0]
        if k == "two_point":
            return min(p[0], p[2])
        if k == "pareto":
            return p[0]
        if k == "lognormal":
            return 0.0
        raise ValueError(f"unknown distribution kind {k!r}")

    def mass_below(self, x: float) -> float:
        """P(value < x)."""
        k, p = self.kind, self.params
        if k == "constant":
            return 1.0 if p[0] < x else 0.0
        if k == "uniform":
            a, b = p
            return float(np.clip((x - a) / (b - a), 0.0, 1.0))
        if k == "two_point":
            v1, pr, v2 = p
            return pr * (v1 < x) + (1.0 - pr) * (v2 < x)
        if k == "pareto":
            xm, al = p
            return 0.0 if x <= xm else 1.0 - (xm / x) ** al
        if k == "lognormal":
            mu, sigma = p
            if x <= 0.0:
                return 0.0
            return float(ndtr((math.log(x) - mu) / sigma))
        raise ValueError(f"unknown distribution kind {k!r}")

    def atoms(self):
        """(values, probabilities) for finite-support laws, else None."""
        if self.kind == "constant":
            return np.array([self.params[0]]), np.array([1.0])
        if self.kind == "two_point":
            v1, pr, v2 = self.params
            return np.array([v1, v2]), np.array([pr, 1.0 - pr])
        return None


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
            if tile.ndim == d:
                pass
            elif tile.ndim == d + 1 and tile.shape[-1] == d:
                pass
            else:
                errs.append(
                    f"periodic tile must have shape dims or dims+({d},), got {tile.shape}"
                )
            if tile.size == 0:
                errs.append("periodic tile must be non-empty")
            elif not np.all(tile > 0):
                errs.append("periodic tile values must be > 0")
        elif not isinstance(st, IidCubes):
            errs.append(f"unknown structure {st!r}")

        if isinstance(st, Periodic):
            if self.diagonal is not None:
                errs.append("periodic structure takes its values from the tile; diagonal must be None")
        else:
            diag = self.diagonal
            if isinstance(diag, DistributionSpec):
                errs.extend(f"diagonal: {e}" for e in diag.validate())
            elif isinstance(diag, (tuple, list)):
                if len(diag) != d:
                    errs.append(f"diagonal needs {d} laws, got {len(diag)}")
                for j, law in enumerate(diag):
                    if not isinstance(law, DistributionSpec):
                        errs.append(f"diagonal[{j}] is not a DistributionSpec")
                    else:
                        errs.extend(f"diagonal[{j}]: {e}" for e in law.validate())
            else:
                errs.append("diagonal must be a DistributionSpec or a tuple of them")

        if self.lower_order is not None:
            if not isinstance(self.lower_order, DistributionSpec):
                errs.append("lower_order must be a DistributionSpec or None")
            else:
                errs.extend(f"lower_order: {e}" for e in self.lower_order.validate())
                if isinstance(st, Periodic) and self.lower_order.kind != "constant":
                    errs.append("periodic fields are deterministic: lower_order must be constant or None")
        return errs

    @property
    def is_isotropic_law(self) -> bool:
        return isinstance(self.diagonal, DistributionSpec)

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

    def lambda_diag(self, x) -> np.ndarray:
        """Diagonal entries at points x of shape (..., d) -> (..., d)."""
        cells = self._cells_at(x)
        return self._diag_from_cells(cells)

    def lower(self, x) -> np.ndarray:
        """Lower-order weight at points x of shape (..., d) -> (...,)."""
        cells = self._cells_at(x)
        return self._lower_from_cells(cells)

    def _cells_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.spec.dimension,):
            raise ValueError(f"points must have trailing dimension {self.spec.dimension}")
        return np.floor(x + self.origin).astype(np.int64)

    def _draw(self, law, cells, *keys) -> np.ndarray:
        """``law`` at each cell, keyed by the seed, ``keys`` and its structure
        coordinates; a laminate keys each axis coordinate once, not each cell."""
        st = self.spec.structure
        if isinstance(st, Laminate):
            coord = cells[..., st.axis - 1]
            if coord.size and np.ptp(coord) < coord.size:  # a run, as on a grid: no sort
                coords, inv = np.arange(coord.min(), coord.max() + 1), coord - coord.min()
            else:
                coords, inv = np.unique(coord, return_inverse=True)
            u = uniform01(key_chain(self.seed, *keys, coords))
            return law.sample(u)[inv].reshape(cells.shape[:-1])
        coords = tuple(cells[..., j] for j in range(self.spec.dimension))
        return law.sample(uniform01(key_chain(self.seed, *keys, *coords)))

    def _diag_from_cells(self, cells) -> np.ndarray:
        spec = self.spec
        d = spec.dimension
        st = spec.structure
        if isinstance(st, Periodic):
            dims = st.tile.shape[:d]
            idx = tuple(np.mod(cells[..., j], dims[j]) for j in range(d))
            return st.slot_values(d)[idx]
        if spec.is_isotropic_law:
            vals = self._draw(spec.diagonal, cells, _REALM_DIAG, self.index, _ISO_SLOT)
            return np.broadcast_to(vals[..., None], vals.shape + (d,)).copy()
        out = np.empty(cells.shape[:-1] + (d,), dtype=float)
        for j, law in enumerate(spec.diagonal):
            out[..., j] = self._draw(law, cells, _REALM_DIAG, self.index, j)
        return out

    def _lower_from_cells(self, cells) -> np.ndarray:
        spec = self.spec
        if spec.lower_order is None:
            return np.zeros(cells.shape[:-1], dtype=float)
        if isinstance(spec.structure, Periodic):
            return np.full(cells.shape[:-1], spec.lower_order.params[0], dtype=float)
        return self._draw(spec.lower_order, cells, _REALM_LOWER, self.index)


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


def _observable_values(sample: FieldSample, cells, observable: str, entry: int):
    if observable == "lambda_norm":
        diag = sample._diag_from_cells(cells)
        return np.sqrt(np.sum(diag * diag, axis=-1))
    if observable == "entry":
        diag = sample._diag_from_cells(cells)
        return diag[..., entry]
    if observable == "lower":
        return sample._lower_from_cells(cells)
    raise ValueError(f"unknown observable {observable!r}; use lambda_norm, entry or lower")


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

    out = []
    for t in t_list:
        t = float(t)
        if t <= 0:
            raise ValueError("t values must be positive")
        axes_cells = []
        axes_weights = []
        total = 1
        for j, (lo, hi) in enumerate(box):
            a = t * lo + sample.origin[j]
            b = t * hi + sample.origin[j]
            k0 = int(math.floor(a))
            k1 = int(math.ceil(b))
            ks = np.arange(k0, k1, dtype=np.int64)
            w = np.minimum(ks + 1.0, b) - np.maximum(ks.astype(float), a)
            keep = w > 0
            axes_cells.append(ks[keep])
            axes_weights.append(w[keep])
            total *= int(keep.sum())
        if total > _MAX_INTEGRATION_CELLS:
            raise ValueError(
                f"exact integration over t={t} enumerates {total} cells; reduce t or the box"
            )
        mesh = np.meshgrid(*axes_cells, indexing="ij")
        cells = np.stack(mesh, axis=-1)
        vals = _observable_values(sample, cells, observable, entry)
        weight = axes_weights[0]
        for w in axes_weights[1:]:
            weight = np.multiply.outer(weight, w)
        volume = 1.0
        for lo, hi in box:
            volume *= t * (hi - lo)
        out.append((t, float(np.sum(weight * vals) / volume)))
    return out
