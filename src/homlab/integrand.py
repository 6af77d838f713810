"""Growth constants of the energy density f(x, xi) = |xi Lambda(x)|_F (+ lam(x)).

``xi`` is an m x d matrix; the diagonal weight scales columns:
``(xi Lambda)_{ij} = xi_ij Lambda_jj(x)``.  The Frobenius norm is used
throughout the package, and ``CellProblem.energy_density`` evaluates f
cell by cell.  Growth constants for the sandwich

    alpha * c0 * |xi|  <=  f_hom(xi)  <=  C0 * |xi| + C1

are computed analytically where the law allows.  Otherwise C0 is read
off one table of the law of a cell's diagonal, squared values (K, d)
with weights (K,): the cells of a periodic tile, the atoms of
finite-support laws, or one Monte Carlo sample.  Infinite constants
are returned as ``inf`` with a flag rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fields import FieldSpec, Periodic
from .randomness import keyed_uniform
from .stats import mean_ci

ALPHA = 1.0  # f == |xi Lambda| + lam bounds itself from below with constant 1
_MC_BUDGET = 20000  # Monte Carlo cells of the table of a law without atoms
_N_PROBES = 16  # random column-mass probes beyond the axes and the center
_SEED = 0  # key of the probe and Monte Carlo draws


def coercivity_constant(spec: FieldSpec) -> float:
    """esssup |Lambda(.,0)^{-1}|_F; inf flags the degenerate regime."""
    if isinstance(spec.structure, Periodic):
        vals = spec.structure.slot_values(spec.dimension)
        return float(np.max(np.sqrt(np.sum(vals ** -2.0, axis=-1))))
    infs = np.array([law.support_inf() for law in spec.diagonal_laws()])
    if np.any(infs == 0.0):
        return math.inf
    return float(np.sqrt(np.sum(infs ** -2.0)))


@dataclass(frozen=True)
class GrowthConstants:
    """Constants of the linear-growth sandwich, with degeneracy flags."""

    alpha: float
    c0: float
    C0: float
    C1: float
    C0_method: str
    C0_ci: float
    flags: tuple

    @property
    def degenerate(self) -> bool:
        return self.c0 == 0.0 or math.isinf(self.C0) or math.isinf(self.C1)

    def lower_bound(self, xi_norm: float) -> float:
        return self.alpha * self.c0 * xi_norm

    def upper_bound(self, xi_norm: float) -> float:
        return self.C0 * xi_norm + self.C1


def _column_mass_probes(d: int) -> np.ndarray:
    """Axes, simplex center and random points of the column-mass simplex."""
    probes = [np.eye(d)[j] for j in range(d)]
    probes.append(np.full(d, 1.0 / d))
    u = keyed_uniform(_SEED, "C0-probes", np.arange(_N_PROBES * d)).reshape(_N_PROBES, d)
    g = -np.log(u)
    probes.extend(g / g.sum(axis=1, keepdims=True))
    return np.array(probes)


def _cell_table(spec: FieldSpec):
    """The law of one cell's squared diagonal: Lambda_jj^2 as a table (K, d),
    weights (K,), and whether the table is a sample.

    A periodic tile lists its cells with equal weights; finite-support
    laws list every combination of atoms with the product of their
    probabilities; any other law draws _MC_BUDGET cells once, one key
    per slot.
    """
    d = spec.dimension
    if isinstance(spec.structure, Periodic):
        values = spec.structure.slot_values(d).reshape(-1, d)
        return values ** 2, np.full(len(values), 1.0 / len(values)), False
    laws = spec.diagonal_laws()
    atoms = [law.atoms() for law in laws]
    if all(a is not None for a in atoms):
        weights = np.array([math.prod(p) for p in product(*[p for _, p in atoms])])
        return np.array(list(product(*[v for v, _ in atoms]))) ** 2, weights, False
    squares = np.empty((_MC_BUDGET, d))
    for j, law in enumerate(laws):
        squares[:, j] = law.sample(keyed_uniform(_SEED, "C0-mc", j, np.arange(_MC_BUDGET))) ** 2
    return squares, np.full(_MC_BUDGET, 1.0 / _MC_BUDGET), True


def _ascend(squares, weights, c):
    """Climb from c to the maximum over the simplex of the concave
    f(c) = weights @ sqrt(squares @ c) by pairwise Frank-Wolfe steps: each
    moves mass from the supported coordinate of least slope to the one of
    most, as far as an exact line search says.  Stops once the Frank-Wolfe
    gap, which bounds max f - f(c), is at most 1e-12 f.  Returns (f, c)."""
    if np.any((squares @ c == 0.0) & squares.any(axis=1)):  # f's slope is infinite at c
        c = np.full(len(c), 1.0 / len(c))  # the center, where only cells of zero weight give 0
    f = float(weights @ np.sqrt(squares @ c))
    for _ in range(1000):  # a cap: the laws tried stop within a few steps
        a = squares @ c
        coef = np.sqrt(a)
        coef *= 2.0
        np.divide(weights, coef, out=coef, where=a > 0.0)  # a cell of zero weight adds 0
        g = coef @ squares
        on = np.flatnonzero(c > 0.0)
        s, v = int(np.argmax(g)), int(on[np.argmin(g[on])])
        if g[s] - 0.5 * f <= 1e-12 * f:  # g @ c = f / 2: f is 1/2-homogeneous
            break
        b = squares[:, s] - squares[:, v]

        def rising(x):  # f's slope at step x along e_s - e_v is >= 0
            with np.errstate(divide="ignore", invalid="ignore"):  # a cell's weight reaches 0
                return weights @ np.divide(b, np.sqrt(a + x * b), out=np.zeros_like(b),
                                           where=b != 0.0) >= 0.0

        lo, hi = (c[v], c[v]) if rising(c[v]) else (0.0, c[v])
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # bisect to the last bit
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        step = c.copy()
        step[[s, v]] += [lo, -lo]
        f_step = float(weights @ np.sqrt(squares @ step))
        if not f_step > f:
            break
        c, f = step, f_step
    return f, c


def growth_constants(spec: FieldSpec) -> GrowthConstants:
    """Sandwich constants for the law of the field.

    c0 = 1 / esssup |Lambda^{-1}|_F (0 when the weight degenerates),
    C0 = sup_{|eta|=1} E|eta Lambda| and C1 = E[lam].  An isotropic or
    1-d law gives C0 = E[Lambda_11].  Otherwise E|eta Lambda| depends on
    eta only through its column masses c, and is concave in them, so C0
    is the maximum of ``weights @ sqrt(squares @ c)`` over the simplex,
    for the cell table: ``_ascend`` climbs to it from the best of the
    axes, the simplex center and random probes.  It is exact to 1e-12
    relative for periodic tiles and finite-support laws, and carries
    the 99% CI of its maximizer's sample for a Monte Carlo table.
    """
    coer = coercivity_constant(spec)
    flags = ["zero_coercivity"] if math.isinf(coer) else []
    c0 = 1.0 / coer  # 0.0 when coer is inf

    method, ci = "analytic", 0.0
    means = [] if spec.deterministic else [law.mean() for law in spec.diagonal_laws()]
    if any(math.isinf(mu) for mu in means):
        C0 = math.inf
        flags.append("C0_infinite")
    elif means and (spec.is_isotropic_law or spec.dimension == 1):
        C0 = means[0]
    else:
        squares, weights, sampled = _cell_table(spec)
        C0, best = -math.inf, None
        for c in _column_mass_probes(spec.dimension):
            val = float(weights @ np.sqrt(squares @ c))
            if val > C0:
                C0, best = val, c
        if math.isfinite(C0):
            C0, best = _ascend(squares, weights, best)
        # |eta Lambda| <= max_j Lambda_jj when |eta| = 1: rounding in c cannot lift C0 past it
        C0 = min(C0, math.sqrt(squares.max()))
        ci = mean_ci(np.sqrt(squares @ best))[1] if sampled else 0.0
        method = "probe_mc" if sampled else "probe_exact"

    C1 = 0.0 if spec.lower_order is None else spec.lower_order.mean()
    if math.isinf(C1):
        flags.append("C1_infinite")

    return GrowthConstants(alpha=ALPHA, c0=c0, C0=C0, C1=C1,
                           C0_method=method, C0_ci=ci, flags=tuple(flags))
