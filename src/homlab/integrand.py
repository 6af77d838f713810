"""Growth constants of the energy density f(x, xi) = |xi Lambda(x)|_F (+ lam(x)).

``xi`` is an m x d matrix; the diagonal weight scales columns:
``(xi Lambda)_{ij} = xi_ij Lambda_jj(x)``.  The Frobenius norm is used
throughout the package, and ``CellProblem.energy_density`` evaluates f
cell by cell.  Growth constants for the sandwich

    alpha * c0 * |xi|  <=  f_hom(xi)  <=  C0 * |xi| + C1

are computed analytically where the law allows and by probe/Monte-Carlo
estimation otherwise; infinite constants are returned as ``inf`` with a
flag rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fields import FieldSpec, Periodic
from .randomness import keyed_uniform

ALPHA = 1.0  # f == |xi Lambda| + lam bounds itself from below with constant 1


def coercivity_constant(spec: FieldSpec) -> float:
    """esssup |Lambda(.,0)^{-1}|_F; inf flags the degenerate regime."""
    if isinstance(spec.structure, Periodic):
        tile = spec.structure.tile
        d = spec.dimension
        if tile.ndim == d:
            vals = tile[..., None] * np.ones(d)
        else:
            vals = tile
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


def _column_mass_probes(d: int, n_probes: int, seed: int) -> np.ndarray:
    """Axes, simplex center and random points of the column-mass simplex."""
    probes = [np.eye(d)[j] for j in range(d)]
    probes.append(np.full(d, 1.0 / d))
    u = keyed_uniform(seed, "C0-probes", np.arange(n_probes * d)).reshape(n_probes, d)
    g = -np.log(u)
    probes.extend(g / g.sum(axis=1, keepdims=True))
    return np.array(probes)


def _expected_weighted_norm(laws, c, mc_budget, seed, probe_id):
    """E[sqrt(sum_j c_j Lambda_j^2)] exactly for finite-support laws, else MC."""
    atoms = [law.atoms() for law in laws]
    if all(a is not None for a in atoms):
        value = 0.0
        for combo in product(*[range(len(a[0])) for a in atoms]):
            pr = 1.0
            s = 0.0
            for j, idx in enumerate(combo):
                vals, probs = atoms[j]
                pr *= probs[idx]
                s += c[j] * vals[idx] ** 2
            value += pr * math.sqrt(s)
        return value, 0.0
    samples = np.empty((mc_budget, len(laws)))
    for j, law in enumerate(laws):
        u = keyed_uniform(seed, "C0-mc", probe_id, j, np.arange(mc_budget))
        samples[:, j] = law.sample(u)
    vals = np.sqrt(samples ** 2 @ c)
    mean = float(vals.mean())
    half = 2.58 * float(vals.std(ddof=1)) / math.sqrt(mc_budget)
    return mean, half


def growth_constants(spec: FieldSpec, mc_budget: int = 20000,
                     n_probes: int = 16, seed: int = 0) -> GrowthConstants:
    """Sandwich constants for the law of the field.

    c0 = 1 / esssup |Lambda^{-1}|_F (0 when the weight degenerates),
    C0 = sup_{|eta|=1} E|eta Lambda| and C1 = E[lam].  E|eta Lambda|
    depends on eta only through its column masses, and is concave in
    them, so C0 is taken as the max over axes, the simplex center and
    random probes; expectations are exact for finite-support laws and
    Monte Carlo (99% CI reported) otherwise.
    """
    flags = []
    coer = coercivity_constant(spec)
    if math.isinf(coer):
        c0 = 0.0
        flags.append("zero_coercivity")
    else:
        c0 = 1.0 / coer

    method = "analytic"
    ci = 0.0
    if isinstance(spec.structure, Periodic):
        tile = spec.structure.tile
        d = spec.dimension
        vals = tile[..., None] * np.ones(d) if tile.ndim == d else tile
        vals = vals.reshape(-1, d)
        best = -math.inf
        for c in _column_mass_probes(d, n_probes, seed):
            best = max(best, float(np.mean(np.sqrt(vals ** 2 @ c))))
        C0 = best
        method = "probe_exact"
    else:
        laws = spec.diagonal_laws()
        means = [law.mean() for law in laws]
        if any(math.isinf(mu) for mu in means):
            C0 = math.inf
            flags.append("C0_infinite")
        elif spec.is_isotropic_law or spec.dimension == 1:
            C0 = means[0]
        elif all(law.kind == "constant" for law in laws):
            C0 = max(law.params[0] for law in laws)
        else:
            best = -math.inf
            best_ci = 0.0
            exact = all(law.atoms() is not None for law in laws)
            for pid, c in enumerate(_column_mass_probes(spec.dimension, n_probes, seed)):
                val, half = _expected_weighted_norm(laws, c, mc_budget, seed, pid)
                if val > best:
                    best, best_ci = val, half
            C0 = best
            ci = best_ci
            method = "probe_exact" if exact else "probe_mc"

    if spec.lower_order is None:
        C1 = 0.0
    else:
        C1 = spec.lower_order.mean()
        if math.isinf(C1):
            flags.append("C1_infinite")

    return GrowthConstants(alpha=ALPHA, c0=c0, C0=C0, C1=C1,
                           C0_method=method, C0_ci=ci, flags=tuple(flags))
