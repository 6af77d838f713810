"""Projections onto the per-cell dual balls {p : |p diag(a)^{-1}|_F <= r}.

The ball is an axis-aligned ellipsoid whose semiaxis for every column j
(repeated over the m rows) is r * a_j.  The general projection finds
the Lagrange multiplier nu >= 0 of

    phi(nu) = sum_ij (p_ij * s_j / (s_j^2 + nu))^2 = 1,    s_j = r * a_j.

Newton runs on the secular form phi(nu)^(-1/2) = 1 (More & Sorensen,
"Computing a trust region step", 1983).  phi^(-1/2) is increasing and
concave, so Newton from nu = 0 climbs to the root without overshooting
and needs a handful of steps even where phi spans many decades.  Each
cell is frozen as soon as |phi - 1| <= _NEWTON_RTOL; a step that does
not land in the bracket (lo, hi] (roundoff, non-finite values) falls
back to bisection.  When all semiaxes of a cell agree the ellipsoid is
a sphere and the projection is the closed-form radial shrinkage.
"""

from __future__ import annotations

import numpy as np

_NEWTON_MAX = 80
_NEWTON_RTOL = 1e-13


def project_radial(p: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Shrink each cell's (m, d) block onto the sphere of its radius.

    p has shape (m, d, *cells); radii broadcasts over cells.
    """
    nrm = np.sqrt(np.sum(p * p, axis=(0, 1)))
    scale = np.minimum(1.0, radii / np.maximum(nrm, 1e-300))
    return p * scale


def project_ellipsoid(p: np.ndarray, axes: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Project per-cell blocks onto {q : |q diag(axes)^{-1}|_F <= radius}.

    p has shape (m, d, *cells); axes has shape (d, *cells) with positive
    entries.  Cells already inside are returned unchanged.
    """
    s = radius * axes  # semiaxes, (d, *cells)
    ratio = p / s[None]
    inside = np.sum(ratio * ratio, axis=(0, 1)) <= 1.0
    if np.all(inside):
        return p.copy()

    s2 = s * s
    c = p * p * s2[None]  # (p_ij s_j)^2
    lo = np.zeros(inside.shape)
    hi = np.sqrt(c.sum(axis=(0, 1)))  # phi(hi) <= sum c / hi^2 = 1
    nu = lo.copy()
    alive = ~inside
    for _ in range(_NEWTON_MAX):
        denom = s2 + nu
        w = c / denom**2
        phi = w.sum(axis=(0, 1))
        alive &= np.abs(phi - 1.0) > _NEWTON_RTOL
        if not alive.any():
            break
        lo = np.where(phi >= 1.0, nu, lo)
        hi = np.where(phi < 1.0, nu, hi)
        # Newton on phi^(-1/2) = 1: nu -= (phi^(-1/2) - 1) / (phi^(-1/2))';
        # the floor spares zero blocks (inside, never updated) a 0/0
        slope = np.maximum((w / denom).sum(axis=(0, 1)), 1e-300)
        cand = nu + phi * (np.sqrt(phi) - 1.0) / slope
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand > hi)
        nu = np.where(alive, np.where(bad, 0.5 * (lo + hi), cand), nu)

    proj = p * (s2 / (s2 + nu))
    # Force strict feasibility against roundoff (dual values must certify).
    nrm = np.sqrt(np.sum((proj / s[None]) ** 2, axis=(0, 1)))
    proj *= np.minimum(1.0, 1.0 / np.maximum(nrm, 1e-300))
    return np.where(inside, p, proj)
