"""Projections onto the per-cell dual balls {p : |p diag(s)^{-1}|_F <= 1}.

The ball is an axis-aligned ellipsoid whose semiaxis for every column j
(repeated over the m rows) is s_j.  The general projection finds the
Lagrange multiplier nu >= 0 of

    phi(nu) = sum_ij (p_ij * s_j / (s_j^2 + nu))^2 = 1.

Newton runs on the secular form g(nu) = phi(nu)^(-1/2) = 1 (More &
Sorensen, "Computing a trust region step", 1983).  g is increasing and
concave, so its tangent lies above it: from a start left of the root
Newton climbs to the root without overshooting, and from a start right
of it one step lands at or left of the root and the climb begins there.
The solver passes each cell's multiplier from one iteration to the next,
where the dual iterate barely moves, so a call needs a few steps instead
of a climb from 0 (a warm start, as in Conn, Gould & Toint,
"Trust-Region Methods", 2000, ch. 7).

A solve builds one Ellipsoids from its semiaxes.  It holds every term
that depends on the semiaxes alone, computed once, and the multipliers,
so a call does only the work that depends on p.  A Newton trip is bare
arithmetic: each cell is frozen as soon as |phi - 1| <= _NEWTON_RTOL, and
steps are taken as they come while they keep every multiplier in
[0, inf).  The first step that leaves it (a start far right of the root
whose step lands below 0, roundoff, non-finite values) hands the
remaining trips to a bracketed loop on (lo, hi], started at [0, hi] with
hi = sum_ij |p_ij s_j|, which makes phi(hi) <= 1; there a step that
leaves the bracket bisects it instead.  On every cell where a bracket
kept from the first trip (the tests' reference) takes only Newton steps,
the two agree bit for bit.  Over the 2239 projections of the anisotropic
benchmark ladder (2-d, up to 289 lattice cells) 11 calls reach the
fallback, and a call takes a median 134 us against 185 us with the
bracket kept on every trip (2 Xeon vCPUs).

Each cell is scaled by k = 2^-e, where 2^(e-1) <= max_j s_j < 2^e: a
power of two, so the scaling is exact, and the multipliers are kept in
these units, as k^2 nu.  phi is summed from (p_ij s_j / (s_j^2 + nu))^2,
never from (s_j^2 + nu)^2, and the Newton step from weights in [0, 1], so
semiaxes that span 1e-120 to 1 within a cell neither underflow into a
division nor overflow, as long as every |p_ij / s_j| is below 1e154.
When all semiaxes of a cell agree the ellipsoid is a sphere and the
projection is the closed-form radial shrinkage.  Both projections
overwrite p in place and return it.
"""

from __future__ import annotations

import numpy as np

_NEWTON_MAX = 80
_NEWTON_RTOL = 1e-13


def project_radial(p: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Shrink each cell's (m, d) block onto the ball of its radius, in place.

    p has shape (m, d, *cells); radii broadcasts over cells.  Returns p.
    """
    rows = p.reshape((-1,) + p.shape[2:])
    sq = rows[0] * rows[0]  # |p|^2 row by row, the order np.sum(axis=(0, 1)) adds in
    for row in rows[1:]:
        sq += row * row
    scale = np.minimum(1.0, radii / np.maximum(np.sqrt(sq), 1e-300))
    return np.multiply(p, scale, out=p)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum the m * d rows of an (m, d, *cells) array one by one, in order,
    into a new array."""
    rows = a.reshape((-1,) + a.shape[2:])
    total = rows[0] + rows[1] if len(rows) > 1 else rows[0].copy()
    for row in rows[2:]:
        total += row
    return total


class Ellipsoids:
    """The dual balls {q : |q diag(axes)^{-1}|_F <= 1} of one solve.

    ``axes``, the semiaxes, has shape (d, *cells) with positive entries and
    stays fixed for the solve, so everything that depends on it alone is
    computed here once: with k the power-of-two scale of each cell, ``s2``
    = (k s_j)^2 and ``sk2`` = k^2 s_j.  ``nu`` holds each cell's multiplier,
    as k^2 nu, from one projection to the next (zeros: a cold start).
    """

    def __init__(self, axes: np.ndarray):
        self.axes = axes[None]  # broadcasts against p of shape (m, d, *cells)
        # exact power-of-two scale per cell: the largest semiaxis goes to [1/2, 1)
        k = np.ldexp(1.0, -np.frexp(axes.max(axis=0))[1])
        s_k = axes * k
        self.s2 = s_k * s_k
        self.sk2 = s_k * k  # p * sk2 is p_ij s_j in scaled units
        self.nu = np.zeros(axes.shape[1:])


def project_ellipsoid(p: np.ndarray, balls: Ellipsoids) -> np.ndarray:
    """Project per-cell blocks onto the balls of ``balls``, in place.

    p has shape (m, d, *cells).  Cells already inside are left unchanged.
    Returns p.  Newton starts from ``balls.nu`` (negative and NaN entries
    count as 0, inside cells start at 0), and on return ``balls.nu`` holds
    this call's multipliers, 0 on inside cells.
    """
    ratio = p / balls.axes
    ratio *= ratio
    inside = _sum_rows(ratio) <= 1.0
    if inside.all():
        balls.nu[...] = 0.0
        return p

    s2 = balls.s2
    ps = p * balls.sk2  # p_ij s_j in scaled units
    nu = np.fmax(balls.nu, 0.0)  # NaN and negative starts become 0
    np.copyto(nu, 0.0, where=inside)
    alive = ~inside
    bracket = None  # (lo, hi) once a Newton step has left [0, inf)
    denom, w = np.empty_like(s2), np.empty_like(ps)
    for _ in range(_NEWTON_MAX):
        np.add(s2, nu, out=denom)
        np.divide(ps, denom, out=w)
        w *= w
        phi = _sum_rows(w)
        alive &= np.abs(phi - 1.0) > _NEWTON_RTOL
        if not alive.any():
            break
        # Newton on g = phi^(-1/2) = 1: nu += (1 - g) / g' = (sqrt(phi) - 1) / rate
        # with rate = -phi' / (2 phi) = sum_ij (w_ij / phi) / denom_j, summed
        # from weights in [0, 1] so that it does not overflow; the floors
        # spare zero blocks a 0/0
        w /= np.maximum(phi, 1e-300)
        w /= denom
        cand = nu + (np.sqrt(phi) - 1.0) / np.maximum(_sum_rows(w), 1e-300)
        if bracket is None:
            cand = np.where(alive, cand, nu)
            if cand.min() >= 0.0 and cand.max() < np.inf:  # False on NaN too
                nu = cand
                continue
            # hi = sum_ij |p_ij s_j| makes phi(hi) <= 1; a start above it
            # (phi < 1 there, so it would become hi) is moved down to it
            bracket = np.zeros(nu.shape), _sum_rows(np.abs(ps))
            np.minimum(nu, bracket[1], out=nu)
        lo, hi = bracket
        np.copyto(lo, nu, where=phi >= 1.0)
        np.copyto(hi, nu, where=phi < 1.0)
        ok = (lo < cand) & (cand <= hi)  # False on NaN and infinities too
        np.copyto(nu, np.where(ok, cand, 0.5 * (lo + hi)), where=alive)
    balls.nu[...] = nu

    # inside cells have nu = 0, so their factors below are exactly 1
    p *= s2 / (s2 + nu)
    # Force strict feasibility against roundoff (dual values must certify).
    ratio = p / balls.axes
    ratio *= ratio
    p *= np.minimum(1.0, 1.0 / np.maximum(np.sqrt(_sum_rows(ratio)), 1e-300))
    return p
