"""Projections onto the per-cell dual balls {q : |q diag(s)^{-1}|_F <= 1}.

The ball of a cell is an axis-aligned ellipsoid whose semiaxis for every
column j (repeated over the m rows) is s_j; when all semiaxes of a cell
agree it is a sphere of radius s.  Both projections are closed form.

project_radial is the Euclidean projection onto a sphere, the shrink
q min(1, r / |q|_F).  The Euclidean projection onto an ellipsoid has no
closed form, so the solver projects in another metric instead: its
preconditioned dual step (Pock & Chambolle, ICCV 2011) takes the step
Sigma = sigma omega with omega_j = (s_j / max_i s_i)^2 on each cell, and
projects in the norm |x|_{Sigma^-1}^2 = sum_ij x_ij^2 / (sigma omega_j),
which is (max_i s_i)^2 / sigma times sum_ij (x_ij / s_j)^2.  In y = x / s
both that distance and the ball are Euclidean (|y - q/s|, |y|_F <= 1), so
the projection is the radial shrink y = (q/s) / max(1, |q/s|_F), that is
x = q / max(1, |q/s|_F): each block shrinks along its own ray.  With
omega <= 1 the iteration converges at the step sizes of the isotropic one
(homlab.cell says how its primal step takes back the difference).

The squares of q/s are summed as those of _A q/s, an exact power-of-two
scale: every term stays finite while |q_ij / s_j| is below 1e154 and the
sum for m d <= 28 does too, and semiaxes from 1e-120 to 1 in one cell are
divided by, never squared.  Both projections overwrite p in place with
``scale`` times the projection and return it: the solver's
over-relaxation multiplies the projected point by rho, and folding it into
the per-cell factor spares a pass over p.
"""

from __future__ import annotations

import numpy as np

_A = 0.25  # the exact scale of every ratio under a sum of squares


def _shrink(p: np.ndarray, sq: np.ndarray, radii, scale: float = 1.0) -> np.ndarray:
    """Scale each cell of p, whose norm is sqrt(sq), onto the ball of its
    radius (> 0) if it lies outside, then by ``scale``, in place; inside, the
    factor is exactly ``scale``.  sq is overwritten with the factors."""
    f = np.maximum(np.sqrt(sq, out=sq), radii, out=sq)
    np.divide(radii, f, out=f)
    f *= scale
    return np.multiply(p, f, out=p)


def project_radial(p: np.ndarray, radii: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Shrink each cell's (m, d) block onto the ball of its radius and
    multiply it by ``scale``, in place.

    p has shape (m, d, *cells); radii, all > 0, broadcasts over cells.  The
    squares are summed row by row, in order, by one einsum into a buffer of
    one entry per cell.  Returns p.
    """
    return _shrink(p, np.einsum("ij...,ij...->...", p, p), radii, scale)


def ellipsoid_weights(axes: np.ndarray) -> np.ndarray:
    """The dual step weights omega_j = (s_j / max_i s_i)^2 of each cell, for
    semiaxes ``axes`` of shape (d, *cells), all > 0.  Every weight is at most
    1, and exactly 1 on a cell's largest semiaxis; it underflows to 0 where
    a semiaxis is below 1e-162 of its cell's largest."""
    top = axes / axes.max(axis=0)
    return top * top


def ellipsoid_bounds(axes: np.ndarray) -> np.ndarray:
    """The divisors project_ellipsoid takes for semiaxes ``axes``: s / _A,
    exact, since _A is a power of two."""
    return axes / _A


def project_ellipsoid(p: np.ndarray, bounds: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Shrink each cell's (m, d) block q to q / max(1, |q diag(s)^-1|_F),
    its projection onto the ellipsoid in the metric of the module
    docstring, and multiply it by ``scale``, in place.

    p has shape (m, d, *cells) and ``bounds``, ellipsoid_bounds of the
    semiaxes, shape (d, *cells).  Blocks already inside are only multiplied
    by ``scale``.  Returns p.
    """
    r = np.divide(p, bounds)  # _A q_ij / s_j
    return _shrink(p, np.einsum("ij...,ij...->...", r, r), _A, scale)
