"""Keyed counter-based randomness.

Every random quantity in the package is a pure function of a 64-bit key
chain, so any single value (a field cell, a random slope) is computable
without enumerating a stream and is identical under any execution order
or worker count.

Bit-exact derivation (all arithmetic modulo 2**64):

``mix64(z)`` is the splitmix64 output function::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

A key chain starts from ``state = mix64(seed ^ INIT)`` with
``INIT = 0x6A09E667F3BCC909`` and absorbs component ``c_i`` (signed
integers reduced modulo 2**64, strings via 8-byte blake2s) as::

    state = mix64(state ^ (c_i + GOLDEN * (i + 1)))

with ``GOLDEN = 0x9E3779B97F4A7C15``.  Uniform variates take the top 53
bits: ``u = ((state >> 11) + 0.5) * 2**-53``, which lies in the open
interval (0, 1).

The standard normal quantile and distribution function come from
scipy.special, which only the lognormal law and the random slopes use:
``_special`` imports it on their first call, so a run that needs neither
never loads it.
"""

from __future__ import annotations

import hashlib

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INIT = np.uint64(0x6A09E667F3BCC909)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U64_MASK = (1 << 64) - 1


def mix64(z):
    """splitmix64 finalizer, elementwise on uint64 scalars or arrays."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _component_u64(c):
    if isinstance(c, str):
        digest = hashlib.blake2s(c.encode("utf-8"), digest_size=8).digest()
        return np.uint64(int.from_bytes(digest, "little"))
    if isinstance(c, (bool, int, np.integer)):
        return np.uint64(int(c) & _U64_MASK)
    a = np.asarray(c)
    if a.dtype.kind not in "iu":
        raise TypeError(f"key components must be integers or strings, got {a.dtype}")
    if a.dtype != np.uint64:
        a = a.astype(np.int64, copy=False).view(np.uint64)
    return a


def key_chain(seed, *components):
    """Absorb integer/string components into a 64-bit state.

    Array components broadcast, so one call keys a whole lattice of
    cells at once.
    """
    state = mix64(_component_u64(seed) ^ _INIT)
    with np.errstate(over="ignore"):
        for i, c in enumerate(components):
            state = mix64(state ^ (_component_u64(c) + GOLDEN * np.uint64(i + 1)))
    return state


def uniform01(state):
    """Map 64-bit states to float64 in the open interval (0, 1)."""
    return ((state >> _S11).astype(np.float64) + 0.5) * 2.0**-53


def keyed_uniform(seed, *components):
    """Uniform (0, 1) variates keyed by the component tuple."""
    return uniform01(key_chain(seed, *components))


def _special():
    """scipy.special, imported on the first call."""
    import scipy.special
    return scipy.special


def normal_quantile(u):
    """The standard normal quantile of u in (0, 1), elementwise (ndtri)."""
    return _special().ndtri(u)


def normal_cdf(x):
    """The standard normal distribution function, elementwise (ndtr)."""
    return _special().ndtr(x)
