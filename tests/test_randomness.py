"""The keyed generator against a pure-integer reimplementation.

The documented bit-exact derivation is re-coded here with Python ints
only (no numpy), so any change to the mixing chain breaks these tests.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.randomness import key_chain, keyed_uniform, mix64, uniform01

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
INIT = 0x6A09E667F3BCC909


def mix64_int(z: int) -> int:
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def component_int(c) -> int:
    if isinstance(c, str):
        return int.from_bytes(hashlib.blake2s(c.encode(), digest_size=8).digest(),
                              "little")
    return int(c) & MASK


def key_chain_int(seed, *components) -> int:
    state = mix64_int(component_int(seed) ^ INIT)
    for i, c in enumerate(components):
        state = mix64_int(state ^ ((component_int(c) + GOLDEN * (i + 1)) & MASK))
    return state


def uniform01_int(state: int) -> float:
    return ((state >> 11) + 0.5) * 2.0 ** -53


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=200, deadline=None)
def test_mix64_matches_integer_reference(z):
    assert int(mix64(np.uint64(z))) == mix64_int(z)


@pytest.mark.parametrize("seed,components", [
    (0, ()),
    (0, (0,)),
    (1, (2, 3)),
    (2026, ("field", 7, 12, -3)),
    (-1, (5,)),
    (123456789, ("glue-delta", 0)),
    (13, ("C0-mc", 4, 1, 999)),
])
def test_key_chain_matches_integer_reference(seed, components):
    got = int(key_chain(seed, *components))
    assert got == key_chain_int(seed, *components)


def test_uniform_matches_integer_reference():
    for seed in (0, 1, 77):
        for comps in ((), (4,), ("x", 9)):
            u = float(keyed_uniform(seed, *comps))
            assert u == uniform01_int(key_chain_int(seed, *comps))


def test_uniform_open_interval():
    u = keyed_uniform(3, "probe", np.arange(20000))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    # top 53 bits of a mixed state are close to uniform
    assert abs(u.mean() - 0.5) < 0.02


def test_component_order_matters():
    assert int(key_chain(0, 1, 2)) != int(key_chain(0, 2, 1))
    assert int(key_chain(0, "a", "b")) != int(key_chain(0, "b", "a"))
    assert int(key_chain(0, 1)) != int(key_chain(1, 0))


def test_array_components_broadcast_like_scalars():
    ks = np.arange(-5, 6)
    batch = key_chain(42, "cells", ks)
    single = np.array([int(key_chain(42, "cells", int(k))) for k in ks],
                      dtype=np.uint64)
    assert np.array_equal(batch, single)


def test_two_array_components_broadcast_jointly():
    ii, jj = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
    batch = key_chain(7, ii, jj)
    for i in range(3):
        for j in range(4):
            assert int(batch[i, j]) == int(key_chain(7, i, j))


def test_determinism_and_dtype():
    a = keyed_uniform(11, "same", np.arange(100))
    b = keyed_uniform(11, "same", np.arange(100))
    assert np.array_equal(a, b)
    assert a.dtype == np.float64
    assert key_chain(11, "same", 1).dtype == np.uint64


def test_rejects_float_components():
    with pytest.raises(TypeError):
        key_chain(0, 1.5)


def test_string_hash_stability():
    # frozen reference values: renaming realms silently rekeys all fields
    assert component_int("diag") == int.from_bytes(
        hashlib.blake2s(b"diag", digest_size=8).digest(), "little")
    assert int(key_chain(0)) == mix64_int(INIT)
