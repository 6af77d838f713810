"""The keyed generator against a pure-integer reimplementation, and the
normal-law helpers that load scipy.special on demand.

The documented bit-exact derivation is re-coded here with Python ints
only (no numpy), so any change to the mixing chain breaks these tests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from homlab import DistributionSpec, FieldSpec, IidCubes, sample_field
from homlab.fields import _ISO_SLOT, _REALM_DIAG
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


# ---------------------------------------------- the normal law, on demand


def test_a_uniform_law_run_never_loads_scipy_special(tmp_path):
    # scipy.special is imported by the normal-law helpers on their first
    # call, and a uniform field with fixed slopes calls neither
    code = (
        "import sys\n"
        "from homlab import runner\n"
        "from homlab.config import parse_config_dict\n"
        "cfg = parse_config_dict({'command': 'solve-cell', 'field': {'dimension': 2,"
        " 'structure': {'kind': 'iid_cubes'}, 'diagonal': {'kind': 'uniform', 'a': 1.0,"
        " 'b': 2.0}}, 'xi': 'e1+e2', 't_list': [2], 'n_real': 1, 'seed': 0})\n"
        f"assert runner.run(cfg, out_dir={str(tmp_path)!r})[0] == 0\n"
        "print('scipy.special' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_lognormal_weights_are_exp_of_the_normal_quantile_bit_for_bit():
    mu, sigma = 0.3, 1.7
    spec = FieldSpec(dimension=2, structure=IidCubes(),
                     diagonal=DistributionSpec.lognormal(mu, sigma))
    fld = sample_field(spec, 11, 2)
    cells = np.ix_(np.arange(-5, 6), np.arange(-3, 9))
    lam, _ = fld.at_cells(*cells)
    u = keyed_uniform(11, _REALM_DIAG, 2, _ISO_SLOT, *cells)
    want = np.exp(mu + sigma * ndtri(u))
    assert lam[0].tobytes() == want.tobytes()
