"""Splittable stream addressing: reproducibility and independence."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphex.rng import _splitmix64, derive_key, derive_keys, stream, streams, uniform_at


def test_same_address_same_output():
    a = stream(42, 1, 7).random(100)
    b = stream(42, 1, 7).random(100)
    np.testing.assert_array_equal(a, b)


def test_creation_order_is_irrelevant():
    g1 = stream(5, 0)
    _ = g1.random(1000)  # consuming one stream must not disturb another
    g2 = stream(5, 1)
    fresh = stream(5, 1)
    np.testing.assert_array_equal(g2.random(64), fresh.random(64))


def test_distinct_paths_distinct_streams():
    seen = set()
    for path in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (2, 3, 4)]:
        key = derive_key(9, *path)
        assert key not in seen
        seen.add(key)


def test_path_length_matters():
    # (1,) and (1, 0) must not collide
    assert derive_key(0, 1) != derive_key(0, 1, 0)
    assert derive_key(0) != derive_key(0, 0)


def test_seed_sensitivity():
    assert derive_key(0) != derive_key(1)
    a = stream(0).random(8)
    b = stream(1).random(8)
    assert not np.array_equal(a, b)


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        derive_key(-1)
    with pytest.raises(ValueError):
        derive_key(0, -2)


def test_key_words_fit_uint64():
    w0, w1 = derive_key(2**64 + 5, 3)
    assert 0 <= w0 <= 2**64 - 1
    assert 0 <= w1 <= 2**64 - 1


def test_frozen_key_values():
    # the derivation chain is part of the reproducibility contract; these
    # values pin it so an accidental change shows up as a test failure rather
    # than as silently different samples
    assert derive_key(0) == (16294208416658607535, 7960286522194355700)
    assert derive_key(42, 1, 7) == (17503949942827353239, 4465283286887972549)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=2**32), max_size=4))
def test_derive_key_is_pure(seed, path):
    assert derive_key(seed, *path) == derive_key(seed, *path)


def test_streams_look_independent():
    # crude but effective: correlation between sibling streams is tiny
    a = stream(7, 0).random(20000)
    b = stream(7, 1).random(20000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.03


def test_uniform_at_reads_the_splitmix64_sequence():
    # output i of the generator seeded with key, in any order and any number
    # of times, as the scalar chain makes it
    key = derive_key(3, 1)[0]
    state, words = key, []
    for _ in range(50):
        state, w = _splitmix64(state)
        words.append(w)
    want = np.array([w >> 11 for w in words], dtype=float) * 2.0 ** -53
    idx = np.array([49, 0, 7, 7, 31, 1])
    np.testing.assert_array_equal(uniform_at(key, idx), want[idx])
    u = uniform_at(key, np.arange(200_000))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / u.size)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
       st.lists(st.integers(min_value=0, max_value=2**32), max_size=3))
def test_derive_keys_is_derive_key_elementwise(seeds, path):
    w0, w1 = derive_keys(np.array(seeds, dtype=np.uint64), *path)
    assert list(zip(w0.tolist(), w1.tolist())) == [derive_key(s, *path) for s in seeds]


@pytest.mark.parametrize("count", [1, 3, 40])
def test_streams_draw_what_stream_draws(count):
    # one re-keyed generator per seed, in turn, from the scalar or the array
    # key derivation, gives each stream's own numbers, whatever was drawn
    # from the one before
    seeds = [5 + 7 * i for i in range(count - 1)] + [2**64 + 9]
    for gen, seed in zip(streams(seeds, 2, 1), seeds):
        want = stream(seed, 2, 1)
        np.testing.assert_array_equal(gen.poisson([0.5, 3.0, 40.0]), want.poisson([0.5, 3.0, 40.0]))
        assert gen.bit_generator.random_raw() == int(want.integers(2**64, dtype=np.uint64))
        np.testing.assert_array_equal(gen.random(5), want.random(5))
        np.testing.assert_array_equal(gen.uniform(0.0, 3.0, 4), want.uniform(0.0, 3.0, 4))

