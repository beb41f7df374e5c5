"""Counter-based splittable random streams.

Every stochastic component of the package draws from a stream addressed by
(seed, *path), where path is a tuple of small non-negative integers naming the
consumer (component code, replicate index, ...). Streams with distinct
addresses are statistically independent and bit-reproducible regardless of
creation order or scheduling, because each address is hashed into an
independent 128-bit Philox counter key rather than derived by jumping a shared
state. :func:`streams` hands out the streams of many seeds in turn from one
bit generator, re-keyed in place, which gives the same numbers as
:func:`stream` at a fifth of the cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "streams", "derive_key", "derive_keys", "uniform_at"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state):
    """One step of SplitMix64. Returns (new_state, output word), for a Python
    int or elementwise for a uint64 array, whose arithmetic wraps as the
    masks do."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def derive_key(seed: int, *path: int) -> tuple[int, int]:
    """Mix (seed, *path) into a 128-bit key, as two uint64 words.

    The mix is a SplitMix64 chain absorbing one word per path element. It is a
    fixed part of the package's reproducibility contract: changing it would
    change every sampled graph.
    """
    # bool is a subclass of int, but True is no seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    state = seed & _MASK64
    # absorb the path, one element per round, plus a length word so that
    # (1,) and (1, 0) map to different keys
    state, w0 = _splitmix64(state ^ (len(path) & _MASK64))
    for p in path:
        if p < 0:
            raise ValueError("stream path elements must be non-negative")
        state = state ^ (int(p) & _MASK64)
        state, w0 = _splitmix64(state ^ w0)
    _, w1 = _splitmix64(state)
    return w0, w1


def derive_keys(seeds, *path) -> tuple[np.ndarray, np.ndarray]:
    """``derive_key`` elementwise: the two key words, as uint64 arrays, of
    each address (seed, *path), with ``seeds`` and each path element
    non-negative integers or arrays of them, broadcast together."""
    # a Python int is masked to 64 bits, as derive_key does
    arrays = [np.atleast_1d(np.asarray(a & _MASK64 if isinstance(a, int) else a, dtype=np.uint64))
              for a in (seeds, *path)]
    state, *steps = np.broadcast_arrays(*arrays)
    state, w0 = _splitmix64(state ^ np.uint64(len(path)))
    for p in steps:
        state, w0 = _splitmix64(state ^ p ^ w0)
    _, w1 = _splitmix64(state)
    return w0, w1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for stream address (seed, *path).

    Runs Philox4x64-10 keyed by ``derive_key(seed, *path)``. Calling this twice
    with the same address gives two generators that produce identical output.
    """
    key = derive_key(seed, *path)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


# keys for at least this many seeds are derived as arrays, below it one by
# one, whichever costs less
_ARRAY_KEYS = 16


def streams(seeds, *path):
    """Yield, for each seed in turn, the Generator of stream (seed, *path):
    the one Philox bit generator, re-keyed in place to the counter and key
    that ``stream(seed, *path)`` starts from, so it draws the same numbers.
    Each is valid only until the next is taken."""
    if len(seeds) < _ARRAY_KEYS:
        keys = [derive_key(int(s), *path) for s in seeds]
    else:
        w0, w1 = derive_keys(np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64), *path)
        keys = zip(w0.tolist(), w1.tolist())
    keys = iter(keys)
    first = next(keys, None)
    if first is None:
        return
    key = np.array(first, dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    yield gen
    # the state that Philox(key=key) starts from, for the keys after the first
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key[0], key[1] in keys:
        gen.bit_generator.state = state
        yield gen


_U64 = tuple(np.uint64(c) for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                                    1, 11, 27, 30, 31))


def uniform_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): outputs ``counters`` of the SplitMix64 sequence
    seeded with ``key`` (output i mixes key + (i + 1) * golden), each had
    without the ones before it. ``key`` may be an array, one key per
    counter."""
    golden, m1, m2, one, s11, s27, s30, s31 = _U64
    z = np.asarray(key, dtype=np.uint64) + (np.asarray(counters).astype(np.uint64) + one) * golden
    z = (z ^ (z >> s30)) * m1
    z = (z ^ (z >> s27)) * m2
    z ^= z >> s31
    return (z >> s11) * 2.0 ** -53
