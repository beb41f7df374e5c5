"""Counter-based splittable random streams.

Every stochastic component of the package draws from a stream addressed by
(seed, *path), where path is a tuple of small non-negative integers naming the
consumer (component code, replicate index, ...). Streams with distinct
addresses are statistically independent and bit-reproducible regardless of
creation order or scheduling, because each address is hashed into an
independent 128-bit Philox counter key rather than derived by jumping a shared
state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "derive_key", "uniform_at"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of SplitMix64. Returns (new_state, output word)."""
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


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for stream address (seed, *path).

    Runs Philox4x64-10 keyed by ``derive_key(seed, *path)``. Calling this twice
    with the same address gives two generators that produce identical output.
    """
    key = derive_key(seed, *path)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


_U64 = tuple(np.uint64(c) for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                                    1, 11, 27, 30, 31))


def uniform_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): outputs ``counters`` of the SplitMix64 sequence
    seeded with ``key`` (output i mixes key + (i + 1) * golden), each had
    without the ones before it."""
    golden, m1, m2, one, s11, s27, s30, s31 = _U64
    z = np.uint64(key) + (np.asarray(counters).astype(np.uint64) + one) * golden
    z = (z ^ (z >> s30)) * m1
    z = (z ^ (z >> s27)) * m2
    z ^= z >> s31
    return (z >> s11) * 2.0 ** -53
