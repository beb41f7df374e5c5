"""Statistics of sampled graphs.

All functions accept either a sampled graph (anything with an ``edges``
attribute) or a bare integer edge array of shape (E, 2). Vertices are
whatever integers appear as endpoints; a vertex is visible exactly when it
appears in some edge, so there are never degree-zero vertices here. A self
loop is one edge that adds 2 to its vertex's degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

__all__ = [
    "DegreeHistogram",
    "GraphStatsError",
    "components",
    "count_edges",
    "count_vertices",
    "counts",
    "degree_histogram",
    "degrees",
    "largest_component",
    "largest_component_size",
    "sparsity_ratio",
    "summarize",
]


class GraphStatsError(ValueError):
    pass


def _as_edges(edges) -> np.ndarray:
    arr = np.asarray(getattr(edges, "edges", edges))
    if arr.size == 0:
        # an empty list reads as float; an empty integer array keeps its dtype
        return arr.reshape(0, 2).astype(arr.dtype if arr.dtype.kind in "iu" else np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphStatsError(f"edge array must have shape (E, 2), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphStatsError("edge endpoints must be integers")
    return arr


def count_edges(edges) -> int:
    return int(_as_edges(edges).shape[0])


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for a 1-D integer array, by a sort and a mask of first
    occurrences: the same result, and much faster than NumPy's hash-based
    unique on large arrays."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


# ranked_unique ranks values through a table over every slot of their range
# when there is at least one value per this many slots, and by binary search
# otherwise; measured on sample_keg's draws on 2 cores, the search costs less
# below about one value per 64 slots and the table above one per 16
SLOT_TABLE_RATIO = 32


def ranked_unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, return_inverse=True) for a 1-D integer array: its sorted
    distinct values (int64) and the rank of each element among them, without
    the cost of NumPy's hash-based unique. Values that fill their range
    densely, such as a graph's vertex ids, are ranked through a table of
    seen slots, sparse ones by a sort and a binary search; both give the same
    result. uint64 values are sorted, as in ``degrees``, and past the int64
    range their distinct values stay uint64."""
    if a.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = int(a.min())
    span = int(a.max()) - lo + 1
    if a.size * SLOT_TABLE_RATIO < span or a.dtype == np.uint64:
        # ranked in the values' own dtype: int64 against uint64 compares in
        # float64, which merges values past 2^53
        ids = sorted_unique(a)
        ranks = ids.searchsorted(a)
        if int(ids[-1]) <= np.iinfo(np.int64).max:
            ids = ids.astype(np.int64, copy=False)
        return ids, ranks
    # in int64: a narrow dtype would wrap on a range wider than its own
    slot = a.astype(np.int64, copy=False) - lo
    seen = np.zeros(span, dtype=bool)
    seen[slot] = True
    ids = np.flatnonzero(seen)
    table = np.empty(span, dtype=np.int64)
    table[ids] = np.arange(ids.size, dtype=np.int64)
    return ids + lo, table[slot]


def count_vertices(edges) -> int:
    arr = _as_edges(edges)
    if arr.size == 0:
        return 0
    return int(sorted_unique(arr.ravel()).size)


def counts(edges) -> tuple[int, int]:
    """(vertex count, edge count). A self loop is one edge."""
    arr = _as_edges(edges)
    return count_vertices(arr), count_edges(arr)


def degrees(edges) -> tuple[np.ndarray, np.ndarray]:
    """(vertex ids, degree of each) for the visible vertices, ids ascending
    and of the edges' dtype, as from np.unique."""
    arr = _as_edges(edges)
    if arr.size == 0:
        return np.empty(0, dtype=arr.dtype), np.empty(0, dtype=np.int64)
    lo = int(arr.min())
    span = int(arr.max()) - lo + 1
    # dense ids, as ranked_unique's rule has it, are counted slot by slot, in
    # int64, since a narrow dtype would wrap on a wide range; uint64 ids past
    # the int64 range would wrap there, so they are sorted
    if arr.size * SLOT_TABLE_RATIO >= span and arr.dtype != np.uint64:
        tally = np.bincount(arr.ravel().astype(np.int64, copy=False) - lo, minlength=span)
        slots = np.flatnonzero(tally)
        return (slots + lo).astype(arr.dtype, copy=False), tally[slots]
    ends = np.sort(arr.ravel())
    # a new id starts wherever the sorted endpoints change; the run length
    # from one start to the next is that id's degree
    starts = np.flatnonzero(np.concatenate(([True], ends[1:] != ends[:-1])))
    return ends[starts], np.diff(starts, append=ends.size).astype(np.int64)


@dataclass(frozen=True)
class DegreeHistogram:
    """Degree -> vertex count over the visible vertices (degree >= 1 only)."""

    counts: dict
    total_vertices: int
    max_degree: int

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def to_dict(self) -> dict:
        return {
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "total_vertices": self.total_vertices,
            "max_degree": self.max_degree,
        }


def degree_histogram(edges) -> DegreeHistogram:
    _, deg = degrees(edges)
    if deg.size == 0:
        return DegreeHistogram({}, 0, 0)
    values, tallies = np.unique(deg, return_counts=True)
    mapping = {int(k): int(c) for k, c in zip(values, tallies)}
    return DegreeHistogram(mapping, int(deg.size), int(values[-1]))


def largest_component_size(edges) -> int:
    """Size of the largest connected component (0 for an empty graph)."""
    return largest_component(edges)[0]


def components(edges) -> tuple[np.ndarray, np.ndarray]:
    """(vertex ids ascending, the connected component of each, numbered from
    0)."""
    arr = _as_edges(edges)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    ids, inverse = ranked_unique(arr.ravel())
    pairs = inverse.reshape(arr.shape)
    adjacency = coo_array((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])),
                          shape=(ids.size, ids.size))
    return ids, connected_components(adjacency, directed=False)[1]


def largest_component(edges) -> tuple[int, float]:
    """(size, fraction of visible vertices); (0, 0.0) for an empty graph."""
    ids, component = components(edges)
    if ids.size == 0:
        return 0, 0.0
    size = int(np.bincount(component).max())
    return size, size / ids.size


def sparsity_ratio(edges) -> float:
    """sqrt(edge count) / vertex count; near-constant for dense graphs,
    vanishing for sparse ones."""
    arr = _as_edges(edges)
    v = count_vertices(arr)
    if v == 0:
        raise GraphStatsError("sparsity ratio is undefined for an empty graph")
    return math.sqrt(arr.shape[0]) / v


def summarize(edges) -> dict:
    arr = _as_edges(edges)
    v = count_vertices(arr)
    out = {
        "edges": count_edges(arr),
        "vertices": v,
        "largest_component": largest_component_size(arr),
    }
    if v:
        ids, deg = degrees(arr)
        out["max_degree"] = int(deg.max())
        out["mean_degree"] = float(deg.mean())
        out["sparsity_ratio"] = sparsity_ratio(arr)
    return out
