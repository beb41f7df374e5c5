import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphex.graphstats import (
    DegreeHistogram,
    GraphStatsError,
    count_edges,
    count_vertices,
    counts,
    degree_histogram,
    degrees,
    largest_component,
    largest_component_size,
    ranked_unique,
    sparsity_ratio,
)


def bfs_component_sizes(edges):
    """Reference component sizes by plain BFS over an adjacency dict."""
    adj = collections.defaultdict(set)
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    seen = set()
    sizes = []
    for start in adj:
        if start in seen:
            continue
        queue = collections.deque([start])
        seen.add(start)
        n = 0
        while queue:
            node = queue.popleft()
            n += 1
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        sizes.append(n)
    return sorted(sizes, reverse=True)


def test_small_fixed_graph():
    # triangle 0-1-2 plus the disjoint edge 7-9
    edges = [(0, 1), (1, 2), (2, 0), (7, 9)]
    assert counts(edges) == (5, 4)
    ids, deg = degrees(edges)
    assert list(ids) == [0, 1, 2, 7, 9]
    assert list(deg) == [2, 2, 2, 1, 1]
    assert largest_component(edges) == (3, 0.6)
    hist = degree_histogram(edges)
    assert hist[1] == 2 and hist[2] == 3 and hist[3] == 0
    assert hist.total_vertices == 5 and hist.max_degree == 2


def test_self_loop_counts_once_as_edge_twice_in_degree():
    edges = [(4, 4), (4, 5)]
    assert count_edges(edges) == 2
    ids, deg = degrees(edges)
    assert dict(zip(ids.tolist(), deg.tolist())) == {4: 3, 5: 1}
    # a pure loop vertex is its own component of size 1
    assert largest_component_size([(3, 3)]) == 1


def test_complete_graph_sparsity():
    n = 10
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert count_edges(edges) == 45
    assert sparsity_ratio(edges) == pytest.approx(np.sqrt(45) / 10)
    assert largest_component(edges) == (10, 1.0)


def test_empty_graph():
    assert counts(np.empty((0, 2), dtype=np.int64)) == (0, 0)
    assert largest_component([]) == (0, 0.0)
    assert degree_histogram([]).to_dict() == {
        "counts": {}, "total_vertices": 0, "max_degree": 0}
    with pytest.raises(GraphStatsError):
        sparsity_ratio([])


def test_accepts_object_with_edges_attribute():
    class Holder:
        edges = np.array([[0, 1], [1, 2]])

    assert counts(Holder()) == (3, 2)


def test_rejects_malformed_input():
    with pytest.raises(GraphStatsError):
        count_edges(np.ones((3, 3), dtype=np.int64))
    with pytest.raises(GraphStatsError):
        count_edges(np.array([[0.5, 1.0]]))


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=0, max_size=120)


@st.composite
def spread_edge_lists(draw):
    """Edges over a few ids scattered across int64: negative ids, wide gaps
    between ids, and self loops whenever both ends pick the same id."""
    pool = draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=25,
                         unique=True))
    ids = st.sampled_from(pool)
    return draw(st.lists(st.tuples(ids, ids), max_size=80))


any_edge_lists = st.one_of(edge_lists, spread_edge_lists())


def unique_degrees(arr):
    """Reference degrees: np.unique ids and a bincount over their inverse."""
    ids, inverse = np.unique(arr.ravel(), return_inverse=True)
    return ids, np.bincount(inverse, minlength=ids.size).astype(np.int64)


@given(any_edge_lists, st.sampled_from([np.int64, np.int32, np.int16, np.uint32]))
@settings(max_examples=200, deadline=None)
def test_degrees_match_unique_reference(edges, dtype):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if dtype is not np.int64:
        # fold the ids into the dtype's range, keeping negative and spread ones
        info = np.iinfo(dtype)
        arr = (arr - info.min) % (int(info.max) - info.min + 1) + info.min
    arr = arr.astype(dtype)
    ids, deg = degrees(arr)
    ref_ids, ref_deg = unique_degrees(arr)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(deg, ref_deg)
    assert ids.dtype == ref_ids.dtype and deg.dtype == np.int64


@given(st.sampled_from([np.int64, np.uint64]),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=40),
       st.integers(0, 2**64 - 1), st.integers(1, 2**40))
@settings(max_examples=200, deadline=None)
def test_degrees_of_sparse_and_shifted_ids_match_unique_counts(dtype, pairs, base, spread):
    # a few ids spread far apart and shifted anywhere in the dtype's range,
    # uint64 ones past 2^63 included: too sparse for the slot table
    info = np.iinfo(dtype)
    width = int(info.max) - int(info.min) + 1
    arr = np.array([[(base + v * spread) % width + int(info.min) for v in pair] for pair in pairs],
                   dtype=dtype)
    ids, deg = degrees(arr)
    ref_ids, ref_counts = np.unique(arr, return_counts=True)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(deg, ref_counts)
    assert ids.dtype == arr.dtype and deg.dtype == np.int64


def test_degrees_of_uint64_ids_past_int64():
    arr = np.array([[2**64 - 1, 2**64 - 2], [2**64 - 1, 2**64 - 1]], dtype=np.uint64)
    ids, deg = degrees(arr)
    assert ids.dtype == np.uint64
    assert ids.tolist() == [2**64 - 2, 2**64 - 1] and deg.tolist() == [1, 3]


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_handshake_lemma(edges):
    # sum of degrees = 2 * edges, self loops included
    _, deg = degrees(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert int(deg.sum()) == 2 * len(edges)


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_histogram_is_consistent(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    hist = degree_histogram(arr)
    assert isinstance(hist, DegreeHistogram)
    assert sum(hist.counts.values()) == count_vertices(arr)
    assert sum(k * c for k, c in hist.counts.items()) == 2 * len(edges)
    assert all(k >= 1 for k in hist.counts)


@given(any_edge_lists)
@settings(max_examples=150, deadline=None)
def test_largest_component_matches_bfs(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sizes = bfs_component_sizes(edges)
    assert largest_component_size(arr) == (sizes[0] if sizes else 0)
    assert largest_component(arr) == ((sizes[0], sizes[0] / sum(sizes)) if sizes
                                      else (0, 0.0))


@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                min_size=4, max_size=40))
@settings(max_examples=150, deadline=None)
def test_largest_component_of_narrow_ids_over_a_wide_range(edges):
    # int8 ids whose range is wider than int8 can count: offsets from the
    # smallest id must not wrap
    arr = np.asarray(edges, dtype=np.int8).reshape(-1, 2)
    sizes = bfs_component_sizes(edges)
    assert largest_component(arr) == (sizes[0], sizes[0] / sum(sizes))


@given(st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.uint64]),
       st.lists(st.integers(-128, 127), max_size=60), st.sampled_from([1, 1000]))
@settings(max_examples=200, deadline=None)
def test_ranked_unique_matches_numpy(dtype, values, spread):
    # spread 1 keeps the values dense (the slot table), 1000 makes them
    # sparse (the binary search)
    info = np.iinfo(dtype)
    a = np.asarray([v * spread for v in values if info.min <= v * spread <= info.max],
                   dtype=dtype)
    ids, ranks = ranked_unique(a)
    want_ids, want_ranks = np.unique(a, return_inverse=True)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(ranks, want_ranks)
    assert ids.dtype == np.int64 and ranks.dtype == np.int64


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60),
       st.sampled_from([2**64 - 64, 2**63 - 32, 2**62, 0]), st.sampled_from([1, 10**15]))
@settings(max_examples=200, deadline=None)
def test_ranked_unique_of_uint64_ids_past_int64(values, base, spread):
    # ids near, across and past 2^63, dense and sparse, some closer than a
    # float64 can tell apart
    a = np.asarray([(base + v * spread) % 2**64 for v in values], dtype=np.uint64)
    ids, ranks = ranked_unique(a)
    want_ids, want_ranks = np.unique(a, return_inverse=True)
    assert ids.tolist() == want_ids.tolist()
    np.testing.assert_array_equal(ranks, want_ranks)
    assert ranks.dtype == np.int64


def test_largest_component_of_uint64_ids_past_int64():
    assert largest_component(np.array([[2**64 - 1, 2**64 - 2]], dtype=np.uint64)) == (2, 1.0)


@given(edge_lists)
@settings(max_examples=100, deadline=None)
def test_relabeling_invariance(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    shifted = arr + 1000
    assert counts(arr) == counts(shifted)
    assert largest_component(arr) == largest_component(shifted)
    assert degree_histogram(arr).counts == degree_histogram(shifted).counts
