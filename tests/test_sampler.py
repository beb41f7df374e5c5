import dataclasses
import hashlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, sparse
from scipy import stats as sps

from graphex import sampler
from graphex.model import build, dilate
from graphex.sampler import (
    _BLOCK_WORK,
    _C0,
    _CSV_BLOCK,
    _FULL,
    _GUIDE_PER_POINT,
    _LAZY,
    _MAX_LATENT_POINTS,
    _NAIVE,
    PROV_ISOLATED,
    PROV_KERNEL,
    PROV_NAMES,
    PROV_STAR,
    SampledGraph,
    SamplerConfig,
    SamplerError,
    _endpoints,
    _plan,
    _block_size,
    _draw,
    _LazyClouds,
    _strata,
    choose_theta_max,
    restrict,
    sample_keg,
    sample_planted_degrees,
)
from graphex.theory import expected_edges, expected_vertices
from test_model import ein_series

FAST = build({"family": "fast-decay"})
SLOW = build({"family": "slow-decay"})
STAR_ISO = build({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2})


# --------------------------------------------------------------------------
# truncation level
# --------------------------------------------------------------------------

def test_theta_max_examples():
    # exponential marginal: budget nu^2 e^-a = eps at a = log(nu^2 / eps)
    assert choose_theta_max(FAST, 10.0, 1e-3) == pytest.approx(math.log(1e5), rel=1e-9)
    # power marginal: nu^2 / (3 (a+1)) = eps at a = nu^2 / (3 eps) - 1
    assert choose_theta_max(SLOW, 10.0, 1e-3) == pytest.approx(
        100.0 / 3e-3 - 1.0, rel=1e-9)
    # compact support never needs more than the support itself
    const = build({"family": "constant", "params": {"p": 0.5, "c": 2.0}})
    assert choose_theta_max(const, 7.0, 1e-3) == 2.0
    # star tail drives the cutoff when the kernel is null; black-box tails
    # get a coarser (cheaper) search, so only a few digits are promised
    assert choose_theta_max(STAR_ISO, 10.0, 1e-3) == pytest.approx(
        math.log(1e5), rel=1e-3)
    assert choose_theta_max(FAST, 0.0, 1e-3) == 0.0


def test_jumpy_black_box_kernel_needs_an_explicit_cutoff():
    # the box kernel's marginal jumps, so its tail cannot be certified; the
    # error names the override, which samples it
    box = build({"family": "custom", "exprs": {"W": "0.5*le(x,2)*le(y,2)"}})
    with pytest.raises(SamplerError, match="theta_max"):
        sample_keg(box, SamplerConfig(nu=5.0, seed=1))
    graph = sample_keg(box, SamplerConfig(nu=5.0, seed=1, theta_max=2.0))
    assert graph.n_edges > 0


def test_theta_max_validation():
    with pytest.raises(SamplerError):
        choose_theta_max(FAST, -1.0, 1e-3)
    with pytest.raises(SamplerError):
        choose_theta_max(FAST, math.inf, 1e-3)
    with pytest.raises(SamplerError):
        choose_theta_max(FAST, 1.0, 0.0)


# --------------------------------------------------------------------------
# single draws
# --------------------------------------------------------------------------

def test_determinism_and_seed_sensitivity():
    a = sample_keg(FAST, SamplerConfig(nu=10.0, seed=42))
    b = sample_keg(FAST, SamplerConfig(nu=10.0, seed=42))
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.provenance, b.provenance)
    c = sample_keg(FAST, SamplerConfig(nu=10.0, seed=43))
    assert not (a.n_vertices == c.n_vertices
                and np.array_equal(a.labels, c.labels))


def check_graph_invariants(g: SampledGraph):
    assert g.labels.size == g.n_vertices
    if g.n_edges:
        assert g.edges.min() >= 0 and g.edges.max() < g.n_vertices
        assert np.all(g.edges[:, 0] <= g.edges[:, 1])
        assert np.unique(g.edges, axis=0).shape[0] == g.n_edges
        # rows in (u, v, provenance) order
        order = np.lexsort((g.provenance, g.edges[:, 1], g.edges[:, 0]))
        np.testing.assert_array_equal(order, np.arange(g.n_edges))
    if g.n_vertices:
        assert g.labels.min() >= 0.0 and g.labels.max() <= g.nu
        # every stored vertex is visible
        assert np.unique(g.edges).size == g.n_vertices
    assert g.provenance.shape == (g.n_edges,)


@pytest.mark.parametrize("spec, nu, seed", [
    ({"family": "fast-decay"}, 10.0, 42),
    ({"family": "fast-decay", "self_edges": True}, 10.0, 1),
    ({"family": "slow-decay"}, 5.0, 7),
    ({"family": "constant", "params": {"p": 0.5, "c": 2.0}, "self_edges": True}, 8.0, 0),
    ({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2}, 10.0, 3),
    ({"family": "caron-fox"}, 6.0, 9),
    ({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.2, "self_edges": True},
     30.0, 2),
])
def test_draw_invariants(spec, nu, seed):
    g = sample_keg(build(spec), SamplerConfig(nu=nu, seed=seed))
    check_graph_invariants(g)


def test_naive_path_rows_come_in_order():
    # more latent points than one naive block, so pairs come band by band
    g = sample_keg(FAST, SamplerConfig(nu=300.0, seed=5, use_fast_path=False))
    assert g.nu * g.theta_max > 2 * 2048
    check_graph_invariants(g)


@pytest.mark.frozen
def test_star_and_isolated_structure():
    g = sample_keg(STAR_ISO, SamplerConfig(nu=10.0, seed=3))
    check_graph_invariants(g)
    by = g.edge_counts_by_provenance()
    # frozen draw: E[star] = 100, E[isolated] = 20 at this nu
    assert by == {"kernel": 0, "star": 108, "isolated": 26}
    assert g.n_vertices == 189
    counts = np.bincount(g.edges.ravel(), minlength=g.n_vertices)
    star_edges = g.edges[g.provenance == PROV_STAR]
    iso_edges = g.edges[g.provenance == PROV_ISOLATED]
    # each leaf and each isolated endpoint has degree exactly 1
    assert np.all(counts[star_edges[:, 1]] == 1)
    assert np.all(counts[iso_edges.ravel()] == 1)
    # hubs carry everything else
    hubs = np.unique(star_edges[:, 0])
    assert counts[hubs].sum() == by["star"]
    assert hubs.size + by["star"] + 2 * by["isolated"] == g.n_vertices


def test_self_loops_present_when_enabled():
    g = sample_keg(build({"family": "constant", "params": {"p": 0.9, "c": 2.0},
                          "self_edges": True}),
                   SamplerConfig(nu=10.0, seed=5))
    loops = g.edges[:, 0] == g.edges[:, 1]
    assert loops.any()
    assert np.all(g.provenance[loops] == PROV_KERNEL)
    g2 = sample_keg(build({"family": "constant", "params": {"p": 0.9, "c": 2.0}}),
                    SamplerConfig(nu=10.0, seed=5))
    assert not (g2.edges[:, 0] == g2.edges[:, 1]).any()


def test_nu_zero_gives_empty_graph():
    g = sample_keg(FAST, SamplerConfig(nu=0.0, seed=1))
    assert g.n_vertices == 0 and g.n_edges == 0
    assert g.theta_max == 0.0


def test_latent_retention():
    cfg = SamplerConfig(nu=8.0, seed=11)
    g = sample_keg(FAST, cfg)
    assert g.latent is not None and g.latent.size == g.n_vertices
    assert np.isfinite(g.latent).all()  # kernel-only graph: every vertex latent
    g2 = sample_keg(STAR_ISO, SamplerConfig(nu=8.0, seed=11))
    assert np.isnan(g2.latent[g2.edges[g2.provenance == PROV_STAR, 1]]).all()
    # a graph built without latent coordinates cannot write them
    g3 = dataclasses.replace(g, latent=None)
    with pytest.raises(SamplerError, match="no latent coordinates"):
        g3.write_latent_csv(io.StringIO())


def test_fast_path_leaves_the_latent_cloud_alone():
    # the fast path clips f in place; an f that hands back the latent array
    # itself, or a view of it, must leave the coordinates unclipped
    cfg = SamplerConfig(nu=4.0, seed=5, theta_max=3.0)
    draws = [sample_keg(dataclasses.replace(FAST, separable_f=f), cfg)
             for f in (lambda x: x.copy(), lambda x: x, lambda x: x[:])]
    assert draws[0].latent.max() > 1.0 and draws[0].n_edges > 0
    for g in draws[1:]:
        assert np.array_equal(g.edges, draws[0].edges)
        assert np.array_equal(g.latent, draws[0].latent)


def test_config_validation():
    with pytest.raises(SamplerError):
        SamplerConfig(nu=-1.0, seed=0)
    with pytest.raises(SamplerError):
        SamplerConfig(nu=math.nan, seed=0)
    with pytest.raises(SamplerError):
        SamplerConfig(nu=1.0, seed=-3)
    with pytest.raises(SamplerError):
        SamplerConfig(nu=1.0, seed=0, eps=0.0)
    with pytest.raises(SamplerError):
        SamplerConfig(nu=1.0, seed=0, theta_max=-2.0)
    # bool is an int subclass, but not a truncation level or a seed
    with pytest.raises(SamplerError, match="nu"):
        SamplerConfig(nu=True, seed=0)
    with pytest.raises(SamplerError, match="seed"):
        SamplerConfig(nu=1.0, seed=True)
    with pytest.raises(SamplerError, match="seed"):
        SamplerConfig(nu=1.0, seed=False)


def test_capacity_guards(monkeypatch):
    # slow tail at nu=100 needs theta ~ 3.3e6, far over the latent budget
    with pytest.raises(SamplerError, match="latent"):
        sample_keg(SLOW, SamplerConfig(nu=100.0, seed=0))
    # the caps are the module's constants, not settings of a draw
    with pytest.raises(TypeError):
        SamplerConfig(nu=50.0, seed=0, max_pair_coins=10)
    lazy = SamplerConfig(nu=5.0, seed=0, eps=1e-2)
    assert _plan(SLOW, lazy).engine == _LAZY
    monkeypatch.setattr(sampler, "_MAX_LATENT_POINTS", 10.0)
    # a lazy draw makes few of its points, but is capped by all of them
    with pytest.raises(SamplerError, match="max_latent_points"):
        sample_keg(SLOW, lazy)
    with pytest.raises(SamplerError, match="max_latent_points"):
        _block_size(SLOW, lazy)
    monkeypatch.undo()
    const = build({"family": "constant", "params": {"p": 0.5, "c": 2.0}})
    monkeypatch.setattr(sampler, "_MAX_PAIR_COINS", 10)
    # f = sqrt(p) > 1/2 everywhere, so the fast path guards the heavy block
    with pytest.raises(SamplerError, match="heavy pairs"):
        sample_keg(const, SamplerConfig(nu=50.0, seed=0))
    with pytest.raises(SamplerError, match="pair coins"):
        sample_keg(const, SamplerConfig(nu=50.0, seed=0, use_fast_path=False))
    monkeypatch.undo()
    monkeypatch.setattr(sampler, "_MAX_PROPOSALS", 1e-6)
    with pytest.raises(SamplerError, match="proposal"):
        sample_keg(FAST, SamplerConfig(nu=10.0, seed=0))
    with pytest.raises(SamplerError, match="proposal"):
        sample_keg(SLOW, lazy)
    inf_iso = build({"family": "custom", "exprs": {"W": "0"}, "I": math.inf})
    with pytest.raises(SamplerError, match="isolated"):
        sample_keg(inf_iso, SamplerConfig(nu=1.0, seed=0))


def test_output_writers():
    g = sample_keg(FAST, SamplerConfig(nu=10.0, seed=42))
    buf = io.StringIO()
    g.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "u_index,v_index,u_label,v_label,provenance"
    assert len(lines) == 1 + g.n_edges
    meta = g.metadata()
    assert set(meta) == {"nu", "seed", "theta_max", "epsilon", "vertices",
                         "edges", "edges_by_provenance"}
    assert meta["vertices"] == g.n_vertices


def per_edge_csv(g: SampledGraph) -> str:
    """Reference writer: one format call per edge, labels looked up each time."""
    lab = g.labels
    out = ["u_index,v_index,u_label,v_label,provenance\n"]
    for (u, v), p in zip(g.edges.tolist(), g.provenance.tolist()):
        out.append(f"{u},{v},{float(lab[u])!r},{float(lab[v])!r},{PROV_NAMES[p]}\n")
    return "".join(out)


def test_write_csv_matches_per_edge_writer(tmp_path):
    # more edges than one write block, and labels whose repr has an exponent
    rng = np.random.default_rng(0)
    n = 2000
    labels = rng.uniform(0.0, 5.0, n)
    labels[:6] = [0.0, 5e-324, 1e-05, 2.5e-07, 1.2345678901234567e+16, 5.0]
    uv = np.sort(rng.integers(0, n, size=(_CSV_BLOCK + 4321, 2)), axis=1)
    g = SampledGraph(nu=5.0, seed=0, theta_max=1.0, epsilon=1e-3, labels=labels,
                     edges=uv.astype(np.int64),
                     provenance=rng.integers(0, 3, uv.shape[0]).astype(np.uint8))
    want = per_edge_csv(g)
    assert "e-05" in want and "e+16" in want
    buf = io.StringIO()
    g.write_csv(buf)
    assert_same_text(buf.getvalue(), want)
    path = tmp_path / "edges.csv"
    g.write_csv(path)
    assert_same_text(path.read_bytes().decode("utf-8"), want)


def blockwise_csv(g: SampledGraph) -> str:
    """Reference writer: each vertex's index and label formatted once, then
    one f-string per row, in blocks of _CSV_BLOCK edges."""
    index = [str(i) for i in range(g.n_vertices)]
    label = [repr(x) for x in np.asarray(g.labels, dtype=float).tolist()]
    out = ["u_index,v_index,u_label,v_label,provenance\n"]
    for b0 in range(0, g.n_edges, _CSV_BLOCK):
        ends = iter(g.edges[b0:b0 + _CSV_BLOCK].ravel().tolist())
        prov = g.provenance[b0:b0 + _CSV_BLOCK].tolist()
        out.append("".join([
            f"{index[u]},{index[v]},{label[u]},{label[v]},{PROV_NAMES[p]}\n"
            for u, v, p in zip(ends, ends, prov)]))
    return "".join(out)


def assert_same_text(got: str, want: str):
    """got == want, reported by the first line that differs (pytest's own
    diff of two long texts takes minutes)."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} against {len(w)} lines)")


def test_write_csv_matches_reference_on_a_draw(tmp_path):
    # kernel pairs, self loops, star and isolated edges, over several blocks
    decl = {"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.2, "self_edges": True}
    g = sample_keg(build(decl), SamplerConfig(nu=250.0, seed=4))
    by_prov = g.edge_counts_by_provenance()
    assert g.n_edges > _CSV_BLOCK and min(by_prov.values()) > 0
    assert np.any(g.edges[:, 0] == g.edges[:, 1])
    g.labels[:3] = [1e-05, 2.5e-07, 1.2345678901234567e+16]
    want = blockwise_csv(g)
    assert "e-05" in want and "e+16" in want
    assert_same_text(per_edge_csv(g), want)
    buf = io.StringIO()
    g.write_csv(buf)
    assert_same_text(buf.getvalue(), want)
    path = tmp_path / "edges.csv"
    g.write_csv(path)
    assert_same_text(path.read_bytes().decode("utf-8"), want)

    empty = SampledGraph(nu=1.0, seed=0, theta_max=1.0, epsilon=1e-3, labels=np.empty(0),
                         edges=np.empty((0, 2), dtype=np.int64),
                         provenance=np.empty(0, dtype=np.uint8))
    buf = io.StringIO()
    empty.write_csv(buf)
    assert buf.getvalue() == blockwise_csv(empty) == "u_index,v_index,u_label,v_label,provenance\n"


def draw_digest(g: SampledGraph) -> str:
    h = hashlib.sha256()
    for arr in (g.edges, g.provenance, g.labels, g.latent):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.frozen
@pytest.mark.parametrize("graphex, nu, seed, digest", [
    # the first two index visible points through the slot table; the slow
    # cloud (about 3e5 slots, 30 endpoints) is lazy, and its visible points
    # go through the binary search. The 758 slots' partners, 872 keys of
    # light slots and 414 of heavy ones, are found by binary search
    (FAST, 50.0, 5,
     "578b51321a4c0796ad7105b4d5fb3338c2826a3efb9283fb534f18cdc18fce51"),
    (STAR_ISO, 10.0, 3,
     "ccecf7a24281905939a8defd891e90dc8950e99901be6b8e83133d15bcdb87fd"),
    (SLOW, 10.0, 7,
     "dec1d35a645875d8d0000d2e5df30082d624316b3cd2c7e1b6ebf9c960351858"),
    # about 5.4k latent points and 48k partner keys: it has heavy pairs,
    # and its keys take the guide table's span-1 and binary-search branches
    (FAST, 300.0, 1,
     "3d7a8cc23ecb3a14d63cb06cb95922f8dde8e0513ae492ae3d8ca20e9cbc21c2"),
    # the benchmark's draw: about 20.8k latent points, 689 heavy ones, 546k
    # partner keys (363k of light slots, 183k of heavy ones), of which about
    # 26k fall in crowded guide-table buckets, and 519k edges
    (FAST, 1000.0, 3,
     "3b117248fdea599fbb86f35226d08252842189d900fc87ba102f896111b65392"),
    # the naive path's pair and loop coins: 11 edges, one a self loop, of a
    # kernel that does not factorise, and 24 edges, 6 of them self loops, of
    # a graphon dilation
    (build({"family": "custom", "exprs": {"W": "exp(-x-y)"}, "self_edges": True}), 5.0, 2,
     "19b95f24da315eaff09977d31aa4c26b3ddf6ab7a483a00419bb0b26cd94f489"),
    (dilate([[0.6, 0.1], [0.1, 0.3]], 2.0, self_edges=True), 8.0, 1,
     "b814a5a687a63bd458ba919669c64573fad623374b1b59531c9910de993200bb"),
], ids=["fast-50", "star-isolated", "slow", "fast-large", "fast-1000", "naive-custom",
        "naive-dilation"])
def test_frozen_draws(graphex, nu, seed, digest):
    # frozen sha256 of whole draws: any change to how randomness is consumed,
    # or to vertex indexing and edge order, shows here
    g = sample_keg(graphex, SamplerConfig(nu=nu, seed=seed))
    assert draw_digest(g) == digest


@st.composite
def endpoint_cases(draw):
    """A nondecreasing cumsum of weights and keys to place in it. Weights may
    be zero (ties in cum), equal (cum values on bucket edges), one may
    dominate, all but one may be tiny (sharing a bucket), or all may be
    denormal; keys fall on bucket edges, on cum values, on 0 and on the
    total, one float either side of those, or anywhere in and around
    [0, total], and there are fewer of them than weights or at least as
    many."""
    n = draw(st.integers(1, 40))
    w = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["plain", "equal", "dominant", "tiny", "denormal"]))
    if shape == "equal":
        w[:] = w[0]
    w[np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    if shape == "dominant":
        w[draw(st.integers(0, n - 1))] = 1e9
    elif shape == "tiny":
        w *= 1e-12
        w[draw(st.integers(0, n - 1))] = 1.0
    elif shape == "denormal":
        w *= 1e-310
    cum = np.cumsum(w)
    total = float(cum[-1])
    k = _GUIDE_PER_POINT * n
    special = np.concatenate((np.arange(k + 1) * (total / k), cum, [0.0, total]))
    special = np.concatenate((special, np.nextafter(special, -np.inf),
                              np.nextafter(special, np.inf)))
    special = special[(special >= 0.0) & (special <= total)]
    size = draw(st.integers(n, 3 * n) if draw(st.booleans()) else st.integers(0, n - 1))
    key = st.one_of(st.sampled_from(special.tolist()),
                    st.floats(-0.25, 1.25).map(lambda u: u * total))
    keys = np.asarray(draw(st.lists(key, min_size=size, max_size=size)), dtype=float)
    return cum, keys


@given(endpoint_cases())
@settings(max_examples=500, deadline=None)
def test_endpoints_match_searchsorted(case):
    cum, keys = case
    want = np.searchsorted(cum, keys, side="right")
    # every case with at least as many keys as entries takes the table
    with mock.patch.object(sampler, "_GUIDE_PROBES", 0):
        got = _endpoints(cum, keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_endpoints_settle_a_low_bucket_estimate():
    # at this total, the key one float above bucket edge 7 multiplies out to
    # just under 7, so its first bucket estimate is one too low, and the cum
    # values equal to the key lie past that bucket's upper edge
    n, total = 5, 42.05082477773834
    k = _GUIDE_PER_POINT * n
    y = np.nextafter(7 * (total / k), np.inf)
    assert math.floor(y * (k / total)) == 6
    cum = np.cumsum([y, 0.0, 0.0, 0.0, total - y])
    keys = np.full(n, y)
    with mock.patch.object(sampler, "_GUIDE_PROBES", 0):
        np.testing.assert_array_equal(_endpoints(cum, keys),
                                      np.searchsorted(cum, keys, side="right"))


# --------------------------------------------------------------------------
# restriction
# --------------------------------------------------------------------------

def hand_graph():
    return SampledGraph(
        nu=5.0, seed=0, theta_max=1.0, epsilon=1e-3,
        labels=np.array([1.0, 2.0, 4.5]),
        edges=np.array([[0, 1], [1, 2]], dtype=np.int64),
        provenance=np.array([0, 1], dtype=np.uint8),
    )


def test_restrict_hand_example():
    r = restrict(hand_graph(), 3.0)
    assert r.nu == 3.0
    np.testing.assert_array_equal(r.edges, [[0, 1]])
    np.testing.assert_array_equal(r.labels, [1.0, 2.0])
    np.testing.assert_array_equal(r.provenance, [0])


def test_restrict_edge_cases():
    g = hand_graph()
    empty = restrict(g, 0.5)
    assert empty.n_vertices == 0 and empty.n_edges == 0
    with pytest.raises(SamplerError):
        restrict(g, 6.0)
    with pytest.raises(SamplerError):
        restrict(g, -1.0)
    # bool is an int subclass, but not a truncation level
    for level in (True, False):
        with pytest.raises(SamplerError, match="nu_new"):
            restrict(g, level)


def test_restrict_full_window_is_identity():
    g = sample_keg(FAST, SamplerConfig(nu=10.0, seed=42))
    r = restrict(g, 10.0)
    np.testing.assert_array_equal(r.edges, g.edges)
    np.testing.assert_array_equal(r.labels, g.labels)
    np.testing.assert_array_equal(r.provenance, g.provenance)


@st.composite
def labelled_graphs(draw):
    """A graph over vertices 0..n-1 with labels in [0, 10], some of them
    without edges, and a restriction level."""
    n = draw(st.integers(1, 30))
    labels = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    ids = st.integers(0, n - 1)
    edges = np.asarray(draw(st.lists(st.tuples(ids, ids), max_size=60)),
                       dtype=np.int64).reshape(-1, 2)
    graph = SampledGraph(
        nu=10.0, seed=0, theta_max=1.0, epsilon=1e-3, labels=np.asarray(labels),
        edges=np.sort(edges, axis=1), provenance=np.zeros(len(edges), dtype=np.uint8),
        latent=np.arange(n, dtype=float))
    return graph, draw(st.floats(0.0, 10.0))


@given(labelled_graphs())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_searchsorted_mapping(case):
    # the new ids are the ranks of the kept old ids, as a binary search over
    # their sorted unique values gives them
    graph, nu_new = case
    lab, edges = graph.labels, graph.edges
    keep = (lab[edges[:, 0]] <= nu_new) & (lab[edges[:, 1]] <= nu_new)
    old_ids = np.unique(edges[keep])
    r = restrict(graph, nu_new)
    np.testing.assert_array_equal(r.edges, old_ids.searchsorted(edges[keep]))
    assert r.edges.dtype == np.int64 and r.edges.shape == (int(keep.sum()), 2)
    np.testing.assert_array_equal(r.labels, lab[old_ids])
    np.testing.assert_array_equal(r.latent, graph.latent[old_ids])
    np.testing.assert_array_equal(r.provenance, graph.provenance[keep])


def test_restrict_keeps_invariants():
    g = sample_keg(build({"family": "fast-decay", "self_edges": True,
                          "exprs": {"S": "exp(-x)"}, "I": 0.1}),
                   SamplerConfig(nu=12.0, seed=8))
    r = restrict(g, 5.0)
    check_graph_invariants(r)
    assert r.labels.max() <= 5.0


# --------------------------------------------------------------------------
# distributional checks (fixed seeds, calibrated once)
# --------------------------------------------------------------------------

REPS = 10_000
NU = 5.0
KMAX = 6


def draws(g, cfg, seeds):
    """The graphs sample_keg draws at cfg with each seed, drawn in blocks:
    each replicate of a block is that graph, to the bit (as
    test_a_block_of_replicates_draws_each_as_a_block_of_one checks)."""
    seeds = list(seeds)
    size = _block_size(g, cfg)[0]
    for b0 in range(0, len(seeds), size):
        block = _draw(g, cfg, seeds[b0:b0 + size])
        for i in range(block.reps):
            yield block.graph(i)


def summarize_arm(base_seed, **cfg_kw):
    """Per-replicate edge counts, vertex counts and degree histogram rows."""
    e = np.empty(REPS)
    v = np.empty(REPS)
    hist = np.zeros((REPS, KMAX))
    seeds = range(base_seed, base_seed + REPS)
    for i, g in enumerate(draws(FAST, SamplerConfig(nu=NU, seed=0, **cfg_kw), seeds)):
        e[i] = g.n_edges
        if g.n_edges:
            deg = np.bincount(g.edges.ravel())
            deg = deg[deg > 0]
            v[i] = deg.size
            hist[i] = np.bincount(deg, minlength=KMAX + 1)[1:KMAX + 1]
        else:
            v[i] = 0
    return e, v, hist


def z_two_sample(a, b):
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size
                                             + b.var(ddof=1) / b.size)


def test_fast_path_matches_naive():
    # edge-count mean and the degree histogram agree within 3 SE
    e_fast, v_fast, h_fast = summarize_arm(10_000)
    e_naive, _, h_naive = summarize_arm(20_000, use_fast_path=False)
    assert abs(z_two_sample(e_fast, e_naive)) <= 3.0
    for k in range(KMAX):
        assert abs(z_two_sample(h_fast[:, k], h_naive[:, k])) <= 3.0, f"k={k + 1}"
    # and the draws sit on the analytic expectations
    ee = expected_edges(FAST, NU).value
    ev = expected_vertices(FAST, NU).value
    assert abs(e_fast.mean() - ee) <= 4.0 * e_fast.std(ddof=1) / math.sqrt(REPS)
    assert abs(v_fast.mean() - ev) <= 4.0 * v_fast.std(ddof=1) / math.sqrt(REPS)


def test_truncation_is_sound():
    # widening the latent window ten-fold moves the mean edge count < 3 SE
    e_fast, _, _ = summarize_arm(10_000)
    big_theta = 10.0 * choose_theta_max(FAST, NU, 1e-3)
    e_wide, _, _ = summarize_arm(30_000, theta_max=big_theta)
    assert abs(z_two_sample(e_fast, e_wide)) <= 3.0


def test_label_shuffle_leaves_label_free_statistics_unchanged():
    # swapping two equal-length label intervals is measure preserving; any
    # statistic computed from the edge structure alone cannot move
    from graphex.graphstats import counts, degree_histogram, degrees, largest_component

    def statistics(g):
        return (g.n_edges, counts(g.edges), degrees(g.edges)[1].tolist(),
                degree_histogram(g.edges).counts, largest_component(g.edges))

    g = sample_keg(FAST, SamplerConfig(nu=10.0, seed=42))
    before = statistics(g)
    labels = g.labels.copy()
    lo = labels < 2.5
    hi = (labels >= 2.5) & (labels < 5.0)
    labels[lo] += 2.5
    labels[hi] -= 2.5
    g.labels = labels
    assert statistics(g) == before


def test_dilation_uses_naive_path():
    # non-separable kernel: block structure survives in the sample
    g = dilate([[0.0, 1.0], [1.0, 0.0]], 1.0)
    got = sample_keg(g, SamplerConfig(nu=30.0, seed=4))
    check_graph_invariants(got)
    assert got.n_edges > 0


def test_planted_degree_moments():
    # degree of a point at lam is Poisson with mean nu * mu(lam)
    d0 = sample_planted_degrees(FAST, 10.0, 0.0, 2000, 77)
    assert d0.shape == (2000,)
    assert abs(d0.mean() - 10.0) <= 4.0 * math.sqrt(10.0 / 2000)
    assert 8.7 <= d0.var(ddof=1) <= 11.3
    lam = 2.0
    mean2 = 10.0 * math.exp(-lam)
    d2 = sample_planted_degrees(FAST, 10.0, lam, 2000, 78)
    assert abs(d2.mean() - mean2) <= 4.0 * math.sqrt(mean2 / 2000)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_planted_degrees_on_the_unit_bound_path(lam):
    # caron-fox declares no nonincreasing factor, so candidates are thinned
    # against B = 1; the degree is Poisson(nu * mu(lam)), mu(x) = Ein(2 e^-x)
    g = build({"family": "caron-fox"})
    assert not getattr(g.separable_f, "nonincreasing", False)
    nu, reps = 5.0, 4000
    draws = sample_planted_degrees(g, nu, lam, reps, 0)
    want = nu * ein_series(2.0 * math.exp(-lam), 1)
    assert abs(draws.mean() - want) <= 4.0 * draws.std(ddof=1) / math.sqrt(reps)
    assert 0.9 <= draws.var(ddof=1) / draws.mean() <= 1.1


def test_planted_degree_determinism_and_validation():
    a = sample_planted_degrees(FAST, 10.0, 0.0, 100, 5)
    b = sample_planted_degrees(FAST, 10.0, 0.0, 100, 5)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(SamplerError):
        sample_planted_degrees(FAST, 10.0, 0.0, 0, 0)
    with pytest.raises(SamplerError):
        sample_planted_degrees(FAST, 10.0, -1.0, 10, 0)


@pytest.mark.parametrize("nu, theta_max", [
    (10.0, -1.0), (10.0, math.inf), (10.0, math.nan),
    (-1.0, 5.0), (math.inf, 5.0), (math.nan, 5.0), (True, 5.0), (True, None),
    (10.0, True), (10.0, "2"),
])
def test_planted_degree_levels_are_checked_as_in_sampler_config(nu, theta_max):
    # the same rules and messages as a draw's config, whether or not the
    # cutoff is given; a bool or a string cutoff is refused as a level, not
    # taken as 1.0 or left to a bare TypeError
    with pytest.raises(SamplerError) as config_error:
        SamplerConfig(nu=nu, seed=0, theta_max=theta_max)
    with pytest.raises(SamplerError) as planted_error:
        sample_planted_degrees(FAST, nu, 0.0, 10, 0, theta_max=theta_max)
    assert str(planted_error.value) == str(config_error.value)


@pytest.mark.parametrize("lam, seed", [
    (1.0, True), (1.0, 1.0), (1.0, -1), (True, 0), (1.0, 1.5), ("1", 0), (None, 0),
])
def test_planted_degrees_refuse_a_bool_or_non_integer_seed_or_lam(lam, seed):
    # bool is a subclass of int, but True is no seed; a seed is refused by
    # the same rule and message as SamplerConfig's, with or without a cutoff.
    # A lam that is no number is refused by the same number check, not left
    # to a bare TypeError
    for theta_max in (None, 5.0):
        with pytest.raises(SamplerError, match="seed|lam") as planted_error:
            sample_planted_degrees(FAST, 2.0, lam, 3, seed, theta_max=theta_max)
    if isinstance(lam, float):  # the seed is the bad argument
        with pytest.raises(SamplerError) as config_error:
            SamplerConfig(nu=2.0, seed=seed)
        assert str(planted_error.value) == str(config_error.value)


@pytest.mark.parametrize("eps", [-1.0, 0.0, True])
def test_planted_degrees_check_eps_even_with_a_cutoff(eps):
    # eps goes unused once theta_max is given, but a bad one is still refused
    for theta_max in (None, 5.0):
        with pytest.raises(SamplerError, match="eps"):
            sample_planted_degrees(FAST, 2.0, 1.0, 3, 1, eps=eps, theta_max=theta_max)


# --------------------------------------------------------------------------
# lazy stratified clouds
# --------------------------------------------------------------------------

def graph_counts(g: SampledGraph) -> np.ndarray:
    """Edges, vertices, degree-1 vertices, self loops, wedges and triangles
    of one draw; wedges and triangles of the simple graph without loops."""
    loop = g.edges[:, 0] == g.edges[:, 1]
    deg = np.bincount(g.edges.ravel(), minlength=g.n_vertices)
    uv = g.edges[~loop]
    adj = sparse.coo_matrix((np.ones(uv.shape[0]), (uv[:, 0], uv[:, 1])),
                            shape=(g.n_vertices, g.n_vertices)).tocsr()
    adj = adj + adj.T
    simple = np.asarray(adj.sum(axis=1)).ravel()
    triangles = (adj @ adj).multiply(adj).sum() / 6.0
    return np.array([g.n_edges, g.n_vertices, np.count_nonzero(deg == 1),
                     np.count_nonzero(loop), (simple * (simple - 1) / 2).sum(), triangles])


COUNT_NAMES = ("edges", "vertices", "degree_1", "self_loops", "wedges", "triangles")


def naive_counts_matching_fast(g, nu, eps, reps, bases):
    """graph_counts of reps naive draws, at seeds bases[1] + r, once their
    means agree within 4 SE with those of reps fast-path draws, at seeds
    bases[0] + r; wedges and triangles would catch pair coins that depend on
    each other."""
    arms = []
    for base, fast in zip(bases, (True, False)):
        cfg = SamplerConfig(nu=nu, seed=0, eps=eps, use_fast_path=fast)
        arms.append(np.array([graph_counts(graph) for graph in
                              draws(g, cfg, range(base, base + reps))]))
    fast, naive = arms
    for k, name in enumerate(COUNT_NAMES):
        if fast[:, k].var() == naive[:, k].var() == 0.0:
            assert fast[0, k] == naive[0, k], name
        else:
            assert abs(z_two_sample(fast[:, k], naive[:, k])) <= 4.0, name
    return naive


LAZY_CASES = {
    "slow-decay": (SLOW, 5.0, 0.5),
    "fast-decay": (FAST, 3.0, 1e-3),
    # a constant draw is lazy only while nu c p < 1 / c0, about 0.72, where
    # it expects (nu c p)^3 / 6 triangles; nu = 9 is the most it can reach
    "constant-loops": (build({"family": "constant", "params": {"p": 0.02, "c": 4.0},
                              "self_edges": True}), 9.0, 1e-3),
}
LAZY_REPS = 2000


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_cloud_matches_naive(case):
    # the lazy engine against the all-pairs reference
    g, nu, eps = LAZY_CASES[case]
    assert _plan(g, SamplerConfig(nu=nu, seed=0, eps=eps)).engine == _LAZY
    naive = naive_counts_matching_fast(g, nu, eps, LAZY_REPS, (40_000, 50_000))
    assert naive[:, 2].mean() > 0.5 and naive[:, 4].mean() > 0.5
    if case == "constant-loops":
        assert naive[:, 3].mean() > 0.3 and naive[:, 5].mean() > 0.05


FULL_CASES = {
    "fast-decay": (FAST, 20.0),
    # a star rate, isolated edges, self loops, and heavy points: f > 1/2
    # below ln 2, so a draw holds about nu ln 2 of them
    "fast-decay-stars-loops": (
        build({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.2,
               "self_edges": True}), 10.0),
    # f = sqrt(p) > 1/2 everywhere: every pair is a heavy coin
    "constant-all-heavy": (build({"family": "constant", "params": {"p": 0.5, "c": 2.0}}), 6.0),
    # a user f that is not monotone declares no bound: only the full cloud
    # draws it
    "separable-bump": (build({"family": "separable",
                              "exprs": {"f": "0.9*exp(-(x-1.5)^2)"}}), 10.0),
}
FULL_REPS = 1000


@pytest.mark.parametrize("case", sorted(FULL_CASES))
def test_full_cloud_matches_naive(case):
    # the full cloud's ordered proposals against the all-pairs reference
    g, nu = FULL_CASES[case]
    assert _plan(g, SamplerConfig(nu=nu, seed=0)).engine == _FULL
    naive = naive_counts_matching_fast(g, nu, 1e-3, FULL_REPS, (60_000, 70_000))
    assert naive[:, 4].mean() > 0.5 and naive[:, 5].mean() > 0.5


def test_lazy_draws_keep_their_latent_coordinates_below_the_cutoff():
    g = sample_keg(SLOW, SamplerConfig(nu=20.0, seed=4, eps=1e-2))
    theta = choose_theta_max(SLOW, 20.0, 1e-2)
    assert g.n_vertices and np.all((g.latent >= 0.0) & (g.latent <= theta))


def test_lazy_positions_are_fixed_per_slot():
    # a slot's position is the same whenever and in whatever order it is
    # touched, and lies in its stratum
    edges = _strata(SLOW, 1e4)[0]
    cloud = _LazyClouds(SLOW, 1e4, 20.0, (0,))
    n = int(cloud.n[0])
    slots = np.random.default_rng(1).integers(0, n, 5000)
    x, s = cloud.place(slots)
    np.testing.assert_array_equal(cloud.positions(slots[::-1])[::-1], x)
    assert np.all((x >= edges[s]) & (x <= edges[s + 1]))
    # the heavy slots are those of strata whose bound exceeds 1/2
    heavy = np.flatnonzero(np.repeat(cloud.bnd > 0.5, cloud.count[0]))
    np.testing.assert_array_equal(cloud.heavy, heavy)


def on_heavy_strata(g, theta, x):
    """Whether each latent coordinate x of a lazy draw at cutoff theta lies in
    a heavy stratum, one whose bound exceeds 1/2."""
    edges, bound = _strata(g, theta)[:2]
    return bound[np.searchsorted(edges, x, side="right") - 1] > 0.5


@pytest.mark.parametrize("seed", [73, 168])
def test_lazy_self_loops_come_in_order(seed):
    # seeds whose lazy fast-decay draw has self loops for its only kernel
    # edges, at least two: at least one on a heavy slot, coined, and at least
    # one on a light slot, thinned, whose runs are merged in slot order
    g = build({"family": "fast-decay", "self_edges": True})
    cfg = SamplerConfig(nu=1.0, seed=seed)
    plan = _plan(g, cfg)
    assert plan.engine == _LAZY
    d = sample_keg(g, cfg)
    assert d.n_edges >= 2 and np.all(d.edges[:, 0] == d.edges[:, 1])
    heavy = on_heavy_strata(g, plan.theta, d.latent)
    assert heavy.any() and not heavy.all()
    check_graph_invariants(d)


def test_star_rate_draws_match_the_theory_past_the_support():
    # S = exp(-x) past the constant kernel's support c = 2: the sampler draws
    # that tail, and the theory counts it
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
               "exprs": {"S": "exp(-x)"}})
    nu, reps = 3.0, 4000
    v = np.array([sample_keg(g, SamplerConfig(nu=nu, seed=r)).n_vertices
                  for r in range(reps)])
    want = expected_vertices(g, nu).value
    assert abs(v.mean() - want) <= 4.0 * v.std(ddof=1) / math.sqrt(reps)


def chi_square_p(draws, mean):
    """Chi-square p-value of draws against Poisson(mean), with right-tail
    cells merged until each expects at least 5."""
    reps = draws.size
    kmax = int(draws.max())
    observed = np.bincount(draws, minlength=kmax + 1).astype(float)
    law = sps.poisson(mean)
    expected = law.pmf(np.arange(kmax + 1)) * reps
    expected[-1] += law.sf(kmax) * reps
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    return sps.chisquare(observed, expected * observed.sum() / expected.sum())[1]


@pytest.mark.parametrize("spec, nu, lam, theta_max", [
    # at lam = 0 the first stratum's bound W(0, 0) is 1
    ({"family": "fast-decay"}, 10.0, 0.0, None),
    # at lam = c the kernel is still p; the cutoff past c puts f's jump to 0
    # inside the strata
    ({"family": "constant", "params": {"p": 0.3, "c": 2.0}}, 10.0, 2.0, 3.0),
])
def test_planted_degrees_are_poisson_in_strata(spec, nu, lam, theta_max):
    g = build(spec)
    theta = theta_max if theta_max is not None else choose_theta_max(g, nu, 1e-3)
    mean = nu * integrate.quad(lambda x: float(g.w(lam, x)), 0.0, theta,
                               points=[2.0] if theta_max else None, epsabs=0.0,
                               epsrel=1e-12, limit=200)[0]
    draws = sample_planted_degrees(g, nu, lam, 5000, 3, theta_max=theta_max)
    assert chi_square_p(draws, mean) >= 0.001


def test_a_wrong_monotonicity_declaration_is_caught():
    # f rises, but carries the nonincreasing mark: a drawn f(x) above its
    # stratum's bound f(a) stops the draw
    def rising(x):
        return 0.02 + 0.04 * np.minimum(np.asarray(x, dtype=float), 5.0)

    rising.nonincreasing = True
    g = dataclasses.replace(FAST, separable_f=rising)
    cfg = SamplerConfig(nu=2.0, seed=0, theta_max=6.0)
    assert _plan(g, cfg).engine == _LAZY
    with pytest.raises(SamplerError, match="not nonincreasing"):
        for seed in range(20):
            sample_keg(g, dataclasses.replace(cfg, seed=seed))
    wrong_w = dataclasses.replace(g, w=lambda x, y: rising(x) * rising(y))
    with pytest.raises(SamplerError, match="not nonincreasing"):
        sample_planted_degrees(wrong_w, 2.0, 1.0, 200, 0, theta_max=6.0)
    # swapping f drops the mark: a replaced factor takes the full cloud
    assert _plan(dataclasses.replace(SLOW, separable_f=lambda x: 0.5 / (1.0 + x)),
                 SamplerConfig(nu=5.0, seed=0, theta_max=1e3)).engine == _FULL


# --------------------------------------------------------------------------
# the Caron-Fox construction
# --------------------------------------------------------------------------

CARON_FOX_CASES = {
    "default": ("exp(-x)", 5.0),
    "jump": ("exp(-x)*(1+le(x,1))", 3.0),
    "g0-is-5": ("5*exp(-3*x)", 3.0),
}


def caron_fox(source: str, self_edges: bool = False):
    return build({"family": "caron-fox", "exprs": {"g": source}, "self_edges": self_edges})


@pytest.mark.parametrize("case", sorted(CARON_FOX_CASES))
def test_caron_fox_construction_matches_naive(case):
    # Poi(r_u r_v) proposals per pair, r = sqrt(2) g, kept as edges without
    # a coin, against the all-pairs reference; self loops keep their coin
    source, nu = CARON_FOX_CASES[case]
    g = caron_fox(source, self_edges=True)
    naive = naive_counts_matching_fast(g, nu, 1e-3, FULL_REPS, (80_000, 90_000))
    assert naive[:, 3].mean() > 0.5 and naive[:, 5].mean() > 0.5


@pytest.mark.parametrize("nu", [20.0, 1000.0])
def test_caron_fox_cutoff_of_the_default_g(nu):
    # W <= r(x) r(y) = 2 e^-x e^-y puts the budget at 2 nu^2 e^-a, which
    # meets eps at ln(2 nu^2 / eps); the bisection stops within its width
    # above that
    a = choose_theta_max(caron_fox("exp(-x)"), nu, 1e-3)
    assert 0.0 <= a - math.log(2.0 * nu * nu / 1e-3) <= 1e-4 * a
    if nu == 20.0:
        assert a == 13.5927734375


@pytest.mark.parametrize("source", ["exp(-x)", "2*exp(-x)", "5*exp(-3*x)"])
def test_caron_fox_cutoff_is_never_below_the_nested_one(source):
    # the majorant's budget bounds the nested tail of the marginal, so its
    # cutoff is certified wherever the nested one is
    g = caron_fox(source)
    nested = dataclasses.replace(g, rate_factor=None)
    assert choose_theta_max(g, 20.0, 1e-3) >= choose_theta_max(nested, 20.0, 1e-3)


def test_a_caron_fox_g_with_a_jump_certifies():
    # the nested tail cannot settle the marginal's jump at y = 1; the
    # majorant's single integrals can, and the tail of the refined marginal
    # past its cutoff (Gauss-Laguerre: mu(a + t) e^t is nearly constant,
    # since g = e^-x there) is within the budget
    g = caron_fox("exp(-x)*(1+le(x,1))")
    with pytest.raises(SamplerError, match="cannot certify"):
        choose_theta_max(dataclasses.replace(g, rate_factor=None), 20.0, 1e-3)
    a = choose_theta_max(g, 20.0, 1e-3)
    t, weight = np.polynomial.laguerre.laggauss(20)
    assert 20.0 ** 2 * (weight @ (np.exp(t) * g.marginal(a + t))) <= 1e-3


def test_caron_fox_cutoff_falls_back_to_the_nested_tail():
    # a spike of 1e300 at 0 leaves ||r||_1 unsettled, so the cutoff takes the
    # nested tail of the marginal, which cannot settle it either
    g = caron_fox("exp(-x)/(x+1e-300)")
    with pytest.raises(SamplerError, match="tail of the marginal"):
        choose_theta_max(g, 20.0, 1e-3)


def test_an_expression_error_in_the_cutoff_cannot_certify():
    # exp(-x)/abs(x-1) builds (no probe point sits at x = 1) but divides by
    # zero at a quadrature node of ||r||_1
    g = caron_fox("exp(-x)/abs(x-1)")
    with pytest.raises(SamplerError, match="cannot certify.*division by zero"):
        choose_theta_max(g, 5.0, 1e-3)
    with pytest.raises(SamplerError, match="cannot certify"):
        sample_keg(g, SamplerConfig(nu=5.0, seed=0))


def test_a_warm_caron_fox_draw_at_nu_1000_fits_the_default_caps():
    g = caron_fox("exp(-x)")
    graph = sample_keg(g, SamplerConfig(nu=1000.0, seed=0))
    assert graph.n_edges > 7e5


# --------------------------------------------------------------------------
# blocks of replicates
# --------------------------------------------------------------------------

BLOCK_CASES = {
    "lazy": (SLOW, 10.0, 1e-2),
    # loops on heavy and light lazy points: f > 1/2 below ln 2
    "lazy-loops": (build({"family": "fast-decay", "self_edges": True}), 3.0, 1e-3),
    "full": (FAST, 20.0, 1e-3),
    # every point heavy: heavy coins only, and self loops on a full cloud
    "full-loops": (build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
                          "self_edges": True}), 6.0, 1e-3),
    "caron-fox": (build({"family": "caron-fox", "exprs": {"g": "5*exp(-3*x)"},
                         "self_edges": True}), 5.0, 1e-3),
    "naive": (build({"family": "custom", "exprs": {"W": "exp(-x-y)"}, "self_edges": True}),
              4.0, 1e-3),
    "stars-isolated": (STAR_ISO, 5.0, 1e-3),
    "full-stars-isolated-loops": (
        build({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.2,
               "self_edges": True}), 4.0, 1e-3),
}
# small seeds, and seeds past 2^63 and past 2^64, whose streams mask them
BLOCK_SEEDS = [*range(20), 2**63 + 7, 2**64 - 1, 2**64 + 3]


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_a_block_of_replicates_draws_each_as_a_block_of_one(case):
    # every replicate of a block is, to the bit, the graph a block of one
    # (sample_keg) draws at its seed: each stream gets the same calls
    g, nu, eps = BLOCK_CASES[case]
    cfg = SamplerConfig(nu=nu, seed=0, eps=eps)
    lazy = _plan(g, cfg).engine == _LAZY
    assert lazy == case.startswith("lazy")
    alone = [sample_keg(g, dataclasses.replace(cfg, seed=seed)) for seed in BLOCK_SEEDS]
    for size in (1, 7, _block_size(g, cfg)[0]):
        for labels in (True, False):
            for b0 in range(0, len(BLOCK_SEEDS), size):
                seeds = BLOCK_SEEDS[b0:b0 + size]
                block = _draw(g, cfg, seeds, labels=labels)
                assert block.reps == len(seeds)
                for i, want in enumerate(alone[b0:b0 + size]):
                    got = block.graph(i) if labels else None
                    v0, v1 = block.vertex_start[i], block.vertex_start[i + 1]
                    e0, e1 = block.edge_start[i], block.edge_start[i + 1]
                    assert v1 - v0 == want.n_vertices
                    np.testing.assert_array_equal(block.edges[e0:e1] - v0, want.edges)
                    np.testing.assert_array_equal(block.provenance[e0:e1], want.provenance)
                    if labels:
                        np.testing.assert_array_equal(block.latent[v0:v1], want.latent)
                        np.testing.assert_array_equal(got.labels, want.labels)
                        np.testing.assert_array_equal(got.edges, want.edges)
                        assert got.seed == want.seed and got.theta_max == want.theta_max
                    else:
                        assert block.labels is None and block.latent is None
    # the cases draw something, in every stage they name
    counts = np.sum([g.edge_counts_by_provenance()["kernel"] for g in alone])
    assert counts > 0 or case == "stars-isolated"
    if "stars" in case:
        assert sum(g.edge_counts_by_provenance()["star"] for g in alone) > 0
        assert sum(g.edge_counts_by_provenance()["isolated"] for g in alone) > 0
    if "loops" in case:
        assert sum(int(np.count_nonzero(g.edges[:, 0] == g.edges[:, 1])) for g in alone) > 0
    if case == "lazy-loops":
        looped = np.concatenate([d.latent[d.edges[d.edges[:, 0] == d.edges[:, 1], 0]]
                                 for d in alone])
        heavy = on_heavy_strata(g, _plan(g, cfg).theta, looped)
        assert heavy.any() and not heavy.all()


def test_a_block_without_labels_refuses_to_make_graphs():
    block = _draw(FAST, SamplerConfig(nu=5.0, seed=0), (1, 2), labels=False)
    assert block.labels is None and block.reps == 2
    for i in range(2):
        with pytest.raises(SamplerError, match="labels=False"):
            block.graph(i)
    labelled = _draw(FAST, SamplerConfig(nu=5.0, seed=0), (1, 2))
    assert labelled.graph(1).n_edges == block.edge_start[2] - block.edge_start[1]


@pytest.mark.parametrize("spec, cfg, engine", [
    ({"family": "slow-decay"}, SamplerConfig(nu=5.0, seed=0, eps=1e-2), _LAZY),
    ({"family": "fast-decay"}, SamplerConfig(nu=20.0, seed=0), _FULL),
    # a fresh graphex given its cutoff: no cutoff has integrated ||r||_1 yet
    ({"family": "caron-fox"}, SamplerConfig(nu=50.0, seed=0, theta_max=8.0), _FULL),
    ({"family": "fast-decay"}, SamplerConfig(nu=20.0, seed=0, use_fast_path=False), _NAIVE),
    ({"family": "custom", "exprs": {"W": "exp(-x-y)"}}, SamplerConfig(nu=3.0, seed=0), _NAIVE),
], ids=["spec0-cfg0-lazy strata", "spec1-cfg1-full cloud", "spec2-cfg2-full cloud",
        "spec3-cfg3-naive", "spec4-cfg4-naive"])
def test_the_plan_estimates_the_work_of_the_engine_a_draw_runs(monkeypatch, spec, cfg, engine):
    g = build(spec)
    size, work = _block_size(g, cfg)
    theta, planned, _ = _plan(g, cfg)
    ran = []
    kernel_pairs, pairs_naive = sampler._kernel_pairs, sampler._pairs_naive
    monkeypatch.setattr(sampler, "_kernel_pairs",
                        lambda cloud, gens: ran.append(type(cloud)) or kernel_pairs(cloud, gens))
    monkeypatch.setattr(sampler, "_pairs_naive",
                        lambda *args: ran.append(None) or pairs_naive(*args))
    graph = sample_keg(g, cfg)
    runs = {_LAZY: _LazyClouds, _FULL: sampler._Clouds, _NAIVE: None}[engine]
    assert planned == engine and ran and set(ran) == {runs}
    # every engine places its visible points: here every vertex is latent
    assert graph.n_vertices and graph.latent.size == graph.n_vertices
    assert np.all((graph.latent >= 0.0) & (graph.latent <= theta))
    nu, points = cfg.nu, cfg.nu * theta
    if engine == _LAZY:
        _, bound, mass, heavy = _strata(g, theta)
        want = _C0 * (nu * mass) ** 2 + nu * heavy + bound.size
    elif engine == _FULL:
        norm = g.w_l1_value if g.rate_factor is None else g.rate_l1() ** 2
        want = points + 2.0 * nu * nu * norm
    else:
        want = points + points * points / 2.0
    assert work == pytest.approx(want, rel=1e-12)
    if spec["family"] == "caron-fox":
        # ||r||_1^2 = 2 for g = exp(-x): 400 points and 10,000 proposals,
        # where all 80,000 pairs would be coined on the naive path
        assert work == pytest.approx(10_400.0, rel=1e-9)
    # a graphex whose cutoff was computed before plans the same
    g = build(spec)
    choose_theta_max(g, cfg.nu, cfg.eps)
    assert _block_size(g, cfg) == (size, work)


def test_a_rate_factor_that_fails_at_a_quadrature_node_draws_at_a_given_cutoff():
    # g divides by zero at x = 1, a node of the rule that integrates ||r||_1
    # but no point of a draw: the draw runs, its work counted as all pairs
    g = build({"family": "caron-fox", "exprs": {"g": "exp(-x)/abs(x-1)"}})
    cfg = SamplerConfig(nu=5.0, seed=0, theta_max=5.0)
    assert _plan(g, cfg) == (5.0, _FULL, 25.0 + 25.0 ** 2 / 2.0)
    assert sample_keg(g, cfg).n_edges > 0


def test_a_large_draw_is_a_block_of_its_own():
    assert _block_size(FAST, SamplerConfig(nu=1000.0, seed=0))[0] == 1
    assert _block_size(SLOW, SamplerConfig(nu=5.0, seed=0, eps=1e-2))[0] > 100


def test_the_pair_keys_of_a_block_of_huge_lazy_clouds_fit_int64():
    # 4.2e7 latent points a draw, near max_latent_points, but little work:
    # the key span u * span + v, not the work, caps the block, and its last
    # replicate, whose keys are the largest, is still its own draw
    cfg = SamplerConfig(nu=5.0, seed=0, eps=1e-6)
    theta, engine, work = _plan(SLOW, cfg)
    assert engine == _LAZY and 0.8 < cfg.nu * theta / _MAX_LATENT_POINTS <= 1.0
    size = _block_size(SLOW, cfg)[0]
    assert 1 < size < _BLOCK_WORK // work
    span = int(_LazyClouds(SLOW, theta, cfg.nu, range(size)).base[-1])
    assert span ** 2 < 2 ** 63
    block = _draw(SLOW, cfg, range(size))
    alone = sample_keg(SLOW, dataclasses.replace(cfg, seed=size - 1))
    assert alone.n_edges > 0
    np.testing.assert_array_equal(block.graph(size - 1).edges, alone.edges)
    np.testing.assert_array_equal(block.graph(size - 1).latent, alone.latent)

