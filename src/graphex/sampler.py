"""Sampling finite graphs from a graphex.

The generative process at truncation level nu:

1. Latent points (theta_i, x_i) form a unit-rate Poisson process on
   [0, nu] x [0, inf). Points with x beyond a computed cutoff theta_max
   almost never produce edges, so the process is simulated on
   [0, nu] x [0, theta_max], with theta_max chosen so that the expected
   number of missed edges is at most ``eps``.
2. Each unordered pair gets an edge with probability W(x_i, x_j),
   independently. Each point gets a self loop with probability W(x_i, x_i)
   when self edges are enabled.
3. Each point spawns Poisson(nu * S(x_i)) star leaves, each a fresh
   degree-one vertex.
4. Poisson(I * nu^2) isolated edges appear, each joining two fresh vertices.
5. A latent point is kept only if it is visible (degree >= 1). Labels
   theta are assigned lazily: visibility is independent of the labels, so
   drawing i.i.d. U(0, nu) labels for the kept vertices afterwards leaves
   the joint law unchanged and avoids storing labels for the (often vastly
   larger) invisible majority. Kept points are indexed in latent-slot
   order, then star leaves, then isolated-edge endpoints. When a draw has
   many edge endpoints per latent slot, a boolean mask over the slots finds
   the kept points and one slot -> index table maps the endpoints; a huge
   cloud with a small visible graph sorts its few endpoints and
   binary-searches them instead, which gives the same indices.

Pair sampling has two interchangeable implementations. The naive path flips
one coin per pair in vectorised blocks, which is exact but quadratic. When
the kernel factorises as W(x, y) = f(x) f(y), the fast path is used instead:

* points with f > 1/2 are few (f is integrable), and their pairs get direct
  coins;
* for every other pair, proposals are drawn as a Poisson number
  M ~ Poi(c0 * (sum f)^2 / 2) of ordered pairs with endpoints i.i.d.
  proportional to f, so each unordered pair {i, j} is proposed a
  Poi(c0 f_i f_j) number of times independently of all others. Discarding
  self pairs and already-covered heavy pairs, deduplicating, and accepting
  each proposed pair once with probability f_i f_j / (1 - exp(-c0 f_i f_j))
  yields the edge with probability exactly f_i f_j. The constant
  c0 = -ln(1/2) / (1/2) makes the acceptance probability peak at exactly 1
  when f_i f_j = 1/2, which is the largest product a non-heavy pair can
  reach, so the acceptance probability never exceeds 1.

A proposal endpoint is the index where a uniform key scaled by sum f falls in
cumsum(f). When a draw has at least as many keys as latent points, a guide
table (Chen & Asau 1974) of 4n equal buckets maps each key to the few
indices its bucket spans: most keys settle with no comparison or one, and
the rest, in crowded buckets, get a binary search. The indices are those of
a binary search over all of cumsum(f), so every drawn number is too.

Both paths produce the same distribution; a statistical equivalence test
lives in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .graphstats import ranked_unique, sorted_unique
from .model import Graphex, GraphexError

__all__ = [
    "PROV_ISOLATED",
    "PROV_KERNEL",
    "PROV_STAR",
    "SampledGraph",
    "SamplerConfig",
    "SamplerError",
    "choose_theta_max",
    "restrict",
    "sample_keg",
    "sample_planted_degrees",
]

PROV_KERNEL = 0
PROV_STAR = 1
PROV_ISOLATED = 2
PROV_NAMES = ("kernel", "star", "isolated")

_CSV_BLOCK = 1 << 16  # edges formatted per write in SampledGraph.write_csv
_TAU = 0.5
_C0 = -math.log(1.0 - _TAU) / _TAU  # 1.3862943611...

# streams per graph draw: one per independent stage
_STREAM_LATENT = 0
_STREAM_PAIRS = 1
_STREAM_SELF = 2
_STREAM_STARS = 3
_STREAM_ISOLATED = 4
_STREAM_LABELS = 5
_STREAM_PLANTED = 6


class SamplerError(GraphexError):
    pass


class _out_stream:
    """Context manager over a path (opened/closed) or an existing stream
    (left open)."""

    def __init__(self, dest):
        self.dest = dest
        self.fh = None

    def __enter__(self):
        if hasattr(self.dest, "write"):
            return self.dest
        self.fh = open(self.dest, "w", encoding="utf-8", newline="")
        return self.fh

    def __exit__(self, *exc):
        if self.fh is not None:
            self.fh.close()
        return False


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one graph draw.

    ``eps`` is the truncation budget: the expected number of edges lost to
    the latent-space cutoff is at most eps (kernel and star edges; missed
    self loops are additionally possible but are of strictly lower order
    for any kernel whose diagonal decays at least as fast as its marginal).
    """

    nu: float
    seed: int
    eps: float = 1e-3
    theta_max: float | None = None
    retain_latent: bool = False
    use_fast_path: bool = True
    max_latent_points: float = 5e7
    max_pair_coins: float = 2e8
    max_proposals: float = 3e8

    def __post_init__(self):
        _check_level(self.nu, "nu")
        # bool is a subclass of int, but True is no seed
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise SamplerError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (isinstance(self.eps, (int, float)) and self.eps > 0):
            raise SamplerError(f"eps must be > 0, got {self.eps!r}")
        if self.theta_max is not None:
            _check_theta_max(self.theta_max)


def _check_level(nu, name: str) -> None:
    # bool is a subclass of int, but True is no truncation level
    if not (isinstance(nu, (int, float)) and not isinstance(nu, bool)
            and math.isfinite(nu) and nu >= 0):
        raise SamplerError(f"{name} must be a finite number >= 0, got {nu!r}")


def _check_theta_max(theta_max) -> None:
    if not (math.isfinite(theta_max) and theta_max >= 0):
        raise SamplerError(f"theta_max override must be finite and >= 0, got {theta_max!r}")


@dataclass
class SampledGraph:
    """One draw of a truncated graphex process.

    ``edges`` is an (E, 2) int64 array with u <= v per row, indices into
    ``labels``. ``provenance`` tags each edge 0 (kernel, including self
    loops), 1 (star leaf) or 2 (isolated pair). Only visible vertices are
    stored. ``latent`` (when retained) carries the latent coordinate of each
    vertex, NaN for star leaves and isolated endpoints, which have none.
    """

    nu: float
    seed: int
    theta_max: float
    epsilon: float
    labels: np.ndarray
    edges: np.ndarray
    provenance: np.ndarray
    latent: np.ndarray | None = None
    planted_indices: tuple[int, ...] = ()

    @property
    def n_vertices(self) -> int:
        return int(self.labels.size)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def edge_counts_by_provenance(self) -> dict:
        prov = self.provenance
        return {
            "kernel": int(np.count_nonzero(prov == PROV_KERNEL)),
            "star": int(np.count_nonzero(prov == PROV_STAR)),
            "isolated": int(np.count_nonzero(prov == PROV_ISOLATED)),
        }

    def metadata(self) -> dict:
        return {
            "nu": self.nu,
            "seed": self.seed,
            "theta_max": self.theta_max,
            "epsilon": self.epsilon,
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "edges_by_provenance": self.edge_counts_by_provenance(),
        }

    def write_csv(self, dest) -> None:
        """One row per edge: u_index,v_index,u_label,v_label,provenance.

        ``dest`` is a path or an open text stream. Labels are written as the
        ``repr`` of the float. Each vertex's index and label are formatted
        once, and rows go out in blocks of ``_CSV_BLOCK`` edges, one write per
        block, so memory stays bounded by a block's text, not the file's.
        """
        index = [str(i) for i in range(self.n_vertices)]
        label = [repr(x) for x in np.asarray(self.labels, dtype=float).tolist()]
        with _out_stream(dest) as fh:
            fh.write("u_index,v_index,u_label,v_label,provenance\n")
            for b0 in range(0, self.n_edges, _CSV_BLOCK):
                # a flat list pairs up faster than the nested one tolist()
                # makes of a 2-D block
                ends = iter(self.edges[b0:b0 + _CSV_BLOCK].ravel().tolist())
                prov = self.provenance[b0:b0 + _CSV_BLOCK].tolist()
                fh.write("".join([
                    f"{index[u]},{index[v]},{label[u]},{label[v]},{PROV_NAMES[p]}\n"
                    for u, v, p in zip(ends, ends, prov)]))

    def write_latent_csv(self, dest) -> None:
        if self.latent is None:
            raise SamplerError("latent coordinates were not retained for this graph")
        with _out_stream(dest) as fh:
            fh.write("vertex_index,latent\n")
            for i, x in enumerate(self.latent.tolist()):
                fh.write(f"{i},{float(x)!r}\n")

    def write_metadata(self, dest) -> None:
        with _out_stream(dest) as fh:
            json.dump(self.metadata(), fh, sort_keys=True, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Truncation level
# ---------------------------------------------------------------------------

def choose_theta_max(g: Graphex, nu: float, eps: float) -> float:
    """Smallest latent cutoff whose expected missed-edge count is <= eps.

    The certified budget at cutoff a is nu^2 * (tail_mu(a) + tail_S(a)):
    every kernel edge with an endpoint past a is counted through that
    endpoint's expected degree nu * mu, and star edges through nu * S.
    """
    if nu < 0 or not math.isfinite(nu):
        raise SamplerError(f"nu must be finite and >= 0, got {nu!r}")
    if eps <= 0:
        raise SamplerError(f"eps must be > 0, got {eps!r}")
    if nu == 0.0 or (g.w is None and g.s is None):
        return 0.0
    if math.isfinite(g.support) and g.s is None:
        return g.support
    # the cutoff is pure in (g, nu, eps) and black-box tails make it dear;
    # replicate loops hit the same triple thousands of times
    cache_key = ("theta_max", float(nu), float(eps))
    cached = g._cache.get(cache_key)
    if cached is not None:
        return cached

    # closed-form tails cost nanoseconds per probe, so resolve the crossing
    # to full precision; black-box tails cost a quadrature (nested, when the
    # marginal is numeric too) per probe, and the budget test only needs the
    # tail to a few digits, so probe loosely and stop the bisection early.
    # The certificate is then exact up to quadrature error, which it always
    # was for numeric tails.
    analytic = ((g.w is None or g.tail_mu_fn is not None)
                and (g.s is None or g.tail_s_fn is not None))
    probe_tol = 1e-9 if analytic else 1e-4
    width_tol = 1e-12 if analytic else 1e-4

    def budget(a: float) -> float:
        t = 0.0
        if g.w is not None:
            t += g.tail_mu(a, probe_tol)
        if g.s is not None:
            t += g.tail_s(a, probe_tol)
        return nu * nu * t

    try:
        if budget(0.0) <= eps:
            g._cache[cache_key] = 0.0
            return 0.0
        hi = 1.0
        while budget(hi) > eps:
            hi *= 2.0
            if hi > 1e300:
                raise SamplerError("no finite truncation level meets the budget; "
                                   "the kernel or star tail decays too slowly")
        lo = hi / 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if budget(mid) > eps:
                lo = mid
            else:
                hi = mid
            if hi - lo <= width_tol * max(1.0, hi):
                break
    except GraphexError as err:
        raise SamplerError(
            f"cannot certify a truncation level: {err}. A non-integrable kernel "
            "cannot be sampled; one with jumps can, given theta_max (--theta-max)") from err
    g._cache[cache_key] = hi
    return hi


# ---------------------------------------------------------------------------
# Kernel edges
# ---------------------------------------------------------------------------

_GUIDE_PER_POINT = 4  # guide-table buckets per entry of cum


def _endpoints(cum: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, keys, side="right")`` for a non-empty,
    nondecreasing ``cum``, found through a guide table (Chen & Asau 1974) when there are
    at least as many keys as entries.

    The table cuts [0, total] into K = 4n buckets with edges
    e_j = j * (total / K), the outer two widened to -inf and +inf, and holds
    guide[j] = searchsorted(cum, e_j, side="right"). A key y with
    e_b <= y < e_{b+1} has its answer in [guide[b], guide[b+1]]: a span of 0
    gives it outright, a span of 1 takes one comparison, and the few keys in
    wider spans go to a binary search of their own. The answer is the same
    index in every case, so draws through it stay bit-identical.
    """
    n = cum.size
    total = float(cum[-1])
    k = _GUIDE_PER_POINT * n
    # a table cannot pay for itself over fewer keys, and a total that is
    # denormal or infinite leaves the bucket width or its inverse unusable
    if keys.size < n or not (math.isfinite(total) and total / k >= np.finfo(float).tiny):
        return np.searchsorted(cum, keys, side="right")
    edges = np.arange(k + 1) * (total / k)
    edges[0] = -np.inf
    edges[-1] = np.inf
    guide = np.searchsorted(cum, edges, side="right")

    b = (keys * (k / total)).astype(np.intp)
    np.clip(b, 0, k - 1, out=b)
    # the estimate can sit one bucket off next to an edge; settle it against
    # the stored edges so that e_b <= y < e_{b+1} holds exactly
    b -= keys < edges[b]
    b += keys >= edges[b + 1]
    out = guide[b]
    span = guide[b + 1] - out
    one = span == 1
    out[one] += cum[out[one]] <= keys[one]
    wide = np.flatnonzero(span > 1)
    out[wide] = np.searchsorted(cum, keys[wide], side="right")
    return out


def _pairs_fast(g: Graphex, pts: np.ndarray, gen, cfg: SamplerConfig) -> np.ndarray:
    """Separable fast path; see the module docstring for the scheme."""
    n = pts.size
    # clipped in place; pts itself is still needed for self loops, stars and
    # retain_latent, so an f that is pts (or a view of it) is copied first
    f = np.require(np.asarray(g.separable_f(pts), dtype=float), requirements="W")
    if np.shares_memory(f, pts):
        f = f.copy()
    np.clip(f, 0.0, 1.0, out=f)
    chunks = []

    heavy = np.nonzero(f > _TAU)[0]
    h = heavy.size
    if h >= 2:
        if h * (h - 1) / 2 > cfg.max_pair_coins:
            raise SamplerError(
                f"{h} latent points have f > {_TAU}; too many heavy pairs to coin "
                "(raise max_pair_coins or lower nu)")
        iu, ju = np.triu_indices(h, k=1)
        a = heavy[iu]
        b = heavy[ju]
        p = f[a] * f[b]
        keep = gen.random(p.size) < p
        chunks.append(np.column_stack((a[keep], b[keep])))

    s_all = float(f.sum())
    if s_all > 0.0:
        lam = _C0 * s_all * s_all / 2.0
        if lam > cfg.max_proposals:
            raise SamplerError(
                f"the proposal rate {lam:.3g} exceeds max_proposals; "
                "lower nu or raise the cap")
        m = int(gen.poisson(lam))
        if m:
            cum = np.cumsum(f)
            # the u keys, then the v keys, drawn in that order
            keys = np.empty(2 * m)
            gen.random(out=keys[:m])
            gen.random(out=keys[m:])
            keys *= cum[-1]
            ends = _endpoints(cum, keys)
            np.minimum(ends, n - 1, out=ends)
            u = ends[:m]
            v = ends[m:]
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            ok = (lo != hi) & ~((f[lo] > _TAU) & (f[hi] > _TAU))
            # the keys come out ascending, as from np.unique, so the
            # acceptance coins below fall on the same pairs
            lo, hi = np.divmod(
                sorted_unique(lo[ok].astype(np.int64, copy=False) * n + hi[ok]), n)
            p = f[lo] * f[hi]
            accept = gen.random(p.size) < p / (-np.expm1(-_C0 * p))
            chunks.append(np.column_stack((lo[accept], hi[accept])))

    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.vstack(chunks).astype(np.int64, copy=False)


_NAIVE_BLOCK = 2048


def _pairs_naive(g: Graphex, pts: np.ndarray, gen, cfg: SamplerConfig) -> np.ndarray:
    n = pts.size
    if n * (n - 1) / 2 > cfg.max_pair_coins:
        raise SamplerError(
            f"{n} latent points means {n * (n - 1) // 2} pair coins, over the cap; "
            "use a separable family (fast path) or raise max_pair_coins")
    us = []
    vs = []
    for i0 in range(0, n, _NAIVE_BLOCK):
        xi = pts[i0:i0 + _NAIVE_BLOCK]
        for j0 in range(i0, n, _NAIVE_BLOCK):
            xj = pts[j0:j0 + _NAIVE_BLOCK]
            prob = np.asarray(g.w_at(xi[:, None], xj[None, :]), dtype=float)
            hits = gen.random(prob.shape) < prob
            if j0 == i0:
                hits &= np.triu(np.ones(hits.shape, dtype=bool), k=1)
            ii, jj = np.nonzero(hits)
            us.append(ii + i0)
            vs.append(jj + j0)
    if not us:
        return np.empty((0, 2), dtype=np.int64)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    return np.column_stack((u, v)).astype(np.int64)


# ---------------------------------------------------------------------------
# Full draw
# ---------------------------------------------------------------------------

def sample_keg(g: Graphex, cfg: SamplerConfig, planted=()) -> SampledGraph:
    """Draw one graph. ``planted`` lists latent coordinates of extra points
    that join the latent cloud deterministically and are always kept in the
    vertex set, visible or not (their final indices are reported in
    ``planted_indices``)."""
    nu = float(cfg.nu)
    if not math.isfinite(g.isolated_rate):
        raise SamplerError("the isolated-edge rate is infinite; the graph would have "
                           "infinitely many edges")
    theta = cfg.theta_max if cfg.theta_max is not None else choose_theta_max(g, nu, cfg.eps)

    expected_points = nu * theta
    if expected_points > cfg.max_latent_points:
        raise SamplerError(
            f"the truncation level {theta:.6g} implies ~{expected_points:.3g} latent "
            "points, over max_latent_points; raise eps or the cap")

    gen_lat = rngmod.stream(cfg.seed, _STREAM_LATENT)
    n_cloud = int(gen_lat.poisson(expected_points)) if expected_points > 0 else 0
    pts = gen_lat.uniform(0.0, theta, n_cloud) if n_cloud else np.empty(0)

    planted = tuple(float(x) for x in planted)
    for x in planted:
        if not (math.isfinite(x) and x >= 0):
            raise SamplerError(f"planted latent coordinates must be finite and >= 0, "
                               f"got {x!r}")
    if planted:
        pts = np.concatenate((pts, np.asarray(planted)))
    n = pts.size
    planted_slots = np.arange(n_cloud, n, dtype=np.int64)

    # kernel pairs
    if g.w is not None and n >= 2:
        gen_pairs = rngmod.stream(cfg.seed, _STREAM_PAIRS)
        if cfg.use_fast_path and g.separable_f is not None:
            kernel_uv = _pairs_fast(g, pts, gen_pairs, cfg)
        else:
            kernel_uv = _pairs_naive(g, pts, gen_pairs, cfg)
    else:
        kernel_uv = np.empty((0, 2), dtype=np.int64)

    # self loops
    if g.self_edges and g.diag is not None and n:
        d = np.clip(np.asarray(g.diag_at(pts), dtype=float), 0.0, 1.0)
        hit = np.nonzero(rngmod.stream(cfg.seed, _STREAM_SELF).random(n) < d)[0]
        if hit.size:
            loops = np.column_stack((hit, hit)).astype(np.int64)
            kernel_uv = np.vstack((kernel_uv, loops)) if kernel_uv.size else loops

    # star leaves
    if g.s is not None and n:
        rates = nu * np.clip(np.asarray(g.s_at(pts), dtype=float), 0.0, None)
        leaves = rngmod.stream(cfg.seed, _STREAM_STARS).poisson(rates)
        hubs = np.repeat(np.arange(n, dtype=np.int64), leaves)
    else:
        hubs = np.empty(0, dtype=np.int64)

    # isolated edges
    n_iso = 0
    if g.isolated_rate > 0.0 and nu > 0.0:
        n_iso = int(rngmod.stream(cfg.seed, _STREAM_ISOLATED).poisson(g.isolated_rate * nu * nu))

    # visibility and final indexing: the kept latent slots in slot order, and
    # each endpoint's index among them
    n_pair_ends = kernel_uv.size
    visible, index = ranked_unique(np.concatenate((kernel_uv.ravel(), hubs, planted_slots)))
    v0 = visible.size
    n_leaves = hubs.size
    n_vertices = v0 + n_leaves + 2 * n_iso

    rows = []
    provs = []
    if kernel_uv.shape[0]:
        rows.append(index[:n_pair_ends].reshape(kernel_uv.shape))
        provs.append(np.zeros(kernel_uv.shape[0], dtype=np.uint8))
    if n_leaves:
        leaf_ids = v0 + np.arange(n_leaves, dtype=np.int64)
        rows.append(np.column_stack((index[n_pair_ends:n_pair_ends + n_leaves], leaf_ids)))
        provs.append(np.full(n_leaves, PROV_STAR, dtype=np.uint8))
    if n_iso:
        base = v0 + n_leaves
        left = base + 2 * np.arange(n_iso, dtype=np.int64)
        rows.append(np.column_stack((left, left + 1)))
        provs.append(np.full(n_iso, PROV_ISOLATED, dtype=np.uint8))

    if rows:
        edges = np.vstack(rows).astype(np.int64, copy=False)
        provenance = np.concatenate(provs)
        # one stable sort on a combined key is the lexicographic order of
        # (u, v, provenance) at half the cost of np.lexsort; u, v < n_vertices
        # and provenance < 3, so the key fits int64 below 1.7e9 vertices
        key = (edges[:, 0] * n_vertices + edges[:, 1]) * len(PROV_NAMES) + provenance
        order = np.argsort(key, kind="stable")
        edges = edges[order]
        provenance = provenance[order]
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        provenance = np.empty(0, dtype=np.uint8)

    labels = rngmod.stream(cfg.seed, _STREAM_LABELS).uniform(0.0, nu, n_vertices) \
        if n_vertices else np.empty(0)

    latent = None
    if cfg.retain_latent:
        latent = np.full(n_vertices, np.nan)
        latent[:v0] = pts[visible]

    planted_final = tuple(index[n_pair_ends + n_leaves:].tolist())

    return SampledGraph(
        nu=nu, seed=cfg.seed, theta_max=float(theta), epsilon=float(cfg.eps),
        labels=labels, edges=edges, provenance=provenance,
        latent=latent, planted_indices=planted_final,
    )


def restrict(graph: SampledGraph, nu_new: float) -> SampledGraph:
    """Restrict a sampled graph to labels in [0, nu_new].

    Keeps exactly the edges whose both endpoint labels are <= nu_new and the
    vertices that stay visible. By projectivity this has the same law as
    sampling at nu_new directly (up to the truncation budget, which is
    slightly more generous here since theta_max was chosen for the larger nu).
    """
    _check_level(nu_new, "nu_new")
    if nu_new > graph.nu:
        raise SamplerError(f"cannot restrict to nu = {nu_new}, the graph was sampled "
                           f"at nu = {graph.nu}")
    lab = graph.labels
    edges = graph.edges
    keep = (lab[edges[:, 0]] <= nu_new) & (lab[edges[:, 1]] <= nu_new)
    kept = edges[keep]
    # a kept vertex's new id is its rank among the kept ids
    old_ids, new_ids = ranked_unique(kept.ravel())
    return SampledGraph(
        nu=float(nu_new), seed=graph.seed, theta_max=graph.theta_max,
        epsilon=graph.epsilon, labels=lab[old_ids],
        edges=new_ids.reshape(kept.shape),
        provenance=graph.provenance[keep],
        latent=graph.latent[old_ids] if graph.latent is not None else None,
        planted_indices=(),
    )


# ---------------------------------------------------------------------------
# Planted-degree draws (vectorised across replicates)
# ---------------------------------------------------------------------------

def sample_planted_degrees(g: Graphex, nu: float, lam: float, reps: int, seed: int,
                           eps: float = 1e-3, theta_max: float | None = None) -> np.ndarray:
    """Kernel degree of a point planted at latent coordinate lam, one draw
    per replicate.

    Only edges between the planted point and the ambient cloud are drawn,
    one Bernoulli coin per cloud point with probability W(lam, x); cloud-to-
    cloud edges cannot change the planted point's degree, so skipping them
    lets all replicates run as a handful of array operations. Self loops are
    excluded: this is the degree toward other points.
    """
    if g.w is None:
        raise SamplerError("the graphex has no kernel, the planted degree is always 0")
    if not (isinstance(reps, int) and reps >= 1):
        raise SamplerError(f"reps must be a positive integer, got {reps!r}")
    if not (math.isfinite(lam) and lam >= 0):
        raise SamplerError(f"lam must be finite and >= 0, got {lam!r}")
    _check_level(nu, "nu")
    if theta_max is not None:
        _check_theta_max(theta_max)
    theta = theta_max if theta_max is not None else choose_theta_max(g, nu, eps)
    gen = rngmod.stream(seed, _STREAM_PLANTED)
    counts = gen.poisson(nu * theta, size=reps).astype(np.int64)
    degrees = np.empty(reps, dtype=np.int64)
    chunk_budget = 20_000_000
    r0 = 0
    while r0 < reps:
        r1 = r0 + 1
        total = int(counts[r0])
        while r1 < reps and total + counts[r1] <= chunk_budget:
            total += int(counts[r1])
            r1 += 1
        pos = gen.uniform(0.0, theta, total)
        # W(lam, x) is a fresh array (or aliases pos, which is not needed
        # again), so clip it in place; drop both before the next chunk's draw
        w = np.require(g.w_at(lam, pos), dtype=float, requirements="W")
        del pos
        np.clip(w, 0.0, 1.0, out=w)
        hit = gen.random(total) < w
        del w
        # hits of replicate i are those at positions bounds[i] .. bounds[i+1]
        bounds = np.concatenate(([0], np.cumsum(counts[r0:r1])))
        degrees[r0:r1] = np.diff(np.flatnonzero(hit).searchsorted(bounds))
        r0 = r1
    return degrees
