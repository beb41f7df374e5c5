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
   the kept points and one slot -> index table maps the endpoints, in place
   and a bounded slice at a time; a huge cloud with a small visible graph
   sorts its few endpoints and binary-searches them instead, which gives
   the same indices.

Pair sampling has three interchangeable implementations. The naive path
flips one coin per pair in vectorised blocks, which is exact but quadratic.
When the kernel factorises as W(x, y) = f(x) f(y), the fast path is used
instead:

* points with f > 1/2 are few (f is integrable), and their pairs get direct
  coins;
* every other pair {u, v}, u < v, is proposed a Poi(c0 f_u f_v) number of
  times, independently of all others, and only from its lower slot u (as
  Batagelj & Brandes 2005 and Miller & Hagberg 2011 walk Chung-Lu pairs):
  slot u draws K_u ~ Poi(c0 f_u R_u) partners v > u in proportion to f_v,
  where R_u is the f-mass of every later slot for a light u and of the
  later light slots only for a heavy u. Deduplicating the keys u * n + v
  and accepting each proposed pair once with probability
  f_u f_v / (1 - exp(-c0 f_u f_v)) yields the edge with probability exactly
  f_u f_v. The constant c0 = -ln(1/2) / (1/2) makes the acceptance
  probability peak at exactly 1 when f_u f_v = 1/2, which is the largest
  product a non-heavy pair can reach, so the acceptance probability never
  exceeds 1.

When W(x, y) = 1 - exp(-r(x) r(y)) off the diagonal (caron-fox, with
r = sqrt(2) g; Caron & Fox 2017, section 3), the same ordered proposals run
with f = r and c0 = 1, unclipped and with no heavy slot: pair {u, v} is
proposed a Poi(r_u r_v) number of times, and it is an edge exactly when that
count is positive, so the distinct keys are the edges, with no acceptance
coin. Self loops keep their coin, 1 - exp(-g^2).

A partner is the index where a key, uniform on [C_u, C_n) for the cumulative
f C of the slot's table (cumsum(f), or cumsum of f with heavy slots zeroed),
falls in that table; each later slot v of the table holds [C_{v-1}, C_v).
Where many keys search a long table, a guide table (Chen & Asau 1974; see
``_Guide``) finds the indices a binary search would, so every drawn
number is the same either way. The kernel rows come out in (u, v) order,
heavy and light runs merged with the self loops, whose key s * span + s
puts them before the pairs (s, v > s), and keep it through the slot ->
index map; star and isolated rows are merged in by first column, so
``_draw`` sorts nothing.

Lazy clouds. In a sparse draw almost every latent point stays invisible.
When the family declares f nonincreasing (slow-decay, fast-decay, constant)
and there is no star rate, [0, theta_max] is cut into strata [a_l, a_{l+1})
inside which f falls by at most a small ratio, and F_l = min(f(a_l), 1)
bounds f there. Only the counts n_l ~ Poi(nu (a_{l+1} - a_l)) are drawn up
front (Poisson thinning, Lewis & Shedler 1979), and the scheme above runs
with f replaced by F, as Miller & Hagberg (2011) do for Chung-Lu graphs,
except that the proposals are M ~ Poi(c0 (sum F)^2 / 2) ordered pairs with
both endpoints i.i.d. in proportion to F, less self pairs and heavy-heavy
ones: an endpoint is a stratum chosen in proportion to n_l F_l and a uniform
index in it; a point gets its position, uniform in its stratum, only where
touched; a pair is accepted with probability
f_i f_j / (1 - exp(-c0 F_i F_j)).
Strata with F > 1/2 are heavy, and the other points' self loops are thinned
against F^2 alike. A drawn f(x) over its bound raises SamplerError.
theta_max and the law of the draw stay those of the full cloud; the streams
differ, and kept points are indexed stratum by stratum. The full cloud stays
where the expected proposal endpoints and heavy points number at least the
latent points, and for a user ``separable`` f or a star rate, which declare
no bound; any other kernel takes the naive path, the reference. ``_plan``
alone makes this choice, with the cutoff and the expected work of a draw,
and the ``_MAX_*`` constants cap a draw's latent points, pair coins and
proposals.

The engines share one interface. ``_plan`` names the engine's class, and
``Engine(g, theta, nu, seeds)`` draws the block's latent stream, the Poisson
cloud alone. It gives each replicate's slots ``n`` and first slot ``base``,
the kernel rows ``pairs(g, gens)``, pairs and self loops drawn from the
streams ``gens(stream)`` gives, and ``positions(slots)``, latent
coordinates; ``_draw`` runs every engine alike.

All paths produce the same distribution; differential tests in the test
suite hold the full cloud, the lazy cloud and the Caron-Fox construction
against the naive path.

Blocks of replicates. One engine, ``_draw``, draws a block of replicates at
one configuration, one child seed each, and ``sample_keg`` is its block of
one. Each (replicate, stream) generator gets the calls a draw of its own
makes, with the same sizes and in the same order; where a stream's later
call depends on a stage that runs over the whole block (the coins of the
distinct proposals), the call is made at once, for as many values as could
be needed, which draws the same numbers, since a coin is one uniform and
nothing reads the stream after it. Every stage between the calls runs once
over the block: the latent strata or points, positions through
``uniform_at``, partner searches, dedupe, acceptance, self loops,
visibility and indexing. Slots and vertex ids run through the block,
replicate by replicate, and the key of a pair of slots u < v is
u * span + v, span the block's number of slots, so a sort or a dedupe over
the block keeps each replicate's own order, and a search in a replicate's
own table is done row by row or, for many small rows, as one search of the
pairs (replicate, value). Stars, isolated edges, labels and the naive path
loop over the replicates. ``_block_size`` sets how many replicates share a
block from the expected work of one draw (``_plan``), so a large draw is a
block of its own.

Range by range. Every proposal of a full cloud comes from the entry of its
lower slot u, so the keys proposed from a range of lower slots dedupe on
their own and come after those of every earlier range. ``pair_keys`` takes
the ranges of about ``_CHUNK_KEYS`` keys in slot order: each gathers its
light-table and heavy-table uniforms, searches its partners through guide
tables built once per draw, dedupes, looks up its coins and is accepted
before the next begins; a lazy cloud, whose keys come in no such order,
dedupes them at once and accepts them in slices as long. The heavy pairs are
coined over rows of ``np.triu_indices`` order as many at a time. While later
ranges come, a range's accepted keys are kept as offsets from its first
possible key, in 32 bits where they fit, as are the heavy keys where every
key of the block does; the rows are written at the end, range by range,
with the heavy and loop keys merged in. Only the drawn numbers (partner
uniforms and coins, one value per proposal) and the slot tables are
full-size while the ranges run, so a fast-decay draw at nu = 1000 peaks at
1.7 times the graph it returns (15.1 against 8.9 MB), with self edges or
not. A block whose work fits in one range, as every block of several
replicates does, is one range.
The ranges re-slice numbers already drawn, so every draw is the same at any
``_CHUNK_KEYS``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .expr import EvalError
from .graphstats import fills, ranked_unique, sorted_unique
from .model import Graphex, GraphexError, _finite, _number

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

# edges formatted per write in SampledGraph.write_csv. Its text and object
# arrays hold about 160 bytes an edge: 3.5 MB at this size, 10.7 at 1 << 16
# (tracemalloc, fast-decay nu = 1000), which is more than the draw holds
_CSV_BLOCK = 1 << 14
_TAU = 0.5
_C0 = -math.log(1.0 - _TAU) / _TAU  # 1.3862943611...

# caps on one draw: the expected latent points nu * theta_max, also of a lazy
# draw; the coins of the naive path and of the heavy pairs; and the expected
# pair proposals, sum c0 f_u R_u of a full cloud, c0 (sum F)^2 / 2 of a lazy one
_MAX_LATENT_POINTS = 5e7
_MAX_PAIR_COINS = 2e8
_MAX_PROPOSALS = 3e8

# streams per graph draw: one per independent stage
_STREAM_LATENT = 0
_STREAM_PAIRS = 1
_STREAM_SELF = 2
_STREAM_STARS = 3
_STREAM_ISOLATED = 4
_STREAM_LABELS = 5
_STREAM_DEGREES = 6  # the one stream of sample_planted_degrees


class SamplerError(GraphexError):
    pass


def _out_stream(dest):
    """A context over a path (opened and closed) or a stream (left open)."""
    if hasattr(dest, "write"):
        return contextlib.nullcontext(dest)
    return open(dest, "w", encoding="utf-8", newline="")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one graph draw.

    ``eps`` is the truncation budget: the expected number of edges lost to
    the latent-space cutoff is at most eps (kernel and star edges; missed
    self loops are additionally possible but are of strictly lower order
    for any kernel whose diagonal decays at least as fast as its marginal).
    ``theta_max`` sets the cutoff in place of eps, and
    ``use_fast_path=False`` coins every pair on the naive path, the
    reference. The caps on a draw's size are module constants. A NumPy
    integer seed is stored as a Python int.
    """

    nu: float
    seed: int
    eps: float = 1e-3
    theta_max: float | None = None
    use_fast_path: bool = True

    def __post_init__(self):
        _check_level(self.nu, "nu")
        if not (_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise SamplerError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        _check_eps(self.eps)
        if self.theta_max is not None:
            _check_level(self.theta_max, "theta_max")


def _check_level(nu, name: str) -> None:
    if not (_finite(nu) and nu >= 0):
        raise SamplerError(f"{name} must be a finite number >= 0, got {nu!r}")


def _check_eps(eps) -> None:
    if not ((_finite(eps) or eps == math.inf) and eps > 0):
        raise SamplerError(f"eps must be > 0, got {eps!r}")


@dataclass
class SampledGraph:
    """One draw of a truncated graphex process.

    ``edges`` is an (E, 2) int64 array with u <= v per row, indices into
    ``labels``. ``provenance`` tags each edge 0 (kernel, including self
    loops), 1 (star leaf) or 2 (isolated pair). Only visible vertices are
    stored. ``latent`` carries the latent coordinate of each vertex, NaN for
    star leaves and isolated endpoints, which have none; every drawn graph
    has it, and a graph built without it cannot write it.
    """

    nu: float
    seed: int
    theta_max: float
    epsilon: float
    labels: np.ndarray
    edges: np.ndarray
    provenance: np.ndarray
    latent: np.ndarray | None = None

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
        ``repr`` of the float. Each vertex's ``"i,"`` and ``"label,"`` are
        formatted once, into object arrays. Rows go out in blocks of
        ``_CSV_BLOCK`` edges: a block gathers its five fields per row into
        one object array by the edge and provenance arrays, and is written by
        one ``"".join``, so memory stays bounded by a block's text, not the
        file's.
        """
        index = np.array([f"{i}," for i in range(self.n_vertices)], dtype=object)
        label = np.array([f"{x!r}," for x in np.asarray(self.labels, dtype=float).tolist()],
                         dtype=object)
        prov = np.array([f"{name}\n" for name in PROV_NAMES], dtype=object)
        with _out_stream(dest) as fh:
            fh.write("u_index,v_index,u_label,v_label,provenance\n")
            for b0 in range(0, self.n_edges, _CSV_BLOCK):
                uv = self.edges[b0:b0 + _CSV_BLOCK]
                fields = np.empty((uv.shape[0], 5), dtype=object)
                fields[:, :2] = index[uv]
                fields[:, 2:4] = label[uv]
                fields[:, 4] = prov[self.provenance[b0:b0 + _CSV_BLOCK]]
                fh.write("".join(fields.ravel().tolist()))

    def write_latent_csv(self, dest) -> None:
        if self.latent is None:
            raise SamplerError("this graph carries no latent coordinates")
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

    Where ``Graphex.w_l1_bound`` is the majorant ||r||_1^2 of a kernel
    W = 1 - exp(-r(x) r(y)), ``Graphex.majorant_tail``, ||r||_1 * (integral
    of r past a), takes the place of tail_mu(a): W <= r(x) r(y), so the
    budget stays an upper bound, and each probe costs one single integral
    instead of a nested one. Where ||r||_1 does not converge, the nested
    tail_mu is used.
    """
    _check_level(nu, "nu")
    _check_eps(eps)
    if nu == 0.0:
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
    analytic = g.tail_mu_fn is not None and (g.s is None or g.tail_s_fn is not None)
    probe_tol = 1e-9 if analytic else 1e-4
    width_tol = 1e-12 if analytic else 1e-4

    def budget(a: float) -> float:
        return nu * nu * (tail_mu(a, probe_tol) + g.tail_s(a, probe_tol))

    try:
        bound = g.w_l1_bound()
        tail_mu = g.majorant_tail if bound and bound[1] == "majorant" else g.tail_mu
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
    # an expression that fails at a quadrature node (a division by zero off
    # the build's probe grid, say) leaves the tail unknown too
    except (GraphexError, EvalError) as err:
        raise SamplerError(
            f"cannot certify a truncation level: {err}. A non-integrable kernel "
            "cannot be sampled; one with jumps can, given theta_max (--theta-max)") from err
    g._cache[cache_key] = hi
    return hi


# ---------------------------------------------------------------------------
# Kernel edges
# ---------------------------------------------------------------------------

# keys per range of a large draw's pair-key pipeline: it searches, dedupes,
# coins and accepts its proposals range by range of lower slots, so it holds
# one range's temporaries, not the whole draw's, and it maps its endpoints to
# vertex ids as many at a time. Twice _BLOCK_WORK, so a block of replicates,
# whose expected work stays under that, is one range. Against whole-draw
# passes, on 2 cores, the pooled degdist level of fast-decay at nu = 1000 ran
# 11% slower at 1 << 14, from the cost of each range, and 8% faster at this
# size; at 1 << 16 the draw holds 1.4 MB more (tracemalloc)
_CHUNK_KEYS = 1 << 15

_GUIDE_PER_POINT = 4  # guide-table buckets per entry of cum
# binary-search probes, keys * log2(entries), from which a guide table pays
# for its fixed cost of about 45 us. On 2 cores: 1.9k keys over 71 strata, 23
# us plain and 62 by table; 1.7k keys over 1.6k points, 150 and 120 us; and
# 3-9x faster by table on 3.4k-21k points with 5.5k-380k keys
_GUIDE_PROBES = 1 << 14


class _Guide:
    """``np.searchsorted(cum, keys, side="right")`` for a non-empty,
    nondecreasing ``cum``, for keys that number ``n_keys`` in all and may come
    in several calls: found through a guide table (Chen & Asau 1974), built
    once, where ``_guided`` finds that it pays.

    A value y falls in bucket B(y) = int(y * (K / total)), clipped to
    [0, K - 1], of K = 4n buckets. B is nondecreasing in y as computed in
    floating point, so every entry of cum in a lower bucket than a key is
    below it and every entry in a higher one above it: the answer for a key
    in bucket b is guide[b] = #{c : B(c) < b} plus the number of the bucket's
    own entries that are <= the key. Where the bucket holds at most one
    entry, one comparison with cum[guide[b]] (+inf past the end) counts
    them; the few keys in crowded buckets get a binary search, sorted first.
    The answer is the same index in every case, so draws through it stay
    bit-identical.
    """

    def __init__(self, cum: np.ndarray, n_keys: int):
        self.cum, self.start = cum, None
        if not _guided(cum, n_keys):
            return
        self.k = _GUIDE_PER_POINT * cum.size
        self.scale = self.k / float(cum[-1])
        guide = np.concatenate(([0], np.cumsum(np.bincount(self._bucket(cum), minlength=self.k))))
        # the start of each bucket, or -1 for a crowded one, in 32 bits: a
        # draw keeps its rows' tables while it searches, and a row holds at
        # most a block's slots (``_block_size``) or ``_strata``'s grid
        start = guide[:-1]
        start[guide[1:] - start > 1] = -1
        self.start = start.astype(np.int32)
        self.padded = np.append(cum, np.inf)

    def _bucket(self, y):
        b = (y * self.scale).astype(np.intp)
        return np.clip(b, 0, self.k - 1, out=b)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        if self.start is None:
            return np.searchsorted(self.cum, keys, side="right")
        out = self.start[self._bucket(keys)].astype(np.intp)
        out += self.padded[out] <= keys  # -1 reads +inf: no change
        wide = np.flatnonzero(out < 0)
        if wide.size:
            order = np.argsort(keys[wide])
            wide = wide[order]
            out[wide] = np.searchsorted(self.cum, keys[wide], side="right")
        return out


def _guided(cum: np.ndarray, n_keys: int) -> bool:
    """Whether n_keys keys search cum through a guide table: where they
    number at least its entries and make at least ``_GUIDE_PROBES``
    binary-search probes, since a table cannot pay for itself over fewer, and
    where its total is neither denormal nor infinite, which would leave the
    bucket width or its inverse unusable."""
    n = cum.size
    if n_keys < n or n_keys * math.log2(n) < _GUIDE_PROBES:
        return False
    total = float(cum[-1])
    return math.isfinite(total) and total / (_GUIDE_PER_POINT * n) >= np.finfo(float).tiny


# keys per row from which a table is searched row by row; measured on 2
# cores, the search at once costs 4x less at 100 keys per row, 4x more at
# 7,000
_ROW_KEYS = 1024


def _search_row(row: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(row, keys, side="right")``, except that a key that
    rounds up to the row's total goes to the first index holding it."""
    where = _Guide(row, keys.size)(keys)
    return np.minimum(where, np.searchsorted(row, row[-1]), out=where)


class _Partners:
    """Where each key falls in its row of a table whose rows are
    nondecreasing: ``np.searchsorted(row, key, side="right")``, except that a
    key that rounds up to the row's total goes to the first index holding
    the total. ``counts[r]`` keys fall in row r in all; they may come in
    several calls, each with its keys row by row and its own counts.

    A table of at most two rows (one draw's light and heavy tables), or one
    with ``_ROW_KEYS`` keys per row, is searched row by row, through the
    guide table of ``_Guide`` where a row has many keys in all; each row's
    guide is built once. Other tables are searched at once, for the pairs
    (r, key) among the pairs (r, entry), ordered lexicographically as the
    complex numbers r + entry j are: that gives each row's own answer, which
    a search of offset floats would not."""

    def __init__(self, table: np.ndarray, counts: np.ndarray):
        height, width = table.shape
        self.by_row = height <= 2 or counts.sum() >= _ROW_KEYS * height
        if self.by_row:
            # each row's guide, and its first index holding its total
            self.rows = [(_Guide(row, c), int(np.searchsorted(row, row[-1])))
                         for row, c in zip(table, counts.tolist())]
            return
        self.last = np.count_nonzero(table < table[:, -1:], axis=1)
        flat = np.empty(table.shape, dtype=complex)
        flat.real = np.arange(height)[:, None]
        flat.imag = table
        self.flat, self.width = flat.ravel(), width

    def __call__(self, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The keys' indices, counts[r] of them in row r."""
        if self.by_row:
            out = np.empty(keys.size, dtype=np.int64)
            bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
            for (search, last), b0, b1 in zip(self.rows, bounds, bounds[1:]):
                if b1 > b0:
                    np.minimum(search(keys[b0:b1]), last, out=out[b0:b1])
            return out
        rows = np.repeat(np.arange(self.last.size), counts)
        probe = np.empty(keys.size, dtype=complex)
        probe.real = rows
        probe.imag = keys
        return np.minimum(np.searchsorted(self.flat, probe, side="right") - rows * self.width,
                          self.last[rows])


def _coins_of(keys: np.ndarray, bounds: np.ndarray, next_coin: np.ndarray,
              coins: np.ndarray) -> np.ndarray:
    """The coin of each of the ascending ``keys``: replicate r owns the keys
    in [bounds[r], bounds[r + 1]), and they take coins[next_coin[r]],
    coins[next_coin[r] + 1], ... in turn; next_coin moves past them."""
    if bounds.size == 2:
        k = int(next_coin[0])
        next_coin[0] += keys.size
        return coins[k:k + keys.size]
    per = np.diff(np.searchsorted(keys, bounds))
    coin = coins[np.repeat(next_coin - (np.cumsum(per) - per), per) + np.arange(keys.size)]
    next_coin += per
    return coin


def _cuts(before: np.ndarray) -> list:
    """Bounds 0 = k_0 < k_1 < ... = n of ranges of n items, given the work
    of the items before each bound (n + 1 values from 0): a range ends at the
    item that takes the work past the next multiple of ``_CHUNK_KEYS``, so a
    range holds about that much work, and work that fits in one chunk is
    one range."""
    if before[-1] <= _CHUNK_KEYS:
        return [0, before.size - 1]
    marks = np.searchsorted(before, np.arange(_CHUNK_KEYS, before[-1], _CHUNK_KEYS))
    return np.unique(np.concatenate(([0], marks, [before.size - 1]))).tolist()


class _Clouds:
    """Every latent point of each replicate of a block, drawn up front, with
    its weight f. Slots run through the block, replicate by replicate: slot
    i of replicate r is slot base[r] + i. A pair that is not heavy-heavy is
    proposed only from its lower slot u: a light u reaches every later slot
    of its replicate, a heavy u every later light one.

    For a kernel with a rate factor r, f is r and c0 is 1, unclipped and
    with no heavy slot: the proposals are then the edges themselves, so
    ``thin`` is False. Otherwise f is the separable factor, clipped to
    [0, 1], and bounds itself."""

    def __init__(self, g: Graphex, pts: np.ndarray, base: np.ndarray):
        self.thin = g.rate_factor is None
        weight = g.separable_f if self.thin else g.rate_factor
        # clipped in place; pts itself still serves self loops, stars and
        # latent coordinates, so an f that is pts (or a view of it) is copied
        f = np.require(np.asarray(weight(pts), dtype=float), requirements="W")
        if np.shares_memory(f, pts):
            f = f.copy()
        # a rate has no upper bound, but a negative one is no Poisson mean
        self.f = np.clip(f, 0.0, 1.0 if self.thin else None, out=f)
        self.c0 = _C0 if self.thin else 1.0
        self.big = f > _TAU if self.thin else np.zeros(f.size, dtype=bool)
        self.heavy = np.flatnonzero(self.big)
        self.base, self.n = base, np.diff(base)
        self.n_heavy = np.diff(np.searchsorted(self.heavy, base))

    def value(self, slots):
        """f at the slots, and its bound there."""
        f = self.f[slots]
        return f, f

    def propose(self) -> None:
        """Lay out the proposal rates: slot u of replicate r draws
        K_u ~ Poi(c0 f_u R_u) partners in proportion to f, R_u being the
        f-mass its table holds past u. Each replicate's entries come in the
        order its stream draws them: its light slots, then its heavy ones."""
        f, n = self.f, self.n
        tables = 2 if self.heavy.size else 1
        rep = np.repeat(np.arange(n.size), n)
        col = np.arange(f.size) - self.base[rep]
        # the cumulative f of each replicate's tables, in rows padded with
        # their totals: a heavy partner weighs 0 in the heavy slots' table
        width = max(int(n.max()), 1)
        table = np.zeros((n.size * tables, width))
        at = rep * (tables * width) + col
        table.ravel()[at] = f
        if tables == 2:
            table.ravel()[at + width] = np.where(self.big, 0.0, f)
        self.table = np.cumsum(table, axis=1)
        # the entries: each slot, with the row of the table it searches
        self.order = np.argsort(rep * tables + self.big, kind="stable") if tables == 2 else slice(None)
        rep, col = rep[self.order], col[self.order]
        self.row = rep * tables + self.big[self.order]
        self.at = self.table[self.row, col]
        self.reach = self.table[self.row, -1] - self.at
        self.rate = self.c0 * f[self.order] * self.reach
        # a key u * span + v is this, plus the column of v in the table
        first = self.base[rep]
        self.keybase = (first + col) * self.base[-1] + first

    def draw(self, r: int, gen):
        """Replicate r's partner counts and the uniforms of its partner keys,
        then, where the cloud thins, a coin for each of at most that many
        distinct pairs: a coin is one uniform, and nothing reads the stream
        after the coins."""
        rate = self.rate[self.base[r]:self.base[r + 1]]
        _check_proposals(float(rate.sum()))
        counts = gen.poisson(rate)
        m = int(counts.sum())
        if not m:
            return None
        return counts, gen.random(m), gen.random(m) if self.thin else None

    def pair_keys(self, draws):
        """Runs of distinct proposed pair keys u * span + v, each ascending and
        under the bound it comes with, which no key of a later run is under,
        and each key's coin: slot u's keys fall in [cum[u], cum[-1]) of its
        table, where each later partner v holds [cum[v - 1], cum[v]). A run
        is a range of lower slots u, of about ``_CHUNK_KEYS`` keys, searched,
        deduplicated and coined together; its keys come after those of every
        earlier range."""
        counts = np.zeros(self.rate.size, dtype=np.int64)
        picks, coins, next_coin, m = [], [], np.zeros(self.n.size, dtype=np.int64), 0
        for r, drawn in enumerate(draws):
            if drawn is not None:
                counts[self.base[r]:self.base[r + 1]] = drawn[0]
                picks.append(drawn[1])
                coins.append(drawn[2])
                next_coin[r] = m
                m += drawn[1].size
        draws.clear()  # each array goes as soon as it is read
        if not picks:
            return
        pick = picks[0] if len(picks) == 1 else np.concatenate(picks)
        coin = None if not self.thin else coins[0] if len(coins) == 1 else np.concatenate(coins)
        del picks, coins, drawn
        rows = self.table.shape[0]
        per_row = np.bincount(self.row, counts, rows).astype(np.int64)
        search = _Partners(self.table, per_row)
        end = np.cumsum(counts)  # past each entry's last pick
        span = int(self.base[-1])
        bounds = self.base * span
        cuts = [0, counts.size]
        if m > _CHUNK_KEYS:
            entry = np.empty(counts.size, dtype=np.int64)  # the entry of each slot
            entry[self.order] = np.arange(counts.size)
            cuts = _cuts(np.append(0, np.cumsum(counts[entry])))
        for s0, s1 in itertools.pairwise(cuts):
            if s1 - s0 == counts.size:
                # one range: every entry, and the picks as they are
                e, c, p, e_rows = slice(None), counts, pick, per_row
            else:
                # the range's entries in the order of their picks, row by row
                e = np.sort(entry[s0:s1])
                c = counts[e]
                at = np.repeat(end[e] - np.cumsum(c), c)
                at += np.arange(at.size)
                p = pick[at]
                del at
                e_rows = np.bincount(self.row[e], c, rows).astype(np.int64)
            p *= np.repeat(self.reach[e], c)
            p += np.repeat(self.at[e], c)
            key = search(p, e_rows)
            del p
            key += np.repeat(self.keybase[e], c)
            key = sorted_unique(key)
            yield s1 * span, key, None if coin is None else _coins_of(key, bounds, next_coin, coin)


_STRATUM_RATIO = 1.25  # f falls by at most this factor inside a stratum


def _strata(g: Graphex, theta: float):
    """Edges 0 = a_0 < ... < a_L = theta and bounds F_l = min(f(a_l), 1) of a
    nonincreasing f, and the integrals of F and of 1[F > 1/2]: a stratum
    starts wherever f, on 1024 points even in log(1 + x), crosses a level
    f(0) / _STRATUM_RATIO^k."""
    key = ("strata", float(theta))
    if key not in g._cache:
        grid = np.expm1(np.linspace(0.0, math.log1p(theta), 1024))
        fv = np.clip(np.asarray(g.separable_f(grid), dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            level = np.floor(np.log(fv[0] / fv) / math.log(_STRATUM_RATIO))
        level[np.isnan(level)] = np.inf  # f(0) = 0: one stratum of bound 0
        first = np.flatnonzero(np.append(True, level[1:-1] != level[:-2]))
        edges, bound = np.append(grid[first], theta), fv[first]
        width = np.diff(edges)
        g._cache[key] = edges, bound, width @ bound, width[bound > _TAU].sum()
    return g._cache[key]


class _LazyClouds:
    """The latent clouds of a block of replicates, in strata: stratum l of
    replicate r holds count[r, l] ~ Poi(nu width[l]) points on
    [lo[l], lo[l] + width[l]), where f <= bnd[l], the strata being
    ``_strata``'s. Slots run through the block, replicate by replicate and
    in each stratum by stratum; slot i of replicate r is slot base[r] + i.
    It sits at lo + width * u_i, with u_i read from the replicate's
    counter-based stream, so only the slots a draw touches are placed, and
    each the same whenever it is touched."""

    thin = True  # every proposal is accepted with its own probability

    def __init__(self, g: Graphex, theta: float, nu: float, seeds):
        edges, self.bnd = _strata(g, theta)[:2]
        self.f = g.separable_f
        self.lo, self.width = edges[:-1], np.diff(edges)
        mean = nu * self.width
        counts, keys = [], []
        for gen in rngmod.streams(seeds, _STREAM_LATENT):
            counts.append(gen.poisson(mean))
            # gen.integers(2 ** 64, dtype=np.uint64) is this word, at a
            # fraction of the cost
            keys.append(gen.bit_generator.random_raw())
        self.key = np.array(keys, dtype=np.uint64)
        self.count = np.array(counts, dtype=np.int64)
        start = np.zeros((len(counts), self.bnd.size + 1), dtype=np.int64)
        np.cumsum(self.count, axis=1, out=start[:, 1:])
        self.n = start[:, -1].copy()
        self.base = np.concatenate(([0], np.cumsum(self.n)))
        # the first slot of each stratum
        start += self.base[:-1, None]
        self.start = start[:, :-1]
        heavy = self.bnd > _TAU
        c = self.count[:, heavy].ravel()
        self.heavy = np.repeat(self.start[:, heavy].ravel() - np.cumsum(c) + c, c) + np.arange(c.sum())
        self.n_heavy = self.count[:, heavy].sum(axis=1)
        self.below = self._below(self.bnd)

    def _below(self, rate):
        """Per replicate, the cumulative rate of its strata, after a leading
        0: a point of stratum l weighing rate[l]."""
        below = np.zeros((self.count.shape[0], self.count.shape[1] + 1))
        np.multiply(self.count, rate, out=below[:, 1:])
        np.cumsum(below[:, 1:], axis=1, out=below[:, 1:])
        return below

    def locate(self, keys, counts, below, rate):
        """Slots for unit keys (scaled in place), counts[r] of them for
        replicate r, replicate by replicate, and their strata: the stratum
        whose share of the replicate's cumulative rate (``below``, after its
        leading 0) holds the key, a point of stratum l weighing rate[l], then
        the index inside it."""
        rows = np.repeat(np.arange(counts.size), counts) if counts.size > 1 else 0
        cum = below[:, 1:]
        keys *= cum[rows, -1]
        s = _Partners(cum, counts)(keys, counts) if counts.size > 1 else _search_row(cum[0], keys)
        off = (keys - below[rows, s]) / rate[s]
        return self.start[rows, s] + np.minimum(off, self.count[rows, s] - 1).astype(np.int64), s

    def propose(self) -> None:
        """Each replicate's expected number of ordered pairs, c0 (sum F)^2 / 2."""
        total = self.below[:, -1]
        self.lam = _C0 * total * total / 2.0

    def draw(self, r: int, gen):
        """Replicate r's u keys, v keys and coins, as three rows of M ~
        Poi(c0 (sum F)^2 / 2) uniforms; there is at most one coin per
        distinct pair, and nothing reads the stream after the coins."""
        _check_proposals(self.lam[r])
        m = int(gen.poisson(self.lam[r]))
        return gen.random(3 * m).reshape(3, m) if m else None

    def pair_keys(self, draws):
        """Distinct proposed pair keys u * span + v, u < v, ascending, and
        each one's coin, in runs of ``_CHUNK_KEYS`` as ``_Clouds.pair_keys``
        gives them: M ordered pairs with endpoints i.i.d. in proportion to F,
        less self pairs and heavy-heavy ones, so a pair {u, v} is proposed
        Poi(c0 F_u F_v) times, independently of all others."""
        m = np.array([0 if d is None else d.shape[1] for d in draws], dtype=np.int64)
        if not m.any():
            return
        offsets = np.cumsum(m) - m
        drawn = [d for d in draws if d is not None]
        u, v, coins = drawn[0] if len(drawn) == 1 else np.concatenate(drawn, axis=1)
        u, su = self.locate(u, m, self.below, self.bnd)
        v, sv = self.locate(v, m, self.below, self.bnd)
        big = self.bnd > _TAU
        ok = (u != v) & ~(big[su] & big[sv])
        span = int(self.base[-1])
        key = sorted_unique((np.minimum(u, v) * span + np.maximum(u, v))[ok])
        coin = _coins_of(key, self.base * span, offsets, coins)
        for k0 in range(0, key.size, _CHUNK_KEYS):
            k1 = k0 + _CHUNK_KEYS
            yield int(key[k1]) if k1 < key.size else span * span, key[k0:k1], coin[k0:k1]

    def place(self, slots):
        """Latent coordinates of the slots, and their strata."""
        flat = np.searchsorted(self.start.ravel(), slots, side="right") - 1
        rows, s = np.divmod(flat, self.bnd.size)
        u = rngmod.uniform_at(self.key[rows], slots - self.base[rows])
        return self.lo[s] + self.width[s] * u, s

    def positions(self, slots):
        return self.place(slots)[0]

    def pairs(self, g: Graphex, gens) -> np.ndarray:
        loops = self.loops(g, gens(_STREAM_SELF)) if g.self_edges else None
        return _kernel_pairs(self, gens(_STREAM_PAIRS), loops)

    def value(self, slots, h=None):
        """f at the slots and its bound there, or h and the bound's square for
        an h bounded by f^2."""
        x, s = self.place(slots)
        bound = self.bnd[s] if h is None else self.bnd[s] ** 2
        return _checked(x, (h or self.f)(x), bound), bound

    def loops(self, g: Graphex, gens) -> np.ndarray:
        """Slots with a self loop: heavy ones by a coin each, the others by
        thinning Poi(c0 F^2) proposals per point against W(x, x).
        A replicate's stream draws its heavy coins, its proposal count, and
        its proposals with a coin for each of at most that many distinct
        candidates in one call."""
        heavy = self.heavy
        diag_heavy = self.value(heavy, g.diag_at)[0]
        rate = np.where(self.bnd > _TAU, 0.0, self.bnd ** 2)
        below = self._below(rate)
        lam = _C0 * below[:, -1]
        coins, drawn = [], []
        m = np.zeros(self.n.size, dtype=np.int64)
        for r, gen in enumerate(gens):
            coins.append(gen.random(self.n_heavy[r]))
            m[r] = gen.poisson(lam[r])
            if m[r]:
                drawn.append(gen.random(2 * m[r]).reshape(2, m[r]))
        hits = [heavy[np.concatenate(coins) < diag_heavy]]
        if drawn:
            offsets = np.cumsum(m) - m
            keys, coin = np.concatenate(drawn, axis=1)
            cand = sorted_unique(self.locate(keys, m, below, rate)[0])
            d, q = self.value(cand, g.diag_at)
            coin = _coins_of(cand, self.base, offsets, coin)
            hits.append(cand[coin < d / -np.expm1(-_C0 * q)])
        return np.concatenate(hits)


def _checked(x, value, bound):
    """value at latent coordinates x, clipped to [0, 1], once no element is
    over its declared bound."""
    value = np.clip(np.asarray(value, dtype=float), 0.0, 1.0)
    bad = np.flatnonzero(value > bound * (1.0 + 1e-12))
    if bad.size:
        i = bad[0]
        raise SamplerError(
            f"the kernel factor at x = {x[i]!r} is {value[i]!r}, over its stratum's "
            f"bound {bound[i]!r}: f is not nonincreasing, as its family declares")
    return value


def _check_proposals(lam: float) -> None:
    if lam > _MAX_PROPOSALS:
        raise SamplerError(
            f"the proposal rate {lam:.3g} exceeds max_proposals ({_MAX_PROPOSALS:.3g}); "
            "lower nu")


def _kernel_pairs(cloud, gens, loops) -> np.ndarray:
    """Kernel rows of a block of full or lazy clouds, as slot pairs (u, v),
    u < v, and the self loops (s, s) among the slots ``loops`` (None without
    self edges), replicate by replicate and in (u, v) order inside each:
    direct coins for the heavy pairs, then the cloud's proposals, each
    accepted once with probability f_u f_v / (1 - exp(-c0 F_u F_v)) where
    the cloud thins them; see the module docstring. Each replicate's stream
    draws, in this order, its heavy coins and its proposals. The proposals'
    keys come in ascending runs (``pair_keys``), each accepted as it comes;
    the rows are written run by run, each merged with the heavy and loop
    keys under its bound."""
    n = cloud.n
    # pair keys u * span + v order the pairs of the whole block
    # (``_block_size`` keeps them below 2^63)
    span = int(cloud.base[-1])
    heavy = cloud.n_heavy
    worst = int(heavy.max())
    if worst * (worst - 1) / 2 > _MAX_PAIR_COINS:
        raise SamplerError(
            f"{worst} latent points have f > {_TAU}; too many heavy pairs to coin "
            f"(over max_pair_coins, {_MAX_PAIR_COINS:.3g}); lower nu")
    cloud.propose()
    coins, draws = [], []
    for r, gen in enumerate(gens):
        if n[r] < 2:
            draws.append(None)
            continue
        h = int(heavy[r])
        if h >= 2:
            coins.append(gen.random(h * (h - 1) // 2))
        draws.append(cloud.draw(r, gen))

    # the heavy pairs come out of triu_indices order over ascending slots,
    # ascending, and a loop's key s * span + s goes before the keys of the
    # pairs (s, v > s); no heavy pair or loop was proposed, so they share no
    # key with a run
    heavy = _heavy_keys(cloud, coins, span)
    if loops is not None:
        heavy = np.sort(np.concatenate((heavy, (loops * (span + 1)).astype(heavy.dtype))))
    runs, lo, last = [], 0, span * span
    for bound, key, coin in cloud.pair_keys(draws):
        if key.size and cloud.thin:
            # f_u f_v / (1 - exp(-c0 F_u F_v)), its temporaries dropped as it goes
            u, v = np.divmod(key, span)
            (f_u, bound_u), (f_v, bound_v) = cloud.value(u), cloud.value(v)
            del u, v
            f_uv, accept = f_u * f_v, bound_u * bound_v
            del f_u, f_v, bound_u, bound_v
            accept *= -_C0
            np.expm1(accept, out=accept)
            np.negative(accept, out=accept)
            np.divide(f_uv, accept, out=accept)
            # by index: NumPy gathers faster by index than by a random mask
            key = key[np.flatnonzero(coin < accept)]
            del f_uv, accept
        # the run's keys lie in [lo, bound); while later runs come, they are
        # kept as offsets from lo, in 32 bits where they fit
        if bound < last and bound - lo <= 1 << 32:
            runs.append((bound, lo, (key - lo).astype(np.uint32)))
        else:
            runs.append((bound, 0, key))
        lo = bound
        del key, coin  # a coin is a view of all the coins
    if not runs:
        runs.append((last, 0, np.empty(0, dtype=np.int64)))
    # each run, merged with the heavy and loop keys under its bound (the last
    # run with every one left), goes out as rows and is dropped
    pairs = np.empty((heavy.size + sum(run[2].size for run in runs), 2), dtype=np.int64)
    at = h0 = 0
    for i, (bound, lo, key) in enumerate(runs):
        runs[i] = None
        if key.dtype == np.uint32:
            key = key.astype(np.int64)
            key += lo
        h1 = int(np.searchsorted(heavy, bound)) if i + 1 < len(runs) else heavy.size
        if h1 > h0:
            # a stable sort merges two sorted runs in one pass
            key = np.sort(np.concatenate((heavy[h0:h1], key)), kind="stable")
            h0 = h1
        np.divmod(key, span, out=(pairs[at:at + key.size, 0], pairs[at:at + key.size, 1]))
        at += key.size
    return pairs


def _heavy_keys(cloud, coins: list, span: int) -> np.ndarray:
    """The pair keys of the heavy pairs that the coins keep, ascending: the
    pairs a < b of each replicate's heavy slots, replicate by replicate and
    in ``np.triu_indices`` order, each kept with probability f_a f_b. Rows
    of that order, one per heavy slot a, are coined ``_CHUNK_KEYS`` pairs at
    a time, and the coins go once read."""
    if not coins:
        return np.empty(0, dtype=np.int64)
    coin = coins[0] if len(coins) == 1 else np.concatenate(coins)
    coins.clear()
    heavy = cloud.heavy
    # row k pairs heavy slot k with the later heavy slots of its replicate
    per = np.repeat(np.cumsum(cloud.n_heavy), cloud.n_heavy) - np.arange(1, heavy.size + 1)
    before = np.zeros(heavy.size + 1, dtype=np.int64)
    np.cumsum(per, out=before[1:])
    fh = cloud.value(heavy)[0]
    runs = []
    for k0, k1 in itertools.pairwise(_cuts(before)):
        c = per[k0:k1]
        a = np.repeat(np.arange(k0, k1), c)
        # pair j of row k is (k, k + 1 + j - before[k])
        b = np.arange(before[k0] + 1, before[k1] + 1) - np.repeat(before[k0:k1], c)
        b += a
        keep = np.flatnonzero(coin[before[k0]:before[k1]] < fh[a] * fh[b])  # by index, as above
        # kept in 32 bits where every key of the block fits
        runs.append((heavy[a[keep]] * span + heavy[b[keep]]).astype(
            np.uint32 if span * span <= 1 << 32 else np.int64, copy=False))
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


_NAIVE_BLOCK = 2048


def _pairs_naive(g: Graphex, pts: np.ndarray, gen) -> np.ndarray:
    n = pts.size
    if n * (n - 1) / 2 > _MAX_PAIR_COINS:
        raise SamplerError(
            f"{n} latent points means {n * (n - 1) // 2} pair coins, over max_pair_coins "
            f"({_MAX_PAIR_COINS:.3g}); use a separable family (fast path) or lower nu")
    us = []
    vs = []
    for i0 in range(0, n, _NAIVE_BLOCK):
        xi = pts[i0:i0 + _NAIVE_BLOCK]
        for j0 in range(i0, n, _NAIVE_BLOCK):
            xj = pts[j0:j0 + _NAIVE_BLOCK]
            prob = np.asarray(g.w(xi[:, None], xj[None, :]), dtype=float)
            hits = gen.random(prob.shape) < prob
            if j0 == i0:
                hits &= np.triu(np.ones(hits.shape, dtype=bool), k=1)
            ii, jj = np.nonzero(hits)
            us.append(ii + i0)
            vs.append(jj + j0)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    # blocks come row band by row band; return (u, v) order, as _kernel_pairs does
    order = np.lexsort((v, u))
    return np.column_stack((u[order], v[order])).astype(np.int64)


class _NaiveCloud:
    """Every latent point of each replicate of a block, drawn up front,
    replicate by replicate: the naive path, which coins every pair with W
    and every point's self loop with W(x, x)."""

    def __init__(self, g: Graphex, theta: float, nu: float, seeds):
        expected, empty = nu * theta, np.empty(0)
        clouds = [empty] * len(seeds)
        if expected > 0:
            clouds = []
            for gen in rngmod.streams(seeds, _STREAM_LATENT):
                k = int(gen.poisson(expected))
                clouds.append(gen.uniform(0.0, theta, k) if k else empty)
        self.n = np.array([c.size for c in clouds], dtype=np.int64)
        self.pts = np.concatenate(clouds)
        self.base = np.concatenate(([0], np.cumsum(self.n)))

    def positions(self, slots):
        return self.pts[slots]

    def pairs(self, g: Graphex, gens) -> np.ndarray:
        """Kernel rows in (u, v) order: a coin per pair and, with self edges,
        per point, whose loop (s, s) goes before the pairs (s, v > s)."""
        base = self.base.tolist()
        rows = [_pairs_naive(g, self.pts[b0:b1], gen) + b0
                for b0, b1, gen in zip(base, base[1:], gens(_STREAM_PAIRS)) if b1 - b0 >= 2]
        rows = np.concatenate(rows) if rows else np.empty((0, 2), dtype=np.int64)
        if g.self_edges:
            loops = self.loops(g, gens(_STREAM_SELF))
            rows = np.insert(rows, np.searchsorted(rows[:, 0], loops), loops[:, None], axis=0)
        return rows

    def loops(self, g: Graphex, gens) -> np.ndarray:
        """Slots with a self loop, ascending: a coin each."""
        d = np.clip(np.asarray(g.diag_at(self.pts), dtype=float), 0.0, 1.0)
        coins = [gen.random(k) for gen, k in zip(gens, self.n.tolist()) if k]
        return np.flatnonzero(np.concatenate(coins) < d)


class _FullCloud(_NaiveCloud):
    """The naive cloud, its pairs drawn by ordered proposals (``_Clouds``)."""

    def pairs(self, g: Graphex, gens) -> np.ndarray:
        loops = self.loops(g, gens(_STREAM_SELF)) if g.self_edges else None
        # the weights and tables serve only the pairs, and go with them
        return _kernel_pairs(_Clouds(g, self.pts, self.base), gens(_STREAM_PAIRS), loops)


# ---------------------------------------------------------------------------
# Full draw
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """The draws of a block of replicates, as one graph: replicate i owns the
    vertices vertex_start[i]:vertex_start[i + 1] and the edges
    edge_start[i]:edge_start[i + 1], whose endpoints are vertex ids of the
    block. ``labels`` and ``latent`` (coordinates, NaN where a vertex has
    none) are None where labels were not drawn."""

    nu: float
    theta: float
    eps: float
    seeds: tuple
    edges: np.ndarray
    provenance: np.ndarray
    edge_start: np.ndarray
    vertex_start: np.ndarray
    labels: np.ndarray | None
    latent: np.ndarray | None

    @property
    def reps(self) -> int:
        return len(self.seeds)

    def replicate_of(self, vertices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.vertex_start, vertices, side="right") - 1

    def graph(self, i: int) -> SampledGraph:
        """Replicate i as a graph of its own; a block drawn without labels
        has none to give it."""
        if self.labels is None:
            raise SamplerError("this block was drawn with labels=False, so its replicates "
                               "cannot be made graphs; draw it with labels=True")
        v0, v1 = int(self.vertex_start[i]), int(self.vertex_start[i + 1])
        e0, e1 = int(self.edge_start[i]), int(self.edge_start[i + 1])
        edges = self.edges[e0:e1]
        return SampledGraph(
            nu=self.nu, seed=self.seeds[i], theta_max=self.theta, epsilon=self.eps,
            labels=self.labels[v0:v1], edges=edges - v0 if v0 else edges,
            provenance=self.provenance[e0:e1], latent=self.latent[v0:v1],
        )


# expected points, proposals and coins per block of replicates; a draw
# bigger than this is a block of its own. Measured on 2 cores over the
# validation and projectivity draws of the sparse-clouds benchmark, blocks
# of twice this size are 3% faster and hold twice the memory, blocks of half
# of it 30% slower
_BLOCK_WORK = 1 << 14


def _row_slices(arrays):
    """Views of the arrays' rows, ``_CHUNK_KEYS`` at a time."""
    for a in arrays:
        for i in range(0, a.shape[0], _CHUNK_KEYS):
            yield a[i:i + _CHUNK_KEYS]

# a draw's cutoff, its engine's class (one of the three) and its expected work
_LAZY, _FULL, _NAIVE = _LazyClouds, _FullCloud, _NaiveCloud
_Plan = namedtuple("_Plan", "theta engine work")


def _cutoff(g: Graphex, cfg: SamplerConfig) -> float:
    """cfg's theta_max, or else the cutoff that meets its budget eps."""
    if cfg.theta_max is not None:
        return cfg.theta_max
    return choose_theta_max(g, float(cfg.nu), cfg.eps)


def _plan(g: Graphex, cfg: SamplerConfig) -> _Plan:
    """The cutoff, engine and expected work of a draw at cfg, refused over
    ``_MAX_LATENT_POINTS`` expected latent points. A lazy draw (see the
    module docstring) expects c0 (nu sum F)^2 proposal endpoints,
    nu * (heavy width) heavy points and a count per stratum; a full cloud
    nu * theta_max points and at most 2 nu^2 B proposals and heavy coins,
    where B, ``Graphex.w_l1_bound``, is ||W||_1 = ||f||_1^2 for a separable
    f (c0 < 2, and f > 1/2 on a set no wider than 2 ||f||_1) and ||r||_1^2
    for a rate factor r; the naive path, and a full cloud with no bound,
    (nu * theta_max)^2 / 2 coins."""
    nu = float(cfg.nu)
    if not math.isfinite(g.isolated_rate):
        raise SamplerError("the isolated-edge rate is infinite; the graph would have "
                           "infinitely many edges")
    theta = _cutoff(g, cfg)
    points = nu * theta
    if points > _MAX_LATENT_POINTS:
        raise SamplerError(
            f"the truncation level {theta:.6g} implies ~{points:.3g} latent points, over "
            f"max_latent_points ({_MAX_LATENT_POINTS:.3g}); raise eps or lower nu")
    naive = points + points * points / 2.0
    if not (cfg.use_fast_path and (g.separable_f is not None or g.rate_factor is not None)):
        return _Plan(theta, _NAIVE, naive)
    if g.s is None and getattr(g.separable_f, "nonincreasing", False):
        _, bound, mass, heavy = _strata(g, theta)
        covered = _C0 * (nu * mass) ** 2 + nu * heavy
        if covered < points:
            return _Plan(theta, _LAZY, covered + bound.size)
    bound = g.w_l1_bound()
    return _Plan(theta, _FULL, naive if bound is None else points + 2.0 * nu * nu * bound[0])


def _block_size(g: Graphex, cfg: SamplerConfig) -> tuple[int, float]:
    """How many replicates at cfg share one block, and the expected work of
    one draw (``_plan``): as many as split ``_BLOCK_WORK`` by that work. The
    pair keys u * span + v of a block stay below 2^63: its slots, span,
    stay below 2^30.5 at 1.1 times a draw's expected points, plus 100."""
    theta, _, work = _plan(g, cfg)
    size = int(_BLOCK_WORK // max(work, 1.0))
    return max(1, min(size, int(2.0 ** 30.5 / (1.1 * (cfg.nu * theta) + 100.0)))), work


def _merged(edges: np.ndarray, provenance: np.ndarray, u: np.ndarray, v: np.ndarray,
            tag: int) -> tuple:
    """The edges and their provenance, with the rows (u, v), of provenance
    ``tag``, merged in by first column: a row goes after every edge whose
    first column is at most its own. Both come ascending in their first
    column."""
    at = np.searchsorted(edges[:, 0], u, side="right")
    at += np.arange(at.size)
    out = np.empty((edges.shape[0] + at.size, 2), dtype=np.int64)
    old = np.ones(out.shape[0], dtype=bool)
    old[at] = False
    out[at, 0], out[at, 1] = u, v
    # each edge as one 16-byte item, which a gather moves at once
    item = np.dtype((np.void, 16))
    out.view(item)[old] = edges.view(item)
    tags = np.full(old.size, tag, dtype=np.uint8)
    tags[old] = provenance
    return out, tags


def _draw(g: Graphex, cfg: SamplerConfig, seeds, labels: bool = True) -> _Block:
    """Draw a block of replicates: replicate i is the graph that
    ``sample_keg`` draws at cfg with seed seeds[i] (cfg.seed is not read),
    to the bit. Each of its streams gets the calls it gets in a draw of its
    own, in the same order; between the calls, every stage runs once over
    the whole block. Labels, and the latent coordinates of the visible
    points, are given only where ``labels`` asks for them."""
    nu = float(cfg.nu)
    theta, engine, _ = _plan(g, cfg)
    seeds = tuple(seeds)
    reps = len(seeds)

    def gens(stream):
        return rngmod.streams(seeds, stream)

    cloud = engine(g, theta, nu, seeds)
    base, n = cloud.base, cloud.n
    most = int(n.max())

    # the kernel rows, pairs and self loops, in (u, v) order through the block
    edges = np.empty((0, 2), dtype=np.int64)
    if most >= 2 or (most and g.self_edges):
        edges = cloud.pairs(g, gens)

    # star leaves (a lazy draw has no star rate)
    n_leaves = np.zeros(reps, dtype=np.int64)
    hubs = np.empty(0, dtype=np.int64)
    if g.s is not None and most:
        slots = np.arange(base[-1])
        rates = nu * np.clip(np.asarray(g.s_at(cloud.positions(slots)), dtype=float), 0.0, None)
        leaves = [gen.poisson(rates[base[r]:base[r + 1]]) if n[r] else np.empty(0, dtype=np.int64)
                  for r, gen in enumerate(gens(_STREAM_STARS))]
        n_leaves = np.array([k.sum() for k in leaves], dtype=np.int64)
        hubs = np.repeat(slots, np.concatenate(leaves))

    # isolated edges
    n_iso = np.zeros(reps, dtype=np.int64)
    if g.isolated_rate > 0.0 and nu > 0.0:
        n_iso = np.array([gen.poisson(g.isolated_rate * nu * nu)
                          for gen in gens(_STREAM_ISOLATED)], dtype=np.int64)

    # visibility and final indexing: each replicate's kept latent slots in
    # slot order, then its star leaves and its isolated-edge endpoints. The
    # endpoints become vertex ids in place, _CHUNK_KEYS rows at a time:
    # where they fill their range of slots as ``ranked_unique`` asks of its
    # table, through a mask and a slot -> vertex table over that range, else
    # by a binary search of their few distinct slots
    ends = [a for a in (edges, hubs) if a.size]
    dense = False
    if ends:
        # each is ascending in its first column: the kernel rows by u <= v,
        # the hubs by slot
        lo = min([int(a.flat[0]) for a in ends])
        span = max([int(a.max()) for a in ends]) - lo + 1
        dense = fills(edges.size + hubs.size, span)
    if dense:
        seen = np.zeros(span, dtype=bool)
        for part in _row_slices(ends):
            seen[part - lo] = True
        visible = np.flatnonzero(seen)
        visible += lo
        del seen
    else:
        visible = sorted_unique(np.concatenate((edges.ravel(), hubs)))
    first_visible = np.searchsorted(visible, base)
    v0 = np.diff(first_visible)
    n_vertices = v0 + n_leaves + 2 * n_iso
    vertex_start = np.concatenate(([0], np.cumsum(n_vertices)))
    vertex = np.arange(visible.size, dtype=np.int64)
    if reps > 1:
        vertex += np.repeat(vertex_start[:-1] - first_visible[:-1], v0)
    if dense:
        table = np.empty(span, dtype=np.int64)
        table[visible - lo] = vertex

        def vertex_of(slots):
            return table[slots - lo]
    else:
        def vertex_of(slots):
            at = visible.searchsorted(slots)
            return vertex[at] if reps > 1 else at
    for part in _row_slices(ends):
        part[...] = vertex_of(part)
    del ends

    # the k-th leaf, and the k-th isolated edge, of the block: the ones before
    # it in its replicate come after that replicate's latent vertices (and
    # leaves). The kernel rows keep their (u, v) order, since the slot ->
    # index map is increasing, and the star and isolated rows are merged in
    # by first column: a star row after its hub's kernel rows, an isolated
    # row after every other row of its replicate
    first = vertex_start[:-1] + v0
    provenance = np.zeros(edges.shape[0], dtype=np.uint8)
    if hubs.size:
        leaf = np.arange(hubs.size) + np.repeat(first - (np.cumsum(n_leaves) - n_leaves), n_leaves)
        edges, provenance = _merged(edges, provenance, hubs, leaf, PROV_STAR)
        del hubs, leaf
    if n_iso.any():
        first += n_leaves - 2 * (np.cumsum(n_iso) - n_iso)
        left = 2 * np.arange(int(n_iso.sum())) + np.repeat(first, n_iso)
        edges, provenance = _merged(edges, provenance, left, left + 1, PROV_ISOLATED)

    drawn_labels = latent = None
    if labels:
        drawn_labels = [gen.uniform(0.0, nu, k) if k else np.empty(0)
                        for gen, k in zip(gens(_STREAM_LABELS), n_vertices.tolist())]
        drawn_labels = drawn_labels[0] if reps == 1 else np.concatenate(drawn_labels)
        latent = np.full(int(vertex_start[-1]), np.nan)
        latent[vertex] = cloud.positions(visible)

    return _Block(
        nu=nu, theta=float(theta), eps=float(cfg.eps), seeds=seeds,
        edges=edges, provenance=provenance,
        edge_start=np.searchsorted(edges[:, 0], vertex_start) if reps > 1
        else np.array([0, edges.shape[0]]),
        vertex_start=vertex_start, labels=drawn_labels, latent=latent,
    )


def sample_keg(g: Graphex, cfg: SamplerConfig) -> SampledGraph:
    """Draw one graph: the block of one of the replicate engine. The degree
    of a vertex at a given latent coordinate is drawn, without a graph, by
    ``sample_planted_degrees``."""
    return _draw(g, cfg, (cfg.seed,)).graph(0)


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
    )


# ---------------------------------------------------------------------------
# Planted-degree draws (vectorised across replicates)
# ---------------------------------------------------------------------------

def sample_planted_degrees(g: Graphex, nu: float, lam: float, reps: int, seed: int,
                           eps: float = 1e-3, theta_max: float | None = None) -> np.ndarray:
    """Kernel degree of a point planted at latent coordinate lam, one draw
    per replicate.

    Only edges toward the ambient cloud count (no self loop), so each
    replicate thins a Poisson process of rate nu * B on [0, theta_max]:
    B = W(lam, a_l) on the strata of a declared nonincreasing f (see the
    module docstring), else 1, and a candidate at x is an edge with
    probability W(lam, x) / B. The draw never reads the theory.
    """
    if not (_number(reps, numbers.Integral) and reps >= 1):
        raise SamplerError(f"reps must be a positive integer, got {reps!r}")
    _check_level(lam, "lam")
    theta = _cutoff(g, SamplerConfig(nu=nu, seed=seed, eps=eps, theta_max=theta_max))
    if getattr(g.separable_f, "nonincreasing", False):
        edges = _strata(g, theta)[0]
        bound = np.clip(np.asarray(g.w(lam, edges[:-1]), dtype=float), 0.0, 1.0)
    else:
        edges, bound = np.array([0.0, theta]), np.ones(1)
    cum = np.cumsum(np.diff(edges) * bound)
    gen = rngmod.stream(seed, _STREAM_DEGREES)
    counts = gen.poisson(nu * cum[-1], size=reps).astype(np.int64)
    degrees = np.empty(reps, dtype=np.int64)
    # blocks of about 2e6 expected candidates bound the memory when B = 1
    block = max(1, int(2e6 // max(nu * cum[-1], 1.0)))
    for r0 in range(0, reps, block):
        c = counts[r0:r0 + block]
        keys = gen.uniform(0.0, cum[-1], int(c.sum()))
        s = _search_row(cum, keys)
        x = edges[s] + (keys - np.append(0.0, cum)[s]) / bound[s]
        hit = gen.random(keys.size) < _checked(x, g.w(lam, x), bound[s]) / bound[s]
        # hits of replicate i are those at positions ends[i] .. ends[i+1]
        ends = np.concatenate(([0], np.cumsum(c)))
        degrees[r0:r0 + block] = np.diff(np.flatnonzero(hit).searchsorted(ends))
    return degrees
