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
When a draw has at least as many keys as latent points, a guide table (Chen &
Asau 1974) of 4n buckets finds it. A value y goes to bucket
int(y * 4n / C_n), for the keys and the entries of C alike, so a key's
answer is the count of entries in lower buckets plus those of its own bucket
that are at most the key: a key in a bucket of at most one entry settles
with one comparison, and only keys in crowded buckets get a binary search.
The indices are those of a binary search over all of C, so every drawn
number is too. The pairs come out in (u, v) order, heavy and light runs
merged, and keep it through the slot -> index map, so only a draw whose
kernel pairs meet self loops or star edges sorts its rows.

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
Strata with F > 1/2 are heavy, the other points' self loops are thinned
against F^2 alike, and a planted point is a stratum of its own. A drawn f(x)
over its bound raises SamplerError. theta_max and the law of the draw stay
those of the full cloud; the streams differ, and kept points are indexed
stratum by stratum. The full cloud stays where the expected proposal
endpoints and heavy points number at least the latent points (the guide
table's rule), for a user ``separable`` f or a star rate, which declare no
bound, and on the naive path, the reference.

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
visibility and indexing. Slots, pair keys and vertex ids run through the
block, replicate by replicate, so a sort or a dedupe over the block keeps
each replicate's own order, and a search in a replicate's own table is
done row by row or, for many small rows, as one search of the pairs
(replicate, value). Stars, isolated edges, labels and the naive path loop
over the replicates. ``_block_size`` sets how many replicates share a block
from the expected work of one draw, so a large draw is a block of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .expr import EvalError
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
    ``max_latent_points`` caps nu * theta_max, the expected size of the full
    cloud, also for a lazy draw that makes only the points it touches.
    ``max_pair_coins`` caps the coins of the naive path and of the heavy
    pairs. ``max_proposals`` caps the expected number of pair proposals:
    sum over slots u of c0 f_u R_u for a full cloud (c0 = 1 and f = r for
    the Caron-Fox construction), c0 (sum F)^2 / 2 for a lazy one (see the
    module docstring).
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
        _check_eps(self.eps)
        if self.theta_max is not None:
            _check_theta_max(self.theta_max)


def _check_level(nu, name: str) -> None:
    # bool is a subclass of int, but True is no truncation level
    if not (isinstance(nu, (int, float)) and not isinstance(nu, bool)
            and math.isfinite(nu) and nu >= 0):
        raise SamplerError(f"{name} must be a finite number >= 0, got {nu!r}")


def _check_eps(eps) -> None:
    # bool is a subclass of int, but True is no budget
    if not (isinstance(eps, (int, float)) and not isinstance(eps, bool) and eps > 0):
        raise SamplerError(f"eps must be > 0, got {eps!r}")


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

    A kernel W = 1 - exp(-r(x) r(y)) (``Graphex.rate_factor``) puts the
    separable majorant ||r||_1 * (integral of r past a) in place of
    tail_mu(a): 1 - e^-t <= t gives W <= r(x) r(y), so the budget stays an
    upper bound, and each probe costs one single integral instead of a
    nested one. ||r||_1 is computed once per graphex, on the first cutoff;
    where it does not converge, the nested tail_mu is used.
    """
    _check_level(nu, "nu")
    _check_eps(eps)
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
            t += tail_mu(a, probe_tol)
        if g.s is not None:
            t += g.tail_s(a, probe_tol)
        return nu * nu * t

    try:
        tail_mu = _majorant_tail(g) or g.tail_mu
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


def _majorant_tail(g: Graphex):
    """(a, rel_tol) -> ||r||_1 * integral of r past a, which bounds
    tail_mu(a) for a kernel with a rate factor r; None without one, or where
    ||r||_1 does not converge."""
    r = g.rate_factor
    if r is None:
        return None
    if ("rate_l1",) not in g._cache:
        g._cache[("rate_l1",)] = g.integrate(r, 1e-9)
    norm = g._cache[("rate_l1",)]
    if not norm.converged:
        return None

    def tail(a: float, rel_tol: float) -> float:
        res = g.integrate(r, rel_tol, lo=a)
        if not res.converged:
            raise GraphexError(f"tail of the rate factor past x={a!r} did not converge")
        return norm.value * res.value

    return tail


# ---------------------------------------------------------------------------
# Kernel edges
# ---------------------------------------------------------------------------

_GUIDE_PER_POINT = 4  # guide-table buckets per entry of cum


def _endpoints(cum: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, keys, side="right")`` for a non-empty,
    nondecreasing ``cum``, found through a guide table (Chen & Asau 1974) when there are
    at least as many keys as entries.

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
    n = cum.size
    total = float(cum[-1])
    k = _GUIDE_PER_POINT * n
    # a table cannot pay for itself over fewer keys, and a total that is
    # denormal or infinite leaves the bucket width or its inverse unusable
    if keys.size < n or not (math.isfinite(total) and total / k >= np.finfo(float).tiny):
        return np.searchsorted(cum, keys, side="right")
    scale = k / total

    def bucket(y):
        b = (y * scale).astype(np.intp)
        return np.clip(b, 0, k - 1, out=b)

    guide = np.concatenate(([0], np.cumsum(np.bincount(bucket(cum), minlength=k))))
    # the start of each bucket, or -1 for a crowded one
    start = guide[:-1]
    start[guide[1:] - start > 1] = -1
    out = start[bucket(keys)]
    out += np.append(cum, np.inf)[out] <= keys  # -1 reads +inf: no change
    wide = np.flatnonzero(out < 0)
    if wide.size:
        order = np.argsort(keys[wide])
        wide = wide[order]
        out[wide] = np.searchsorted(cum, keys[wide], side="right")
    return out


# keys per row from which a table is searched row by row; measured on 2
# cores, the search at once costs 4x less at 100 keys per row, 4x more at
# 7,000. A row is searched through a guide table from _GUIDE_KEYS keys:
# below that, a binary search over a row of up to 2,000 entries costs less
# than building the table
_ROW_KEYS = 1024
_GUIDE_KEYS = 512


def _search_row(row: np.ndarray, keys: np.ndarray, out=None) -> np.ndarray:
    """``np.searchsorted(row, keys, side="right")``, except that a key that
    rounds up to the row's total goes to the first index holding it."""
    where = _endpoints(row, keys) if keys.size >= _GUIDE_KEYS else \
        np.searchsorted(row, keys, side="right")
    return np.minimum(where, np.searchsorted(row, row[-1]), out=where if out is None else out)


def _partners(table: np.ndarray, counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Where each key falls in its row of a table whose rows are
    nondecreasing, the keys coming row by row, counts[r] of them in row r:
    ``np.searchsorted(row, key, side="right")``, except that a key that
    rounds up to the row's total goes to the first index holding the total.

    A table of at most two rows (one draw's light and heavy tables), or one
    with ``_ROW_KEYS`` keys per row, is searched row by row, through the
    guide table of ``_endpoints`` where a row has many keys. Other tables are
    searched at once, for the pairs (r, key) among the pairs (r, entry),
    ordered lexicographically as the complex numbers r + entry j are: that
    gives each row's own answer, which a search of offset floats would
    not."""
    if table.shape[0] == 1:
        return _search_row(table[0], keys)
    if table.shape[0] == 2 or keys.size >= _ROW_KEYS * table.shape[0]:
        out = np.empty(keys.size, dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for row, b0, b1 in zip(table, bounds, bounds[1:]):
            _search_row(row, keys[b0:b1], out[b0:b1])
        return out
    last = np.count_nonzero(table < table[:, -1:], axis=1)
    height, width = table.shape
    rows = np.repeat(np.arange(height), counts)
    flat = np.empty(table.shape, dtype=complex)
    flat.real = np.arange(height)[:, None]
    flat.imag = table
    flat = flat.ravel()
    probe = np.empty(keys.size, dtype=complex)
    probe.real = rows
    probe.imag = keys
    return np.minimum(np.searchsorted(flat, probe, side="right") - rows * width, last[rows])


def _coins_of(keys: np.ndarray, bounds: np.ndarray, offsets: np.ndarray,
              coins: np.ndarray) -> np.ndarray:
    """The coin of each of the ascending ``keys``: replicate r owns the keys
    in [bounds[r], bounds[r + 1]), and its k-th key takes
    coins[offsets[r] + k]."""
    if bounds.size == 2:
        return coins[:keys.size]
    per = np.diff(np.searchsorted(keys, bounds))
    return coins[np.repeat(offsets - (np.cumsum(per) - per), per) + np.arange(keys.size)]


def _pairs_of(keys: np.ndarray, kbase: np.ndarray, n: np.ndarray, base: np.ndarray):
    """The slot pairs (u, v), one row each, of the ascending pair keys
    kbase[r] + u' * n[r] + v' of replicate r, whose slots u', v' start at
    base[r]."""
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    if n.size == 1:
        np.divmod(keys, n[0], out=(pairs[:, 0], pairs[:, 1]))
        return pairs
    per = np.diff(np.searchsorted(keys, kbase))
    np.divmod(keys - np.repeat(kbase[:-1], per), np.repeat(n, per), out=(pairs[:, 0], pairs[:, 1]))
    pairs += np.repeat(base[:-1], per)[:, None]
    return pairs


def _heavy_pairs(heavy: np.ndarray):
    """(replicate, a, b) of each pair of heavy points a < b of a replicate,
    which has heavy[r] of them, counted through the block: replicate by
    replicate, in ``np.triu_indices`` order. The replicate of a block of one
    is 0."""
    iu, ju = np.triu_indices(int(heavy.max()), k=1)
    if heavy.size == 1:
        return 0, iu, ju
    rep, pair = np.nonzero(ju < heavy[:, None])
    first = np.concatenate(([0], np.cumsum(heavy)))[rep]
    return rep, first + iu[pair], first + ju[pair]


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
        # clipped in place; pts itself is still needed for self loops, stars
        # and retain_latent, so an f that is pts (or a view of it) is copied
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

    def acceptance(self, lo, hi):
        """The probability f_lo f_hi / (1 - exp(-c0 f_lo f_hi)) of accepting a
        proposed pair."""
        p = self.f[lo] * self.f[hi]
        return p / (-np.expm1(-_C0 * p))

    def propose(self, kbase: np.ndarray) -> None:
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
        order = np.argsort(rep * tables + self.big, kind="stable") if tables == 2 else slice(None)
        rep, col = rep[order], col[order]
        self.row = rep * tables + self.big[order]
        self.at = self.table[self.row, col]
        self.reach = self.table[self.row, -1] - self.at
        self.rate = self.c0 * f[order] * self.reach
        self.keybase = kbase[rep] + col * n[rep]

    def draw(self, r: int, gen, cfg: SamplerConfig):
        """Replicate r's partner counts and the uniforms of its partner keys,
        then, where the cloud thins, a coin for each of at most that many
        distinct pairs: a coin is one uniform, and nothing reads the stream
        after the coins."""
        rate = self.rate[self.base[r]:self.base[r + 1]]
        _check_proposals(float(rate.sum()), cfg)
        counts = gen.poisson(rate)
        m = int(counts.sum())
        if not m:
            return None
        return counts, gen.random(m), gen.random(m) if self.thin else None

    def pair_keys(self, draws, kbase):
        """Distinct proposed pair keys kbase[r] + u' * n[r] + v', u' < v' the
        slots inside replicate r, ascending, and each one's coin: slot u's
        keys fall in [cum[u], cum[-1]), where each later partner v holds
        [cum[v - 1], cum[v])."""
        counts = np.zeros(self.rate.size, dtype=np.int64)
        picks, coins, offsets, m = [], [], np.zeros(self.n.size, dtype=np.int64), 0
        for r, drawn in enumerate(draws):
            if drawn is not None:
                counts[self.base[r]:self.base[r + 1]] = drawn[0]
                picks.append(drawn[1])
                coins.append(drawn[2])
                offsets[r] = m
                m += drawn[1].size
        draws.clear()  # each array goes as soon as it is read
        if not picks:
            return np.empty(0, dtype=np.int64), np.empty(0)
        pick = picks[0] if len(picks) == 1 else np.concatenate(picks)
        del picks
        pick *= np.repeat(self.reach, counts)
        pick += np.repeat(self.at, counts)
        per_row = np.bincount(self.row, counts, self.table.shape[0]).astype(np.int64)
        key = np.repeat(self.keybase, counts)
        key += _partners(self.table, per_row, pick)
        del pick
        key = sorted_unique(key)
        if not self.thin:
            return key, None
        return key, _coins_of(key, kbase, offsets, coins[0] if len(coins) == 1 else np.concatenate(coins))


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


def _lazy_strata(g: Graphex, cfg: SamplerConfig, theta: float):
    """The strata of a lazy draw, or None where the full cloud is drawn."""
    nu = float(cfg.nu)
    if not (cfg.use_fast_path and g.s is None
            and getattr(g.separable_f, "nonincreasing", False)):
        return None
    edges, bound, mass, heavy = _strata(g, theta)
    covered = _C0 * (nu * mass) ** 2 + nu * heavy
    return None if covered >= nu * theta else (edges, bound)


class _LazyClouds:
    """The latent clouds of a block of replicates, in strata: stratum l of
    replicate r holds count[r, l] ~ Poi(nu width[l]) points on
    [lo[l], lo[l] + width[l]), where f <= bnd[l], and a planted point is a
    stratum of its own, of zero width. Slots run through the block,
    replicate by replicate and in each stratum by stratum; slot i of
    replicate r is slot base[r] + i. It sits at lo + width * u_i, with u_i
    read from the replicate's counter-based stream, so only the slots a draw
    touches are placed, and each the same whenever it is touched."""

    thin = True  # every proposal is accepted with its own probability

    def __init__(self, g: Graphex, edges, bound, planted, nu: float, gens):
        self.f = g.separable_f
        self.lo = np.concatenate((edges[:-1], planted))
        self.width = np.concatenate((np.diff(edges), 0.0 * planted))
        self.bnd = np.concatenate((bound, np.clip(self.f(planted), 0.0, 1.0)))
        mean = nu * np.diff(edges)
        counts, keys = [], []
        for gen in gens:
            counts.append(gen.poisson(mean))
            # gen.integers(2 ** 64, dtype=np.uint64) is this word, at a
            # fraction of the cost
            keys.append(gen.bit_generator.random_raw())
        self.key = np.array(keys, dtype=np.uint64)
        self.count = np.ones((len(counts), self.bnd.size), dtype=np.int64)
        self.count[:, :bound.size] = counts
        start = np.zeros((len(counts), self.bnd.size + 1), dtype=np.int64)
        np.cumsum(self.count, axis=1, out=start[:, 1:])
        self.n, self.n_cloud = start[:, -1].copy(), start[:, bound.size].copy()
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
        s = _partners(cum, counts, keys)
        off = (keys - below[rows, s]) / rate[s]
        return self.start[rows, s] + np.minimum(off, self.count[rows, s] - 1).astype(np.int64), s

    def propose(self, kbase: np.ndarray) -> None:
        """Each replicate's expected number of ordered pairs, c0 (sum F)^2 / 2."""
        total = self.below[:, -1]
        self.lam = _C0 * total * total / 2.0

    def draw(self, r: int, gen, cfg: SamplerConfig):
        """Replicate r's u keys, v keys and coins, as three rows of M ~
        Poi(c0 (sum F)^2 / 2) uniforms; there is at most one coin per
        distinct pair, and nothing reads the stream after the coins."""
        if self.below[r, -1] <= 0.0:
            return None
        _check_proposals(self.lam[r], cfg)
        m = int(gen.poisson(self.lam[r]))
        return gen.random(3 * m).reshape(3, m) if m else None

    def pair_keys(self, draws, kbase):
        """Distinct proposed pair keys kbase[r] + u' * n[r] + v', u' < v' the
        slots inside replicate r, ascending, and each one's coin: M ordered
        pairs with endpoints i.i.d. in proportion to F, less self pairs and
        heavy-heavy ones, so a pair {u, v} is proposed Poi(c0 F_u F_v) times,
        independently of all others."""
        m = np.array([0 if d is None else d.shape[1] for d in draws], dtype=np.int64)
        if not m.any():
            return np.empty(0, dtype=np.int64), np.empty(0)
        offsets = np.cumsum(m) - m
        u, v, coins = np.concatenate([d for d in draws if d is not None], axis=1)
        rows = np.repeat(np.arange(m.size), m) if m.size > 1 else 0
        u, su = self.locate(u, m, self.below, self.bnd)
        v, sv = self.locate(v, m, self.below, self.bnd)
        big = self.bnd > _TAU
        ok = (u != v) & ~(big[su] & big[sv])
        key = np.minimum(u, v) - self.base[rows]
        key *= self.n[rows]
        key += np.maximum(u, v) - self.base[rows]
        key += kbase[rows]
        key = sorted_unique(key[ok])
        return key, _coins_of(key, kbase, offsets, coins)

    def acceptance(self, lo, hi):
        """The probability f_lo f_hi / (1 - exp(-c0 F_lo F_hi)) of accepting
        a proposed pair."""
        (f_lo, bound_lo), (f_hi, bound_hi) = self.value(lo), self.value(hi)
        return f_lo * f_hi / (-np.expm1(-_C0 * (bound_lo * bound_hi)))

    def positions(self, slots):
        """Latent coordinates of the slots, and their strata."""
        flat = np.searchsorted(self.start.ravel(), slots, side="right") - 1
        rows, s = np.divmod(flat, self.bnd.size)
        u = rngmod.uniform_at(self.key[rows], slots - self.base[rows])
        return self.lo[s] + self.width[s] * u, s

    def value(self, slots, h=None):
        """f at the slots and its bound there, or h and the bound's square for
        an h bounded by f^2."""
        x, s = self.positions(slots)
        bound = self.bnd[s] if h is None else self.bnd[s] ** 2
        return _checked(x, (h or self.f)(x), bound), bound

    def loops(self, g: Graphex, gens) -> np.ndarray:
        """Slots with a self loop, ascending: heavy ones by a coin each, the
        others by thinning Poi(c0 F^2) proposals per point against W(x, x).
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
        # a planted heavy slot comes after the light ones of its cloud
        return np.sort(np.concatenate(hits))


def _stratum_of(cum, keys):
    """The stratum whose share of ``cum`` holds each key; a key at the total
    goes to the last stratum of any weight."""
    return np.minimum(np.searchsorted(cum, keys, side="right"), np.searchsorted(cum, cum[-1]))


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


def _check_proposals(lam: float, cfg: SamplerConfig) -> None:
    if lam > cfg.max_proposals:
        raise SamplerError(
            f"the proposal rate {lam:.3g} exceeds max_proposals; "
            "lower nu or raise the cap")


def _kernel_pairs(cloud, gens, cfg: SamplerConfig) -> np.ndarray:
    """Kernel pairs of a block of full or lazy clouds, as slot pairs (u, v),
    u < v, replicate by replicate and in (u, v) order inside each: direct
    coins for the heavy pairs, then the cloud's proposals, each accepted
    once with probability f_u f_v / (1 - exp(-c0 F_u F_v)) where the cloud
    thins them; see the module docstring. Each replicate's stream draws, in
    this order, its heavy coins and its proposals."""
    n, base = cloud.n, cloud.base
    # pair keys kbase[r] + u' * n[r] + v' order the pairs of the whole block
    # (``_block_size`` keeps them below 2^63)
    kbase = np.concatenate(([0], np.cumsum(n * n)))
    heavy = cloud.n_heavy
    worst = int(heavy.max())
    if worst * (worst - 1) / 2 > cfg.max_pair_coins:
        raise SamplerError(
            f"{worst} latent points have f > {_TAU}; too many heavy pairs to coin "
            "(raise max_pair_coins or lower nu)")
    cloud.propose(kbase)
    coins, draws = [], []
    for r, gen in enumerate(gens):
        if n[r] < 2:
            draws.append(None)
            continue
        h = int(heavy[r])
        if h >= 2:
            coins.append(gen.random(h * (h - 1) // 2))
        draws.append(cloud.draw(r, gen, cfg))

    # each run holds pair keys, ascending: the heavy pairs come out of
    # triu_indices over ascending slots, the light ones out of the dedupe
    runs = [_heavy_keys(cloud, coins, kbase)] if coins else []
    key, coin = cloud.pair_keys(draws, kbase)
    if key.size and cloud.thin:
        key = key[coin < cloud.acceptance(*_pairs_of(key, kbase, n, base).T)]
    if key.size:
        runs.append(key)
    if not runs:
        return np.empty((0, 2), dtype=np.int64)
    # a stable sort merges two sorted runs in one pass; no heavy pair was
    # proposed, so they share no key
    key = runs[0] if len(runs) == 1 else np.sort(np.concatenate(runs), kind="stable")
    return _pairs_of(key, kbase, n, base)


def _heavy_keys(cloud, coins: list, kbase: np.ndarray) -> np.ndarray:
    """The pair keys of the heavy pairs that the coins keep, ascending: pair
    {u, v} is kept with probability f_u f_v."""
    rep, a, b = _heavy_pairs(cloud.n_heavy)
    fh = cloud.value(cloud.heavy)[0]
    keep = np.concatenate(coins) < fh[a] * fh[b]
    u, v = cloud.heavy[a[keep]], cloud.heavy[b[keep]]
    rep = rep[keep] if np.ndim(rep) else rep
    base = cloud.base[rep]
    return kbase[rep] + (u - base) * cloud.n[rep] + (v - base)


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
    # blocks come row band by row band; return (u, v) order, as _kernel_pairs does
    order = np.lexsort((v, u))
    return np.column_stack((u[order], v[order])).astype(np.int64)


# ---------------------------------------------------------------------------
# Full draw
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """The draws of a block of replicates, as one graph: replicate i owns the
    vertices vertex_start[i]:vertex_start[i + 1] and the edges
    edge_start[i]:edge_start[i + 1], whose endpoints are vertex ids of the
    block. ``labels`` is None where they were not drawn; ``planted`` holds
    each replicate's planted vertices, numbered inside the replicate."""

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
    planted: np.ndarray

    @property
    def reps(self) -> int:
        return len(self.seeds)

    def replicate_of(self, vertices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.vertex_start, vertices, side="right") - 1

    def graph(self, i: int) -> SampledGraph:
        """Replicate i as a graph of its own."""
        v0, v1 = int(self.vertex_start[i]), int(self.vertex_start[i + 1])
        e0, e1 = int(self.edge_start[i]), int(self.edge_start[i + 1])
        edges = self.edges[e0:e1]
        return SampledGraph(
            nu=self.nu, seed=self.seeds[i], theta_max=self.theta, epsilon=self.eps,
            labels=self.labels[v0:v1], edges=edges - v0 if v0 else edges,
            provenance=self.provenance[e0:e1],
            latent=None if self.latent is None else self.latent[v0:v1],
            planted_indices=tuple(self.planted[i].tolist()),
        )


# expected points, proposals and coins per block of replicates; a draw
# bigger than this is a block of its own. Measured on 2 cores over the
# validation and projectivity draws of the sparse-clouds benchmark, blocks
# of twice this size are 3% faster and hold twice the memory, blocks of half
# of it 30% slower
_BLOCK_WORK = 1 << 14


def _block_size(g: Graphex, cfg: SamplerConfig) -> int:
    """How many replicates at cfg share one block: as many as split
    ``_BLOCK_WORK`` by the expected work of one draw. A lazy draw expects
    c0 (nu sum F)^2 proposal endpoints, nu * (heavy width) heavy points and
    a Poisson count per stratum. A full cloud expects nu * theta_max points,
    and for ordered proposals at most 2 nu^2 ||W||_1 proposals and heavy
    coins (c0 < 2, and f > 1/2 on a set no wider than 2 ||f||_1), the
    naive path (nu * theta_max)^2 / 2 coins. The pair keys of a block stay
    below 2^63."""
    nu = float(cfg.nu)
    theta = cfg.theta_max if cfg.theta_max is not None else choose_theta_max(g, nu, cfg.eps)
    points = nu * theta
    if _lazy_strata(g, cfg, theta) is not None:
        _, bound, mass, heavy = _strata(g, theta)
        work = _C0 * (nu * mass) ** 2 + nu * heavy + bound.size
    else:
        norm = g.w_l1_value if g.separable_f is not None else None
        rate_l1 = g._cache.get(("rate_l1",))
        if g.rate_factor is not None and rate_l1 is not None and rate_l1.converged:
            norm = rate_l1.value ** 2
        fast = cfg.use_fast_path and norm is not None
        work = points + (2.0 * nu * nu * norm if fast else points * points / 2.0)
    size = int(_BLOCK_WORK // max(work, 1.0))
    return max(1, min(size, int(2.0 ** 61 / (1.1 * points + 100.0) ** 2)))


def _full_points(expected: float, theta: float, planted: np.ndarray, reps: int, gens):
    """Every replicate's latent points, replicate by replicate, its planted
    ones last; the first slot of each replicate, and its number of points
    that are not planted."""
    empty = np.empty(0)
    clouds = [empty] * reps
    if expected > 0:
        clouds = []
        for gen in gens:
            k = int(gen.poisson(expected))
            clouds.append(gen.uniform(0.0, theta, k) if k else empty)
    n_cloud = np.array([c.size for c in clouds], dtype=np.int64)
    pts = np.concatenate([x for c in clouds for x in (c, planted)])
    base = np.concatenate(([0], np.cumsum(n_cloud + planted.size)))
    return pts, base, n_cloud


def _draw(g: Graphex, cfg: SamplerConfig, seeds, planted=(), labels: bool = True) -> _Block:
    """Draw a block of replicates: replicate i is the graph that
    ``sample_keg`` draws at cfg with seed seeds[i] (cfg.seed is not read),
    to the bit. Each of its streams gets the calls it gets in a draw of its
    own, in the same order; between the calls, every stage runs once over
    the whole block. Labels are drawn only where ``labels`` asks for them."""
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

    planted = np.asarray([float(x) for x in planted], dtype=float)
    for x in planted.tolist():
        if not (math.isfinite(x) and x >= 0):
            raise SamplerError(f"planted latent coordinates must be finite and >= 0, "
                               f"got {x!r}")
    seeds = tuple(seeds)
    reps = len(seeds)

    def gens(stream):
        return rngmod.streams(seeds, stream)

    strata = _lazy_strata(g, cfg, theta)
    if strata is not None:
        cloud = _LazyClouds(g, *strata, planted, nu, gens(_STREAM_LATENT))
        base, n_cloud = cloud.base, cloud.n_cloud
    else:
        pts, base, n_cloud = _full_points(expected_points, theta, planted, reps,
                                          gens(_STREAM_LATENT))
        fast = g.separable_f is not None or g.rate_factor is not None
        cloud = _Clouds(g, pts, base) if cfg.use_fast_path and fast else None
    n = np.diff(base)
    most = int(n.max())
    planted_slots = (base[:-1] + n_cloud)[:, None] + np.arange(planted.size)

    # kernel pairs
    pairs = np.empty((0, 2), dtype=np.int64)
    if g.w is not None and most >= 2:
        if cloud is not None:
            pairs = _kernel_pairs(cloud, gens(_STREAM_PAIRS), cfg)
        else:
            naive = [_pairs_naive(g, pts[base[r]:base[r + 1]], gen, cfg) + base[r]
                     for r, gen in enumerate(gens(_STREAM_PAIRS)) if n[r] >= 2]
            pairs = naive[0] if len(naive) == 1 else np.concatenate(naive)
    if strata is None:
        cloud = None  # a full cloud's weights and tables serve only its pairs

    # self loops
    loops = np.empty(0, dtype=np.int64)
    if g.self_edges and g.diag is not None and most:
        if strata is not None:
            loops = cloud.loops(g, gens(_STREAM_SELF))
        else:
            d = np.clip(np.asarray(g.diag_at(pts), dtype=float), 0.0, 1.0)
            coins = [gen.random(k) for gen, k in zip(gens(_STREAM_SELF), n.tolist()) if k]
            loops = np.flatnonzero(np.concatenate(coins) < d)

    # star leaves (a lazy draw has no star rate)
    n_leaves = np.zeros(reps, dtype=np.int64)
    hubs = np.empty(0, dtype=np.int64)
    if g.s is not None and most:
        rates = nu * np.clip(np.asarray(g.s_at(pts), dtype=float), 0.0, None)
        leaves = [gen.poisson(rates[base[r]:base[r + 1]]) if n[r] else np.empty(0, dtype=np.int64)
                  for r, gen in enumerate(gens(_STREAM_STARS))]
        n_leaves = np.array([k.sum() for k in leaves], dtype=np.int64)
        hubs = np.repeat(np.arange(pts.size, dtype=np.int64), np.concatenate(leaves))

    # isolated edges
    n_iso = np.zeros(reps, dtype=np.int64)
    if g.isolated_rate > 0.0 and nu > 0.0:
        n_iso = np.array([gen.poisson(g.isolated_rate * nu * nu)
                          for gen in gens(_STREAM_ISOLATED)], dtype=np.int64)

    # visibility and final indexing: each replicate's kept latent slots in
    # slot order, then its star leaves and its isolated-edge endpoints
    n_ends = 2 * pairs.shape[0]
    visible, index = ranked_unique(np.concatenate((pairs.ravel(), loops, hubs,
                                                   planted_slots.ravel())))
    first_visible = np.searchsorted(visible, base)
    v0 = np.diff(first_visible)
    n_vertices = v0 + n_leaves + 2 * n_iso
    vertex_start = np.concatenate(([0], np.cumsum(n_vertices)))
    vertex = np.arange(visible.size, dtype=np.int64)
    if reps > 1:
        vertex += np.repeat(vertex_start[:-1] - first_visible[:-1], v0)
        index = vertex[index]

    rows = []
    provs = []
    if pairs.shape[0]:
        rows.append(index[:n_ends].reshape(pairs.shape))
        provs.append(np.zeros(pairs.shape[0], dtype=np.uint8))
    if loops.size:
        at = index[n_ends:n_ends + loops.size]
        rows.append(np.column_stack((at, at)))
        provs.append(np.zeros(loops.size, dtype=np.uint8))
    # the k-th leaf, and the k-th isolated edge, of the block: the ones before
    # it in its replicate come after that replicate's latent vertices (and
    # leaves)
    first = vertex_start[:-1] + v0
    if hubs.size:
        leaf = np.arange(hubs.size) + np.repeat(first - (np.cumsum(n_leaves) - n_leaves), n_leaves)
        at = n_ends + loops.size
        rows.append(np.column_stack((index[at:at + hubs.size], leaf)))
        provs.append(np.full(hubs.size, PROV_STAR, dtype=np.uint8))
    if n_iso.any():
        first += n_leaves - 2 * (np.cumsum(n_iso) - n_iso)
        left = 2 * np.arange(int(n_iso.sum())) + np.repeat(first, n_iso)
        rows.append(np.column_stack((left, left + 1)))
        provs.append(np.full(left.size, PROV_ISOLATED, dtype=np.uint8))

    total = int(vertex_start[-1])
    if rows:
        edges = np.vstack(rows).astype(np.int64, copy=False) if len(rows) > 1 else rows[0]
        provenance = np.concatenate(provs)
        # each run is in (u, v) order through the block: the kernel pairs
        # (the slot -> index map is increasing), the self loops, the star
        # edges, and the isolated edges, whose vertices come after all others
        # of their replicate. Only where two of the first three meet, or the
        # isolated edges follow rows of several replicates, do the rows need
        # sorting
        kernel_runs = (pairs.shape[0] > 0) + (loops.size > 0) + (hubs.size > 0)
        if kernel_runs > 1 or (reps > 1 and kernel_runs and n_iso.any()):
            # one stable sort on a combined key is the lexicographic order of
            # (u, v, provenance) at half the cost of np.lexsort; u, v <
            # total and provenance < 3, so the key fits int64 below 1.7e9
            # vertices
            key = (edges[:, 0] * total + edges[:, 1]) * len(PROV_NAMES) + provenance
            order = np.argsort(key, kind="stable")
            edges = edges[order]
            provenance = provenance[order]
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        provenance = np.empty(0, dtype=np.uint8)

    drawn_labels = None
    if labels:
        drawn_labels = [gen.uniform(0.0, nu, k) if k else np.empty(0)
                        for gen, k in zip(gens(_STREAM_LABELS), n_vertices.tolist())]
        drawn_labels = drawn_labels[0] if reps == 1 else np.concatenate(drawn_labels)

    latent = None
    if cfg.retain_latent:
        latent = np.full(total, np.nan)
        latent[vertex] = pts[visible] if strata is None else cloud.positions(visible)[0]

    at = n_ends + loops.size + hubs.size
    planted_final = index[at:].reshape(planted_slots.shape) - vertex_start[:-1, None]

    return _Block(
        nu=nu, theta=float(theta), eps=float(cfg.eps), seeds=seeds,
        edges=edges, provenance=provenance,
        edge_start=np.searchsorted(edges[:, 0], vertex_start) if reps > 1
        else np.array([0, edges.shape[0]]),
        vertex_start=vertex_start, labels=drawn_labels, latent=latent,
        planted=planted_final,
    )


def sample_keg(g: Graphex, cfg: SamplerConfig, planted=()) -> SampledGraph:
    """Draw one graph. ``planted`` lists latent coordinates of extra points
    that join the latent cloud deterministically and are always kept in the
    vertex set, visible or not (their final indices are reported in
    ``planted_indices``). It is the block of one of the replicate engine."""
    return _draw(g, cfg, (cfg.seed,), planted).graph(0)


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

    Only edges toward the ambient cloud count (no self loop), so each
    replicate thins a Poisson process of rate nu * B on [0, theta_max]:
    B = W(lam, a_l) on the strata of a declared nonincreasing f (see the
    module docstring), else 1, and a candidate at x is an edge with
    probability W(lam, x) / B. The draw never reads the theory.
    """
    if g.w is None:
        raise SamplerError("the graphex has no kernel, the planted degree is always 0")
    if not (isinstance(reps, int) and not isinstance(reps, bool) and reps >= 1):
        raise SamplerError(f"reps must be a positive integer, got {reps!r}")
    # bool is a subclass of int, but True is no latent coordinate
    if isinstance(lam, bool) or not (math.isfinite(lam) and lam >= 0):
        raise SamplerError(f"lam must be finite and >= 0, got {lam!r}")
    _check_level(nu, "nu")
    if theta_max is not None:
        _check_theta_max(theta_max)
    theta = theta_max if theta_max is not None else choose_theta_max(g, nu, eps)
    if getattr(g.separable_f, "nonincreasing", False):
        edges = _strata(g, theta)[0]
        bound = np.clip(np.asarray(g.w_at(lam, edges[:-1]), dtype=float), 0.0, 1.0)
    else:
        edges, bound = np.array([0.0, theta]), np.ones(1)
    cum = np.cumsum(np.diff(edges) * bound)
    gen = rngmod.stream(seed, _STREAM_PLANTED)
    counts = gen.poisson(nu * cum[-1], size=reps).astype(np.int64)
    degrees = np.empty(reps, dtype=np.int64)
    # blocks of about 2e6 expected candidates bound the memory when B = 1
    block = max(1, int(2e6 // max(nu * cum[-1], 1.0)))
    for r0 in range(0, reps, block):
        c = counts[r0:r0 + block]
        keys = gen.uniform(0.0, cum[-1], int(c.sum()))
        s = _stratum_of(cum, keys)
        x = edges[s] + (keys - np.append(0.0, cum)[s]) / bound[s]
        hit = gen.random(keys.size) < _checked(x, g.w_at(lam, x), bound[s]) / bound[s]
        # hits of replicate i are those at positions ends[i] .. ends[i+1]
        ends = np.concatenate(([0], np.cumsum(c)))
        degrees[r0:r0 + block] = np.diff(np.flatnonzero(hit).searchsorted(ends))
    return degrees
