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
    tail_mu = _majorant_tail(g) or g.tail_mu

    def budget(a: float) -> float:
        t = 0.0
        if g.w is not None:
            t += tail_mu(a, probe_tol)
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


class _Cloud:
    """Every latent point of a draw, drawn up front, with its weight f. A
    pair that is not heavy-heavy is proposed only from its lower slot u: a
    light u reaches every later slot, a heavy u every later light one.

    For a kernel with a rate factor r, f is r and c0 is 1, unclipped and
    with no heavy slot: the proposals are then the edges themselves, so
    ``thin`` is False. Otherwise f is the separable factor, clipped to
    [0, 1], and bounds itself."""

    def __init__(self, g: Graphex, pts: np.ndarray):
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
        self.n, self.heavy = pts.size, np.flatnonzero(self.big)

    def value(self, slots):
        """f at the slots, and its bound there."""
        f = self.f[slots]
        return f, f

    def acceptance(self, lo, hi):
        """The probability f_lo f_hi / (1 - exp(-c0 f_lo f_hi)) of accepting a
        proposed pair."""
        p = self.f[lo] * self.f[hi]
        return p / (-np.expm1(-_C0 * p))

    def proposals(self, gen, cfg: SamplerConfig) -> np.ndarray:
        """Distinct proposed pair keys u * n + v, u < v, ascending: slot u
        draws K_u ~ Poi(c0 f_u R_u) partners in proportion to f, R_u being
        the f-mass its table holds past u, so a pair {u, v} is proposed
        Poi(c0 f_u f_v) times, independently of all others."""
        f, n, big = self.f, self.n, self.big
        # (slots, cumulative f of their table): a heavy partner weighs 0 in
        # the heavy slots' table
        groups = [(np.flatnonzero(~big), np.cumsum(f))]
        if self.heavy.size:
            groups.append((self.heavy, np.cumsum(np.where(big, 0.0, f))))
        reach = [cum[-1] - cum[slots] for slots, cum in groups]
        rate = np.concatenate([self.c0 * f[slots] * r for (slots, _), r in zip(groups, reach)])
        _check_proposals(float(rate.sum()), cfg)
        counts = gen.poisson(rate)
        keys = []
        for (slots, cum), r in zip(groups, reach):
            count, counts = counts[:slots.size], counts[slots.size:]
            m = int(count.sum())
            if not m:
                continue
            # slot u's keys fall in [cum[u], cum[-1]), where each later
            # partner v holds [cum[v - 1], cum[v]); one that rounds up to
            # cum[-1] goes to the last partner of any weight, which lies past
            # every slot that drew a key
            pick = gen.random(m)
            pick *= np.repeat(r, count)
            u = np.repeat(slots, count)
            pick += cum[u]
            v = _endpoints(cum, pick)
            del pick
            np.minimum(v, np.searchsorted(cum, cum[-1]), out=v)
            u *= n
            u += v
            keys.append(u)
        if not keys:
            return np.empty(0, dtype=np.int64)
        return sorted_unique(np.concatenate(keys) if len(keys) > 1 else keys[0])


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


class _LazyCloud:
    """A latent cloud in strata: stratum l holds count[l] ~ Poi(nu width[l])
    points on [lo[l], lo[l] + width[l]), where f <= bnd[l], and a planted
    point is a stratum of its own, of zero width. Slots run stratum by
    stratum. Slot i sits at lo + width * u_i, with u_i read from a
    counter-based stream, so only the slots a draw touches are placed, and
    each the same whenever it is touched."""

    thin = True  # every proposal is accepted with its own probability

    def __init__(self, g: Graphex, edges, bound, planted, nu: float, gen):
        self.f = g.separable_f
        self.lo = np.concatenate((edges[:-1], planted))
        self.width = np.concatenate((np.diff(edges), 0.0 * planted))
        self.bnd = np.concatenate((bound, np.clip(self.f(planted), 0.0, 1.0)))
        self.count = np.concatenate((gen.poisson(nu * np.diff(edges)),
                                     np.ones(planted.size, dtype=np.int64)))
        self.start = np.concatenate(([0], np.cumsum(self.count)))
        self.n_cloud, self.n = int(self.start[bound.size]), int(self.start[-1])
        self.key = int(gen.integers(2 ** 64, dtype=np.uint64))
        heavy = np.flatnonzero(self.bnd > _TAU)
        c = self.count[heavy]
        self.heavy = np.repeat(self.start[heavy] - np.cumsum(c) + c, c) + np.arange(c.sum())
        self.cum = np.cumsum(self.count * self.bnd)
        self.total = float(self.cum[-1])

    def locate(self, keys, cum, rate):
        """Slots for unit keys (scaled in place), and their strata: the
        stratum whose share of ``cum`` holds the key, a point of stratum l
        weighing rate[l], then the index inside it."""
        keys *= cum[-1]
        s = _stratum_of(cum, keys)
        off = (keys - np.append(0.0, cum)[s]) / rate[s]
        return self.start[s] + np.minimum(off, self.count[s] - 1).astype(np.int64), s

    def proposals(self, gen, cfg: SamplerConfig) -> np.ndarray:
        """Distinct proposed pair keys u * n + v, u < v, ascending: M ~
        Poi(c0 (sum F)^2 / 2) ordered pairs with endpoints i.i.d. in
        proportion to F, less self pairs and heavy-heavy ones, so a pair
        {u, v} is proposed Poi(c0 F_u F_v) times, independently of all
        others."""
        if self.total <= 0.0:
            return np.empty(0, dtype=np.int64)
        lam = _C0 * self.total * self.total / 2.0
        _check_proposals(lam, cfg)
        m = int(gen.poisson(lam))
        if not m:
            return np.empty(0, dtype=np.int64)
        # the u keys, then the v keys, drawn in that order
        keys = np.empty(2 * m)
        gen.random(out=keys[:m])
        gen.random(out=keys[m:])
        ends, s = self.locate(keys, self.cum, self.bnd)
        big = self.bnd[s] > _TAU
        u = ends[:m]
        v = ends[m:]
        ok = (u != v) & ~(big[:m] & big[m:])
        key = np.minimum(u, v)
        key *= self.n
        key += np.maximum(u, v)
        return sorted_unique(key[ok])

    def acceptance(self, lo, hi):
        """The probability f_lo f_hi / (1 - exp(-c0 F_lo F_hi)) of accepting
        a proposed pair."""
        (f_lo, bound_lo), (f_hi, bound_hi) = self.value(lo), self.value(hi)
        return f_lo * f_hi / (-np.expm1(-_C0 * (bound_lo * bound_hi)))

    def positions(self, slots):
        """Latent coordinates of the slots, and their strata."""
        s = np.searchsorted(self.start, slots, side="right") - 1
        return self.lo[s] + self.width[s] * rngmod.uniform_at(self.key, slots), s

    def value(self, slots, h=None):
        """f at the slots and its bound there, or h and the bound's square for
        an h bounded by f^2."""
        x, s = self.positions(slots)
        bound = self.bnd[s] if h is None else self.bnd[s] ** 2
        return _checked(x, (h or self.f)(x), bound), bound

    def loops(self, g: Graphex, gen) -> np.ndarray:
        """Slots with a self loop, ascending: heavy ones by a coin each, the
        others by thinning Poi(c0 F^2) proposals per point against W(x, x)."""
        heavy = self.heavy
        hits = [heavy[gen.random(heavy.size) < self.value(heavy, g.diag_at)[0]]]
        rate = np.where(self.bnd > _TAU, 0.0, self.bnd ** 2)
        cum = np.cumsum(self.count * rate)
        m = int(gen.poisson(_C0 * cum[-1]))
        if m:
            cand = sorted_unique(self.locate(gen.random(m), cum, rate)[0])
            d, q = self.value(cand, g.diag_at)
            hits.append(cand[gen.random(cand.size) < d / -np.expm1(-_C0 * q)])
        # a planted heavy slot comes after the light ones of the cloud
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


def _kernel_pairs(cloud, gen, cfg: SamplerConfig) -> np.ndarray:
    """Kernel pairs of a full or a lazy cloud, in (u, v) order: direct coins
    for the heavy pairs, then the cloud's proposals, each accepted once with
    probability f_u f_v / (1 - exp(-c0 F_u F_v)) where the cloud thins them;
    see the module docstring."""
    n = cloud.n
    # each run holds pair keys u * n + v, ascending: the heavy pairs come out
    # of triu_indices over ascending slots, the light ones out of the dedupe
    runs = []
    heavy = cloud.heavy
    h = heavy.size
    if h >= 2:
        if h * (h - 1) / 2 > cfg.max_pair_coins:
            raise SamplerError(
                f"{h} latent points have f > {_TAU}; too many heavy pairs to coin "
                "(raise max_pair_coins or lower nu)")
        iu, ju = np.triu_indices(h, k=1)
        fh = cloud.value(heavy)[0]
        p = fh[iu] * fh[ju]
        keep = gen.random(p.size) < p
        runs.append(heavy[iu[keep]].astype(np.int64, copy=False) * n + heavy[ju[keep]])

    key = cloud.proposals(gen, cfg)
    if key.size and cloud.thin:
        key = key[gen.random(key.size) < cloud.acceptance(*np.divmod(key, n))]
    if key.size:
        runs.append(key)

    if not runs:
        return np.empty((0, 2), dtype=np.int64)
    # a stable sort merges two sorted runs in one pass; no heavy pair was
    # proposed, so they share no key
    key = runs[0] if len(runs) == 1 else np.sort(np.concatenate(runs), kind="stable")
    pairs = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


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

    planted = np.asarray([float(x) for x in planted], dtype=float)
    for x in planted.tolist():
        if not (math.isfinite(x) and x >= 0):
            raise SamplerError(f"planted latent coordinates must be finite and >= 0, "
                               f"got {x!r}")
    gen_lat = rngmod.stream(cfg.seed, _STREAM_LATENT)
    strata = _lazy_strata(g, cfg, theta)
    if strata is not None:
        cloud = _LazyCloud(g, *strata, planted, nu, gen_lat)
        n_cloud, n = cloud.n_cloud, cloud.n
    else:
        n_cloud = int(gen_lat.poisson(expected_points)) if expected_points > 0 else 0
        pts = gen_lat.uniform(0.0, theta, n_cloud) if n_cloud else np.empty(0)
        if planted.size:
            pts = np.concatenate((pts, planted))
        n = pts.size
        fast = g.separable_f is not None or g.rate_factor is not None
        cloud = _Cloud(g, pts) if cfg.use_fast_path and fast else None
    planted_slots = np.arange(n_cloud, n, dtype=np.int64)

    # kernel pairs
    if g.w is not None and n >= 2:
        gen_pairs = rngmod.stream(cfg.seed, _STREAM_PAIRS)
        if cloud is not None:
            kernel_uv = _kernel_pairs(cloud, gen_pairs, cfg)
        else:
            kernel_uv = _pairs_naive(g, pts, gen_pairs, cfg)
    else:
        kernel_uv = np.empty((0, 2), dtype=np.int64)
    n_pairs, n_loops = kernel_uv.shape[0], 0

    # self loops
    if g.self_edges and g.diag is not None and n:
        gen_self = rngmod.stream(cfg.seed, _STREAM_SELF)
        if strata is not None:
            hit = cloud.loops(g, gen_self)
        else:
            d = np.clip(np.asarray(g.diag_at(pts), dtype=float), 0.0, 1.0)
            hit = np.nonzero(gen_self.random(n) < d)[0]
        n_loops = hit.size
        if n_loops:
            loops = np.column_stack((hit, hit)).astype(np.int64)
            kernel_uv = np.vstack((kernel_uv, loops)) if kernel_uv.size else loops

    # star leaves (a lazy draw has no star rate)
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
        edges = np.vstack(rows).astype(np.int64, copy=False) if len(rows) > 1 else rows[0]
        provenance = np.concatenate(provs)
        # each run is in (u, v) order: the kernel pairs (the slot -> index map
        # is increasing), the self loops, the star edges, and the isolated
        # edges, whose vertices come after all others. Only where two of the
        # first three meet do the rows need sorting
        if (n_pairs > 0) + (n_loops > 0) + (n_leaves > 0) > 1:
            # one stable sort on a combined key is the lexicographic order of
            # (u, v, provenance) at half the cost of np.lexsort; u, v <
            # n_vertices and provenance < 3, so the key fits int64 below 1.7e9
            # vertices
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
        latent[:v0] = pts[visible] if strata is None else cloud.positions(visible)[0]

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
