"""Quadrature over the latent axis, and Poisson tail probabilities.

The theory engine needs integrals over [0, inf) of integrands that are
smooth except at a few jumps. :func:`integrate_array` is the one integrator:
it integrates an array integrand for a whole array of limits with the
double-exponential (tanh-sinh) rule of Takahasi & Mori (1974), first in one
pass (:func:`first_pass`), then, for the elements that pass does not
settle, by splitting their intervals in rounds of array calls: finite
pieces in half, tails at powers of two. A jump ends up in a short piece,
and a tail that never settles is reported as not converged.

The rule is SciPy's ``scipy.integrate.tanhsinh`` (as of SciPy 1.17),
ported to NumPy alone without its per-call framework: the same nodes and
weights, the same substitution x = 1/t - 1 + a for [a, inf), the same
Euler-Maclaurin sums and error estimate (Bailey, Jeyabalan & Li 2005) and
the same stop per element. Every number comes from the same floating-point
operations on the same operands in the same order, sums included, so value,
error, convergence and evaluation count are SciPy's bit for bit; a test
holds the two against each other. Only SciPy's probe of the centre node, a
node that level 0 evaluates anyway, is left out. The integrand sees the
finite rows first, then the [a, inf) rows; it is elementwise, so their
order moves no bit.

A call of a few rows costs mostly the rule's own NumPy calls, so what is the
same for many integrals or many levels is computed once:

- per process and level (cached): the nodes and weights; for [a, inf), whose
  integrals all share the nodes t on [0, 1], also t, 1/t - 1, t^-2, the
  weights, the nodes that no row can use (no weight, or t^-2 infinite) and
  the outermost other node at each end; and the terms of levels 3 and 2 that
  the first test (level 4) sums again;
- per call: the limits are checked and laid out as one (2, n) array, and
  each row adds only its a to the shared 1/t - 1;
- per level: one finiteness pass over f serves both the check for a
  non-finite value and, on finite rows, the nodes to leave out (there f is
  finite wherever the weight is not zero). A block of [a, inf) rows whose
  f t^-2 is finite wherever t^-2 is takes its outermost node from the cache;
  only a block with another non-finite value is searched node by node. Rows
  are dropped only when some stop and others go on.

:func:`poisson_tail` evaluates P(Poisson(lam) > k) through the regularized
lower incomplete gamma function, accurate to ~1e-14 absolute across the
supported range (lam up to ~1e6, k up to ~1e5), far inside the 1e-12 contract.

SciPy loads on the first Poisson tail, not on import; no integral loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "first_pass",
    "integrate_array",
    "refine",
    "poisson_tail",
]


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of a quadrature call.

    ``error_estimate`` is the absolute error estimate, summed over pieces.
    ``converged`` is True when it meets the requested relative tolerance;
    callers must check it before trusting ``value``.
    """

    value: float
    error_estimate: float
    converged: bool
    evaluations: int

    def __post_init__(self):
        if math.isnan(self.value):
            raise QuadratureError("integral evaluated to NaN")


# tanh-sinh converges quadratically, so running it to near full precision
# costs at most a level more than a loose tolerance would. Its error estimate
# compares successive levels, and coarse levels can agree by chance, so the
# first test waits for level 4 (stopping at level 3, a caron-fox degree
# integral claimed 1e-13 and was 4e-10 off). The absolute floor lets an
# integral of exact zeros stop at once.
_TS_RTOL = 1e-12
_TS_ATOL = 1e-300
_TS_MINLEVEL = 4
_TS_MAXLEVEL = 10


def first_pass(f, a, b, rel_tol: float = 1e-8, args: tuple = ()):
    """One pass of the tanh-sinh rule over whole arrays of limits.

    ``f(t, *args)`` is elementwise: it takes an array of nodes (and the
    matching slices of ``args``) and returns the integrand there. The limits
    and ``args`` broadcast together. ``a`` must be finite and ``b`` may be
    infinite; a NaN limit, an infinite ``a`` or ``b < a`` raises
    QuadratureError. Returns arrays ``(value, error, converged,
    evaluations)`` of the broadcast shape.
    ``converged`` means that the rule met its own tolerance, or that its
    error estimate is within ``rel_tol`` (a rule stopped by the rounding
    floor of a very short interval). The rule assumes a smooth integrand: on
    a step it can stop early with a small, wrong error estimate, so split
    the limits at known jumps. A non-finite integrand value raises
    QuadratureError; the rule would put the nearest finite one in its place.
    Nested integrands use this pass alone, not a refinement at every node.
    ``f`` may return a read-only array, or one it keeps: the rule writes
    into the array ``f`` returns only where nothing else holds it.
    """
    return _tanhsinh(f, a, b, rel_tol, args, _TS_MAXLEVEL)


# The rule (Takahasi & Mori 1974) as SciPy's `tanhsinh` builds it. Level 0
# has the nodes j h0, j = 0..8, and level k adds the odd multiples of h0/2^k
# below 8 h0. h0 is chosen so that, at 8 h0, the distance 1 - x_j of the
# outermost node from the end of [-1, 1] is four times the smallest normal
# double (Vanherck, Soree & Magnus 2020, eq. 13). The centre node is used
# twice, once from each end, with half its weight.
_N_BASE_STEPS = 8
_H0 = math.asinh(math.log(2.0 / (4.0 * sys.float_info.min) - 1.0) / math.pi) / _N_BASE_STEPS
_EPS = sys.float_info.epsilon
_PAIRS = {}
_TAIL_NODES = {}
# x_j and -x_j: the node's signed distance out past the centre, at each end
_OUTWARD = np.array([[1.0], [-1.0]])


def _pairs(level, through=False):
    """(1 - x_j, w_j) for the nodes that level ``level`` adds or, with
    ``through``, for levels 0 to ``level``, in order; cached on first use."""
    key = (level, through)
    if key not in _PAIRS:
        if through:
            pairs = tuple(np.concatenate(p) for p in zip(*map(_pairs, range(level + 1))))
        else:
            j = (np.arange(_N_BASE_STEPS + 1) if level == 0 else
                 np.arange(1, _N_BASE_STEPS * 2**level + 1, 2))
            jh = j * (_H0 / 2**level)
            u1 = np.pi / 2 * np.cosh(jh)
            u2 = np.pi / 2 * np.sinh(jh)
            with np.errstate(over="ignore"):
                wj = u1 / np.cosh(u2)**2
                xjc = 1 / (np.exp(u2) * np.cosh(u2))
            if level == 0:
                wj[0] = wj[0] / 2
            pairs = (xjc, wj)
        for v in pairs:
            v.flags.writeable = False
        _PAIRS[key] = pairs
    return _PAIRS[key]


def _tail_nodes(level, through=False):
    """What every [a, inf) row shares at a level, as the rule makes it for a
    finite row on [0, 1]: arrays of shape (1, 2, n) of the nodes t (axis 1
    is the end a node is measured from: 1, then 0), 1/t - 1, t^-2 and the
    weights; then the nodes that can never be the outermost one (no weight,
    or t^-2 infinite, so that f t^-2 is not finite either), and of the
    others the outermost one at each end (:func:`_outermost`, shape (1, 2)).
    Cached on first use."""
    key = (level, through)
    if key not in _TAIL_NODES:
        xjc, wj = _pairs(level, through)
        t = np.concatenate((1.0 - 0.5 * xjc, 0.5 * xjc)).reshape(1, 2, -1)
        with np.errstate(over="ignore", divide="ignore"):
            t_jac = t**-2.
            t_w = np.where((t <= 0.0) | (t >= 1.0), 0.0, wj * 0.5)
            idle = (t_w == 0) | np.isinf(t_jac)
            nodes = (t, 1 / t - 1, t_jac, t_w, idle, *_outermost(idle, _OUTWARD * t))
        for v in nodes:
            v.flags.writeable = False
        _TAIL_NODES[key] = nodes
    return _TAIL_NODES[key]


# the first call's terms of levels 0 to _TS_MINLEVEL - 1, then of levels 0
# to _TS_MINLEVEL - 2: in a row of 2n terms, the first n1 (then n2) from
# each end
_N, _N1, _N2 = (_N_BASE_STEPS * 2**(_TS_MINLEVEL - back) + 1 for back in (0, 1, 2))
_LOWER = np.r_[0:_N1, _N:_N + _N1, 0:_N2, _N:_N + _N2]
_N_LOWER = 2 * _N1
# no node yet at either end: how far out (-inf), f (NaN) and |f w| (NaN)
_NO_EDGE = np.array([[-np.inf] * 2, [np.nan] * 2, [np.nan] * 2])[:, None]


def _as_limit(v):
    """A limit as a float array; a string, a complex number or a ragged
    list is refused by name."""
    try:
        limit = np.asarray(v)
        if limit.dtype.kind in "biufO":
            return limit.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise QuadratureError(f"a limit must be a number, got {v!r}")


def _limits(a, b, args=()):
    """The limits broadcast with ``args``, as one float array of shape
    (2, size), and the broadcast shape; refuses a limit that is not a
    number, limits and args that do not broadcast, a NaN, an infinite lower
    limit and b < a."""
    a, b = _as_limit(a), _as_limit(b)
    try:
        shape = np.broadcast(a, b, *args).shape
    except ValueError:
        shapes = ", ".join(str(np.shape(v)) for v in (a, b, *args))
        raise QuadratureError(f"the limits and args do not broadcast together: "
                              f"shapes {shapes}") from None
    ab = np.empty((2, *shape))
    ab[0], ab[1] = a, b
    ab = ab.reshape(2, -1)
    lo, hi = ab[0], ab[1]
    if np.count_nonzero(np.isfinite(lo) & (lo <= hi)) < lo.size:
        if not np.isfinite(lo).all() or np.isnan(hi).any():
            raise QuadratureError("a lower limit must be finite and an upper limit not NaN")
        raise QuadratureError("upper limit below lower limit")
    return ab, shape


def _outermost(invalid, outward):
    """For a block of rows of nodes (rows, 2 ends, n) and each row and end:
    the index into the block's terms of the outermost node that is not
    ``invalid`` (ties to the first, as SciPy's argmax), and how far out it
    lies (-inf where there is none)."""
    out = np.where(invalid, -np.inf, outward)
    k, _, n = out.shape
    return out.argmax(axis=-1) + np.arange(0, 2 * k * n, n).reshape(k, 2), out.max(axis=-1)


def _finite_block(lo, hi, xjc, wj, x):
    """The nodes of finite rows [lo, hi], written into x (rows, 2, n), and
    the rows' weights, their nodes without weight and the outermost other
    node at each end (:func:`_outermost`). On a finite row f is finite
    wherever the weight is not zero, so only the weight decides."""
    alpha = (hi - lo) / 2
    # axis 1 is the end a node is measured from: b, then a
    np.concatenate((-alpha * xjc + hi, alpha * xjc + lo), axis=1, out=x)
    w = np.where((x <= lo) | (x >= hi), 0.0, wj * alpha)
    zero = w == 0
    return w, zero, *_outermost(zero, _OUTWARD * x)


def _lone_references() -> int:
    """What sys.getrefcount reads for an array that one local variable
    holds, as ``_tanhsinh`` holds the integrand's ``fj``."""
    fj = np.empty(1)
    return sys.getrefcount(fj)


_LONE_REFERENCES = _lone_references()


def _tanhsinh(f, a, b, rel_tol, args, maxlevel):
    if not (0.0 < rel_tol <= 1e-2):
        raise QuadratureError(f"rel_tol must be in (0, 1e-2], got {rel_tol!r}")
    ab, shape = _limits(a, b, args)
    lo, hi = ab[0], ab[1]
    # the rule returns NaN on an interval one ulp wide; at double precision
    # a few ulps hold no mass, so such an interval is closed up, and it and
    # an empty one are settled before any node, as zero
    converged = hi - lo <= 4.0 * np.spacing(np.abs(lo))
    value = np.zeros(lo.size)
    error = np.zeros(lo.size)
    # SciPy's count starts at 1 for its probe of the centre node, which is
    # evaluated here only as a node of level 0; the count is kept as SciPy's
    nfev = converged.astype(np.int32)
    # the open integrals, a row each, and a row leaves when it stops. [a, inf)
    # is integrated over t in [0, 1], x = 1/t - 1 + a, dx = dt/t^2, and
    # those rows share their nodes in t, so the nf finite rows come first
    tail = hi == np.inf
    rows = (~(converged | tail)).nonzero()[0]
    nf = rows.size
    rows = np.concatenate((rows, tail.nonzero()[0]))
    ab = ab.take(rows, axis=1)
    lo, hi = ab[0, :, None, None], ab[1, :, None, None]
    rest = [np.broadcast_to(np.asarray(x), shape).ravel()[rows, None] for x in args]
    # the outermost node at each end so far whose weight is not zero and
    # whose value is finite: how far out it lies, its value, and |f w| there
    # (the error estimate needs the last term of the sum)
    edge = _NO_EDGE.repeat(rows.size, axis=1)
    rtol = min(rel_tol, _TS_RTOL)
    calls = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(_TS_MINLEVEL, maxlevel + 1):
            m = rows.size
            if not m:
                break
            h = _H0 / 2**level
            # the first call evaluates levels 0 to _TS_MINLEVEL at once
            through = level == _TS_MINLEVEL
            xjc, wj = _pairs(level, through)
            n = xjc.size
            # the points where f is evaluated, the finite rows' first, and
            # each block of rows with its weights, the nodes that have no
            # weight or no finite value, and at each end of a row the
            # outermost other node (see _outermost)
            x = np.empty((m, 2, n))
            blocks = []
            if nf:
                blocks.append((slice(0, nf), *_finite_block(lo[:nf], hi[:nf], xjc, wj, x[:nf])))
            if nf < m:
                t, t_inv, t_jac, t_w, idle, t_edge, t_far = _tail_nodes(level, through)
                np.add(t_inv, lo[nf:], x[nf:])
            x = x.reshape(m, -1)
            fj = np.asarray(f(x, *rest), dtype=float)
            if fj.shape != x.shape:
                raise QuadratureError("the integrand must return one value per node")
            # the terms are weighted in place, in f's array only where the
            # rule alone holds it: one that the integrand keeps, a view, or a
            # read-only one is copied first, and a fresh one, the usual case,
            # costs no copy
            if not (fj.flags.owndata and fj.flags.writeable
                    and sys.getrefcount(fj) <= _LONE_REFERENCES):
                fj = fj.copy()
            calls += 2 * n
            if np.count_nonzero(np.isfinite(fj)) < fj.size:
                # a node that rounds onto an endpoint carries no weight
                bad = ~np.isfinite(fj) & (x > lo[:, 0]) & (x < hi[:, 0])
                if bad.any():
                    raise QuadratureError(f"the integrand is not finite at t = {x[bad][0]!r}")
            f3 = fj.reshape(m, 2, -1)  # a view, written in place
            if nf < m:
                ft = f3[nf:]
                ft *= t_jac
                if np.count_nonzero(np.isfinite(ft) | idle) == ft.size:
                    # only the nodes that every [a, inf) row lacks: the
                    # outermost other one is the same in every row
                    i = t_edge + np.arange(0, ft.size, 2 * n)[:, None]
                    blocks.append((slice(nf, m), t_w, idle, i, t_far))
                else:
                    invalid = ~np.isfinite(ft) | (t_w == 0)
                    blocks.append((slice(nf, m), t_w, invalid,
                                   *_outermost(invalid, _OUTWARD * t)))
            for part, w, invalid, i, far in blocks:
                fp = f3[part]
                reach, edge_f, edge_fw = edge[0, part], edge[1, part], edge[2, part]
                new = far > reach
                np.copyto(reach, far, where=new)
                np.copyto(edge_f, fp.take(i), where=new)
                # a node without a weight or a finite value takes the
                # outermost one's value
                np.copyto(fp, edge_f[:, :, None], where=invalid)
                fp *= w
                np.copyto(edge_fw, np.abs(fp.take(i)), where=new)
            # fj now holds the terms f_j w_j
            fjwj = fj
            del x, f3, fp, w, invalid, blocks
            Sn = fjwj.sum(axis=-1) * h
            if through:
                # the estimates one and two levels down, from the same terms
                lower = fjwj.take(_LOWER, axis=1)
                S = np.empty((2, m))
                S[0] = lower[:, :_N_LOWER].sum(axis=-1) * (2 * h)
                S[1] = lower[:, _N_LOWER:].sum(axis=-1) * (4 * h)
            else:
                Sn = S[0] / 2 + Sn
            # the error estimate of Bailey, Jeyabalan & Li (2005), section 5:
            # with d1 and d2 how far Sn lies from the estimates one and two
            # levels down, d1^(log d1 / log d2) (0 where d1 is 0), d1^2,
            # eps max |f_j w_j|, the larger last term and eps |Sn|, the
            # largest of them, at most d1
            d = np.abs(Sn - S)
            d1 = d[0]
            log_d = np.log(d)
            temp = np.zeros(m)
            np.power(d1, log_d[0] / log_d[1], out=temp, where=d1 > 0)
            abs_sn = np.abs(Sn)
            aerr = np.minimum(np.maximum(np.maximum(np.maximum(np.maximum(
                temp, np.square(d1)), _EPS * np.abs(fjwj).max(axis=-1)),
                np.maximum(edge[2, :, 0], edge[2, :, 1])), _EPS * abs_sn), d1)
            del fjwj
            done = (aerr / abs_sn < rtol) | (aerr < _TS_ATOL)
            finite = np.isfinite(Sn)
            if level < maxlevel:
                keep = finite & ~done
                left = np.count_nonzero(keep)
            else:
                # a row stopped by the last level is settled if its error
                # estimate is within rel_tol (the rounding floor of a very
                # short interval)
                done |= finite & (aerr <= rel_tol * abs_sn)
                left = 0
            if not left:
                value[rows], error[rows], converged[rows], nfev[rows] = Sn, aerr, done, calls
                break
            if left < m:
                stop = ~keep
                r = rows[stop]
                value[r], error[r], converged[r], nfev[r] = Sn[stop], aerr[stop], done[stop], calls
                nf = np.count_nonzero(keep[:nf])
                rows, lo, hi, edge = rows[keep], lo[keep], hi[keep], edge[:, keep]
                rest = [v[keep] for v in rest]
                S, Sn = S[:, keep], Sn[keep]
            S[1] = S[0]
            S[0] = Sn
    return (value.reshape(shape)[()], error.reshape(shape)[()],
            converged.reshape(shape)[()], nfev.reshape(shape)[()])


# Refinement: on a jump, two levels of the rule can agree by chance and
# report a tiny, wrong error. So the error of a pair of halves is how far
# their sum lies from the piece they were cut from, plus their own estimates
# (times _OPEN_TRUST where the rule did not settle them). An integral is
# given up once a piece has been split _MAX_DEPTH times (a tail that has not
# settled by then diverges) or it has more than _MAX_PIECES open pieces. The
# refining rule stops at level _REFINE_MAXLEVEL, 1/32 of the first pass's
# cost: a piece that holds a jump is split, not refined.
_REFINE_MAXLEVEL = 5
_MAX_DEPTH = 64
_MAX_PIECES = 64
_OPEN_TRUST = 10.0


def integrate_array(f, a, b, rel_tol: float = 1e-8, args: tuple = ()):
    """Integrate f over [a, b] for whole arrays of limits: the arguments
    and results of :func:`first_pass`, which runs first. Every value it
    settles is returned as it is; :func:`refine` finishes the others."""
    value, error, converged, nfev = first_pass(f, a, b, rel_tol, args)
    if converged.all():
        return value, error, converged, nfev
    shape = value.shape
    value, error, converged, nfev = (np.array(r).ravel()
                                     for r in (value, error, converged, nfev))
    todo = np.flatnonzero(~converged)
    a, b, *args = (np.broadcast_to(v, shape).ravel()[todo] for v in (a, b, *args))
    value[todo], error[todo], converged[todo], extra = refine(
        f, a[:, None], b[:, None], rel_tol, tuple(args))
    nfev[todo] += extra
    return tuple(r.reshape(shape) for r in (value, error, converged, nfev))


def refine(f, a, b, rel_tol: float = 1e-8, args: tuple = ()):
    """Refine integrals that a first pass of the rule has not settled.

    Row i of the 2-d limits ``a`` and ``b`` holds the pieces of integral i;
    ``args`` are 1-d, one element per integral; ``f`` and the limits are as
    for :func:`first_pass`. Each round halves every open piece (a piece
    [a, inf) is cut at the next power of two above a) and integrates all
    the halves in one call. A pair of halves is kept when both settle and
    agree with their whole, and an integral is settled once all its pieces
    are kept or its errors sum to within ``rel_tol``. Returns 1-d arrays
    ``(value, error, converged, evaluations)``; ``converged`` is False for
    a divergent integral, or one whose jumps the budget cannot isolate.
    """
    (a, b), (n, k) = _limits(a, b)
    value = np.zeros(n)  # sums over the kept pieces
    error = np.zeros(n)
    nfev = np.zeros(n, dtype=int)
    status = np.zeros(n, dtype=int)  # 0 open, 1 settled, 2 given up
    owner = np.repeat(np.arange(n), k)  # the open pieces
    whole = np.full(owner.size, np.nan)  # each open piece's own value
    for depth in range(1, _MAX_DEPTH + 1):  # every open piece has been split depth times
        if not owner.size:
            break
        cut = np.where(np.isinf(b), np.exp2(np.floor(np.log2(np.maximum(a, 0.5))) + 1.0),
                       0.5 * (a + b))
        a, b = np.concatenate((a, cut)), np.concatenate((cut, b))
        v, e, ok, evaluations = _tanhsinh(
            f, a, b, rel_tol, tuple(np.tile(x[owner], 2) for x in args),
            _REFINE_MAXLEVEL)
        m = owner.size
        nfev += np.bincount(owner, evaluations[:m] + evaluations[m:], n).astype(int)
        e = np.where(ok, e, _OPEN_TRUST * e)
        pair = v[:m] + v[m:]
        with np.errstate(invalid="ignore"):  # inf - inf on an overflowing pair
            pair_err = np.abs(pair - whole) + e[:m] + e[m:]
        pair_err[~np.isfinite(pair_err)] = np.inf
        estimate = value + np.bincount(owner, pair, n)
        estimate_err = error + np.bincount(owner, pair_err, n)
        tol = rel_tol * np.where(np.isfinite(estimate), np.abs(estimate), 0.0)
        # a pair is kept when both halves settle and agree with their whole,
        # or when its error could not matter even summed over the whole
        # piece budget (short pieces at their rounding floor)
        kept = np.isfinite(pair_err) & (
            (ok[:m] & ok[m:] & (pair_err <= min(rel_tol, _TS_RTOL) * np.abs(pair)))
            | (pair_err <= tol[owner] / _MAX_PIECES))
        value += np.bincount(owner[kept], pair[kept], n)
        error += np.bincount(owner[kept], pair_err[kept], n)
        pieces = 2 * np.bincount(owner[~kept], minlength=n)
        live = status == 0
        settled = live & ((pieces == 0) | (estimate_err <= tol))
        status[settled] = 1
        status[live & ~settled & ((depth == _MAX_DEPTH) | (pieces > _MAX_PIECES))] = 2
        closed = live & (status != 0)
        value[closed], error[closed] = estimate[closed], estimate_err[closed]
        split = np.tile(~kept & (status[owner] == 0), 2)
        owner = np.tile(owner, 2)[split]
        a, b, whole = a[split], b[split], v[split]
    return value, error, status == 1, nfev


# ---------------------------------------------------------------------------
# Poisson tails
# ---------------------------------------------------------------------------

def poisson_tail(lam, k):
    """P(Poisson(lam) > k) for k a non-negative integer, lam >= 0.

    Identity: P(Poisson(lam) > k) = P(k+1, lam), the regularized lower
    incomplete gamma function, which scipy evaluates with the usual
    series/continued-fraction split around lam ~ k+1 in log space. Absolute
    error is well below 1e-12 across the supported range. Vectorised in both
    arguments: scalar lam and k give a float, anything else an array.
    """
    lam_arr = np.asarray(lam, dtype=float)
    k_arr = np.asarray(k)
    if np.any(lam_arr < 0) or np.any(~np.isfinite(lam_arr)):
        raise ValueError("lam must be finite and >= 0")
    k_float = np.asarray(k_arr, dtype=float)
    if np.any(k_float < 0) or np.any(np.floor(k_float) != k_float):
        raise ValueError("k must be a non-negative integer")
    # imported here so that importing graphex does not load SciPy
    from scipy.special import gammainc

    out = gammainc(k_float + 1.0, lam_arr)
    if np.isscalar(lam) and (np.isscalar(k) or k_float.ndim == 0):
        return float(out)
    return out
