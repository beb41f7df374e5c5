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
node that level 0 evaluates anyway, is left out. What is the same for many
integrals is computed once: every [a, inf) integral has the same nodes t on
[0, 1], so t, 1/t - 1, t^-2 and the weights are made once per level (and
cached), and each row adds only its a. The integrand sees the finite rows
first, then the [a, inf) rows; it is elementwise, so their order moves no
bit.

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
    weights; cached on first use."""
    key = (level, through)
    if key not in _TAIL_NODES:
        xjc, wj = _pairs(level, through)
        t = np.concatenate((1.0 - 0.5 * xjc, 0.5 * xjc)).reshape(1, 2, -1)
        with np.errstate(over="ignore", divide="ignore"):
            nodes = (t, 1 / t - 1, t**-2., np.where((t <= 0.0) | (t >= 1.0), 0.0, wj * 0.5))
        for v in nodes:
            v.flags.writeable = False
        _TAIL_NODES[key] = nodes
    return _TAIL_NODES[key]


# the ends a node is measured from (axis 1 of the nodes), as indices
_ENDS = np.arange(2)


def _limits(a, b):
    """The limits as float arrays; refuses a NaN, an infinite lower limit
    and b < a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(a).all() or np.isnan(b).any():
        raise QuadratureError("a lower limit must be finite and an upper limit not NaN")
    if np.any(b < a):
        raise QuadratureError("upper limit below lower limit")
    return a, b


def _tanhsinh(f, a, b, rel_tol, args, maxlevel):
    if not (0.0 < rel_tol <= 1e-2):
        raise QuadratureError(f"rel_tol must be in (0, 1e-2], got {rel_tol!r}")
    a, b = _limits(a, b)
    # the rule returns NaN on an interval one ulp wide; at double precision
    # a few ulps hold no mass, so such an interval is closed up
    b = np.where(b - a <= 4.0 * np.spacing(np.abs(a)), a, b)
    shape = np.broadcast_shapes(a.shape, b.shape, *(np.shape(x) for x in args))
    lo, hi = (np.broadcast_to(v, shape).ravel() for v in (a, b))
    value = np.zeros(lo.size)
    error = np.zeros(lo.size)
    success = lo == hi  # an empty interval is settled before any node
    # SciPy's count starts at 1 for its probe of the centre node, which is
    # evaluated here only as a node of level 0; the count is kept as SciPy's
    nfev = np.ones(lo.size, dtype=np.int32)
    # the open integrals, a row each, and a row leaves when it stops. [a, inf)
    # is integrated over t in [0, 1], x = 1/t - 1 + a, dx = dt/t^2, and
    # those rows share their nodes in t, so the nf finite rows come first
    rows = np.flatnonzero(~success)
    finite = np.isfinite(hi[rows])
    rows = np.concatenate((rows[finite], rows[~finite]))
    nf = np.count_nonzero(finite)
    lo, hi = lo[rows, None, None], hi[rows, None, None]
    rest = [np.broadcast_to(np.asarray(x), shape).ravel()[rows, None] for x in args]
    # the outermost node at each end so far whose weight is not zero and
    # whose value is finite, and its value and weight: the error estimate
    # needs the last term of the sum
    reach = np.full((rows.size, 2), -np.inf)
    edge_f = np.full((rows.size, 2), np.nan)
    edge_w = np.zeros((rows.size, 2))
    rtol = min(rel_tol, _TS_RTOL)
    calls = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(_TS_MINLEVEL, maxlevel + 1):
            if not rows.size:
                break
            m = rows.size
            h = _H0 / 2**level
            # the first call evaluates levels 0 to _TS_MINLEVEL at once
            through = level == _TS_MINLEVEL
            # the points where f is evaluated, and each block of rows (the
            # finite ones, then the [a, inf) ones) with its nodes and weights
            blocks = []
            xjc, wj = _pairs(level, through)
            x = np.empty((m, 2, xjc.size))
            if nf:
                ta, tb = lo[:nf], hi[:nf]
                alpha = (tb - ta) / 2
                # axis 1 is the end a node is measured from: b, then a
                xj = np.concatenate((-alpha * xjc + tb, alpha * xjc + ta), axis=1,
                                    out=x[:nf])
                blocks.append((slice(0, nf), xj,
                               np.where((xj <= ta) | (xj >= tb), 0.0, wj * alpha)))
            if nf < m:
                t, t_inv, t_jac, t_w = _tail_nodes(level, through)
                blocks.append((slice(nf, m), t, t_w))
                np.add(t_inv, lo[nf:], out=x[nf:])
            x = x.reshape(m, -1)
            fj = np.asarray(f(x, *rest), dtype=float)
            if fj.shape != x.shape:
                raise QuadratureError("the integrand must return one value per node")
            if not np.isfinite(fj).all():
                # a node that rounds onto an endpoint carries no weight
                bad = ~np.isfinite(fj) & (x > lo[:, 0]) & (x < hi[:, 0])
                if bad.any():
                    raise QuadratureError(f"the integrand is not finite at t = {x[bad][0]!r}")
            del x
            calls += fj.shape[-1]
            f3 = fj.reshape(m, 2, -1)  # a view, written in place
            if nf < m:
                f3[nf:] *= t_jac
            for part, nodes, w in blocks:
                fp = f3[part]
                invalid = ~np.isfinite(fp) | (w == 0)
                out = np.where(invalid, -np.inf, _OUTWARD * nodes)
                row, i = np.arange(fp.shape[0])[:, None], np.argmax(out, axis=-1)
                far = out[row, _ENDS, i]
                new = far > reach[part]
                np.copyto(reach[part], far, where=new)
                np.copyto(edge_f[part], fp[row, _ENDS, i], where=new)
                np.copyto(edge_w[part], np.broadcast_to(w, fp.shape)[row, _ENDS, i], where=new)
                # a node without a finite value takes the outermost one's
                np.copyto(fp, edge_f[part, :, None], where=invalid)
                fp *= w
            # f3 now holds the terms f_j w_j
            fjwj = fj
            del blocks, nodes, w, fj, f3, fp, invalid, out
            Sn = np.sum(fjwj, axis=-1) * h
            if level == _TS_MINLEVEL:
                # the estimates one and two levels down, from the same terms
                terms = fjwj.reshape(m, 2, -1)
                Snm1, Snm2 = (
                    np.sum(terms[:, :, :_pairs(level - back, through=True)[0].size]
                           .reshape(m, -1), axis=-1) * (2**back * h)
                    for back in (1, 2))
            else:
                Sn = Snm1 / 2 + Sn
            # the error estimate of Bailey, Jeyabalan & Li (2005), section 5
            d1 = np.abs(Sn - Snm1)
            d2 = np.abs(Sn - Snm2)
            d3 = _EPS * np.max(np.abs(fjwj), axis=-1)
            d4 = np.max(np.abs(edge_f * edge_w), axis=-1)
            d5 = _EPS * np.abs(Sn)
            del fjwj
            temp = np.where(d1 > 0, d1**(np.log(d1) / np.log(d2)), 0)
            # the largest of temp, d1^2, d3 and d4, clipped to [d5, d1]
            aerr = np.minimum(np.maximum(np.maximum(np.maximum(np.maximum(
                temp, d1**2), d3), d4), d5), d1)
            done = (aerr / np.abs(Sn) < rtol) | (aerr < _TS_ATOL)
            stop = done | ~np.isfinite(Sn) | (level == maxlevel)
            value[rows[stop]], error[rows[stop]] = Sn[stop], aerr[stop]
            success[rows[stop]] = done[stop]
            nfev[rows[stop]] = calls
            keep = ~stop
            nf = np.count_nonzero(keep[:nf])
            rows, lo, hi = rows[keep], lo[keep], hi[keep]
            rest = [v[keep] for v in rest]
            reach, edge_f, edge_w = reach[keep], edge_f[keep], edge_w[keep]
            Snm2, Snm1 = Snm1[keep], Sn[keep]
    converged = success | (np.isfinite(value) & (error <= rel_tol * np.abs(value)))
    return tuple(r.reshape(shape)[()] for r in (value, error, converged, nfev))


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
    a, b = _limits(a, b)
    n, k = a.shape
    value = np.zeros(n)  # sums over the kept pieces
    error = np.zeros(n)
    nfev = np.zeros(n, dtype=int)
    status = np.zeros(n, dtype=int)  # 0 open, 1 settled, 2 given up
    owner = np.repeat(np.arange(n), k)  # the open pieces
    a, b = a.ravel(), b.ravel()
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
