"""Quadrature over the latent axis, and Poisson tail probabilities.

The theory engine needs integrals over [0, inf) of integrands that are
smooth except at a few jumps. :func:`integrate_array` is the one integrator:
it integrates an array integrand for a whole array of limits with the
double-exponential (tanh-sinh) rule of Takahasi & Mori (1974), first in one
pass (:func:`first_pass`), then, for the elements that pass does not
settle, by splitting their intervals in rounds of array calls: finite
pieces in half, tails at powers of two. A jump ends up in a short piece,
and a tail that never settles is reported as not converged.

:func:`poisson_tail` evaluates P(Poisson(lam) > k) through the regularized
lower incomplete gamma function, accurate to ~1e-14 absolute across the
supported range (lam up to ~1e6, k up to ~1e5), far inside the 1e-12 contract.

SciPy loads on the first integral or tail, not on import.
"""

from __future__ import annotations

import math
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
    and ``args`` broadcast together; ``b`` may be infinite. Returns arrays
    ``(value, error, converged, evaluations)`` of that broadcast shape.
    ``converged`` means that the rule met its own tolerance, or that its
    error estimate is within ``rel_tol`` (a rule stopped by the rounding
    floor of a very short interval). The rule assumes a smooth integrand: on
    a step it can stop early with a small, wrong error estimate, so split
    the limits at known jumps. A non-finite integrand value raises
    QuadratureError; the rule would put the nearest finite one in its place.
    Nested integrands use this pass alone, not a refinement at every node.
    """
    return _tanhsinh(f, a, b, rel_tol, args, _TS_MAXLEVEL)


def _tanhsinh(f, a, b, rel_tol, args, maxlevel):
    if not (0.0 < rel_tol <= 1e-2):
        raise QuadratureError(f"rel_tol must be in (0, 1e-2], got {rel_tol!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < a):
        raise QuadratureError("upper limit below lower limit")
    # the rule returns NaN on an interval one ulp wide; at double precision
    # a few ulps hold no mass, so such an interval is closed up
    b = np.where(b - a <= 4.0 * np.spacing(np.abs(a)), a, b)

    def checked(t, lo, hi, *rest):
        y = f(t, *rest)
        if not np.isfinite(y).all():
            # a node that rounds onto an endpoint carries no weight
            bad = ~np.isfinite(y) & (t > lo) & (t < hi)
            if bad.any():
                raise QuadratureError(f"the integrand is not finite at t = {t[bad][0]!r}")
        return y

    # imported here so that importing graphex does not load SciPy
    from scipy.integrate import tanhsinh

    res = tanhsinh(checked, a, b, args=(a, b, *args), rtol=min(rel_tol, _TS_RTOL),
                   atol=_TS_ATOL, minlevel=_TS_MINLEVEL, maxlevel=maxlevel)
    value = res.integral
    converged = res.success | (np.isfinite(value) & (res.error <= rel_tol * np.abs(value)))
    return value, res.error, converged, res.nfev


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
    ``args`` are 1-d, one element per integral; ``f`` is as for
    :func:`first_pass`. Each round halves every open piece (a piece
    [a, inf) is cut at the next power of two above a) and integrates all
    the halves in one call. A pair of halves is kept when both settle and
    agree with their whole, and an integral is settled once all its pieces
    are kept or its errors sum to within ``rel_tol``. Returns 1-d arrays
    ``(value, error, converged, evaluations)``; ``converged`` is False for
    a divergent integral, or one whose jumps the budget cannot isolate.
    """
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
