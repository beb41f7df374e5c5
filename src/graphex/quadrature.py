"""Quadrature over the latent axis, and Poisson tail probabilities.

The theory engine needs integrals of smooth, eventually-decaying integrands
over [0, inf). :func:`integrate_array` integrates an array integrand for a
whole array of limits in one call with the double-exponential (tanh-sinh)
rule of Takahasi & Mori (1974); every latent-axis integral runs on it first.
The scalar layer retries what it does not settle: :func:`integrate_semiinf`
integrates a scalar integrand over a growing window [0, A], doubling A until
the tail is provably (via ``tail_hint``) or empirically (geometric
extrapolation of shell integrals) below tolerance, falling back to the
compactifying substitution u = x/(1+x) when the window strategy cannot
certify convergence. The adaptive core on each finite panel is QUADPACK via
scipy.

:func:`poisson_tail` evaluates P(Poisson(lam) > k) through the regularized
lower incomplete gamma function, accurate to ~1e-14 absolute across the
supported range (lam up to ~1e6, k up to ~1e5), far inside the 1e-12 contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sciint
from scipy import special as _special

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "integrate_array",
    "integrate_semiinf",
    "integrate_interval",
    "poisson_tail",
]


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of a quadrature call.

    ``error_estimate`` is an absolute error bound estimate (quadrature error
    plus any certified or extrapolated tail mass). ``converged`` is True when
    the estimate meets the requested relative tolerance; callers must check it
    before trusting ``value``.
    """

    value: float
    error_estimate: float
    converged: bool
    evaluations: int

    def __post_init__(self):
        if math.isnan(self.value):
            raise QuadratureError("integral evaluated to NaN")


def _check_rel_tol(rel_tol: float) -> None:
    if not (0.0 < rel_tol <= 1e-2):
        raise QuadratureError(f"rel_tol must be in (0, 1e-2], got {rel_tol!r}")


# tanh-sinh converges quadratically, so running it to near full precision
# costs at most a level more than a loose tolerance would. Its error estimate
# compares successive levels, and coarse levels can agree by chance, so the
# first test waits for level 4 (stopping at level 3, a caron-fox degree
# integral claimed 1e-13 and was 4e-10 off). The absolute floor lets an
# integral of exact zeros stop at once.
_TS_RTOL = 1e-12
_TS_ATOL = 1e-300
_TS_MINLEVEL = 4


def integrate_array(f, a, b, rel_tol: float = 1e-8, args: tuple = ()):
    """Integrate f over [a, b] for whole arrays of limits in one call.

    ``f(t, *args)`` is elementwise: it takes an array of nodes (and the
    matching slices of ``args``) and returns the integrand there. The limits
    and ``args`` broadcast together; ``b`` may be infinite. Returns arrays
    ``(value, error, converged, evaluations)`` of that broadcast shape.
    ``converged`` means that the rule met its own tolerance, or that its
    error estimate is within ``rel_tol``: the latter admits a rule stopped
    at its last level by the rounding floor of a very short interval away
    from the origin. Callers retry the other elements on the scalar adaptive
    path. The rule assumes a smooth integrand on each interval: it can stop
    early, with a small error estimate, on a step inside one, so split the
    limits at known jumps.
    """
    _check_rel_tol(rel_tol)
    # the rule returns NaN on an interval one ulp wide; at double precision
    # a few ulps hold no mass, so such an interval is closed up
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = np.where(b - a <= 4.0 * np.spacing(np.abs(a)), a, b)
    res = _sciint.tanhsinh(f, a, b, args=args, rtol=min(rel_tol, _TS_RTOL),
                           atol=_TS_ATOL, minlevel=_TS_MINLEVEL)
    value, error = res.integral, res.error
    converged = res.success | (np.isfinite(value) & (error <= rel_tol * np.abs(value)))
    return value, error, converged, res.nfev


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    points: tuple[float, ...] = (),
    limit: int = 200,
) -> IntegralResult:
    """Adaptive integration of f over the finite interval [a, b].

    ``points`` marks known kinks/discontinuities inside the interval.
    ``limit`` caps adaptive subdivisions; lower it when each evaluation of
    ``f`` is itself expensive (nested quadrature) so that a non-integrable
    singularity fails fast instead of burning the whole refinement budget.
    """
    _check_rel_tol(rel_tol)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("integrate_interval needs finite endpoints")
    if b < a:
        raise QuadratureError("upper endpoint below lower endpoint")
    if b == a:
        return IntegralResult(0.0, 0.0, True, 0)
    inner = sorted(p for p in points if a < p < b)
    # QUADPACK refuses a limit below the number of pieces the points make,
    # and needs room to bisect them
    out = _sciint.quad(
        f, a, b, epsabs=0.0, epsrel=rel_tol, limit=max(limit, 2 * len(inner) + 2),
        points=inner or None, full_output=True,
    )
    value, err, info = out[:3]
    # a 4th element is a QUADPACK warning (divergence, roundoff trouble);
    # its error estimate is not trustworthy then, so never report converged
    warned = len(out) > 3
    neval = int(info["neval"])
    converged = (not warned) and err <= rel_tol * max(abs(value), 1e-300)
    if warned and err <= rel_tol * max(abs(value), 1e-300):
        err = abs(value) * 0.1 + err
    return IntegralResult(float(value), float(err), bool(converged), neval)


def integrate_semiinf(
    f: Callable[[float], float],
    rel_tol: float = 1e-8,
    tail_hint: Callable[[float], float] | None = None,
    initial_width: float = 1.0,
    points: tuple[float, ...] = (),
    max_doublings: int = 64,
    panel_limit: int = 200,
) -> IntegralResult:
    """Integrate f over [0, inf).

    ``tail_hint(A)``, when given, must be an upper bound on
    |integral of f over [A, inf)|; it turns the stopping rule into a
    certificate. Without it the tail is estimated by geometric extrapolation
    of successive dyadic shell integrals, with the u = x/(1+x) substitution on
    [0, 1) as a fallback when the shells refuse to decay.

    ``points`` marks known kinks or features: each splits the shell it falls
    in, and the stopping rules wait until the window has passed all of them,
    so that mass far from the origin is not missed. The shells stay dyadic.

    A panel whose own error estimate is large against the running total marks
    a non-integrable singularity; the call then returns non-converged at once
    rather than doubling and compactifying a hopeless integrand.
    """
    _check_rel_tol(rel_tol)
    if initial_width <= 0:
        raise QuadratureError("initial_width must be positive")

    inner_tol = min(rel_tol / 10.0, 1e-9)
    total = 0.0
    err_total = 0.0
    neval = 0
    prev_shell = None
    lo = 0.0
    hi = initial_width
    last_point = max(points, default=0.0)

    for _ in range(max_doublings):
        shell_points = tuple(p for p in points if lo < p < hi)
        res = integrate_interval(f, lo, hi, max(inner_tol, 1e-12), shell_points,
                                 limit=panel_limit)
        neval += res.evaluations
        total += res.value
        err_total += res.error_estimate
        if res.error_estimate > 1e-6 and \
                res.error_estimate > 0.01 * max(abs(total), 1e-300):
            return IntegralResult(total, err_total, False, neval)

        scale = max(abs(total), 1e-300)
        if hi <= last_point:
            prev_shell = abs(res.value)
        elif tail_hint is not None:
            tail = abs(tail_hint(hi))
            if tail <= 0.5 * rel_tol * scale:
                err = err_total + tail
                return IntegralResult(total, err, err <= rel_tol * scale, neval)
        else:
            shell = abs(res.value)
            if prev_shell is not None and shell <= 0.5 * rel_tol * scale:
                if shell == 0.0 and prev_shell == 0.0:
                    if total != 0.0:
                        # mass was seen and two whole shells are dead since:
                        # numerically compactly supported inside the window
                        return IntegralResult(total, err_total, True, neval)
                    # nothing seen at all: confirm over the whole line before
                    # certifying zero (a bump past the window is invisible to
                    # the dyadic shells alone)
                    compact = _integrate_compactified(f, rel_tol, neval, panel_limit)
                    if compact.converged:
                        return compact
                    return IntegralResult(total, err_total + compact.error_estimate,
                                          False, compact.evaluations)
                if 0 < shell < prev_shell:
                    r = shell / prev_shell
                    tail = shell * r / (1.0 - r)
                    if tail <= 0.5 * rel_tol * scale:
                        err = err_total + tail
                        return IntegralResult(total, err, err <= rel_tol * scale, neval)
            prev_shell = shell
        lo, hi = hi, hi * 2.0

    # window strategy failed to certify the tail: compactify instead
    return _integrate_compactified(f, rel_tol, neval, panel_limit)


def _integrate_compactified(f, rel_tol: float, neval0: int,
                            panel_limit: int = 200) -> IntegralResult:
    def g(u: float) -> float:
        if u >= 1.0:
            return 0.0
        w = 1.0 - u
        return f(u / w) / (w * w)

    out = _sciint.quad(
        g, 0.0, 1.0, epsabs=0.0, epsrel=rel_tol, limit=2 * panel_limit,
        full_output=True,
    )
    value, err, info = out[:3]
    warned = len(out) > 3
    neval = neval0 + int(info["neval"])
    converged = (not warned) and err <= rel_tol * max(abs(value), 1e-300)
    return IntegralResult(float(value), float(err), bool(converged), neval)


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
    out = _special.gammainc(k_float + 1.0, lam_arr)
    if np.isscalar(lam) and (np.isscalar(k) or k_float.ndim == 0):
        return float(out)
    return out
