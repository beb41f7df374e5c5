"""Expected graph statistics under a truncated graphex process.

For a graphex (I, S, W) observed at truncation level nu, the expected counts
have integral forms driven by the marginal mu(x) = int W(x, y) dy:

* edges: nu^2/2 * ||W||_1, plus nu * int W(x, x) dx when self edges are on,
  plus nu^2 * int S for star leaves and nu^2 * I for isolated edges.
* visible vertices: a latent point at x is visible when at least one incident
  edge exists, which happens with probability 1 - (1 - d(x)) e^{-nu (mu + S)}
  where d(x) = W(x, x) if self edges are on, else 0. Star leaves add
  nu^2 * int S vertices and isolated edges add 2 nu^2 * I.
* vertices of degree exactly k: a latent point's degree is
  Poi(nu (mu + S)) + 2 Bern(d), so the density at x is
  (1 - d) pois(k; rho) + d pois(k - 2; rho) with rho = nu (mu + S); star
  leaves and isolated-edge endpoints all have degree 1.

The asymptotic degree law of the kernel component is the ratio
P(D > k) = int P(Poi(nu mu) > k) dx / int (1 - e^{-nu mu}) dx, which is the
degree distribution of a visible vertex chosen uniformly at random, in the
large-nu limit ignoring stars, self edges and isolated edges.

All integrals run through :meth:`Graphex.integrate` on the array layer of
:mod:`graphex.quadrature`. The marginals at all the nodes of one level of the
outer rule come from one array call (:meth:`Graphex.nested_marginal`), which
is never refined: where it does not settle (a black-box kernel with jumps,
such as ``le(x, 2) * le(y, 2)``), the expectation raises a TheoryError at
once. Every integral over [0, inf) has the same nodes, and the graphex
memoises that call per node set, so every expectation at every nu shares the
inner passes of the first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import Graphex, GraphexError, _finite, _number
from .quadrature import QuadratureError, poisson_tail

__all__ = [
    "ExpectationResult",
    "TheoryError",
    "InfiniteExpectationError",
    "expected_edges",
    "expected_vertices",
    "expected_degree_count",
    "degree_ccdf",
    "degree_pmf",
]


# relative tolerance of every latent-axis integral below
_REL_TOL = 1e-9


class TheoryError(GraphexError):
    """An expectation could not be evaluated."""


class InfiniteExpectationError(TheoryError):
    """The requested expectation diverges."""


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    components: dict
    error_estimate: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "components": dict(self.components),
            "error_estimate": self.error_estimate,
        }


def _check_nu(nu: float) -> float:
    if not (_finite(nu) and nu >= 0):
        raise TheoryError(f"truncation level nu must be a finite number >= 0, got {nu!r}")
    return float(nu)


def _check_k(k, least: int, why: str = "") -> None:
    if not (_number(k, numbers.Integral) and k >= least):
        raise TheoryError(f"k must be an integer >= {least}, got {k!r}{why}")


def _pois_pmf(k: int, rho):
    """Poisson pmf at k for an array of rates rho, in log space;
    pois(k; 0) = 1[k == 0]."""
    if k < 0:
        return np.zeros(np.shape(rho))
    # imported here so that importing graphex does not load SciPy
    from scipy.special import gammaln, xlogy

    return np.exp(xlogy(k, rho) - rho - gammaln(k + 1))


def _rate(g: Graphex, nu: float):
    """x -> nu (mu(x) + S(x)), the Poisson rate of a latent point's other edges."""
    return lambda x: nu * g.nested_marginal(x) + nu * g.s_at(x)


def _latent_count(g: Graphex, nu: float, density, what, leaves: bool) -> ExpectationResult:
    """Expected count of vertices with some property at level nu.

    Latent points contribute nu * int density dx; every star leaf and
    isolated-edge endpoint counts when ``leaves``. ``what`` names the
    integral in error messages.
    """
    if not math.isfinite(g.isolated_rate):
        raise InfiniteExpectationError("the isolated-edge rate is infinite")
    if nu == 0.0:
        zero = {"latent": 0.0, "star_leaves": 0.0, "isolated": 0.0}
        return ExpectationResult(0.0, zero, 0.0)

    err_total = 0.0
    latent = 0.0
    if g.w is not None or g.s is not None:
        res = g.integrate(density, _REL_TOL)
        if not res.converged:
            raise TheoryError(f"the {what} did not converge; "
                              "check local finiteness first")
        latent += nu * res.value
        err_total += nu * res.error_estimate

    star_leaves = 0.0
    isolated = 0.0
    if leaves:
        try:
            star_leaves = nu * nu * g.s_l1()
        except (GraphexError, QuadratureError) as err:
            raise InfiniteExpectationError(f"the star rate is not integrable: {err}") from err
        isolated = 2.0 * nu * nu * g.isolated_rate
    components = {"latent": latent, "star_leaves": star_leaves, "isolated": isolated}
    return ExpectationResult(sum(components.values()), components, err_total)


# ---------------------------------------------------------------------------
# Edge and vertex counts
# ---------------------------------------------------------------------------

def expected_edges(g: Graphex, nu: float) -> ExpectationResult:
    """Expected number of edges at truncation level nu (self loops count once)."""
    nu = _check_nu(nu)
    if not math.isfinite(g.isolated_rate):
        raise InfiniteExpectationError("the isolated-edge rate is infinite")
    try:
        w_l1 = g.w_l1()
        s_l1 = g.s_l1()
        diag_l1 = g.diag_l1()
    except (GraphexError, QuadratureError) as err:
        raise InfiniteExpectationError(
            f"an edge-count integral diverges or cannot be certified: {err}") from err
    components = {
        "pairwise": 0.5 * nu * nu * w_l1,
        "self": nu * diag_l1,
        "star": nu * nu * s_l1,
        "isolated": nu * nu * g.isolated_rate,
    }
    return ExpectationResult(sum(components.values()), components, 0.0)


def expected_vertices(g: Graphex, nu: float) -> ExpectationResult:
    """Expected number of visible (degree >= 1) vertices at level nu."""
    nu = _check_nu(nu)
    rate = _rate(g, nu)

    def visible(x):
        # 1 - (1 - d) e^{-rho}
        r = rate(x)
        return -np.expm1(-r) + g.diag_at(x) * np.exp(-r)

    return _latent_count(g, nu, visible, "visible-vertex integral", leaves=True)


def expected_degree_count(g: Graphex, nu: float, k: int) -> ExpectationResult:
    """Expected number of vertices whose degree is exactly k (k >= 1).

    A self loop contributes 2 to its vertex's degree, so latent points with a
    self edge reach degree k exactly when their other edges number k - 2.
    """
    nu = _check_nu(nu)
    _check_k(k, 1, " (degree-0 latent points are invisible)")
    rate = _rate(g, nu)

    def density(x):
        r = rate(x)
        d = g.diag_at(x)
        return (1.0 - d) * _pois_pmf(k, r) + d * _pois_pmf(k - 2, r)

    # star leaves and isolated-edge endpoints all have degree 1
    return _latent_count(g, nu, density, f"degree-{k} integral", leaves=k == 1)


# ---------------------------------------------------------------------------
# Degree distribution of the kernel component
# ---------------------------------------------------------------------------

def _ccdfs(g: Graphex, nu: float, ks) -> list:
    """[P(D > k) for k in ks], sharing one visibility integral.

    The visibility integral and each degree-tail numerator are cached on the
    graphex instance, like its cutoff, under ("visibility", nu) and
    ("degree_tail", nu, k): P(D > k), P(D = k) and P(D = k + 1) at
    one nu integrate each piece once. The cache holds the quadrature results,
    so a failed integral raises the same error on every call.
    """
    nu = _check_nu(nu)
    for k in ks:
        _check_k(k, 0)
    if g.w is None:
        raise TheoryError("the graphex has no kernel, so no latent vertex is ever visible")
    if nu == 0.0:
        raise TheoryError("nu = 0 produces an empty graph with no degree law")
    if not any(ks):
        return [1.0] * len(ks)

    def integral(key, h):
        if key not in g._cache:
            g._cache[key] = g.integrate(h, _REL_TOL)
        return g._cache[key]

    def denominator(x):
        return -np.expm1(-nu * g.nested_marginal(x))

    den = integral(("visibility", nu), denominator)
    if not den.converged:
        raise TheoryError("the visibility integral did not converge")
    if den.value < 1e-300:
        raise TheoryError("the kernel yields no visible vertices at this nu; "
                          "the degree law is degenerate")
    out = []
    for k in ks:
        if k == 0:
            out.append(1.0)
            continue

        def numerator(x):
            return poisson_tail(nu * g.nested_marginal(x), k)

        num = integral(("degree_tail", nu, k), numerator)
        if not num.converged:
            raise TheoryError(f"the degree-tail integral at k = {k} did not converge")
        out.append(num.value / den.value)
    return out


def degree_ccdf(g: Graphex, nu: float, k: int) -> float:
    """P(D > k) for the degree D of a uniformly chosen visible vertex.

    Kernel component only: stars, self edges and isolated edges are ignored.
    The k = 0 value is exactly 1 because visibility means degree >= 1.
    """
    return _ccdfs(g, nu, (k,))[0]


def degree_pmf(g: Graphex, nu: float, k: int) -> float:
    """P(D = k) for the same law as :func:`degree_ccdf` (k >= 1)."""
    _check_k(k, 1)
    above, at_least = _ccdfs(g, nu, (k - 1, k))
    return above - at_least
