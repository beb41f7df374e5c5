"""Graphex objects: a kernel W, a star rate S and an isolated-edge rate I.

A graphex is the triple (I, S, W) driving an exchangeable random graph: W is a
symmetric function on [0,inf)^2 with values in [0,1] giving pairwise edge
probabilities between latent points of a unit-rate Poisson process, S is an
integrable star rate, and I >= 0 is the rate of isolated edges. The marginal
mu_W(x) = integral of W(x, y) dy controls almost everything downstream
(expected counts, degree laws, truncation policy), so families declare it
analytically whenever they can; otherwise it is computed by quadrature, for
whole arrays of x at once (:meth:`Graphex.marginal`), and refined only
outside other integrals (:meth:`Graphex.nested_marginal`).

Built-in families:

* ``constant``: W = p on [0, c]^2, zero outside.
* ``graphon-dilation``: a symmetric step-function graphon stretched onto
  [0, c]^2 (finite support, hence dense graphs).
* ``separable``: W(x, y) = f(x) f(y) off the diagonal, for a user expression f.
* ``slow-decay``: separable with f(x) = 3^(-1/2) (x+1)^-2, i.e.
  W(x, y) = (1/3)(x+1)^-2 (y+1)^-2 and mu(x) = (1/3)(x+1)^-2. Power-law
  degrees with pmf tending to Gamma(k - 1/2) / (2 sqrt(pi) k!).
* ``fast-decay``: separable with f(x) = e^-x, mu(x) = e^-x. Degrees grow like
  log nu and P(D <= nu^beta) tends to beta.
* ``caron-fox``: W(x, y) = 1 - exp(-2 g(x) g(y)) off the diagonal and
  1 - exp(-g(x)^2) on it, for a user expression g.
* ``custom``: W given directly as an expression in x and y.

Any family may additionally carry a star-rate expression S and a rate I.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as exprmod
from .quadrature import IntegralResult, first_pass, integrate_array, refine

__all__ = [
    "Graphex",
    "GraphexError",
    "SpecError",
    "build",
    "build_from_json",
    "dilate",
    "FAMILIES",
    "PROBE_GRID_SIZE",
]

# kernel expressions are vetted on this many log-spaced probe points per axis
PROBE_GRID_SIZE = 64
_PROBE_X_MAX = 1e6
_SYMMETRY_TOL = 1e-12
# distinct node sets whose inner marginals a graphex keeps
# (:meth:`Graphex.marginal_nodes`): the expectations of a black-box kernel,
# at any number of levels nu, have two (levels 0 to 4 of the outer rule,
# then level 5), while a finiteness check or a cutoff search passes through
# up to about 20 that it uses once each
_MARGINAL_MEMO_SIZE = 16


class GraphexError(ValueError):
    """Base class for graphex construction/usage errors."""


class _Unsettled(Exception):
    """A marginal inside an outer integral did not settle in one pass."""


class SpecError(GraphexError):
    """A graphex declaration failed validation."""


def _probe_grid() -> np.ndarray:
    # log-spaced plus 0 so that origin behaviour is always probed
    grid = np.geomspace(1e-9, _PROBE_X_MAX, PROBE_GRID_SIZE - 1)
    return np.concatenate(([0.0], grid))


@dataclass
class Graphex:
    """A validated graphex.

    ``w``, ``s`` and ``diag`` are vectorised callables (``s`` and ``diag`` may
    be None, meaning identically zero). Analytic metadata is optional; every
    consumer falls back to quadrature through the accessor methods, which is
    exact but slower. ``separable_f`` is set when W(x, y) = f(x) f(y) off the
    diagonal, which unlocks the sampler's fast path; an f that carries
    ``nonincreasing = True`` (set by the builders of slow-decay, fast-decay
    and constant) also unlocks its lazy clouds, and a copy with another f
    does not inherit the mark. ``rate_factor`` is set when
    W(x, y) = 1 - exp(-r(x) r(y)) off the diagonal (caron-fox, r = sqrt(2) g):
    a pair is then an edge exactly when a Poi(r_u r_v) count is positive,
    which the sampler draws without an acceptance step. ``kinks`` lists the
    interior points where the marginal may jump; :meth:`integrate` splits
    every latent-axis integral there.
    """

    isolated_rate: float
    w: Callable | None
    s: Callable | None
    diag: Callable | None
    self_edges: bool
    spec: dict = field(repr=False)

    # analytic metadata (None means "not known in closed form")
    mu: Callable | None = None
    tail_mu_fn: Callable | None = None
    w_l1_value: float | None = None
    diag_l1_value: float | None = None
    tail_s_fn: Callable | None = None
    support: float = math.inf
    separable_f: Callable | None = None
    rate_factor: Callable | None = None
    kinks: tuple = ()

    # per-instance results (cutoffs, norms, degree-law integrals); not an init
    # field, so dataclasses.replace gives the copy an empty cache of its own
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- kernel access ------------------------------------------------------

    def w_at(self, x, y):
        """W(x, y), vectorised, zero when no kernel is declared."""
        if self.w is None:
            return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape) \
                if (np.ndim(x) or np.ndim(y)) else 0.0
        return self.w(x, y)

    def s_at(self, x):
        if self.s is None:
            return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
        return self.s(x)

    def diag_at(self, x):
        if self.diag is None or not self.self_edges:
            return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
        return self.diag(x)

    # -- marginal and integrals ---------------------------------------------

    def integrate(self, h, rel_tol: float, lo: float = 0.0,
                  hi: float = math.inf) -> IntegralResult:
        """Integrate h over the latent axis on [lo, hi], cut at the support
        when there is no star rate (and split there when there is one).

        h takes arrays; the pieces between the kinks go to
        :func:`integrate_array` in one call. A nested marginal that does not
        settle (:meth:`nested_marginal`) leaves the result unconverged.
        """
        if self.s is None:
            hi = min(hi, self.support)
        if lo >= hi:
            return IntegralResult(0.0, 0.0, True, 0)
        # past the support only S is left, and integrands that hold it jump
        kinks = (*self.kinks, self.support)
        edges = np.array((lo, *(p for p in kinks if lo < p < hi), hi))
        try:
            value, err, ok, nfev = integrate_array(h, edges[:-1], edges[1:], rel_tol)
        except _Unsettled:
            return IntegralResult(0.0, math.inf, False, 0)
        return IntegralResult(float(value.sum()), float(err.sum()), bool(ok.all()),
                              int(nfev.sum()))

    def marginal_nodes(self, x, rel_tol: float = 1e-8, lo: float = 0.0):
        """One pass of the tanh-sinh rule over y >= lo for every element of
        x: returns arrays (integral of W(x, y) dy, settled). The range is
        split at y = x, where kernels that decay away from the diagonal keep
        their mass. Elements that are not settled carry no usable value.

        The outer integrals of the theory share their nodes (every integral
        over [0, inf) has the same ones at each level of the rule), so the
        result is memoised per graphex, keyed by the bytes of x, rel_tol and
        lo, for the last ``_MARGINAL_MEMO_SIZE`` distinct node sets. Each
        call returns fresh arrays, which the caller may write."""
        x = np.asarray(x, dtype=float).ravel()
        memo = self._cache.setdefault("marginal_nodes", OrderedDict())
        key = (x.tobytes(), rel_tol, lo)
        # taken out and put back, so the last use sits at the end
        found = memo.pop(key, None)
        if found is None:
            value, error, ok, _ = first_pass(self._w_of_y, *self._halves(x, lo), rel_tol,
                                             args=(x[:, None],))
            value = value.sum(axis=1)
            # the two pieces' errors count against their sum: a short piece
            # that met only its rounding floor is still fine next to a long one
            settled = ok.all(axis=1) | (
                np.isfinite(value) & (error.sum(axis=1) <= rel_tol * np.abs(value)))
            found = value, settled
        memo[key] = found
        while len(memo) > _MARGINAL_MEMO_SIZE:
            memo.popitem(last=False)
        return found[0].copy(), found[1].copy()

    def _w_of_y(self, y, x):
        return self.w(x, y)

    def _halves(self, x, lo):
        """Limits (a, b) of shape (x.size, 2): [lo, x] and [x, support]."""
        cut = np.clip(x, lo, self.support)[:, None]
        return (np.hstack((np.full_like(cut, lo), cut)),
                np.hstack((cut, np.full_like(cut, self.support))))

    def refined_marginal(self, x):
        """Arrays (mu(x), settled): :meth:`marginal_nodes`, then one call of
        :func:`refine` for the elements it does not settle (jumps in W, or a
        divergent marginal)."""
        flat = np.asarray(x, dtype=float).ravel()
        value, settled = self.marginal_nodes(flat, 1e-8)
        redo = np.flatnonzero(~settled)
        if redo.size:
            value[redo], _, settled[redo], _ = refine(
                self._w_of_y, *self._halves(flat[redo], 0.0), 1e-8, args=(flat[redo],))
        return value.reshape(np.shape(x)), settled.reshape(np.shape(x))

    def marginal(self, x):
        """mu(x) = integral of W(x, y) dy.

        Analytic when declared; otherwise :meth:`refined_marginal` computes
        it for a whole array x at once, and a GraphexError is raised where
        that does not converge.
        """
        if self.mu is not None:
            return self.mu(x) if np.ndim(x) else float(self.mu(x))
        if self.w is None:
            return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
        value, settled = self.refined_marginal(x)
        if not settled.all():
            bad = np.asarray(x, dtype=float)[~settled]
            raise GraphexError(
                f"marginal at x={float(bad[0])!r} did not converge; "
                "the kernel may be non-integrable in y")
        return value if np.ndim(x) else float(value)

    def nested_marginal(self, x, rel_tol: float = 1e-8):
        """mu at the nodes of an outer integral: closed form, or one pass of
        the rule (:meth:`marginal_nodes`) that, where it does not settle,
        fails the outer integral at once instead of refining every node."""
        if self.mu is not None:
            return self.mu(x)
        if self.w is None:
            return np.zeros(np.shape(x))
        value, settled = self.marginal_nodes(x, rel_tol)
        if not settled.all():
            raise _Unsettled
        return value.reshape(np.shape(x))

    def tail_mu(self, x: float, rel_tol: float = 1e-9) -> float:
        """integral of mu over [x, inf). Used for truncation budgets."""
        if self.tail_mu_fn is not None:
            return float(self.tail_mu_fn(x))
        if self.w is None:
            return 0.0
        # when the marginal is itself numeric, every outer node costs a full
        # inner integral, so let a loose caller buy loose inner evaluations
        inner_tol = max(1e-8, 0.1 * rel_tol)
        res = self.integrate(lambda t: self.nested_marginal(t, inner_tol), rel_tol, lo=x)
        if not res.converged:
            raise GraphexError(f"tail of the marginal past x={x!r} did not converge")
        return res.value

    def tail_s(self, x: float, rel_tol: float = 1e-9) -> float:
        if self.s is None:
            return 0.0
        if self.tail_s_fn is not None:
            return float(self.tail_s_fn(x))
        value, _, converged, _ = integrate_array(self.s_at, x, math.inf, rel_tol)
        if not converged:
            raise GraphexError(f"tail of the star rate past x={x!r} did not converge; "
                               "the star rate may be non-integrable")
        return float(value)

    def w_l1(self, rel_tol: float = 1e-9) -> float:
        """||W||_1, the double integral of W."""
        if self.w_l1_value is not None:
            return self.w_l1_value
        if self.w is None:
            return 0.0
        return self._norm("w_l1", self.nested_marginal, rel_tol,
                          "||W||_1 did not converge; the kernel may be non-integrable")

    def rate_l1(self) -> float:
        """||r||_1 of the rate factor (see ``rate_factor``)."""
        return self._norm("rate_l1", self.rate_factor, 1e-9,
                          "||r||_1 of the rate factor did not converge")

    def w_l1_bound(self) -> tuple[float, str] | None:
        """A finite upper bound on ||W||_1 and where it comes from, or None:
        (w_l1_value, "declared") for a declared finite norm, else
        (||r||_1^2, "majorant") for a rate factor r whose ||r||_1 converges,
        since 1 - e^-t <= t gives W <= r(x) r(y). Found once per graphex."""
        if "w_l1_bound" not in self._cache:
            bound = None
            if self.w_l1_value is not None and math.isfinite(self.w_l1_value):
                bound = (self.w_l1_value, "declared")
            elif self.rate_factor is not None:
                try:
                    bound = (self.rate_l1() ** 2, "majorant")
                except (GraphexError, exprmod.EvalError):  # no norm, or r fails at a node
                    pass
            self._cache["w_l1_bound"] = bound
        return self._cache["w_l1_bound"]

    def majorant_tail(self, a: float, rel_tol: float) -> float:
        """||r||_1 * integral of r past a, which bounds tail_mu(a) where
        :meth:`w_l1_bound` is a majorant, at the cost of a single integral."""
        res = self.integrate(self.rate_factor, rel_tol, lo=a)
        if not res.converged:
            raise GraphexError(f"tail of the rate factor past x={a!r} did not converge")
        return self.rate_l1() * res.value

    def s_l1(self) -> float:
        return self.tail_s(0.0)

    def diag_l1(self) -> float:
        """integral of W(x, x) dx (zero when self edges are disabled)."""
        if not self.self_edges or self.diag is None:
            return 0.0
        if self.diag_l1_value is not None:
            return self.diag_l1_value
        return self._norm("diag_l1", self.diag_at, 1e-9,
                          "the diagonal W(x, x) is not integrable within probe budget")

    def _norm(self, name: str, h, rel_tol: float, message: str) -> float:
        """The integral of h over the latent axis, cached by (name, rel_tol)
        with its outcome: one that did not converge raises every time."""
        key = (name, rel_tol)
        if key not in self._cache:
            self._cache[key] = self.integrate(h, rel_tol)
        if not self._cache[key].converged:
            raise GraphexError(message)
        return self._cache[key].value

    def to_json(self) -> str:
        return json.dumps(self.spec, sort_keys=True)


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _number(value, kind=numbers.Real) -> bool:
    """A number of ``kind`` (``numbers.Real`` or ``numbers.Integral``), NumPy
    scalars among them; a bool, Python's or NumPy's, is none: True is JSON's
    true."""
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


def _finite(value) -> bool:
    """A number (see :func:`_number`) that is finite as a float: an int too
    large for a float is refused here, not raised on as an OverflowError."""
    try:
        return _number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _compile_expr(source: str, allowed_vars: set[str], what: str) -> exprmod.Expr:
    try:
        e = exprmod.parse(source)
    except exprmod.ParseError as err:
        raise SpecError(f"{what}: {err}") from err
    extra = e.variables - allowed_vars
    _require(not extra, f"{what}: unexpected variable(s) {sorted(extra)}")
    return e


def _vet_kernel_range(w: Callable, what: str) -> None:
    xs = _probe_grid()
    try:
        vals = w(xs[:, None], xs[None, :])
    except exprmod.EvalError as err:
        raise SpecError(f"{what}: kernel fails to evaluate on [0, inf)^2: {err}") from err
    if np.any(vals < -1e-15) or np.any(vals > 1.0 + 1e-12):
        bad = np.unravel_index(int(np.argmax(np.abs(vals - 0.5))), vals.shape)
        raise SpecError(
            f"{what}: kernel leaves [0, 1] on the probe grid, e.g. "
            f"W({xs[bad[0]]:.6g}, {xs[bad[1]]:.6g}) = {vals[bad]:.6g}"
        )
    asym = np.max(np.abs(vals - vals.T))
    if asym > _SYMMETRY_TOL:
        raise SpecError(f"{what}: kernel is asymmetric on the probe grid "
                        f"(max |W(x,y)-W(y,x)| = {asym:.3g})")


def _vet_nonnegative(f: Callable, what: str, factor: bool = False) -> None:
    """f >= 0 on the probe grid; a separable ``factor`` must also stay <= 1."""
    xs = _probe_grid()
    try:
        vals = np.asarray(f(xs))
    except exprmod.EvalError as err:
        raise SpecError(f"{what}: fails to evaluate on [0, inf): {err}") from err
    if np.any(vals < -1e-15):
        raise SpecError(f"{what}: negative values on the probe grid")
    if factor and np.any(vals > 1.0 + 1e-12):
        raise SpecError(f"{what}: values above 1 on the probe grid; the induced kernel "
                        "f(x) f(y) would leave [0, 1]")


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _family_constant(params: dict, exprs: dict):
    p = params.get("p")
    c = params.get("c")
    _require(_number(p) and 0.0 <= p <= 1.0, "constant: p must be in [0, 1]")
    _require(_finite(c) and c > 0,
             "constant: c must be a finite positive number")
    p, c = float(p), float(c)

    def w(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return p * ((x <= c) & (y <= c))

    def mu(x):
        return p * c * (np.asarray(x, dtype=float) <= c)

    def tail_mu(x):
        return p * c * np.clip(c - np.asarray(x, dtype=float), 0.0, None)

    def diag(x):
        return p * (np.asarray(x, dtype=float) <= c)

    sqrt_p = math.sqrt(p)

    def f(x):
        return sqrt_p * (np.asarray(x, dtype=float) <= c)

    f.nonincreasing = True

    return dict(
        w=w, diag=diag, mu=mu, tail_mu_fn=tail_mu,
        w_l1_value=p * c * c, diag_l1_value=p * c, support=c, separable_f=f,
    )


def _family_graphon_dilation(params: dict, exprs: dict):
    c = params.get("c")
    grid = params.get("grid")
    _require(_finite(c) and c > 0,
             "graphon-dilation: c must be a finite positive number")
    c = float(c)
    try:
        arr = np.asarray(grid, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)  # ragged, or entries that are no numbers: refused below
    _require(arr.ndim == 2 and arr.shape[0] == arr.shape[1] and arr.shape[0] >= 1,
             "graphon-dilation: grid must be a square matrix")
    _require(all(_number(v) for row in grid for v in row),
             "graphon-dilation: grid entries must be numbers")
    _require(bool(np.all((arr >= 0.0) & (arr <= 1.0))),
             "graphon-dilation: grid entries must lie in [0, 1]")
    _require(bool(np.allclose(arr, arr.T, atol=_SYMMETRY_TOL)),
             "graphon-dilation: grid must be symmetric")
    n = arr.shape[0]
    cell_width = c / n
    row_mean = arr.sum(axis=1) * cell_width  # mu value on each cell

    def cell(x):
        x = np.asarray(x, dtype=float)
        return np.minimum((x / c * n).astype(int), n - 1)

    def w(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = (x <= c) & (y <= c)
        vals = arr[cell(np.clip(x, 0, c)), cell(np.clip(y, 0, c))]
        return np.where(inside, vals, 0.0)

    def mu(x):
        x = np.asarray(x, dtype=float)
        vals = row_mean[cell(np.clip(x, 0, c))]
        return np.where(x <= c, vals, 0.0)

    # cumulative mass of mu from each cell boundary to c, for tail_mu
    rev_cum = np.concatenate((np.cumsum((row_mean * cell_width)[::-1])[::-1], [0.0]))

    def tail_mu(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, c)
        i = cell(xc)
        boundary_next = (i + 1) * cell_width
        partial = row_mean[i] * np.clip(boundary_next - xc, 0.0, None)
        return np.where(x >= c, 0.0, partial + rev_cum[i + 1])

    def diag(x):
        x = np.asarray(x, dtype=float)
        i = cell(np.clip(x, 0, c))
        return np.where(x <= c, arr[i, i], 0.0)

    return dict(
        w=w, diag=diag, mu=mu, tail_mu_fn=tail_mu,
        w_l1_value=float(arr.sum()) * cell_width * cell_width,
        diag_l1_value=float(np.trace(arr)) * cell_width,
        support=c, kinks=tuple((cell_width * np.arange(1, n)).tolist()),
    )


def _separable_meta(f: Callable, f_l1: float, tail_f: Callable | None = None):
    """Assemble kernel metadata from a separable factor f with integral f_l1
    and, when known, the tail integral tail_f(x) of f past x."""

    def w(x, y):
        return f(x) * f(y)

    def diag(x):
        fv = f(x)
        return fv * fv

    def mu(x):
        return f_l1 * f(x)

    out = dict(w=w, diag=diag, separable_f=f, w_l1_value=f_l1 * f_l1, mu=mu)
    if tail_f is not None:
        def tail_mu(x):
            return f_l1 * tail_f(x)

        out["tail_mu_fn"] = tail_mu
    return out


def _family_separable(params: dict, exprs: dict):
    source = exprs.get("f")
    _require(isinstance(source, str), "separable: exprs.f (a function of x) is required")
    e = _compile_expr(source, {"x"}, "separable f")

    def f(x):
        return e(x=np.asarray(x, dtype=float))

    _vet_nonnegative(f, "separable f", factor=True)
    # numeric f_l1 up front; it doubles as an integrability check
    f_l1, _, converged, _ = integrate_array(f, 0.0, math.inf, 1e-10)
    if not converged:
        raise SpecError("separable: f is not integrable within probe budget")
    return _separable_meta(f, float(f_l1))


def _family_slow_decay(params: dict, exprs: dict):
    inv_sqrt3 = 1.0 / math.sqrt(3.0)

    def f(x):
        return inv_sqrt3 / (np.asarray(x, dtype=float) + 1.0) ** 2

    f.nonincreasing = True

    def tail_f(x):
        return inv_sqrt3 / (np.asarray(x, dtype=float) + 1.0)

    out = _separable_meta(f, inv_sqrt3, tail_f)
    # W(x, x) = (1/3)(x+1)^-4 and int (x+1)^-4 dx = 1/3
    out["diag_l1_value"] = 1.0 / 9.0
    return out


def _family_fast_decay(params: dict, exprs: dict):
    def f(x):
        return np.exp(-np.asarray(x, dtype=float))

    f.nonincreasing = True

    out = _separable_meta(f, 1.0, f)  # the tail integral of e^-x is e^-x
    out["diag_l1_value"] = 0.5  # int e^-2x = 1/2
    return out


def _family_caron_fox(params: dict, exprs: dict):
    source = exprs.get("g", "exp(-x)")
    _require(isinstance(source, str), "caron-fox: exprs.g must be an expression in x")
    e = _compile_expr(source, {"x"}, "caron-fox g")

    def g(x):
        return e(x=np.asarray(x, dtype=float))

    _vet_nonnegative(g, "caron-fox g")

    def w(x, y):
        return -np.expm1(-2.0 * g(x) * g(y))

    def diag(x):
        gv = g(x)
        return -np.expm1(-gv * gv)

    sqrt2 = math.sqrt(2.0)

    def r(x):
        return sqrt2 * g(x)

    return dict(w=w, diag=diag, rate_factor=r)


def _family_custom(params: dict, exprs: dict):
    source = exprs.get("W")
    _require(isinstance(source, str), "custom: exprs.W (a function of x and y) is required")
    e = _compile_expr(source, {"x", "y"}, "custom W")

    def w(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = e(x=x, y=y)
        if np.ndim(out) == 0 and (x.ndim or y.ndim):
            out = np.broadcast_to(np.asarray(out, dtype=float),
                                  np.broadcast(x, y).shape).copy()
        return out

    _vet_kernel_range(w, "custom W")

    def diag(x):
        return w(x, x)

    return dict(w=w, diag=diag)


# family name -> builder(params, exprs) of the kernel parts and their
# metadata, as Graphex fields
_BUILDERS = {
    "constant": _family_constant,
    "graphon-dilation": _family_graphon_dilation,
    "separable": _family_separable,
    "slow-decay": _family_slow_decay,
    "fast-decay": _family_fast_decay,
    "caron-fox": _family_caron_fox,
    "custom": _family_custom,
}
FAMILIES = tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def build(spec: dict) -> Graphex:
    """Validate a graphex declaration and assemble a :class:`Graphex`.

    ``spec`` is a mapping with keys ``family`` (required), ``params``,
    ``exprs``, ``I`` and ``self_edges``. Star rates are declared with
    ``exprs.S``; the isolated-edge rate with ``I``.
    """
    if not isinstance(spec, dict):
        raise SpecError("graphex declaration must be a JSON object")
    family = spec.get("family")
    if family not in FAMILIES:
        raise SpecError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    params = spec.get("params", {})
    exprs = spec.get("exprs", {})
    _require(isinstance(params, dict), "params must be an object")
    _require(isinstance(exprs, dict), "exprs must be an object")
    self_edges = spec.get("self_edges", False)
    _require(isinstance(self_edges, bool), "self_edges must be true or false")

    isolated = spec.get("I", 0.0)
    _require((_finite(isolated) or isolated == math.inf) and isolated >= 0,
             "I must be a number >= 0 (math.inf is representable but unsampleable)")
    isolated = float(isolated)

    parts = _BUILDERS[family](params, exprs)

    s_fn = None
    tail_s_fn = None
    s_source = exprs.get("S")
    if s_source is not None:
        _require(isinstance(s_source, str), "exprs.S must be an expression in x")
        s_expr = _compile_expr(s_source, {"x"}, "star rate S")

        def s_fn(x):  # noqa: F811 - deliberate rebind
            return s_expr(x=np.asarray(x, dtype=float))

        _vet_nonnegative(s_fn, "star rate S")
        if s_source.strip() == "exp(-x)":
            tail_s_fn = lambda x: np.exp(-np.asarray(x, dtype=float))  # noqa: E731

    # canonical spec echo (what a report or a sampled graph will record)
    echo = {
        "family": family,
        "params": _jsonable(params),
        "exprs": {k: str(v) for k, v in exprs.items()},
        "I": isolated,
        "self_edges": self_edges,
    }

    return Graphex(isolated_rate=isolated, s=s_fn, self_edges=self_edges, spec=echo,
                   tail_s_fn=tail_s_fn, **parts)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def build_from_json(text: str) -> Graphex:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"graphex declaration is not valid JSON: {err}") from err
    return build(spec)


def dilate(grid, c: float, self_edges: bool = False, isolated: float = 0.0) -> Graphex:
    """Stretch a step-function graphon onto [0, c]^2.

    The resulting graphs are dense: the number of latent points in [0, c] is
    Poisson(nu * c) and the edge density does not vanish.
    """
    return build({
        "family": "graphon-dilation",
        "params": {"c": c, "grid": np.asarray(grid).tolist()},
        "I": isolated,
        "self_edges": self_edges,
    })
