"""Local-finiteness checks for graphexes.

A graphex generates an a.s. locally finite graph exactly when five integral
conditions are met: the isolated-edge rate is finite, the star rate is
integrable, the marginal mu is a.e. finite with a finite-measure level set
{mu > 1}, the kernel restricted to the small-marginal region is integrable,
and the diagonal W(x, x) is integrable. Note that integrability of W itself
is NOT required: W(x, y) = 1[x * y <= 1] has an infinite double integral yet
satisfies every condition.

Verdicts are evidence-graded. "holds-analytic" means implied by declared
analytic metadata; "holds-numeric" means supported by quadrature;
"violated" means the probes show divergence; "undecidable" means the probe
budget could not separate slow convergence from divergence.

A finite ||W||_1 settles the level-set and restricted-kernel conditions at
once, and :meth:`Graphex.w_l1_bound` is the one place that knows a bound:
the norm the separable, slow-decay, fast-decay, constant and
graphon-dilation families declare (holds-analytic), or ||r||_1^2 for the
rate factor r of caron-fox, W = 1 - exp(-r(x) r(y)) <= r(x) r(y), where
||r||_1 converges (holds-numeric, as ||r||_1 is a quadrature value). Only
kernels with no bound, a custom W or a caron-fox g whose ||r||_1 diverges,
have their marginal probed: a search for the crossing of mu through 1, then
the restricted kernel over doubling shells. Those level-set verdicts assume
the marginal is eventually nonincreasing, as each note says.

The probe budgets are fixed constants: at most ``_MAX_SHELLS`` doubling
shells from a first shell of width 1, each integrated to ``_SHELL_REL_TOL``
(``_NESTED_REL_TOL`` for the nested kernel probe), a shell counted as
negligible below ``_NEGLIGIBLE`` of the running sum, and 15 rounds that each
narrow the bracket of the marginal's crossing of 1 sixteen-fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Graphex, GraphexError, _probe_grid
from .quadrature import QuadratureError, integrate_array

__all__ = [
    "ConditionVerdict",
    "FinitenessReport",
    "check_local_finiteness",
    "CONDITION_KEYS",
]

CONDITION_KEYS = (
    "isolated_rate_finite",
    "star_rate_integrable",
    "marginal_level_sets",
    "kernel_core_integrable",
    "diagonal_integrable",
)

HOLDS = "holds-analytic"
HOLDS_NUMERIC = "holds-numeric"
VIOLATED = "violated"
UNDECIDABLE = "undecidable"

_MAX_SHELLS = 40
_SHELL_REL_TOL = 1e-8
_NESTED_REL_TOL = 1e-6
_NEGLIGIBLE = 1e-10


@dataclass(frozen=True)
class ConditionVerdict:
    key: str
    status: str
    note: str
    bound: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in (HOLDS, HOLDS_NUMERIC)

    def to_dict(self) -> dict:
        out = {"key": self.key, "status": self.status, "note": self.note}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass(frozen=True)
class FinitenessReport:
    conditions: tuple[ConditionVerdict, ...]

    def __getitem__(self, key: str) -> ConditionVerdict:
        for cond in self.conditions:
            if cond.key == key:
                return cond
        raise KeyError(key)

    @property
    def all_hold(self) -> bool:
        return all(c.ok for c in self.conditions)

    @property
    def any_violated(self) -> bool:
        return any(c.status == VIOLATED for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "conditions": [c.to_dict() for c in self.conditions],
            "all_hold": self.all_hold,
            "any_violated": self.any_violated,
        }


# ---------------------------------------------------------------------------
# Tail probe: classify integral of f over [start, inf)
# ---------------------------------------------------------------------------

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNCLEAR = "unclear"


def _probe_tail(f, start: float, integrate=None):
    """Integrate f over doubling shells and classify the tail.

    ``integrate(f, a, b)`` integrates one shell into (value, converged); the
    default is :func:`integrate_array` at ``_SHELL_REL_TOL``. Returns
    (kind, value, note): kind is "convergent" (value is the integral
    estimate), "divergent" (value is inf) or "unclear" (value is the partial
    sum accumulated so far).
    """
    if integrate is None:
        def integrate(f, a, b):
            return integrate_array(f, a, b, _SHELL_REL_TOL)[::2]
    shells = []
    total = 0.0
    a = start
    h = 1.0
    for _ in range(_MAX_SHELLS):
        b = a + h
        try:
            val, converged = integrate(f, a, b)
        except (QuadratureError, GraphexError):
            converged = False
        if not converged:
            return (UNCLEAR, total, f"quadrature failed on shell [{a:.6g}, {b:.6g}]")
        val = float(val)
        shells.append(val)
        total += val
        if len(shells) >= 3:
            s2, s1, s0 = shells[-3], shells[-2], shells[-1]
            if s0 <= 1e-320:
                return (CONVERGENT, total,
                        f"integrand vanishes past x ~ {a:.6g}; integral ~ {total:.6g}")
            if s0 < s1 < s2 and s0 <= _NEGLIGIBLE * max(total, 1e-300):
                ratio = s0 / s1
                if ratio < 0.9:
                    tail = s0 * ratio / (1.0 - ratio)
                    return (CONVERGENT, total + tail,
                            f"shell sums decay geometrically (ratio ~ {ratio:.3g}); "
                            f"integral ~ {total + tail:.6g}")
        a = b
        h *= 2.0
    half = len(shells) // 2
    head = sum(shells[:half])
    rest = sum(shells[half:])
    if rest > 0.8 * head and shells[-1] > 0.5 * shells[half]:
        return (DIVERGENT, math.inf,
                f"shell sums do not decay over {_MAX_SHELLS} doubling shells "
                f"(reached x ~ {a:.3g}); the integral diverges")
    return (UNCLEAR, total,
            f"shell sums decay too slowly to classify within {_MAX_SHELLS} shells")


def _probe_verdict(key: str, probe, prefix: str) -> ConditionVerdict:
    """The verdict on condition ``key`` from a :func:`_probe_tail` result."""
    kind, value, note = probe
    if kind == CONVERGENT:
        return ConditionVerdict(key, HOLDS_NUMERIC, prefix + note, bound=value)
    if kind == DIVERGENT:
        return ConditionVerdict(key, VIOLATED, prefix + note)
    return ConditionVerdict(key, UNDECIDABLE, prefix + note)


# ---------------------------------------------------------------------------
# Individual conditions
# ---------------------------------------------------------------------------

def _check_isolated(g: Graphex) -> ConditionVerdict:
    if math.isfinite(g.isolated_rate):
        return ConditionVerdict("isolated_rate_finite", HOLDS,
                                f"isolated-edge rate I = {g.isolated_rate:.6g} is finite",
                                bound=g.isolated_rate)
    return ConditionVerdict("isolated_rate_finite", VIOLATED,
                            "isolated-edge rate I is infinite")


def _check_star(g: Graphex) -> ConditionVerdict:
    key = "star_rate_integrable"
    if g.s is None:
        return ConditionVerdict(key, HOLDS, "no star rate declared", bound=0.0)
    return _probe_verdict(key, _probe_tail(g.s_at, 0.0), "integral of S: ")


def _safe_marginal(g: Graphex, xs: np.ndarray) -> np.ndarray:
    """mu at every element of xs in one call, inf where it does not settle."""
    value, settled = g.refined_marginal(xs)
    return np.where(settled & np.isfinite(value), value, math.inf)


def _check_kernel(g: Graphex) -> tuple[ConditionVerdict, ConditionVerdict]:
    """The two conditions on W: the marginal's level sets and the restricted
    kernel. A bound B on ||W||_1 (:meth:`Graphex.w_l1_bound`) settles both:
    mu is then a.e. finite, {mu > 1} has measure at most B by Markov's
    inequality, and the restriction integrates to at most B. A declared norm
    holds analytically; the majorant ||r||_1^2 of a rate factor r holds
    numerically, since ||r||_1 is a quadrature value. A kernel with no bound
    gets the probes."""
    if g.w is None:
        return (ConditionVerdict("marginal_level_sets", HOLDS, "no kernel declared, mu = 0",
                                 bound=0.0),
                ConditionVerdict("kernel_core_integrable", HOLDS, "no kernel declared",
                                 bound=0.0))
    bound = g.w_l1_bound()
    if bound is None:
        level, crossing = _check_level_sets(g)
        return level, _check_restricted_kernel(g, crossing)
    value, source = bound
    status, total = HOLDS, f"integrates to {value:.6g}"
    if source == "majorant":
        status = HOLDS_NUMERIC
        total = (f"integrates to at most ||r||_1^2 = {value:.6g} (W(x, y) <= r(x) r(y) for "
                 "its rate factor r; ||r||_1 is a quadrature value)")
    return (ConditionVerdict("marginal_level_sets", status,
                             f"the kernel {total}, so mu is a.e. finite and the level set "
                             f"{{mu > 1}} has measure at most {value:.6g}", bound=value),
            ConditionVerdict("kernel_core_integrable", status,
                             f"the full kernel {total}, which dominates the restriction",
                             bound=value))


def _check_level_sets(g: Graphex):
    """Probes of the marginal: a.e. finite, and {mu > 1} of finite measure.

    Returns (verdict, crossing) where crossing is a numeric upper bound for
    sup{x : mu(x) > 1} under the eventually-nonincreasing assumption; it is
    reused by the restricted-kernel condition. crossing is None when the
    condition is violated.
    """
    key = "marginal_level_sets"
    xs = _probe_grid()
    mu_vals = _safe_marginal(g, xs)
    infinite = ~np.isfinite(mu_vals)
    if infinite.any():
        # tolerate divergence at the origin only (a measure-zero probe);
        # divergence at positive probes is evidence of a positive-measure set
        positive_bad = xs[infinite & (xs > 0)]
        if positive_bad.size:
            return ConditionVerdict(
                key, VIOLATED,
                f"the marginal mu diverges at x = {positive_bad[0]:.6g} "
                f"(and {positive_bad.size - 1} more positive probe points); "
                "the infinite-marginal set appears to have positive measure"), None
    origin_note = ""
    if infinite.any():
        origin_note = ("mu diverges at x = 0 but is finite at every positive probe, "
                       "so the infinite set is taken to be null; ")

    finite_mask = np.isfinite(mu_vals)
    above = finite_mask & (mu_vals > 1.0) | ~finite_mask
    if above[-1]:
        return ConditionVerdict(
            key, VIOLATED,
            f"{origin_note}mu > 1 at every probe point out to x = {xs[-1]:.6g}; "
            "under the eventually-nonincreasing marginal assumption the level set "
            f"{{mu > 1}} has measure at least {xs[-1]:.6g}"), None
    above_idx = np.nonzero(above)[0]
    if above_idx.size == 0:
        note = (f"{origin_note}mu <= 1 at every probe point; the level set {{mu > 1}} "
                "is empty at probe resolution (eventually-nonincreasing marginal assumed)")
        return ConditionVerdict(key, HOLDS_NUMERIC, note, bound=0.0), 0.0

    lo = float(xs[above_idx[-1]])
    hi = float(xs[above_idx[-1] + 1])
    # each round probes 15 interior points in one call and narrows the
    # bracket 16-fold, as four bisection steps would
    for _ in range(15):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        grid = np.linspace(lo, hi, 17)
        # a marginal that reads exactly 1 counts as above: the bound must
        # not fall short of the crossing (skipping a finite stretch where mu
        # is finite leaves the restricted integral's finiteness unchanged)
        above = np.concatenate(([True], _safe_marginal(g, grid[1:-1]) >= 1.0, [False]))
        last = np.flatnonzero(above)[-1]
        lo, hi = float(grid[last]), float(grid[last + 1])
    note = (f"{origin_note}mu crosses 1 near x = {hi:.6g}; under the "
            "eventually-nonincreasing marginal assumption the level set {mu > 1} "
            f"has measure about {hi:.6g} (numeric crossing, probe resolution)")
    if g.mu is None:
        note += ("; a null infinite-marginal set cannot be certified from point "
                 "probes of a black-box kernel")
    return ConditionVerdict(key, HOLDS_NUMERIC, note, bound=hi), hi


def _check_restricted_kernel(g: Graphex, crossing: float | None) -> ConditionVerdict:
    """Probes of W's integral over the region where both marginals are <= 1."""
    key = "kernel_core_integrable"
    if crossing is None:
        return ConditionVerdict(
            key, UNDECIDABLE,
            "the kernel is not integrable and no bound on the level set {mu > 1} "
            "is available to restrict it")

    x0 = crossing

    def inner(x):
        # integral of W(x, y) over y >= x0, for every shell node at once; an
        # inner integral the array rule cannot settle ends the probe
        value, settled = g.marginal_nodes(x, 1e-7, lo=x0)
        if not settled.all():
            raise GraphexError("inner tail did not converge")
        return value.reshape(np.shape(x))

    def shell(f, a, b):
        res = g.integrate(f, _NESTED_REL_TOL, lo=a, hi=b)
        return res.value, res.converged

    probe = _probe_tail(inner, x0, shell)
    region = f"kernel restricted to [{x0:.6g}, inf)^2"
    if probe[0] == CONVERGENT:
        region += " (where mu <= 1)"
    return _probe_verdict(key, probe, region + ": ")


def _check_diagonal(g: Graphex) -> ConditionVerdict:
    key = "diagonal_integrable"
    if not g.self_edges or g.diag is None:
        return ConditionVerdict(key, HOLDS, "self edges disabled, the diagonal is unused",
                                bound=0.0)
    if g.diag_l1_value is not None and math.isfinite(g.diag_l1_value):
        return ConditionVerdict(key, HOLDS,
                                f"declared integral of W(x, x) = {g.diag_l1_value:.6g}",
                                bound=g.diag_l1_value)
    # the finite-support families (constant, graphon-dilation) declare the
    # integral, so only an unbounded support is left to probe
    return _probe_verdict(key, _probe_tail(g.diag_at, 0.0), "integral of W(x, x): ")


def check_local_finiteness(g: Graphex) -> FinitenessReport:
    """Run all five local-finiteness conditions against a graphex."""
    return FinitenessReport((
        _check_isolated(g),
        _check_star(g),
        *_check_kernel(g),
        _check_diagonal(g),
    ))
