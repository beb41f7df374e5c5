"""Quadrature engine against analytically known integrals.

Frozen reference values were computed once with mpmath at 30 significant
digits; exact rationals are written as such.
"""

import ast
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphex
from graphex import quadrature
from graphex.quadrature import (
    IntegralResult,
    QuadratureError,
    first_pass,
    integrate_array,
    poisson_tail,
    refine,
)

SQRT_PI_OVER_2 = 0.88622692545275801365
POI3_GT2 = 0.57680991887315648468
POI100_GT120 = 0.022669329078352691695
POI05_GT0 = 0.3934693402873665764
SHIFTED_GAUSSIAN = 1.7724342737122792475  # int_0^inf exp(-(x-3)^2) dx


def integral(f, a=0.0, b=math.inf, rel_tol=1e-8):
    """(value, error, converged) of one integral as Python scalars."""
    value, error, converged, _ = integrate_array(f, a, b, rel_tol)
    return float(value), float(error), bool(converged)


def test_interval_polynomial():
    value, _, converged = integral(lambda x: x * x, 0.0, 1.0, 1e-10)
    assert converged
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_interval_with_kink_points():
    # |x - 0.3| has a kink; limits split there keep full accuracy, and the
    # refinement finds it when they are not
    f = lambda x: np.abs(x - 0.3)  # noqa: E731
    want = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    value, _, converged, _ = integrate_array(f, [0.0, 0.3], [0.3, 1.0], 1e-12)
    assert converged.all()
    assert value.sum() == pytest.approx(want, rel=1e-12)
    value, _, converged = integral(f, 0.0, 1.0, 1e-12)
    assert converged
    assert value == pytest.approx(want, rel=1e-12)


def test_interval_with_more_points_than_panels():
    # a graphon dilation integrates one piece per cell, in one call
    n = 300
    edges = np.arange(n + 1) / n
    value, _, converged, _ = integrate_array(lambda x: np.ceil(n * x) / n,
                                             edges[:-1], edges[1:], 1e-10)
    assert converged.all()
    assert value.sum() == pytest.approx((n + 1) / (2 * n), rel=1e-12)


def test_interval_degenerate_and_bad_endpoints():
    assert integral(lambda x: 1.0 + 0.0 * x, 2.0, 2.0)[:3:2] == (0.0, True)
    with pytest.raises(QuadratureError):
        integrate_array(lambda x: 1.0 + 0.0 * x, 1.0, 0.0)


def test_interval_rejects_silly_tolerance():
    with pytest.raises(QuadratureError):
        integrate_array(lambda x: x, 0.0, 1.0, rel_tol=0.5)
    with pytest.raises(QuadratureError):
        integrate_array(lambda x: x, 0.0, math.inf, rel_tol=0.0)


def test_semiinf_exponential():
    value, _, converged = integral(lambda x: np.exp(-x), rel_tol=1e-10)
    assert converged
    assert value == pytest.approx(1.0, rel=1e-10)


def test_semiinf_gaussian_off_origin():
    value, _, converged = integral(lambda x: np.exp(-((x - 3.0) ** 2)), rel_tol=1e-10)
    assert converged
    assert value == pytest.approx(SHIFTED_GAUSSIAN, rel=1e-10)


def test_semiinf_gaussian_half():
    value, _, converged = integral(lambda x: np.exp(-(x * x)), rel_tol=1e-12)
    assert converged
    assert value == pytest.approx(SQRT_PI_OVER_2, rel=1e-12)


def test_semiinf_power_law_tail():
    # (x+1)^-2 integrates to 1; its tail decays only like 1/A
    value, _, converged = integral(lambda x: (x + 1.0) ** -2, rel_tol=1e-9)
    assert converged
    assert value == pytest.approx(1.0, rel=1e-8)


def test_semiinf_tail_hint_certificate():
    # the rule's own error estimate is the certificate: exp decay
    value, error, converged = integral(lambda x: np.exp(-x), rel_tol=1e-10)
    assert converged
    assert value == pytest.approx(1.0, rel=1e-10)
    assert error <= 1e-9


def test_semiinf_compactly_supported():
    # a jump at 2 that nobody declares: the first pass does not settle it,
    # the refinement isolates it
    f = lambda x: 1.0 * (x <= 2.0)  # noqa: E731
    assert not first_pass(f, 0.0, math.inf, 1e-9)[2]
    value, _, converged = integral(f, rel_tol=1e-9)
    assert converged
    assert value == pytest.approx(2.0, rel=1e-9)


def test_semiinf_divergent_is_flagged_not_trusted():
    # harmonic-type tail: no finite answer; must come back non-converged
    assert not integral(lambda x: 1.0 / (1.0 + x))[2]


def test_semiinf_nonintegrable_singularity_fails_fast():
    # x^-1.5 capped at 1e12 has a finite integral, 1e4 on [0, 1e-8] plus
    # 2e4 beyond; the spike must give that value or no converged value
    def f(x):
        with np.errstate(divide="ignore"):
            return np.where(x == 0.0, 0.0, np.minimum(x ** -1.5, 1e12))

    value, _, converged = integral(f)
    assert not converged or value == pytest.approx(3e4, rel=1e-8)


def test_semiinf_zero_function():
    assert integral(lambda x: 0.0 * x, rel_tol=1e-9) == (0.0, 0.0, True)


def test_array_rule_integrates_many_limits_at_once():
    # int_a^b e^(-c t) dt for a grid of rates and limits, one call
    c = np.array([0.5, 1.0, 3.0, 10.0])
    a = np.array([0.0, 1.0, 0.0, 2.0])
    b = np.array([np.inf, np.inf, 1.0, 2.5])
    value, error, converged, evaluations = integrate_array(
        lambda t, c: np.exp(-c * t), a, b, 1e-10, args=(c,))
    want = (np.exp(-c * a) - np.exp(-c * b)) / c
    assert converged.all() and evaluations.min() > 0
    np.testing.assert_allclose(value, want, rtol=1e-13, atol=0)
    assert np.all(error <= 1e-10 * want)
    # a Gaussian off the origin: the frozen mpmath reference
    value, _, converged, _ = integrate_array(lambda t: np.exp(-(t - 3.0) ** 2),
                                             0.0, np.inf, 1e-10)
    assert converged and value == pytest.approx(SHIFTED_GAUSSIAN, rel=1e-13)


def test_array_rule_edge_cases():
    # exact zeros converge at once; a zero-width or one-ulp-wide interval
    # gives zero, not NaN; one pass settles neither a jump nor a divergent
    # integral, and the refinement settles only the jump
    a = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    b = np.array([np.inf, 1.0, np.nextafter(1.0, 2.0), 4.0, np.inf])
    kind = np.array([0, 1, 1, 2, 1])

    def f(t, kind):
        return np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, (t <= math.pi) * 1.0))

    value, _, converged, _ = first_pass(f, a, b, 1e-8, args=(kind,))
    np.testing.assert_array_equal(value[:3], 0.0)
    np.testing.assert_array_equal(converged, [True, True, True, False, False])
    value, _, converged, _ = integrate_array(f, a, b, 1e-8, args=(kind,))
    np.testing.assert_array_equal(value[:3], 0.0)
    np.testing.assert_array_equal(converged, [True, True, True, True, False])
    assert value[3] == pytest.approx(math.pi, rel=1e-8)


def test_result_rejects_nan():
    with pytest.raises(QuadratureError):
        IntegralResult(float("nan"), 0.0, True, 1)


def test_poisson_tail_values():
    assert poisson_tail(3.0, 2) == pytest.approx(POI3_GT2, abs=1e-13)
    assert poisson_tail(100.0, 120) == pytest.approx(POI100_GT120, abs=1e-13)
    assert poisson_tail(0.5, 0) == pytest.approx(POI05_GT0, abs=1e-14)
    assert poisson_tail(0.0, 0) == 0.0
    assert poisson_tail(0.0, 5) == 0.0


def test_poisson_tail_vectorised():
    lam = np.array([0.0, 1.0, 10.0])
    out = poisson_tail(lam, 1)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)


def test_poisson_tail_matches_pmf_sum():
    lam = 4.2
    k = 6
    pmf_sum = sum(math.exp(-lam) * lam ** j / math.factorial(j) for j in range(k + 1))
    assert poisson_tail(lam, k) == pytest.approx(1.0 - pmf_sum, rel=1e-12)


def test_poisson_tail_input_validation():
    with pytest.raises(ValueError):
        poisson_tail(-1.0, 0)
    with pytest.raises(ValueError):
        poisson_tail(math.inf, 0)
    with pytest.raises(ValueError):
        poisson_tail(1.0, -1)
    with pytest.raises(ValueError):
        poisson_tail(1.0, 2.5)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.integers(min_value=0, max_value=500))
def test_poisson_tail_scalar_path_matches_array_path(lam, k):
    # a Python float and int give a float, the same as the array's element
    got = poisson_tail(lam, k)
    assert type(got) is float
    assert got == float(poisson_tail(np.array([lam]), np.array([k]))[0])
    assert got == poisson_tail(np.float64(lam), np.int64(k))


@pytest.mark.parametrize("lam, k", [
    (math.nan, 0), (math.inf, 0), (-math.inf, 0), (-1.0, 0), (-1e-300, 3),
    (1.0, -1), (1.0, 2.5), (np.float64(math.nan), 1), (np.float64(-2.0), 1),
    (1.0, np.int64(-1)), (np.float64(1.0), -1),
])
def test_poisson_tail_rejects_bad_scalars(lam, k):
    bad_lam = not (lam >= 0 and math.isfinite(lam))
    message = "lam must be finite" if bad_lam else "k must be a non-negative integer"
    with pytest.raises(ValueError, match=message):
        poisson_tail(lam, k)


def test_poisson_tail_numpy_and_bool_scalars_take_array_path():
    want = poisson_tail(3.0, 2)
    for lam, k in [(np.float64(3.0), 2), (3.0, np.int64(2)), (np.float64(3.0), np.int64(2)),
                   (3, 2), (3.0, 2.0)]:
        got = poisson_tail(lam, k)
        assert type(got) is float
        assert got == want
    assert poisson_tail(np.array(3.0), np.array(2)) == want
    assert poisson_tail(3.0, True) == poisson_tail(3.0, 1)
    assert poisson_tail(3.0, False) == poisson_tail(3.0, 0)


@given(st.floats(min_value=0.0, max_value=1e5),
       st.integers(min_value=0, max_value=200))
def test_poisson_tail_in_unit_interval_and_monotone_in_k(lam, k):
    a = poisson_tail(lam, k)
    b = poisson_tail(lam, k + 1)
    assert 0.0 <= b <= a <= 1.0


@given(st.floats(min_value=0.05, max_value=8.0))
def test_semiinf_scaled_exponential(rate):
    value, _, converged = integral(lambda x: np.exp(-rate * x), rel_tol=1e-9)
    assert converged
    assert value == pytest.approx(1.0 / rate, rel=1e-8)


def test_non_finite_integrand_raises():
    # the rule would put exp(-1) in place of every NaN; it must not
    def f(x):
        return np.where((x > 1.0) & (x < 2.0), np.nan, np.exp(-x))

    with pytest.raises(QuadratureError, match="not finite"):
        integrate_array(f, 0.0, math.inf)


def test_refinement_isolates_jumps_and_keeps_first_pass_values():
    # the first pass settles the smooth elements; only the steps are split,
    # and the result is within the tolerance of the exact value
    edges = np.array([0.7, 2.3, 1.0 / 0.999])
    f = lambda t, e: np.exp(-t) + 1.0 * (t <= e)  # noqa: E731
    first = first_pass(f, 0.0, math.inf, 1e-10, args=(edges,))
    assert not first[2].any()
    smooth = first_pass(lambda t: np.exp(-t), 0.0, math.inf, 1e-10)
    assert integral(lambda t: np.exp(-t), rel_tol=1e-10)[0] == float(smooth[0])
    value, error, converged, _ = integrate_array(f, 0.0, math.inf, 1e-10, args=(edges,))
    assert converged.all()
    np.testing.assert_allclose(value, 1.0 + edges, rtol=1e-10, atol=0)
    assert np.all(error <= 1e-10 * value)


def test_refinement_does_not_trust_levels_that_agree_by_chance():
    # on the piece [4, 6], which holds three of these steps, two levels of
    # the rule agree to 2e-6 and its error estimate reads 3e-12; the piece
    # is 3.7e-4 off. Only halves that agree with their whole are kept
    steps = np.array([0.17206089, 3.67217407, 4.33183644, 4.64437725, 4.84283833])
    heights = np.array([0.15932448, 0.29040383, 0.00349554, 0.22059651, 0.20184131])
    value, _, converged = integral(lambda x: (heights * (x[..., None] <= steps)).sum(-1),
                                   rel_tol=1e-10)
    assert converged
    assert value == pytest.approx(float(heights @ steps), rel=1e-10)


def test_refine_sums_the_pieces_of_each_row():
    # row i holds the pieces of integral i; one row's jump does not hold up
    # the other, and a divergent row is reported, not trusted
    a = np.array([[0.0, 1.0], [0.0, 5.0]])
    b = np.array([[1.0, math.inf], [5.0, math.inf]])
    scale = np.array([1.0, 0.0])
    value, _, converged, evaluations = refine(
        lambda t, s: s * (t <= 1.5) + (1.0 - s) / (1.0 + t), a, b, 1e-9, args=(scale,))
    assert value[0] == pytest.approx(1.5, rel=1e-9)
    assert converged.tolist() == [True, False]
    assert evaluations.min() > 0


def test_only_the_quadrature_module_integrates():
    # one integration layer, and it is the package's own: no module of the
    # package reaches scipy.integrate
    def integrates(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            return False
        return any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names)

    package = pathlib.Path(graphex.__file__).parent
    users = {path.name for path in package.glob("*.py")
             if any(integrates(node) for node in ast.walk(ast.parse(path.read_text())))}
    assert users == set()


@pytest.mark.parametrize("a, b", [([0.0, math.nan], math.inf), (0.0, math.nan),
                                  (math.inf, math.inf), (-math.inf, 0.0)])
def test_limits_must_be_numbers_and_the_lower_one_finite(a, b):
    # refused before any node, not integrated to NaN or with a warning
    f = lambda t: np.exp(-t)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integrate in (first_pass, integrate_array):
            with pytest.raises(QuadratureError, match="limit"):
                integrate(f, a, b)
        a2, b2 = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
        with pytest.raises(QuadratureError, match="limit"):
            refine(f, a2, b2)


@pytest.mark.parametrize("a, b, args, match", [
    ("a", 1.0, (), "a limit must be a number, got 'a'"),
    (0.0, [1.0, "x"], (), r"a limit must be a number, got \[1.0, 'x'\]"),
    (0.0, 1j, (), r"a limit must be a number, got 1j"),
    ([0.0, 1.0], [1.0, 2.0, 3.0], (), r"do not broadcast together: shapes \(2,\), \(3,\)"),
    ([0.0, 1.0], math.inf, (np.ones(3),),
     r"do not broadcast together: shapes \(2,\), \(\), \(3,\)"),
])
def test_limits_and_args_that_are_not_numbers_or_do_not_broadcast_are_named(a, b, args, match):
    # the rule's own error, naming the value or the shapes, not NumPy's
    # bare ValueError
    f = lambda t, *c: np.exp(-t)  # noqa: E731
    for integrate in (first_pass, integrate_array):
        with pytest.raises(QuadratureError, match=match):
            integrate(f, a, b, args=args)
    if not args:
        with pytest.raises(QuadratureError, match="limit"):
            refine(f, np.atleast_2d(a), np.atleast_2d(b))


def test_integrand_must_return_one_value_per_node():
    with pytest.raises(QuadratureError, match="one value per node"):
        first_pass(lambda t: np.ones(3), 0.0, 1.0)


@pytest.mark.parametrize("b", [1.0, math.inf])
@pytest.mark.parametrize("view", [False, True])
def test_the_rule_leaves_the_integrands_arrays_alone(b, view):
    # a read-only result is integrated, and a result the integrand keeps,
    # returned as it is or as a view, still holds its values afterwards
    exact = -math.expm1(-b)
    value, _, converged, _ = first_pass(lambda t: np.broadcast_to(1.0, t.shape), 0.0, 1.0)
    assert converged and value == pytest.approx(1.0, rel=1e-12)
    value, _, converged, _ = first_pass(lambda t: np.broadcast_to(np.exp(-t), t.shape), 0.0, b)
    assert converged and value == pytest.approx(exact, rel=1e-12)
    kept = []

    def f(t):
        kept.append((t.copy(), np.exp(-t)))
        return kept[-1][1][...] if view else kept[-1][1]

    value, _, converged, _ = first_pass(f, 0.0, b)
    assert converged and value == pytest.approx(exact, rel=1e-12)
    for t, ft in kept:
        np.testing.assert_array_equal(ft, np.exp(-t))


# ---------------------------------------------------------------------------
# The rule against SciPy's: value, error, convergence and evaluation count
# must be equal, not close
# ---------------------------------------------------------------------------

def scipy_rule(f, a, b, rel_tol, args, maxlevel):
    """quadrature._tanhsinh computed by scipy.integrate.tanhsinh, with the
    same settings and the same closing of intervals a few ulps wide."""
    tanhsinh = getattr(pytest.importorskip("scipy.integrate"), "tanhsinh", None)
    if tanhsinh is None:
        pytest.skip("scipy.integrate.tanhsinh needs SciPy 1.15")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = np.where(b - a <= 4.0 * np.spacing(np.abs(a)), a, b)
    res = tanhsinh(f, a, b, args=args, rtol=min(rel_tol, quadrature._TS_RTOL),
                   atol=quadrature._TS_ATOL, minlevel=quadrature._TS_MINLEVEL,
                   maxlevel=maxlevel)
    value = res.integral
    converged = res.success | (np.isfinite(value) & (res.error <= rel_tol * np.abs(value)))
    return value, res.error, converged, res.nfev


def assert_same_rule(f, a, b, rel_tol, args=(), maxlevel=quadrature._TS_MAXLEVEL):
    got = quadrature._tanhsinh(f, a, b, rel_tol, args, maxlevel)
    want = scipy_rule(f, a, b, rel_tol, args, maxlevel)
    for name, g, w in zip(("value", "error", "converged", "evaluations"), got, want):
        assert np.shape(g) == np.shape(w), name
        assert np.array_equal(g, w), (name, g, w)


RULE_CASES = {
    # finite and [a, inf) limits, and zero-width and one-ulp pieces
    "smooth": (lambda t: np.exp(-(t - 1.0) ** 2) * (1.0 + t),
               [0.0, 1.0, 2.0, 2.0, 0.5, 3.0, 0.25],
               [1.0, math.inf, 2.0, math.inf, np.nextafter(0.5, 1.0), 3.5, 7.0], ()),
    "scalar": (lambda t: 1.0 / (1.0 + t * t), 0.0, math.inf, ()),
    # a step that fools the rule, and tails that never settle
    "step": (lambda t: 1.0 * (t <= math.pi), [0.0, 0.0, 1.0], [4.0, math.inf, math.inf], ()),
    "unconverged tail": (lambda t: 1.0 / (1.0 + t), [0.0, 2.0], math.inf, ()),
    "edge singularity": (lambda t: t ** -0.5, [0.0, 0.0], [1.0, 1e-3], ()),
    # limits of one shape broadcast against args of another
    "broadcast args": (lambda t, c, d: np.exp(-c * t) * np.cos(d * t),
                       [0.0, 0.5, 1.0, 2.0], [1.0, 3.0, math.inf, 9.0],
                       (np.array([[0.5], [1.0], [4.0]]), np.array([0.0, 1.0, 3.0, 30.0]))),
    # finite and [a, inf) rows interleaved, one empty, and a peak whose
    # sharpness sets the level each row stops at
    "mixed rows": (lambda t, c: np.exp(-c * (t - 1.0) ** 2) * (1.0 + 0.5 * np.cos(t)),
                   [0.0, 0.0, 0.5, 2.0, 1.0, 0.25, 3.0, 0.0],
                   np.array([3.0, math.inf, 2.0, math.inf, 40.0, math.inf, 3.0, math.inf]),
                   (np.array([[0.5], [5.0], [60.0], [800.0]]),)),
    # one [a, inf) row that settles at the first test, level 4
    "one row at level 4": (lambda t: np.exp(-t), 0.0, math.inf, ()),
    # finite and [a, inf) rows that all stop at the same level
    "rows that stop together": (lambda t, c: np.exp(-c * t), [0.0, 1.0, 0.0, 2.0, 0.5],
                                [2.0, 4.0, math.inf, math.inf, math.inf],
                                (np.array([1.0, 1.0, 1.0, 1.0, 2.0]),)),
    # no row stops before the last level
    "rows that never stop early": (lambda t, c: c / (1.0 + t), [0.0, 1.0, 3.0], math.inf,
                                   (np.array([1.0, 2.0, 0.5]),)),
    # f t^-2 overflows far out on [a, inf), where t^-2 does not, and
    # (1 - t)^-0.5 is infinite on the nodes that round onto b = 1: one end
    # of each row has nodes without a finite value or without weight
    "one-sided edges": (lambda t, k: np.where(k == 0, 1e300 * (1.0 + t) ** -1.5,
                                              (1.0 - t) ** -0.5),
                        [0.0, 3.0, 0.0], [math.inf, math.inf, 1.0], (np.array([0, 0, 1]),)),
}


@pytest.mark.parametrize("maxlevel", [5, 10])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("case", list(RULE_CASES))
def test_rule_is_scipys_bit_for_bit(case, rel_tol, maxlevel):
    f, a, b, args = RULE_CASES[case]
    assert_same_rule(f, a, b, rel_tol, args, maxlevel)


@pytest.mark.parametrize("maxlevel", [5, 10])
def test_the_mixed_rows_stop_at_different_levels(maxlevel):
    # so the [a, inf) rows, which share their nodes, and the finite rows
    # leave the rule at different levels, beside each other
    f, a, b, args = RULE_CASES["mixed rows"]
    evaluations = quadrature._tanhsinh(f, a, b, 1e-8, args, maxlevel)[3]
    for rows in (np.isfinite(b) & (np.array(a) < b), np.isinf(b)):
        assert len(np.unique(evaluations[:, rows])) >= (2 if maxlevel == 5 else 4)


@pytest.mark.parametrize("maxlevel", [5, 10])
def test_the_added_cases_stop_where_their_names_say(maxlevel):
    # the first test is at level 4, after 2 * 129 nodes and SciPy's probe;
    # level k > 4 adds 2 * 8 * 2^(k - 1) nodes
    calls = {4: 259, maxlevel: 3 + 2 * quadrature._N_BASE_STEPS * 2**maxlevel}
    for case, level in [("one row at level 4", 4), ("rows that stop together", 4),
                        ("rows that never stop early", maxlevel),
                        ("one-sided edges", maxlevel)]:
        f, a, b, args = RULE_CASES[case]
        evaluations = quadrature._tanhsinh(f, a, b, 1e-8, args, maxlevel)[3]
        assert np.all(evaluations == calls[level]), case


@pytest.mark.parametrize("decl", [
    {"family": "custom", "exprs": {"W": "exp(-(x - y)^2) / (1 + x + y)"}},
    {"family": "caron-fox"},
])
def test_rule_is_scipys_on_the_marginal_nodes(decl):
    # the 2-d limits of the marginal: each row split at y = x, one piece
    # empty at x = 0
    g = graphex.build(decl)
    x = np.array([0.0, 0.1, 1.0, 2.5, 7.0, 40.0])
    a, b = g._halves(x, 0.0)
    for rel_tol in (1e-8, 1e-10):
        assert_same_rule(g._w_of_y, a, b, rel_tol, (x[:, None],))


def test_rule_is_scipys_in_a_nested_integral(monkeypatch):
    # ||W||_1 of caron-fox, an outer integral whose every node is a pass of
    # inner integrals, is the same number by either rule
    def norm():
        g = graphex.build({"family": "caron-fox"})
        return g.integrate(g.nested_marginal, 1e-9)

    ours = norm()
    monkeypatch.setattr(quadrature, "_tanhsinh", scipy_rule)
    assert norm() == ours
    assert ours.converged
