"""Quadrature engine against analytically known integrals.

Frozen reference values were computed once with mpmath at 30 significant
digits; exact rationals are written as such.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphex.quadrature import (
    IntegralResult,
    QuadratureError,
    integrate_array,
    integrate_interval,
    integrate_semiinf,
    poisson_tail,
)

SQRT_PI_OVER_2 = 0.88622692545275801365
POI3_GT2 = 0.57680991887315648468
POI100_GT120 = 0.022669329078352691695
POI05_GT0 = 0.3934693402873665764
SHIFTED_GAUSSIAN = 1.7724342737122792475  # int_0^inf exp(-(x-3)^2) dx


def test_interval_polynomial():
    res = integrate_interval(lambda x: x * x, 0.0, 1.0, 1e-10)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_interval_with_kink_points():
    # |x - 0.3| has a kink; declaring it keeps full accuracy
    res = integrate_interval(lambda x: abs(x - 0.3), 0.0, 1.0, 1e-12, points=(0.3,))
    assert res.converged
    assert res.value == pytest.approx(0.5 * (0.3 ** 2 + 0.7 ** 2), rel=1e-12)


def test_interval_with_more_points_than_panels():
    # a graphon dilation's retry passes one break point per cell edge, more
    # than the default limit of 200 subintervals
    n = 300
    res = integrate_interval(lambda x: math.ceil(n * x) / n, 0.0, 1.0, 1e-10,
                             points=tuple(np.arange(1, n) / n))
    assert res.converged
    assert res.value == pytest.approx((n + 1) / (2 * n), rel=1e-12)


def test_interval_degenerate_and_bad_endpoints():
    assert integrate_interval(lambda x: 1.0, 2.0, 2.0).value == 0.0
    with pytest.raises(QuadratureError):
        integrate_interval(lambda x: 1.0, 0.0, math.inf)
    with pytest.raises(QuadratureError):
        integrate_interval(lambda x: 1.0, 1.0, 0.0)


def test_interval_rejects_silly_tolerance():
    with pytest.raises(QuadratureError):
        integrate_interval(lambda x: x, 0.0, 1.0, rel_tol=0.5)
    with pytest.raises(QuadratureError):
        integrate_semiinf(lambda x: x, rel_tol=0.0)


def test_semiinf_exponential():
    res = integrate_semiinf(lambda x: math.exp(-x), 1e-10)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_semiinf_gaussian_off_origin():
    res = integrate_semiinf(lambda x: math.exp(-((x - 3.0) ** 2)), 1e-10)
    assert res.converged
    assert res.value == pytest.approx(SHIFTED_GAUSSIAN, rel=1e-10)


def test_semiinf_gaussian_half():
    res = integrate_semiinf(lambda x: math.exp(-(x * x)), 1e-12)
    assert res.converged
    assert res.value == pytest.approx(SQRT_PI_OVER_2, rel=1e-12)


def test_semiinf_power_law_tail():
    # (x+1)^-2 integrates to 1; the tail decays like 1/A so the dyadic
    # window must extrapolate (or compactify) rather than stop early
    res = integrate_semiinf(lambda x: (x + 1.0) ** -2, 1e-9)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_semiinf_tail_hint_certificate():
    # hint turns the stop rule into a certificate: exp decay, hint = e^-A
    res = integrate_semiinf(lambda x: math.exp(-x), 1e-10,
                            tail_hint=lambda a: math.exp(-a))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)
    assert res.error_estimate <= 1e-9


def test_semiinf_compactly_supported():
    res = integrate_semiinf(lambda x: 1.0 if x <= 2.0 else 0.0, 1e-9, points=(2.0,))
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_semiinf_divergent_is_flagged_not_trusted():
    # harmonic-type tail: no finite answer; must come back non-converged
    res = integrate_semiinf(lambda x: 1.0 / (1.0 + x), 1e-8)
    assert not res.converged


def test_semiinf_nonintegrable_singularity_fails_fast():
    # 1/sqrt(x)^3 near zero is non-integrable; the panel error bailout
    # should reject it without exhausting the doubling budget
    def f(x):
        return 0.0 if x == 0.0 else min(x ** -1.5, 1e12)

    res = integrate_semiinf(f, 1e-8)
    assert not res.converged


def test_semiinf_zero_function():
    res = integrate_semiinf(lambda x: 0.0, 1e-9)
    assert res.converged
    assert res.value == 0.0


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
    # gives zero, not NaN; a jump and a divergent integral are not converged
    a = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    b = np.array([np.inf, 1.0, np.nextafter(1.0, 2.0), 4.0, np.inf])
    kind = np.array([0, 1, 1, 2, 1])

    def f(t, kind):
        return np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, (t <= math.pi) * 1.0))

    value, _, converged, _ = integrate_array(f, a, b, 1e-8, args=(kind,))
    np.testing.assert_array_equal(value[:3], 0.0)
    np.testing.assert_array_equal(converged, [True, True, True, False, False])


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
    res = integrate_semiinf(lambda x: math.exp(-rate * x), 1e-9)
    assert res.converged
    assert res.value == pytest.approx(1.0 / rate, rel=1e-8)
