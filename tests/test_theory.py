"""Theory engine against closed forms.

For the separable power-law kernel W(x,y) = (1/3)((x+1)(y+1))^-2 the visible
vertex count has the closed form

    E[v](nu) = nu * (sqrt(pi) sqrt(nu/3) erf(sqrt(nu/3)) + exp(-nu/3) - 1)

and the expected count of degree-k vertices is

    E[N_k](nu) = nu^(3/2) (Gamma(k - 1/2) - Gamma(k - 1/2, nu/3)) / (2 sqrt(3) k!).

For the exponential kernel W(x,y) = exp(-x-y):

    E[v](nu)   = nu * (eulergamma + Gamma(0, nu) + log(nu))
    E[N_k](nu) = (nu / k!) * (Gamma(k) - Gamma(k, nu)).

All reference numbers below were evaluated from those closed forms with
mpmath at 30 significant digits and frozen as literals.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special
from test_acceptance import (
    fast_degree_count_closed_form,
    fast_vertices_closed_form,
    slow_degree_count_closed_form,
    slow_vertices_closed_form,
)

from graphex.model import build, dilate
from graphex.theory import (
    ExpectationResult,
    InfiniteExpectationError,
    TheoryError,
    degree_ccdf,
    degree_pmf,
    expected_degree_count,
    expected_edges,
    expected_vertices,
)

SLOW = {"family": "slow-decay"}
FAST = {"family": "fast-decay"}

SLOW_VERTICES = {
    1: 0.31597954046117862,
    12: 30.559694423261051,
    100: 923.32670794648849,
    10000: 1013326.7079464885,
}
FAST_VERTICES = {
    1: 0.79659959929705313,
    5: 10.939009364634543,
    100: 518.23858508896242,
}
FAST_DEGREE_COUNTS = {
    (1, 1): 0.63212055882855768,
    (1, 2): 0.13212055882855768,
    (1, 5): 0.00073196936546874247,
    (5, 1): 4.9663102650045727,
    (5, 2): 2.398930795013718,
    (5, 5): 0.55950671493478759,
    (100, 1): 100.0,
    (100, 2): 50.0,
    (100, 5): 20.0,
}
SLOW_DEGREE_COUNTS = {
    (1, 1): 0.29972411494369468,
    (1, 2): 0.0152200861881079,
    (1, 5): 2.9046160310887866e-06,
    (12, 1): 21.16995337829812,
    (12, 2): 5.0727006779097199,
    (12, 5): 0.54186846774199164,
    (100, 1): 511.66335397324408,
    (100, 2): 127.91583849330824,
    (100, 5): 27.981589668500148,
}
# degree law of a random visible vertex, kernel part only
SLOW_PMF1_NU300 = 0.52989619114128696   # -> 1/2 as nu grows
SLOW_PMF2_NU1E4 = 0.12623356069739336   # -> 1/8 as nu grows; still 1.23e-3 away
FAST_CDF_SQRT_NU1E3 = 0.53804419891935266  # P(D <= floor(nu^0.5)) -> 1/2
FAST_CDF_SQRT_NU1E4 = 0.52999722280971199
# sha256 of the repr of the closed-form value table in
# test_closed_form_values_are_frozen, as the tanh-sinh rule computes it; a
# change of rule, tolerance or integrand moves it
CLOSED_FORM_TABLE_SHA256 = "8686f01bb95fb0acb3f3a21cde2bb4b7953560c151b83235da87b3b392d15eb1"
# the same for test_blackbox_values_are_frozen: kernels with no declared
# marginal, whose every value runs through the numeric marginal
BLACKBOX_TABLE_SHA256 = "c8aa55108db7fc437740cd46c3f5b2f57d98a1d582ed924e46ad59b07ff4037c"


@pytest.mark.parametrize("nu, want", sorted(SLOW_VERTICES.items()))
def test_slow_decay_vertices_match_closed_form(nu, want):
    got = expected_vertices(build(SLOW), nu)
    assert got.value == pytest.approx(want, rel=1e-8)
    assert got.error_estimate < 1e-6 * max(1.0, want)


@pytest.mark.parametrize("nu, want", sorted(FAST_VERTICES.items()))
def test_fast_decay_vertices_match_closed_form(nu, want):
    got = expected_vertices(build(FAST), nu)
    assert got.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("key, want", sorted(FAST_DEGREE_COUNTS.items()))
def test_fast_decay_degree_counts_match_closed_form(key, want):
    nu, k = key
    got = expected_degree_count(build(FAST), nu, k)
    assert got.value == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("key, want", sorted(SLOW_DEGREE_COUNTS.items()))
def test_slow_decay_degree_counts_match_closed_form(key, want):
    nu, k = key
    got = expected_degree_count(build(SLOW), nu, k)
    assert got.value == pytest.approx(want, rel=1e-8)


CLOSED_FORMS = {
    "slow-decay": (slow_vertices_closed_form, slow_degree_count_closed_form),
    "fast-decay": (fast_vertices_closed_form, fast_degree_count_closed_form),
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_counts_match_closed_forms_to_twelve_digits(family):
    vertices, degree_count = CLOSED_FORMS[family]
    g = build({"family": family})
    for nu in (10.0, 1e2, 1e3, 1e4):
        assert expected_vertices(g, nu).value == pytest.approx(vertices(nu), rel=1e-12)
        for k in (1, 2, 3, 5, 10):
            assert expected_degree_count(g, nu, k).value == pytest.approx(
                degree_count(nu, k), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_dilation_theory_matches_cell_sums(seed):
    # the marginal is a step function, constant mu_i on each of n cells, so
    # every latent integral is an exact sum c/n sum_i h(mu_i); a rule run
    # across the jumps can claim convergence and be off in the eighth digit,
    # or not converge at all
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 20))
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) > 0.3))
    grid = upper + np.triu(upper, 1).T
    c = float(rng.uniform(0.5, 5.0))
    g = dilate(grid, c)
    mu = grid.sum(axis=1) * c / n
    for nu in (2.0, 50.0):
        visible = -np.expm1(-nu * mu)
        assert expected_vertices(g, nu).value == pytest.approx(
            nu * c * visible.sum() / n, rel=1e-12)
        for k in (1, 3):
            tail = special.gammainc(k + 1, nu * mu)
            assert degree_ccdf(g, nu, k) == pytest.approx(tail.sum() / visible.sum(),
                                                          rel=1e-12)


def test_degree_law_anchors():
    slow = build(SLOW)
    assert degree_pmf(slow, 300.0, 1) == pytest.approx(SLOW_PMF1_NU300, rel=1e-7)
    assert degree_pmf(slow, 1e4, 2) == pytest.approx(SLOW_PMF2_NU1E4, rel=1e-7)
    fast = build(FAST)
    assert 1.0 - degree_ccdf(fast, 1e3, 31) == pytest.approx(FAST_CDF_SQRT_NU1E3, rel=1e-8)
    assert 1.0 - degree_ccdf(fast, 1e4, 100) == pytest.approx(FAST_CDF_SQRT_NU1E4, rel=1e-8)


def test_degree_two_fraction_approaches_one_eighth():
    # the distance to the 1/8 limit shrinks like 1/log(nu): still outside
    # 1e-3 at nu = 1e4, inside it by nu = 2e4
    slow = build(SLOW)
    assert abs(degree_pmf(slow, 1e4, 2) - 0.125) > 1e-3
    assert abs(degree_pmf(slow, 2e4, 2) - 0.125) < 1e-3


def test_sqrt_nu_cdf_trends_to_half():
    fast = build(FAST)
    cdfs = [1.0 - degree_ccdf(fast, nu, int(nu ** 0.5))
            for nu in (1e2, 1e3, 1e4)]
    gaps = [abs(c - 0.5) for c in cdfs]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(c > 0.5 for c in cdfs)


def test_ccdf_basics():
    g = build(SLOW)
    assert degree_ccdf(g, 10.0, 0) == 1.0
    vals = [degree_ccdf(g, 10.0, k) for k in range(6)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    # pmf is the ccdf increment
    for k in (1, 2, 3):
        assert degree_pmf(g, 10.0, k) == pytest.approx(vals[k - 1] - vals[k], abs=1e-12)


def test_expected_edges_components():
    # constant kernel with self edges, stars and isolated edges all at once
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
               "self_edges": True, "exprs": {"S": "exp(-x)"}, "I": 0.25})
    nu = 3.0
    res = expected_edges(g, nu)
    assert res.components["pairwise"] == pytest.approx(0.5 * nu * nu * 2.0, rel=1e-9)
    assert res.components["self"] == pytest.approx(nu * 1.0, rel=1e-9)
    assert res.components["star"] == pytest.approx(nu * nu * 1.0, rel=1e-7)
    assert res.components["isolated"] == pytest.approx(nu * nu * 0.25, rel=1e-12)
    assert res.value == pytest.approx(sum(res.components.values()), rel=1e-12)


def test_star_and_isolated_vertex_and_degree_accounting():
    g = build({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2})
    nu = 4.0
    v = expected_vertices(g, nu)
    # hubs: nu * int(1 - e^(-nu S)); leaves: nu^2 * int S; isolated: 2 nu^2 I
    assert v.components["star_leaves"] == pytest.approx(nu * nu, rel=1e-7)
    assert v.components["isolated"] == pytest.approx(2 * nu * nu * 0.2, rel=1e-12)
    n1 = expected_degree_count(g, nu, 1)
    # leaves and isolated-edge endpoints all have degree exactly 1
    assert n1.value >= nu * nu + 2 * nu * nu * 0.2


def test_star_rate_past_the_kernel_support_is_integrated():
    # S = exp(-x) lives past the constant kernel's support c = 2, and the
    # visibility density jumps at c; the theory must integrate the whole
    # tail, as the sampler draws it
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
               "exprs": {"S": "exp(-x)"}})
    nu = 3.0

    def density(x):
        mu = 0.5 * 2.0 if x <= 2.0 else 0.0
        return 1.0 - math.exp(-nu * (mu + math.exp(-x)))

    want = nu * (integrate.quad(density, 0.0, 2.0, epsabs=0.0, epsrel=1e-12)[0]
                 + integrate.quad(density, 2.0, math.inf, epsabs=0.0, epsrel=1e-12)[0])
    assert want == pytest.approx(7.0033, abs=1e-4)
    assert expected_vertices(g, nu).components["latent"] == pytest.approx(want, rel=1e-9)


def degree_sum_identities(g, nu, kmax):
    total = 0.0
    weighted = 0.0
    for k in range(1, kmax + 1):
        nk = expected_degree_count(g, nu, k).value
        total += nk
        weighted += k * nk
    return total, weighted


@pytest.mark.parametrize("spec, nu", [
    ({"family": "fast-decay"}, 2.0),
    ({"family": "fast-decay", "self_edges": True}, 2.0),
    ({"family": "constant", "params": {"p": 0.4, "c": 1.5}, "self_edges": True}, 2.0),
    ({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2}, 2.0),
])
def test_handshake_and_vertex_sum(spec, nu):
    # sum_k E[N_k] = E[v] and sum_k k E[N_k] = 2 E[e], up to a tiny k-tail
    g = build(spec)
    total, weighted = degree_sum_identities(g, nu, 40)
    assert total == pytest.approx(expected_vertices(g, nu).value, rel=1e-7)
    assert weighted == pytest.approx(2.0 * expected_edges(g, nu).value, rel=1e-7)


def test_dense_family_scaling():
    # dilation: edges scale like nu^2, vertices approach nu c
    g = dilate([[0.5]], 1.0)
    e10 = expected_edges(g, 10.0).value
    e20 = expected_edges(g, 20.0).value
    assert e20 / e10 == pytest.approx(4.0, rel=1e-9)
    v = expected_vertices(g, 50.0).value
    assert v == pytest.approx(50.0, rel=1e-6)


def test_infinite_cases_raise():
    ind = build({"family": "custom", "exprs": {"W": "le(x*y, 1)"}})
    with pytest.raises(InfiniteExpectationError):
        expected_edges(ind, 2.0)
    inf_iso = build({"family": "custom", "exprs": {"W": "0"}, "I": math.inf})
    with pytest.raises(InfiniteExpectationError):
        expected_edges(inf_iso, 1.0)
    with pytest.raises(InfiniteExpectationError):
        expected_vertices(inf_iso, 1.0)
    bad_star = build({"family": "custom", "exprs": {"W": "0", "S": "1/(1+x)"}})
    with pytest.raises(InfiniteExpectationError):
        expected_edges(bad_star, 1.0)


def test_argument_validation():
    g = build(FAST)
    with pytest.raises(TheoryError):
        expected_edges(g, -1.0)
    with pytest.raises(TheoryError):
        expected_edges(g, math.inf)
    with pytest.raises(TheoryError):
        expected_degree_count(g, 1.0, 0)
    with pytest.raises(TheoryError):
        expected_degree_count(g, 1.0, 2.5)
    with pytest.raises(TheoryError):
        degree_ccdf(g, 1.0, -1)
    with pytest.raises(TheoryError):
        degree_ccdf(g, 0.0, 1)
    # bool is an int subclass, but not a truncation level
    for call in (expected_edges, expected_vertices,
                 lambda g, nu: expected_degree_count(g, nu, 1),
                 lambda g, nu: degree_ccdf(g, nu, 1)):
        for level in (True, False):
            with pytest.raises(TheoryError, match="truncation level"):
                call(g, level)


def test_degenerate_degree_law():
    no_kernel = build({"family": "custom", "exprs": {"W": "0"}, "I": 0.5})
    with pytest.raises(TheoryError):
        degree_ccdf(no_kernel, 10.0, 1)


def test_zero_nu_expectations_vanish():
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
               "exprs": {"S": "exp(-x)"}, "I": 0.1})
    assert expected_edges(g, 0.0).value == 0.0
    assert expected_vertices(g, 0.0).value == 0.0
    assert expected_degree_count(g, 0.0, 1).value == 0.0


def test_expectation_result_shape():
    res = expected_edges(build(FAST), 2.0)
    assert isinstance(res, ExpectationResult)
    d = res.to_dict()
    assert set(d) == {"value", "components", "error_estimate"}
    with pytest.raises(Exception):
        res.value = 0.0  # frozen


@pytest.mark.frozen
def test_closed_form_values_are_frozen():
    # the benchmark's analytic table (one graphex per family, called in this
    # order), then fast-decay's ccdf and pmf at k = sqrt(nu)
    values = []
    for spec in (SLOW, FAST, {"family": "constant", "params": {"p": 0.5, "c": 2.0},
                              "self_edges": True}):
        g = build(spec)
        for nu in (10.0, 1e2, 1e3, 1e4):
            values.append(expected_edges(g, nu).value)
            values.append(expected_vertices(g, nu).value)
            values += [expected_degree_count(g, nu, k).value for k in (1, 2, 3, 5, 10)]
            values += [degree_pmf(g, nu, k) for k in (1, 2, 3, 5, 10)]
    fast = build(FAST)
    for nu, k in ((100.0, 10), (1000.0, 31)):
        values += [degree_ccdf(fast, nu, k), degree_pmf(fast, nu, k)]
    assert len(values) == 148
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == CLOSED_FORM_TABLE_SHA256


@pytest.mark.frozen
def test_blackbox_values_are_frozen():
    values = []
    for spec in ({"family": "caron-fox"},
                 {"family": "custom", "exprs": {"W": "exp(-x-y)"}},
                 {"family": "custom", "exprs": {"W": "exp(-x-y)", "S": "0.5*exp(-x)"},
                  "I": 0.1}):
        g = build(spec)
        for nu in (2.0, 20.0):
            values.append(expected_edges(g, nu).value)
            values.append(expected_vertices(g, nu).value)
            values += [expected_degree_count(g, nu, k).value for k in (1, 3)]
            values.append(degree_pmf(g, nu, 2))
    assert len(values) == 30
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == BLACKBOX_TABLE_SHA256


@pytest.mark.parametrize("spec", [
    SLOW, FAST,
    # a separable f with no tail bound
    {"family": "separable", "exprs": {"f": "exp(-x)/(1+x)"}},
])
def test_degree_law_cache_keys(spec):
    # a graphex warmed at other nu and k gives a fresh one's values
    warm = build(spec)
    for nu, k in ((10.0, 3), (100.0, 4), (1000.0, 2)):
        degree_pmf(warm, nu, k)
        degree_ccdf(warm, nu, k + 1)
    for nu, k in ((10.0, 3), (100.0, 3), (10.0, 5), (1000.0, 3)):
        pmf = degree_pmf(build(spec), nu, k)
        assert degree_pmf(warm, nu, k) == pmf
        for j in (k - 1, k, k + 1):
            assert degree_ccdf(warm, nu, j) == degree_ccdf(build(spec), nu, j)
        assert pmf == degree_ccdf(warm, nu, k - 1) - degree_ccdf(warm, nu, k)
    # an int nu is the same level as its float
    assert degree_ccdf(warm, 100, 3) == degree_ccdf(build(spec), 100.0, 3)


def test_degree_law_errors_survive_the_cache():
    fast = build(FAST)
    degree_pmf(fast, 10.0, 2)
    assert dataclasses.replace(fast)._cache == {}  # a copy never reads the original's results
    zero_kernel = build({"family": "custom", "exprs": {"W": "0"}, "I": 0.5})
    for _ in range(2):
        with pytest.raises(TheoryError, match="nu = 0"):
            degree_ccdf(fast, 0.0, 1)
        with pytest.raises(TheoryError, match="no visible vertices"):
            degree_pmf(zero_kernel, 10.0, 1)
