"""Graphex declarations: family metadata, marginals, validation."""

import json
import math

import numpy as np
import pytest

from scipy import integrate

from graphex import model, theory
from graphex.model import Graphex, GraphexError, SpecError, build, build_from_json, dilate


def num_marginal(g, x, rel_tol=1e-10):
    """Marginal by QUADPACK on the kernel, ignoring analytic meta: a
    reference independent of the package's own quadrature."""
    value, _ = integrate.quad(lambda y: float(g.w(x, y)), 0.0, g.support,
                              epsabs=0.0, epsrel=rel_tol, limit=200)
    return value


# ---------------------------------------------------------------------------
# built-in family metadata
# ---------------------------------------------------------------------------

def test_slow_decay_metadata():
    g = build({"family": "slow-decay", "self_edges": True})
    assert g.marginal(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert g.marginal(1.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert g.w_l1() == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert g.tail_mu(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert g.tail_mu(1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert g.diag_l1() == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert g.w(0.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_fast_decay_metadata():
    g = build({"family": "fast-decay", "self_edges": True})
    assert g.marginal(0.0) == pytest.approx(1.0, rel=1e-12)
    assert g.marginal(3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert g.w_l1() == pytest.approx(1.0, rel=1e-12)
    assert g.tail_mu(3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert g.diag_l1() == pytest.approx(0.5, rel=1e-12)


def test_constant_family_metadata():
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0},
               "self_edges": True})
    assert g.support == 2.0
    assert g.w(1.0, 1.5) == 0.5
    assert g.w(1.0, 2.5) == 0.0
    assert g.marginal(1.0) == pytest.approx(1.0)
    assert g.marginal(2.5) == 0.0
    assert g.w_l1() == pytest.approx(2.0)
    assert g.diag_l1() == pytest.approx(1.0)
    assert g.tail_mu(0.0) == pytest.approx(2.0)
    assert g.tail_mu(1.5) == pytest.approx(0.5 * 2.0 * 0.5)


def test_constant_without_self_edges_zeroes_diagonal():
    g = build({"family": "constant", "params": {"p": 0.5, "c": 2.0}})
    assert g.diag_at(1.0) == 0.0
    assert g.diag_l1() == 0.0
    # off-diagonal unaffected
    assert g.w(1.0, 1.5) == 0.5


def test_checkerboard_dilation():
    g = dilate([[0.0, 1.0], [1.0, 0.0]], 2.0)
    assert g.marginal(0.5) == pytest.approx(1.0, rel=1e-12)
    assert g.marginal(1.5) == pytest.approx(1.0, rel=1e-12)
    assert g.w(0.5, 1.5) == 1.0
    assert g.w(0.5, 0.5) == 0.0
    assert g.w_l1() == pytest.approx(2.0, rel=1e-12)
    assert g.tail_mu(0.0) == pytest.approx(2.0, rel=1e-12)
    assert g.marginal(2.5) == 0.0


def test_dilation_scaling_in_c():
    base = [[0.7, 0.2], [0.2, 0.1]]
    tilde_l1 = sum(sum(row) for row in base) / 4.0  # mean of the grid on [0,1]^2
    for c in (1.0, 3.0, 10.0):
        g = dilate(base, c)
        assert g.w_l1() == pytest.approx(tilde_l1 * c * c, rel=1e-8)
        assert g.support == c


def test_dilation_tail_mu_piecewise():
    g = dilate([[0.7, 0.2], [0.2, 0.1]], 2.0)
    # tail from 0 equals the full mass; halfway into a cell integrates linearly
    assert g.tail_mu(0.0) == pytest.approx(g.w_l1(), rel=1e-12)
    direct, _ = integrate.quad(lambda t: float(g.marginal(t)), 0.5, 2.0, epsabs=0.0,
                               epsrel=1e-10, points=(1.0,))
    assert g.tail_mu(0.5) == pytest.approx(direct, rel=1e-9)


def test_separable_expression_matches_fast_decay():
    sep = build({"family": "separable", "exprs": {"f": "exp(-x)"}})
    fast = build({"family": "fast-decay"})
    for x, y in [(0.0, 0.0), (0.5, 2.0), (3.0, 1.0)]:
        assert sep.w(x, y) == pytest.approx(fast.w(x, y), rel=1e-12)
    assert sep.w_l1() == pytest.approx(1.0)
    assert sep.marginal(1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_caron_fox_shapes():
    g = build({"family": "caron-fox", "params": {}, "exprs": {"g": "exp(-x)"},
               "self_edges": True})
    assert g.w(0.0, 0.0) == pytest.approx(-math.expm1(-2.0), rel=1e-12)
    assert g.diag_at(1.0) == pytest.approx(-math.expm1(-math.exp(-2.0)), rel=1e-12)
    # symmetric by construction
    assert g.w(0.3, 1.7) == pytest.approx(g.w(1.7, 0.3), rel=1e-15)


def test_custom_kernel_broadcasts():
    g = build({"family": "custom", "exprs": {"W": "le(x*y, 1)"}})
    xs = np.array([0.5, 2.0])
    vals = g.w(xs[:, None], xs[None, :])
    assert vals.shape == (2, 2)
    assert vals[0, 0] == 1.0 and vals[1, 1] == 0.0
    scalar_w = build({"family": "custom", "exprs": {"W": "0.25"}})
    vals = scalar_w.w(xs[:, None], xs[None, :])
    assert vals.shape == (2, 2)
    assert np.all(vals == 0.25)


def test_every_family_declares_its_kernel_and_diagonal():
    # the sampler and the theory call g.w and g.diag without a None check;
    # the null kernel is declared as W = 0
    specs = {
        "constant": {"params": {"p": 0.5, "c": 2.0}},
        "graphon-dilation": {"params": {"c": 1.0, "grid": [[0.6, 0.1], [0.1, 0.3]]}},
        "separable": {"exprs": {"f": "exp(-x)"}},
        "slow-decay": {},
        "fast-decay": {},
        "caron-fox": {},
        "custom": {"exprs": {"W": "0"}},
    }
    assert set(specs) == set(model.FAMILIES)
    for family, spec in specs.items():
        g = build({"family": family, **spec})
        assert callable(g.w) and callable(g.diag), family
        assert np.shape(g.w(np.zeros(3), np.ones(3))) == (3,)
        assert np.shape(g.diag(np.ones(3))) == (3,)


# ---------------------------------------------------------------------------
# marginal: analytic metadata agrees with direct quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    {"family": "slow-decay"},
    {"family": "fast-decay"},
    {"family": "constant", "params": {"p": 0.3, "c": 1.5}},
    {"family": "separable", "exprs": {"f": "(x+1)^-3"}},
])
def test_marginal_matches_quadrature(spec):
    g = build(spec)
    xs = np.geomspace(1e-3, 30.0, 50)
    for x in xs:
        direct = num_marginal(g, float(x))
        assert g.marginal(float(x)) == pytest.approx(direct, rel=1e-6, abs=1e-12)


def test_marginal_without_analytic_meta_uses_quadrature():
    g = build({"family": "caron-fox", "exprs": {"g": "(1+x)^(-2)"}})
    assert g.mu is None
    val = g.marginal(0.0)
    assert val == pytest.approx(num_marginal(g, 0.0), rel=1e-7)


def test_marginal_raises_on_divergence():
    g = build({"family": "custom", "exprs": {"W": "le(x*y, 1)"}})
    with pytest.raises(GraphexError):
        g.marginal(0.0)  # W(0, y) = 1 for all y


# ---------------------------------------------------------------------------
# the array marginal of black-box kernels
# ---------------------------------------------------------------------------

def ein_series(t, terms):
    """sum over n >= 1 of (-1)^(n+1) t^n / (n^p n!) with p = ``terms``:
    p = 1 is Ein(t) = int_0^t (1 - e^-s)/s ds, p = 2 its integral against
    ds/s. Exact to rounding for t in [0, 2]."""
    n = np.arange(1, 40)
    coef = (-1.0) ** (n + 1) / (n ** terms * np.array([math.factorial(k) for k in n],
                                                     dtype=float))
    return np.power.outer(np.asarray(t, dtype=float), n) @ coef


@pytest.mark.parametrize("spec", [
    {"family": "caron-fox"},
    {"family": "caron-fox", "exprs": {"g": "(1+x)^(-2)"}},
    {"family": "custom", "exprs": {"W": "exp(-x-y)"}},
    {"family": "custom", "exprs": {"W": "0.4 * le(abs(x - y), 1)"}},
])
def test_array_marginal_equals_scalar_marginal(spec):
    g = build(spec)
    xs = np.concatenate(([0.0], np.geomspace(1e-3, 100.0, 11)))
    values = g.marginal(xs)
    assert values.shape == xs.shape
    assert np.array_equal(values, [g.marginal(float(x)) for x in xs])
    assert np.array_equal(g.marginal(xs[:4].reshape(2, 2)), values[:4].reshape(2, 2))


def test_caron_fox_marginal_and_tail_match_series():
    # g = e^-x: mu(x) = Ein(2 e^-x) and tail_mu(x) = sum (-1)^(n+1) u^n/(n^2 n!)
    # with u = 2 e^-x
    g = build({"family": "caron-fox"})
    xs = np.linspace(0.0, 30.0, 301)
    u = 2.0 * np.exp(-xs)
    np.testing.assert_allclose(g.marginal(xs), ein_series(u, 1), rtol=1e-10, atol=0)
    tails = [g.tail_mu(float(x)) for x in xs[::10]]
    np.testing.assert_allclose(tails, ein_series(u[::10], 2), rtol=1e-10, atol=0)
    assert g.w_l1() == pytest.approx(ein_series(2.0, 2), rel=1e-10)


def test_caron_fox_diagonal_integral_matches_ein():
    # caron-fox declares no integral of W(x, x) = 1 - exp(-e^-2x), so the
    # self-edge count comes from quadrature: 10 * Ein(1) / 2
    g = build({"family": "caron-fox", "self_edges": True})
    assert g.diag_l1_value is None
    self_count = theory.expected_edges(g, 10.0).components["self"]
    assert self_count == pytest.approx(3.982997996485267, rel=1e-12)
    assert self_count == pytest.approx(5.0 * ein_series(1.0, 1), rel=1e-12)


def test_marginal_finds_band_mass_away_from_the_origin():
    # 0.4 on |x - y| <= 1: mu = 0.8 once x >= 1; the band sits far from the
    # first quadrature window, so the range is split at y = x
    g = build({"family": "custom", "exprs": {"W": "0.4 * le(abs(x - y), 1)"}})
    xs = np.array([3.0, 10.0, 100.0])
    for x in xs:
        assert g.marginal(float(x)) == pytest.approx(0.8, rel=1e-8)
    np.testing.assert_allclose(g.marginal(xs), 0.8, rtol=1e-8)
    assert g.marginal(0.5) == pytest.approx(0.6, rel=1e-8)


def test_unsettled_elements_are_refined():
    # jumps at y = 2 and y = x +- 1 defeat one pass of the tanh-sinh rule:
    # those elements come back unsettled, and marginal refines them
    box = build({"family": "custom", "exprs": {"W": "0.5 * le(x, 2) * le(y, 2)"}})
    xs = np.array([0.0, 1.0, 3.0])
    _, settled = box.marginal_nodes(xs)
    assert not settled[:2].any() and settled[2]
    np.testing.assert_allclose(box.marginal(xs), [1.0, 1.0, 0.0], rtol=1e-9, atol=0)
    smooth = build({"family": "caron-fox"})
    assert smooth.marginal_nodes(np.linspace(0.0, 30.0, 50))[1].all()


BLACK_BOX = [{"family": "caron-fox"}, {"family": "custom", "exprs": {"W": "exp(-x-y)"}}]


def expectation_run(g):
    """The expectations of three levels: edges, vertices, degree counts and
    the degree law, as the theory computes them."""
    return [(theory.expected_edges(g, nu).value, theory.expected_vertices(g, nu).value,
             theory.expected_degree_count(g, nu, 1).value,
             theory.expected_degree_count(g, nu, 2).value,
             theory.degree_ccdf(g, nu, 2), theory.degree_pmf(g, nu, 3))
            for nu in (5.0, 20.0, 100.0)]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("spec", BLACK_BOX)
def test_memoised_marginals_are_a_fresh_graphex_s_bit_for_bit(spec):
    warm = build(spec)
    first = expectation_run(warm)
    assert warm._cache["marginal_nodes"]
    assert np.array_equal(bits(expectation_run(warm)), bits(first))
    assert np.array_equal(bits(expectation_run(build(spec))), bits(first))
    # the last node set twice: the second time from the memo
    for x in (np.linspace(0.0, 30.0, 50), np.array([0.5, 2.0]), np.array([0.5, 2.0])):
        for lo in (0.0, 1.0):
            got, want = warm.marginal_nodes(x, 1e-7, lo), build(spec).marginal_nodes(x, 1e-7, lo)
            assert np.array_equal(bits(got[0]), bits(want[0]))
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("spec", BLACK_BOX)
def test_each_distinct_node_set_gets_one_inner_pass(spec, monkeypatch):
    passes, node_sets = [], set()
    first_pass, marginal_nodes = model.first_pass, model.Graphex.marginal_nodes

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return first_pass(*args, **kwargs)

    def seen(self, x, rel_tol=1e-8, lo=0.0):
        node_sets.add((np.asarray(x, dtype=float).tobytes(), rel_tol, lo))
        return marginal_nodes(self, x, rel_tol, lo)

    monkeypatch.setattr(model, "first_pass", counted_pass)
    monkeypatch.setattr(model.Graphex, "marginal_nodes", seen)
    g = build(spec)
    expectation_run(g)
    # three levels of six statistics share two node sets of the outer rule
    assert len(passes) == len(node_sets) == 2
    expectation_run(g)
    assert len(passes) == 2


def test_the_marginal_memo_is_bounded_and_keeps_the_last_used():
    g = build(BLACK_BOX[0])
    size = model._MARGINAL_MEMO_SIZE
    first = np.array([0.25, 4.0])
    g.marginal_nodes(first)
    for i in range(3 * size):
        g.marginal_nodes(np.array([1.0 + i, 2.0 + i]))
        g.marginal_nodes(first)  # used again, so never the oldest
        assert len(g._cache["marginal_nodes"]) <= size
    memo = g._cache["marginal_nodes"]
    assert len(memo) == size
    assert (first.tobytes(), 1e-8, 0.0) in memo
    assert (np.array([1.0, 2.0]).tobytes(), 1e-8, 0.0) not in memo


def test_writes_to_a_returned_marginal_do_not_reach_the_memo():
    box = build({"family": "custom", "exprs": {"W": "0.5 * le(x, 2) * le(y, 2)"}})
    xs = np.array([0.0, 1.0, 3.0])
    value, settled = box.marginal_nodes(xs)
    want = value.copy(), settled.copy()
    value[:] = -1.0
    settled[:] = True
    # refined_marginal writes its refined elements into the memoised pass
    refined, ok = box.refined_marginal(xs)
    assert ok.all()
    np.testing.assert_allclose(refined, [1.0, 1.0, 0.0], rtol=1e-9, atol=0)
    refined[:] = -2.0
    again = box.marginal_nodes(xs)
    assert np.array_equal(bits(again[0]), bits(want[0]))
    assert np.array_equal(again[1], want[1]) and not again[1][:2].any()
    assert np.array_equal(bits(box.refined_marginal(xs)[0]),
                          bits(build(box.spec).refined_marginal(xs)[0]))


def test_marginal_resolves_jumps_near_the_diagonal_and_far_out():
    # a jump just past the split at y = x, and jumps far from the origin
    ind = build({"family": "custom", "exprs": {"W": "le(x*y, 1)"}})
    assert ind.marginal(0.999) == pytest.approx(1.0 / 0.999, rel=1e-8)
    band = build({"family": "custom", "exprs": {"W": "0.4 * le(abs(x - y), 1)"}})
    np.testing.assert_allclose(band.marginal(np.array([1e3, 1e4])), 0.8, rtol=1e-8)


def test_separable_step_factor_norms_are_exact():
    # 12 seeded step functions f = sum c_i le(x, e_i), 2 to 5 steps on
    # (0.1, 5): f_l1 is sum c_i e_i
    rng = np.random.default_rng(2026)
    for _ in range(12):
        m = int(rng.integers(2, 6))
        steps = np.sort(rng.uniform(0.1, 5.0, m))
        heights = rng.dirichlet(np.ones(m)) * rng.uniform(0.3, 1.0)
        f = " + ".join(f"{float(c)!r} * le(x, {float(e)!r})" for c, e in zip(heights, steps))
        g = build({"family": "separable", "exprs": {"f": f}})
        assert math.sqrt(g.w_l1()) == pytest.approx(float(heights @ steps), abs=1e-9)


def test_star_rate_with_a_jump_integrates_exactly():
    g = build({"family": "custom", "exprs": {"W": "0", "S": "0.5*le(x,2.3) + exp(-x)"}})
    assert g.s_l1() == pytest.approx(2.15, rel=1e-9)


@pytest.mark.parametrize("w", [
    "0.5*le(x,2)*le(y,2)", "le(x+y,3)*exp(-x-y)", "le(x*y, 1)",
])
def test_nested_integrals_of_jumpy_kernels_are_refused_at_once(w):
    # the inner marginals of these kernels do not settle in one pass, and
    # a nested integral does not refine them: it raises instead of grinding
    # for minutes or returning a wrong value as converged
    g = build({"family": "custom", "exprs": {"W": w}})
    with pytest.raises(GraphexError, match="did not converge"):
        g.w_l1()
    with pytest.raises(GraphexError, match="did not converge"):
        g.tail_mu(0.0)


# ---------------------------------------------------------------------------
# star rates and the isolated-edge rate
# ---------------------------------------------------------------------------

def test_star_rate_and_s_l1():
    g = build({"family": "custom", "exprs": {"W": "0", "S": "exp(-x)"}, "I": 0.2})
    assert g.s_at(0.0) == 1.0
    assert g.s_l1() == pytest.approx(1.0, rel=1e-9)
    assert g.tail_s(2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert g.isolated_rate == 0.2


def test_no_star_rate_means_zero():
    g = build({"family": "fast-decay"})
    assert g.s is None
    assert g.s_l1() == 0.0
    assert g.tail_s(0.0) == 0.0


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    {"family": "sigma-field"},                                     # unknown family
    {},                                                            # missing family
    {"family": "constant", "params": {"p": 1.5, "c": 1.0}},        # p out of range
    {"family": "constant", "params": {"p": 0.5, "c": -1.0}},       # bad support
    {"family": "constant", "params": {"p": 0.5}},                  # missing c
    {"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[0.0, 1.0]]}},
    {"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[0.0, 0.3], [0.6, 0.0]]}},
    {"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[1.5]]}},
    {"family": "separable", "exprs": {}},                          # f missing
    {"family": "separable", "exprs": {"f": "1/(1+x)"}},            # f not integrable
    {"family": "separable", "exprs": {"f": "2"}},                  # f > 1
    {"family": "separable", "exprs": {"f": "x + y"}},              # y not allowed
    {"family": "custom", "exprs": {"W": "x + y"}},                 # leaves [0, 1]
    {"family": "custom", "exprs": {"W": "x/(x+y+1)"}},             # asymmetric
    {"family": "custom", "exprs": {"W": "le(x, y"}},               # parse error
    {"family": "custom", "exprs": {"W": "0"}, "I": -0.5},          # negative I
    {"family": "custom", "exprs": {"W": "0", "S": "x - 1"}},       # S negative somewhere
    {"family": "custom", "exprs": {"W": "0", "S": "log(x)"}},      # S fails on [0, inf)
    {"family": "caron-fox", "exprs": {"g": "-x"}},                 # g negative
    "not even a dict",
])
def test_bad_declarations_raise_spec_error(spec):
    with pytest.raises(SpecError):
        build(spec)


# JSON's true is no number, nor is a string, and a flag is true or false;
# each refusal names its field
@pytest.mark.parametrize("spec, field", [
    ({"family": "fast-decay", "self_edges": "false"}, "self_edges"),
    ({"family": "fast-decay", "self_edges": 1}, "self_edges"),
    ({"family": "constant", "params": {"p": True, "c": 1.0}}, "p"),
    ({"family": "constant", "params": {"p": 0.5, "c": True}}, "c"),
    ({"family": "custom", "exprs": {"W": "0"}, "I": True}, "I"),
    ({"family": "graphon-dilation", "params": {"c": True, "grid": [[0.5]]}}, "c"),
    ({"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[True]]}}, "grid"),
    ({"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[0.5, True], [1, 0.5]]}},
     "grid"),
    ({"family": "graphon-dilation", "params": {"c": 1.0, "grid": [["0.5"]]}}, "grid"),
    ({"family": "graphon-dilation", "params": {"c": 1.0, "grid": [["a"]]}}, "grid"),
    ({"family": "graphon-dilation", "params": {"c": 1.0, "grid": [[0.5, 0.5], [0.5]]}}, "grid"),
], ids=["self-edges-text", "self-edges-number", "constant-p", "constant-c", "I",
        "dilation-c", "dilation-grid", "dilation-grid-mixed", "dilation-grid-text",
        "dilation-grid-letter", "dilation-grid-ragged"])
def test_number_and_flag_fields_are_checked(spec, field):
    with pytest.raises(SpecError, match=rf"(^|: ){field} "):
        build(spec)


def test_build_from_json_and_echo():
    g = build_from_json('{"family": "constant", "params": {"p": 0.5, "c": 2}, "I": 0.1}')
    assert isinstance(g, Graphex)
    echo = json.loads(g.to_json())
    assert echo["family"] == "constant"
    assert echo["I"] == 0.1
    assert echo["self_edges"] is False
    # the echo is itself a valid declaration
    again = build(echo)
    assert again.w_l1() == pytest.approx(g.w_l1())


def test_build_from_json_rejects_malformed_text():
    with pytest.raises(SpecError):
        build_from_json("{family: constant}")


def test_infinite_isolated_rate_is_representable():
    g = build({"family": "custom", "exprs": {"W": "0"}, "I": math.inf})
    assert g.isolated_rate == math.inf
