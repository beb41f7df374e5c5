"""Expression language: grammar, precedence, domain errors, vectorisation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphex.expr import EvalError, Expr, ParseError, parse


def ev(text, **env):
    return parse(text)(**env)


def test_literals_and_arithmetic():
    assert ev("2") == 2.0
    assert ev("0.5 + 1e-3") == 0.501
    assert ev("2*3 + 4") == 10.0
    assert ev("2*(3 + 4)") == 14.0
    assert ev("7/2") == 3.5
    assert ev("1 - 2 - 3") == -4.0  # left-assoc


def test_power_is_right_associative_and_binds_above_unary_minus():
    assert ev("2^3^2") == 512.0
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-1") == 0.5


def test_variables():
    e = parse("(x+1)^-2 * (y+1)^-2")
    assert e.variables == frozenset({"x", "y"})
    assert e(x=0.0, y=0.0) == 1.0
    assert e(x=1.0, y=1.0) == pytest.approx(1.0 / 16.0)
    assert parse("3.5").variables == frozenset()


def test_functions():
    assert ev("exp(0)") == 1.0
    assert ev("log(exp(2))") == pytest.approx(2.0)
    assert ev("sqrt(9)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("le(1, 2)") == 1.0
    assert ev("le(3, 2)") == 0.0
    assert ev("le(2, 2)") == 1.0
    assert ev("min(2, 5)") == 2.0
    assert ev("max(2, 5)") == 5.0


def test_vectorised_evaluation():
    e = parse("exp(-x) * exp(-y)")
    x = np.array([0.0, 1.0, 2.0])
    out = e(x=x[:, None], y=x[None, :])
    assert out.shape == (3, 3)
    assert out[1, 2] == pytest.approx(math.exp(-3.0))
    # scalar in, scalar out
    assert isinstance(e(x=1.0, y=1.0), float)


def test_indicator_kernel_is_symmetric_valued():
    e = parse("le(x*y, 1)")
    assert e(x=0.5, y=1.9) == 1.0
    assert e(x=2.0, y=0.51) == 0.0
    assert e(x=0.0, y=1e9) == 1.0


@pytest.mark.parametrize("bad", [
    "", "2 +", "(1", "1)", "exp()", "exp(1, 2)", "le(1)", "nope(3)",
    "2 ** 3", "1 @ 2", "..5",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4


@pytest.mark.parametrize("expr, env", [
    ("log(0)", {}),
    ("log(-1)", {}),
    ("sqrt(-1)", {}),
    ("1/0", {}),
    ("(-2)^0.5", {}),
    ("0^-1", {}),
    ("x + 1", {}),             # unbound variable
    ("y", {"x": 1.0}),
])
def test_eval_domain_errors(expr, env):
    with pytest.raises(EvalError):
        parse(expr)(**env)


def test_eval_errors_never_leak_nan():
    # vectorised with one bad lane: reject the whole call, no silent NaN
    e = parse("log(x)")
    with pytest.raises(EvalError):
        e(x=np.array([1.0, -1.0]))


def test_repr_mentions_source():
    assert "x" in repr(parse("x + 1"))


def test_equal_expressions_hash_alike():
    # spacing moves the nodes' offsets, which neither == nor hash reads
    a, b = parse("x + 1"), parse("x+1")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert str(a) == "x + 1" and str(b) == "x+1"
    assert parse("x + 2") != a


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_separable_factor_matches_math(x, y):
    e = parse("exp(-x) * exp(-y)")
    assert e(x=x, y=y) == pytest.approx(math.exp(-x) * math.exp(-y), rel=1e-12)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
def test_power_tower_matches_int_math(a, b):
    assert ev(f"{a}^{b}") == float(a ** b)
