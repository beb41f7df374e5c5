"""A tiny arithmetic expression language for user-declared kernels.

Kernels, star-rate functions and separable factors can be given on the command
line or in JSON as strings like ``"(x+1)^-2 * (y+1)^-2"``. The language is
deliberately small:

* float literals (``2``, ``0.5``, ``1e-3``)
* the variables ``x`` and ``y``
* binary ``+ - * /`` and ``^`` (power, right-associative)
* unary minus
* functions ``exp``, ``log``, ``sqrt``, ``abs``, and the two-argument
  ``le(a, b)`` (1 if a <= b else 0), ``min(a, b)``, ``max(a, b)``

Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``. So ``-x^2``
is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2) = 512``.

Evaluation is deterministic IEEE double arithmetic, vectorised over numpy
arrays. Anything outside a function's domain (log of a non-positive number,
division by zero, a negative base raised to a non-integer power, sqrt of a
negative number) raises :class:`EvalError`; invalid inputs never flow through
as silent NaNs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "EvalError",
    "Expr",
    "parse",
    "FUNCTIONS",
]


class ExprError(ValueError):
    """Base class for expression language errors."""


class ParseError(ExprError):
    """Syntax error. Carries the byte offset and the expected token kinds."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"at offset {offset}: expected {exp}, found {found}")


class EvalError(ExprError):
    """Domain error during evaluation (reported, never a silent NaN)."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"at offset {offset}: {message}")


# arity of each builtin function
FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "le": 2, "min": 2, "max": 2}

VARIABLES = ("x", "y")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]
    pos: int = field(default=0, compare=False)


Node = Lit | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS = re.compile(r"[ \t\r\n]*")


@dataclass
class _Token:
    kind: str  # "num", "ident", an operator/punct literal, or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while True:
        i = _WS.match(text, i).end()
        if i >= n:
            tokens.append(_Token("end", "", i))
            return tokens
        ch = text[i]
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, {"number", "identifier", "operator", "'('"}, repr(ch))


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

_ATOM_EXPECTED = {"number", "identifier", "'('", "'-'"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, {f"'{kind}'"}, self._describe(tok))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, {"operator", "end of input"}, self._describe(tok))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = BinOp(op.kind, node, rhs, op.pos)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            node = BinOp(op.kind, node, rhs, op.pos)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary(), tok.pos)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "^":
            self.advance()
            # right-associative; the exponent may itself carry a unary minus
            exponent = self.unary_power()
            return BinOp("^", base, exponent, tok.pos)
        return base

    def unary_power(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary_power(), tok.pos)
        return self.power()

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Lit(float(tok.text), tok.pos)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(tok.pos, {f"one of {sorted(FUNCTIONS)}"}, repr(name))
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                want = FUNCTIONS[name]
                if len(args) != want:
                    raise ParseError(
                        tok.pos, {f"{want} argument(s) to {name}"}, f"{len(args)} argument(s)"
                    )
                return Call(name, tuple(args), tok.pos)
            if name in VARIABLES:
                return Var(name, tok.pos)
            raise ParseError(
                tok.pos, {"'x'", "'y'"} | {f"'{f}('" for f in sorted(FUNCTIONS)}, repr(name)
            )
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(tok.pos, set(_ATOM_EXPECTED), self._describe(tok))


def parse(text: str) -> "Expr":
    """Parse ``text`` into an :class:`Expr`. Raises :class:`ParseError`."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return Expr(_Parser(text).parse(), text)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _as_bool_all(cond) -> bool:
    return bool(np.all(cond))


def _eval(node: Node, env: dict) -> float | np.ndarray:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        try:
            val = env[node.name]
        except KeyError:
            raise EvalError(node.pos, f"variable '{node.name}' is not bound here") from None
        if val is None:
            raise EvalError(node.pos, f"variable '{node.name}' is not bound here")
        return val
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval(node.lhs, env)
        b = _eval(node.rhs, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if not _as_bool_all(np.asarray(b) != 0):
                raise EvalError(node.pos, "division by zero")
            return a / b
        if node.op == "^":
            return _power(node, a, b)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        return _call(node, args)
    raise TypeError(f"not an expression node: {node!r}")


def _power(node: BinOp, a, b):
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    b_is_integer = np.all(np.floor(b_arr) == b_arr)
    if not b_is_integer and not _as_bool_all(a_arr >= 0):
        raise EvalError(node.pos, "negative base with non-integer exponent")
    if not _as_bool_all((a_arr != 0) | (b_arr >= 0)):
        raise EvalError(node.pos, "zero base with negative exponent")
    with np.errstate(over="ignore"):
        out = np.power(a_arr, b_arr)
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _call(node: Call, args):
    fn = node.fn
    if fn == "exp":
        with np.errstate(over="ignore"):
            out = np.exp(args[0])
    elif fn == "log":
        if not _as_bool_all(np.asarray(args[0]) > 0):
            raise EvalError(node.pos, "log of a non-positive number")
        out = np.log(args[0])
    elif fn == "sqrt":
        if not _as_bool_all(np.asarray(args[0]) >= 0):
            raise EvalError(node.pos, "sqrt of a negative number")
        out = np.sqrt(args[0])
    elif fn == "abs":
        out = np.abs(args[0])
    elif fn == "le":
        out = np.where(np.less_equal(args[0], args[1]), 1.0, 0.0)
    elif fn == "min":
        out = np.minimum(args[0], args[1])
    elif fn == "max":
        out = np.maximum(args[0], args[1])
    else:
        raise AssertionError(fn)
    if all(np.isscalar(a) or np.asarray(a).ndim == 0 for a in args):
        return float(out)
    return out


class Expr:
    """A parsed expression: evaluate it, inspect its variables; its text is its source."""

    __slots__ = ("ast", "source")

    def __init__(self, ast: Node, source: str):
        self.ast = ast
        self.source = source

    def __call__(self, x=None, y=None):
        out = _eval(self.ast, {"x": x, "y": y})
        if not _as_bool_all(~np.isnan(np.asarray(out, dtype=float))):
            # belt and braces: every NaN-producing path should already have
            # raised with a precise message
            raise EvalError(0, "evaluation produced NaN")
        return out

    @property
    def variables(self) -> frozenset[str]:
        found: set[str] = set()

        def walk(node: Node):
            if isinstance(node, Var):
                found.add(node.name)
            elif isinstance(node, Neg):
                walk(node.arg)
            elif isinstance(node, BinOp):
                walk(node.lhs)
                walk(node.rhs)
            elif isinstance(node, Call):
                for a in node.args:
                    walk(a)

        walk(self.ast)
        return frozenset(found)

    def __str__(self) -> str:
        return self.source

    def __repr__(self) -> str:
        return f"Expr({self.source!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.ast == other.ast

    def __hash__(self) -> int:
        # the nodes are frozen and pos is left out of their comparison, so
        # equal ASTs hash alike
        return hash(self.ast)
