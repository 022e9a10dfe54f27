"""Arithmetic expressions in one variable, parsed by recursive descent.

Configuration files describe potentials as plain text like
``x^4/4 - x^2/2``.  The grammar is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | '(' expr ')'

``^`` is exponentiation and associates to the right (``2^3^2`` is 512);
unary minus binds looser, so ``-x^2`` means ``-(x^2)``.  Parsed
expressions evaluate through numpy and broadcast over arrays, which the
Monte Carlo drivers rely on.  Errors carry the line and column where
parsing stopped.

A constant integer exponent ``n`` with ``3 <= n <= 8`` evaluates as a
chain of products by repeated squaring, within ``n - 1`` ulp of the exact
power (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
§3.1), for a few multiplications per element where ``np.power`` pays a
libm ``pow``.  Every other exponent goes through ``np.power``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]


class ExpressionError(ValueError):
    """Parse failure with the offending source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.message = message
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # "number", "name", "op", "end"
    text: str
    line: int
    column: int


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> Iterator[_Token]:
    line, column = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            column = 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            column += 1
            continue
        if match := _NUMBER.match(text, pos):
            yield _Token("number", match.group(), line, column)
        elif match := _NAME.match(text, pos):
            yield _Token("name", match.group(), line, column)
        elif ch in "+-*/^()":
            yield _Token("op", ch, line, column)
            pos += 1
            column += 1
            continue
        else:
            raise ExpressionError(f"unexpected character {ch!r}", line, column)
        column += match.end() - pos
        pos = match.end()
    yield _Token("end", "", line, column)


@dataclass(frozen=True)
class _Node:
    """Expression tree: a constant, the variable, or an operator node."""

    op: str  # "const", "var", or one of + - * / ^ neg
    value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


# scalar exponents that numpy sends to square, sqrt and reciprocal, which
# round differently from pow; tests/test_expr.py derives this set from numpy.
# They enter np.power as full arrays, so they keep pow's rounding; the
# integers 3..8 of _POW_CHAINS never reach np.power at all
_POW_FAST_PATHS = frozenset({2.0, 0.5, -1.0})

# v^n for a constant exponent n as products by right-to-left binary
# exponentiation, x^6 = x^2 x^4 and x^7 = (x x^2) x^4: unfolded, each is a
# product of n factors x, so it is within n - 1 roundings (n - 1 ulp) of the
# exact power.  x^2 stays on pow, so no x^2 result changes.
_POW_CHAINS = {
    3.0: lambda v: v * v * v,
    4.0: lambda v: (s := v * v) * s,
    5.0: lambda v: (s := v * v) * s * v,
    6.0: lambda v: (s := v * v) * (s * s),
    7.0: lambda v: (s := v * v) * v * (s * s),
    8.0: lambda v: (q := (s := v * v) * s) * q,
}


def _compile(node: _Node) -> float | Callable[[np.ndarray], np.ndarray]:
    """Compile ``node`` into a float (constant subtree) or a closure ``x -> array``.

    Constants enter ``+ - * /`` as Python floats, which rounds exactly as
    the elementwise array operation.  A constant exponent ``n`` in
    ``3..8`` becomes the product chain of :data:`_POW_CHAINS`, within
    ``n - 1`` ulp of the exact power.  Every other power goes through
    ``np.power``: a constant exponent as a Python float, which rounds as
    ``pow`` does, unless it is in :data:`_POW_FAST_PATHS`.  Such an
    exponent, an exponent with ``x`` in it, and a constant base enter
    ``np.power`` as full arrays.
    """
    if node.op == "const":
        return node.value
    if node.op == "var":
        return lambda x: x
    if node.op == "neg":
        a = _compile(node.left)
        return -a if isinstance(a, float) else (lambda x: -a(x))
    a, b = _compile(node.left), _compile(node.right)
    if node.op == "^":
        base = _full(a) if isinstance(a, float) else a
        if isinstance(b, float) and b in _POW_CHAINS:
            chain = _POW_CHAINS[b]
            return lambda x: chain(base(x))
        if isinstance(b, float) and b not in _POW_FAST_PATHS:
            return lambda x: np.power(base(x), b)
        exponent = _full(b) if isinstance(b, float) else b
        return lambda x: np.power(base(x), exponent(x))
    op = _ARITHMETIC[node.op]
    if isinstance(a, float) and isinstance(b, float):
        with np.errstate(all="ignore"):
            return float(op(np.float64(a), np.float64(b)))
    if isinstance(a, float):
        return lambda x: op(a, b(x))
    if isinstance(b, float):
        return lambda x: op(a(x), b)
    return lambda x: op(a(x), b(x))


def _full(value: float):
    return lambda x: np.full_like(x, value)


def _const(value: float) -> _Node:
    return _Node("const", value=float(value))


def _is_const(node: _Node, value: float | None = None) -> bool:
    return node.op == "const" and (value is None or node.value == value)


def _neg(a: _Node) -> _Node:
    if a.op == "const":
        return _const(-a.value)
    if a.op == "neg":
        return a.left
    if a.op == "-":
        return _Node("-", left=a.right, right=a.left)  # -(u - v) = v - u
    return _Node("neg", left=a)


def _add(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if a.op == "const" and b.op == "const":
        return _const(a.value + b.value)
    return _Node("+", left=a, right=b)


def _sub(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if a.op == "const" and b.op == "const":
        return _const(a.value - b.value)
    return _Node("-", left=a, right=b)


def _mul(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if a.op == "const" and b.op == "const":
        return _const(a.value * b.value)
    if a.op == "const" and b.op == "*" and b.left.op == "const":
        return _mul(_const(a.value * b.left.value), b.right)
    return _Node("*", left=a, right=b)


def _div(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 1.0):
        return a
    if a.op == "const" and b.op == "const" and b.value != 0.0:
        return _const(a.value / b.value)
    if a.op == "*" and a.left.op == "const" and b.op == "const" and b.value != 0.0:
        return _mul(_const(a.left.value / b.value), a.right)  # c*a/d -> (c/d)*a
    return _Node("/", left=a, right=b)


def _pow(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _const(1.0)
    if a.op == "const" and b.op == "const":
        return _const(a.value ** b.value)
    return _Node("^", left=a, right=b)


def _depends_on_x(node: _Node) -> bool:
    if node.op == "var":
        return True
    return any(_depends_on_x(child) for child in (node.left, node.right)
               if child is not None)


def _diff(node: _Node) -> _Node:
    if node.op == "const":
        return _const(0.0)
    if node.op == "var":
        return _const(1.0)
    if node.op == "neg":
        return _neg(_diff(node.left))
    a, b = node.left, node.right
    if node.op == "+":
        return _add(_diff(a), _diff(b))
    if node.op == "-":
        return _sub(_diff(a), _diff(b))
    if node.op == "*":
        return _add(_mul(_diff(a), b), _mul(a, _diff(b)))
    if node.op == "/":
        if not _depends_on_x(b):
            return _div(_diff(a), b)
        numerator = _sub(_mul(_diff(a), b), _mul(a, _diff(b)))
        return _div(numerator, _mul(b, b))
    if _depends_on_x(b):
        raise ValueError(
            "cannot differentiate a power whose exponent contains x")
    return _mul(_mul(b, _pow(a, _sub(b, _const(1.0)))), _diff(a))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 4}


def _render(node: _Node, context: int = 0) -> str:
    if node.op == "const":
        value = node.value
        text = str(int(value)) if value == int(value) and abs(value) < 1e16 \
            else repr(value)
        prec = 9 if value >= 0 else 1
    elif node.op == "var":
        text, prec = "x", 9
    elif node.op == "neg":
        text, prec = "-" + _render(node.left, 3), _PREC["neg"]
    else:
        prec = _PREC[node.op]
        if node.op == "^":
            text = _render(node.left, prec + 1) + "^" + _render(node.right, prec)
        else:
            text = _render(node.left, prec) + node.op + _render(node.right, prec + 1)
    return f"({text})" if prec < context else text


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0

    @property
    def head(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.take()
        if token.kind != "op" or token.text != text:
            shown = repr(token.text) if token.kind != "end" else "end of input"
            raise ExpressionError(f"expected {text!r}, found {shown}",
                                  token.line, token.column)

    def expr(self) -> _Node:
        node = self.term()
        while self.head.kind == "op" and self.head.text in "+-":
            op = self.take().text
            node = _Node(op, left=node, right=self.term())
        return node

    def term(self) -> _Node:
        node = self.unary()
        while self.head.kind == "op" and self.head.text in "*/":
            op = self.take().text
            node = _Node(op, left=node, right=self.unary())
        return node

    def unary(self) -> _Node:
        if self.head.kind == "op" and self.head.text in "+-":
            op = self.take().text
            inner = self.unary()
            return inner if op == "+" else _Node("neg", left=inner)
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        if self.head.kind == "op" and self.head.text == "^":
            self.take()
            return _Node("^", left=base, right=self.unary())
        return base

    def atom(self) -> _Node:
        token = self.take()
        if token.kind == "number":
            return _Node("const", value=float(token.text))
        if token.kind == "name":
            if token.text != "x":
                raise ExpressionError(
                    f"unknown name {token.text!r}; the only variable is 'x'",
                    token.line, token.column)
            return _Node("var")
        if token.kind == "op" and token.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        shown = repr(token.text) if token.kind != "end" else "end of input"
        raise ExpressionError(f"expected a number, 'x' or '(', found {shown}",
                              token.line, token.column)

    def parse(self) -> _Node:
        if self.head.kind == "end":
            raise ExpressionError("empty expression", self.head.line,
                                  self.head.column)
        node = self.expr()
        if self.head.kind != "end":
            raise ExpressionError(f"unexpected {self.head.text!r} after the "
                                  "expression", self.head.line, self.head.column)
        return node


_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Expression:
    """A parsed one-variable expression, callable on scalars and arrays.

    The tree is compiled once, at construction, into nested closures.  A
    float64 ``ndarray`` of one or more dimensions goes to them as it is;
    other input goes through ``np.asarray``, and 0-d input returns a float.
    """

    source: str
    root: _Node
    _evaluate: Callable[[np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        compiled = _compile(self.root)
        if isinstance(compiled, float):
            compiled = _full(compiled)
        object.__setattr__(self, "_evaluate", compiled)

    def __call__(self, x) -> float | np.ndarray:
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
            return self._evaluate(x)  # what asarray would pass through
        arr = np.asarray(x, dtype=float)
        out = self._evaluate(arr)
        return float(out) if arr.ndim == 0 else out

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"

    def __reduce__(self):
        return Expression, (self.source, self.root)  # closures do not pickle

    def __neg__(self) -> "Expression":
        """``-self``: its values are those of ``self`` with the sign flipped,
        bit for bit, since ``_neg`` folds only constants, double negations
        and differences, whose IEEE rounding is sign-symmetric; the one
        exception is that an exact zero of a difference stays +0.0."""
        root = _neg(self.root)
        return Expression(_render(root), root)

    def derivative(self) -> "Expression":
        """The symbolic derivative d/dx, with constants folded.

        The result is exact — no finite-difference noise — which matters
        when the derivative feeds an optimizer.  Raises ``ValueError``
        for powers whose exponent contains ``x``, since the grammar has
        no logarithm to express their derivative.
        """
        root = _diff(self.root)
        return Expression(_render(root), root)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into a callable :class:`Expression`.

    Raises :class:`ExpressionError` with the line and column of the first
    problem; the message names unknown identifiers explicitly.
    """
    return Expression(text, _Parser(text).parse())
