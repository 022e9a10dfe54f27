"""Arithmetic expressions in one variable, parsed by recursive descent.

Configuration files describe potentials as plain text like
``x^4/4 - x^2/2``.  The grammar is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | '(' expr ')'

``^`` is exponentiation and associates to the right (``2^3^2`` is 512);
unary minus binds looser, so ``-x^2`` means ``-(x^2)``.  A parsed
expression compiles once to the source of one Python function, and that
to the function, which evaluates through numpy and broadcasts over arrays;
one that calls no numpy function takes Python floats too, and rounds on
them as on arrays.  Errors carry the line and column where parsing stopped.

A constant integer exponent ``n`` with ``3 <= n <= 8`` evaluates as a
chain of products by repeated squaring, within ``n - 1`` ulp of the exact
power (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
§3.1), for a few multiplications per element where ``np.power`` pays a
libm ``pow``.  Every other exponent goes through ``np.power``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
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


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

# scalar exponents that numpy sends to square, sqrt and reciprocal, which round
# unlike pow (tests/test_expr.py derives the set): they enter np.power as arrays
_POW_FAST_PATHS = frozenset({2.0, 0.5, -1.0})


def _chain(v: str, n: int) -> str:
    """``v^n`` for ``3 <= n <= 8`` as the product, low to high, of the squares
    v, v^2, v^4, v^8 that n's bits pick, each a walrus at its first use: n
    factors v, within n - 1 ulp of the exact power; x^2 stays on pow."""
    use, name, terms = f"(b := {v})", "b", []
    for power in (2, 4, 8, 16):
        if n & 1:
            terms.append(use)
            use = name
        n >>= 1
        if not n:
            return "(" + " * ".join(terms) + ")"
        use, name = f"(b{power} := {use} * {name})", f"b{power}"


def _name(value: float | str, consts: list[float]) -> str:
    if isinstance(value, str):
        return value
    consts.append(value)  # bound by name: inf, nan and -0.0 keep their bits
    return f"c{len(consts) - 1}"


def _compile(node: _Node, consts: list[float], context: int = 0) -> float | str:
    """A float (constant subtree) or the source of ``node``'s value as an operand
    of precedence ``context``, its constant ``i`` named ``c<i>`` in ``consts``.
    Constants enter ``+ - * /`` as floats, which round as the elementwise array
    operation does.  A constant exponent in ``3..8`` becomes :func:`_chain`;
    other powers call ``np.power``, a constant exponent as a float, which rounds
    as ``pow``, unless it is in :data:`_POW_FAST_PATHS`.  Such an exponent, one
    with ``x`` in it and a constant base enter ``np.power`` as full arrays."""
    if node.op == "const":
        return node.value
    if node.op == "var":
        return "x"
    if node.op == "neg":
        a = _compile(node.left, consts, 3)
        return -a if isinstance(a, float) else f"(-{a})"
    if node.op == "^":
        a, b = _compile(node.left, consts), _compile(node.right, consts)
        full = "np.full_like(x, {})".format
        base = full(_name(a, consts)) if isinstance(a, float) else a
        if isinstance(b, float) and b in range(3, 9):
            return _chain(base, int(b))
        if isinstance(b, float):
            b = full(_name(b, consts)) if b in _POW_FAST_PATHS else _name(b, consts)
        return f"np.power({base}, {b})"
    prec = _PREC[node.op]
    a, b = _compile(node.left, consts, prec), _compile(node.right, consts, prec + 1)
    if isinstance(a, float) and isinstance(b, float):
        with np.errstate(all="ignore"):
            return float(_ARITHMETIC[node.op](a, b))
    text = f"{_name(a, consts)} {node.op} {_name(b, consts)}"
    return f"({text})" if prec < context else text


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
    return node.op == "var" or any(_depends_on_x(child) for child in
                                   (node.left, node.right) if child is not None)


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
# a function compiled once per source: expressions of one shape share it
_function = lru_cache(maxsize=1024)(lambda source: eval(source, {"np": np}))


@dataclass(frozen=True)
class Expression:
    """A parsed one-variable expression, callable on scalars and arrays.

    The tree is compiled once, at construction, to the source of one function
    and that to the function.  A float64 ``ndarray`` of one or more dimensions
    goes to it as it is, other input through ``np.asarray``, and 0-d input as a
    one-element array, so it rounds as arrays do, and returns a float.
    ``_on_floats`` is the function where it calls no numpy: on Python floats
    it rounds as on arrays, but it may raise ``ZeroDivisionError``.
    """

    source: str
    root: _Node
    _evaluate: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    _on_floats: Callable[[float], float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        consts: list[float] = []
        text = _compile(self.root, consts)
        text = f"np.full_like(x, {_name(text, consts)})" if isinstance(text, float) else text
        names = ", ".join(f"c{i}" for i in range(len(consts)))
        compiled = _function(f"lambda {names}: lambda x: {text}")(*consts)
        vars(self).update(_evaluate=compiled,  # frozen: set past __setattr__
                          _on_floats=None if "np." in text else compiled)

    def __call__(self, x) -> float | np.ndarray:
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
            return self._evaluate(x)  # what asarray would pass through
        arr = np.asarray(x, dtype=float)
        return self._evaluate(arr) if arr.ndim else float(self._evaluate(arr.reshape(1))[0])

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"

    def __reduce__(self):
        return Expression, (self.source, self.root)  # compiled functions do not pickle

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
