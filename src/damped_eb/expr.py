"""Arithmetic expressions in the variables x, y, t.

Small recursive-descent (precedence climbing) parser plus a numpy-backed
evaluator, used to make problem data (initial conditions, forcing terms,
damping laws) configurable as text.

Grammar, loosest to tightest binding::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right associative
    atom   :=  NUMBER | 'pi' | 'x' | 'y' | 't'
             | FUNC '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, sqrt, abs.  Evaluation is pure and accepts
scalars or numpy arrays for any of the bindings.
"""
from __future__ import annotations

import dataclasses
import functools
import re
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "ParseError",
    "DomainError",
    "parse",
    "evaluate",
    "uses_variable",
    "split_time",
]


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the real domain (sqrt of a negative, division by zero)."""


@dataclasses.dataclass(frozen=True)
class Const:
    value: float

    def _eval(self, x, y, t):
        return np.float64(self.value)


@dataclasses.dataclass(frozen=True)
class Var:
    name: str  # one of "x", "y", "t"

    def _eval(self, x, y, t):
        if self.name == "x":
            return x
        if self.name == "y":
            return y
        return t


@dataclasses.dataclass(frozen=True)
class Neg:
    operand: "Expression"

    def _eval(self, x, y, t):
        return -self.operand._eval(x, y, t)


@dataclasses.dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"

    def _eval(self, x, y, t):
        a = self.left._eval(x, y, t)
        b = self.right._eval(x, y, t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return a ** b


@dataclasses.dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"

    def _eval(self, x, y, t):
        return _FUNCTIONS[self.func](self.arg._eval(x, y, t))


Expression = Union[Const, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VARIABLES = ("x", "y", "t")

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# binding powers; '^' outbinds unary minus so -x^2 == -(x^2)
_BINARY_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30
_RIGHT_ASSOC = {"^"}


class _Parser:
    def __init__(self, tokens, aliases):
        self.tokens = tokens
        self.pos = 0
        self.aliases = aliases or {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def expression(self, min_prec=0) -> Expression:
        lhs = self.atom()
        while True:
            kind, _, _ = self.peek()
            prec = _BINARY_PREC.get(kind)
            if prec is None or prec < min_prec:
                return lhs
            op = self.advance()[0]
            next_min = prec if op in _RIGHT_ASSOC else prec + 1
            rhs = self.expression(next_min)
            lhs = BinOp(op, lhs, rhs)

    def atom(self) -> Expression:
        kind, text, offset = self.advance()
        if kind == "num":
            if not np.isfinite(float(text)):
                raise ParseError(f"number {text} overflows a float", offset)
            return Const(float(text))
        if kind == "-":
            return Neg(self.expression(_UNARY_PREC))
        if kind == "(":
            inner = self.expression(0)
            self.expect(")", "')'")
            return inner
        if kind == "ident":
            name = self.aliases.get(text, text)
            if name in _VARIABLES:
                return Var(name)
            if name == "pi":
                return Const(np.pi)
            if name in _FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expression(0)
                self.expect(")", "')'")
                return Call(name, arg)
            raise ParseError(f"unknown identifier {text!r}", offset)
        raise ParseError("expected a value", offset)


def parse(source: str, aliases: Mapping[str, str] | None = None) -> Expression:
    """Parse ``source`` into an expression tree.

    ``aliases`` maps extra identifier names onto the canonical variables,
    e.g. ``{"z": "x"}`` lets damping laws be written in terms of z.
    Raises :class:`ParseError` (with a byte offset) on malformed input.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), aliases)
    tree = parser.expression(0)
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", offset)
    return tree


def evaluate(expr: Expression, x=0.0, y=0.0, t=0.0):
    """Evaluate ``expr`` at the given bindings (scalars or numpy arrays).

    Returns a float for scalar bindings, an ndarray otherwise.  Raises
    :class:`DomainError` on division by zero, sqrt of a negative operand,
    or overflow.
    """
    xb = np.asarray(x, dtype=np.float64)
    yb = np.asarray(y, dtype=np.float64)
    tb = np.asarray(t, dtype=np.float64)
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            out = np.asarray(expr._eval(xb, yb, tb), dtype=np.float64)
    except FloatingPointError as exc:
        raise DomainError(str(exc)) from None
    if out.ndim == 0:
        return float(out)
    return out


def uses_variable(expr: Expression, name: str) -> bool:
    """True when the tree contains the variable ``name``."""
    if isinstance(expr, Var):
        return expr.name == name
    if isinstance(expr, Neg):
        return uses_variable(expr.operand, name)
    if isinstance(expr, BinOp):
        return uses_variable(expr.left, name) or uses_variable(expr.right, name)
    if isinstance(expr, Call):
        return uses_variable(expr.arg, name)
    return False


def split_time(expr: Expression) -> tuple[Expression | None, Expression] | None:
    """Split a product f = g(t) * F(x, y) into its time and space factors.

    ``expr`` must be a chain of ``*`` (nested on either side; ``-`` signs and
    constants allowed) whose factors each use only t or no t.  Returns
    (g, F): g multiplies the factors that use t (None when none does), F
    the others in their order (``Const(1.0)`` when there are none).  Returns
    None for any other tree, such as ``sin(pi*x*t)`` or ``t + sin(pi*x)``.
    """
    factors: list[Expression] = []

    def collect(node):
        if isinstance(node, BinOp) and node.op == "*":
            collect(node.left)
            collect(node.right)
        elif isinstance(node, Neg):
            factors.append(Const(-1.0))
            collect(node.operand)
        else:
            factors.append(node)

    collect(expr)
    timed, spatial = [], []
    for node in factors:
        if not uses_variable(node, "t"):
            spatial.append(node)
        elif uses_variable(node, "x") or uses_variable(node, "y"):
            return None
        else:
            timed.append(node)
    product = functools.partial(functools.reduce, lambda a, b: BinOp("*", a, b))
    return (product(timed) if timed else None), (
        product(spatial) if spatial else Const(1.0)
    )

