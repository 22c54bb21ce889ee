"""Real-valued expressions of one variable: parse, evaluate, differentiate.

Grammar (precedence climbing; '^' is right-associative and binds tighter
than unary minus, so ``-t^2`` means ``-(t^2)``):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | VARIABLE | IDENT '(' expr ')' | '(' expr ')'

Differentiation is symbolic so downstream optimality checks see exact
derivative expressions; finite differences stay available as a test-side
oracle.  ``abs`` differentiates to ``sign``, with sign(0) = 0 by
convention; kink hits are detectable via :func:`kink_hits`.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import (
    DivisionByZero,
    EvalDomainError,
    EvalError,
    ExprSyntaxError,
    UnknownFunction,
)

Expr = Union["Num", "Var", "Neg", "Bin", "Call"]


class _Node:
    """Base of the node classes.  ``_fn`` is the node compiled to a
    closure ``(t, eps) -> float``, built on first use and kept in the
    instance ``__dict__``; the dataclass ``==``, ``hash`` and ``repr``
    only see the fields, so caching it changes none of them."""

    @cached_property
    def _fn(self):
        return _compile(self)


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: Expr


@dataclass(frozen=True)
class Bin(_Node):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: Expr


# 'sign' is not user-facing vocabulary but appears in derivatives of 'abs';
# the parser accepts it so printed derivatives reparse.
FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt", "sign")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def parse(src: str, variables: tuple[str, ...] = ("t",)) -> Expr:
    """Parse ``src`` into an expression tree over the given variables."""
    if not src or src.isspace():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(src)
    state = _Parser(tokens, src, variables)
    tree = state.expr()
    kind, value, offset = state.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {value!r}", offset)
    return tree


def _tokenize(src: str):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            stripped = pos
            while stripped < len(src) and src[stripped].isspace():
                stripped += 1
            if stripped == len(src):
                break
            raise ExprSyntaxError(f"unexpected character {src[stripped]!r}", stripped)
        if m.lastgroup == "num":
            out.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            out.append(("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, tokens, src, variables):
        self.tokens = tokens
        self.index = 0
        self.src = src
        self.variables = variables

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Bin(value, node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Bin(value, node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value in self.variables:
                return Var(value)
            nk, nv, noffset = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {value!r} needs parentheses", noffset)
            raise ExprSyntaxError(f"unknown variable {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "expected a number, variable, or '('" if kind != "end"
            else "unexpected end of input", offset)


# -- evaluation ---------------------------------------------------------------

def evaluate(e: Expr, t: float, eps: float | None = None) -> float:
    """Evaluate at t (and eps for two-variable expressions).

    Runs the closure compiled from ``e`` on its first evaluation; the
    result is bit-identical to the tree walk :func:`_walk`.
    """
    return e._fn(t, eps)


def _compile(e: Expr):
    """Nested closures doing the float operations of :func:`_walk` in the
    same order: left before right, ``+ - *`` and sin/cos inline, every
    guarded operation through ``_apply_bin``/``_apply_fn``."""
    if isinstance(e, Num):
        value = e.value
        return lambda t, eps: value
    if isinstance(e, Var):
        name = e.name
        if name == "t":
            return lambda t, eps: t

        def other(t, eps):
            if name == "eps" and eps is not None:
                return eps
            raise EvalError(f"variable {name!r} is not bound")
        return other
    if isinstance(e, Neg):
        arg = e.arg._fn
        return lambda t, eps: -arg(t, eps)
    if isinstance(e, Bin):
        op, left, right = e.op, e.left._fn, e.right._fn
        if op == "+":
            return lambda t, eps: left(t, eps) + right(t, eps)
        if op == "-":
            return lambda t, eps: left(t, eps) - right(t, eps)
        if op == "*":
            return lambda t, eps: left(t, eps) * right(t, eps)
        return lambda t, eps: _apply_bin(op, left(t, eps), right(t, eps))
    fn, arg = e.fn, e.arg._fn
    if fn == "sin":
        return lambda t, eps: math.sin(arg(t, eps))
    if fn == "cos":
        return lambda t, eps: math.cos(arg(t, eps))
    return lambda t, eps: _apply_fn(fn, arg(t, eps))


def _walk(e: Expr, t: float, eps: float | None = None) -> float:
    """Reference tree walk; tests hold :func:`evaluate` to it."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name == "t":
            return t
        if e.name == "eps" and eps is not None:
            return eps
        raise EvalError(f"variable {e.name!r} is not bound")
    if isinstance(e, Neg):
        return -_walk(e.arg, t, eps)
    if isinstance(e, Bin):
        a = _walk(e.left, t, eps)
        b = _walk(e.right, t, eps)
        return _apply_bin(e.op, a, b)
    return _apply_fn(e.fn, _walk(e.arg, t, eps))


def _apply_bin(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise DivisionByZero("division by zero")
        return a / b
    if a == 0.0 and b < 0.0:
        raise DivisionByZero("zero raised to a negative power")
    try:
        result = a ** b
    except OverflowError:
        raise EvalError("overflow in power") from None
    except ValueError:
        raise EvalDomainError(
            f"negative base {a!r} with non-integer exponent") from None
    if isinstance(result, complex):
        raise EvalDomainError(f"negative base {a!r} with non-integer exponent")
    return result


def _apply_fn(fn: str, x: float) -> float:
    try:
        if fn == "sin":
            return math.sin(x)
        if fn == "cos":
            return math.cos(x)
        if fn == "exp":
            return math.exp(x)
        if fn == "log":
            if x <= 0.0:
                raise EvalDomainError(f"log of nonpositive value {x!r}")
            return math.log(x)
        if fn == "abs":
            return abs(x)
        if fn == "sqrt":
            if x < 0.0:
                raise EvalDomainError(f"sqrt of negative value {x!r}")
            return math.sqrt(x)
        if fn == "sign":
            # abs'(0) convention: 0.
            return 0.0 if x == 0.0 else math.copysign(1.0, x)
    except OverflowError:
        raise EvalError(f"overflow in {fn}") from None
    raise EvalError(f"unknown function {fn!r}")


# -- smart constructors (local folding only, no general simplification) -------

def num(v: float) -> Expr:
    if v == 0.0:
        return Num(0.0)  # normalizes -0.0 away
    if v < 0.0:
        return Neg(Num(-v))  # printers never see negative literals
    return Num(v)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value + b.value)
    if a == Num(0.0):
        return b
    if b == Num(0.0):
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value - b.value)
    if b == Num(0.0):
        return a
    if a == Num(0.0):
        return neg(b)
    return Bin("-", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value * b.value)
    if a == Num(0.0) or b == Num(0.0):
        return Num(0.0)
    if a == Num(1.0):
        return b
    if b == Num(1.0):
        return a
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0):
        return Num(0.0)
    if b == Num(1.0):
        return a
    return Bin("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if b == Num(1.0):
        return a
    if b == Num(0.0):
        return Num(1.0)
    return Bin("^", a, b)


def call(fn: str, arg: Expr) -> Expr:
    return Call(fn, arg)


# -- differentiation ----------------------------------------------------------

def differentiate(e: Expr, var: str = "t", order: int = 1) -> Expr:
    """Symbolic derivative of the given order (1, 2, or 3)."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2, or 3")
    out = e
    for _ in range(order):
        out = _d(out, var)
    return out


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return neg(_d(e.arg, var))
    if isinstance(e, Bin):
        u, v = e.left, e.right
        du, dv = _d(u, var), _d(v, var)
        if e.op == "+":
            return add(du, dv)
        if e.op == "-":
            return sub(du, dv)
        if e.op == "*":
            return add(mul(du, v), mul(u, dv))
        if e.op == "/":
            return div(sub(mul(du, v), mul(u, dv)), pow_(v, Num(2.0)))
        if isinstance(v, Num):  # power rule for constant exponents
            return mul(mul(v, pow_(u, num(v.value - 1.0))), du)
        # general u^v via exp-log: u^v * (dv*log u + v*du/u)
        return mul(pow_(u, v),
                   add(mul(dv, call("log", u)), mul(v, div(du, u))))
    u, du = e.arg, _d(e.arg, var)
    if e.fn == "sin":
        return mul(call("cos", u), du)
    if e.fn == "cos":
        return neg(mul(call("sin", u), du))
    if e.fn == "exp":
        return mul(call("exp", u), du)
    if e.fn == "log":
        return div(du, u)
    if e.fn == "sqrt":
        return div(du, mul(Num(2.0), call("sqrt", u)))
    if e.fn == "abs":
        return mul(call("sign", u), du)
    # d(sign) = 0 almost everywhere; the kink itself is flagged separately
    return Num(0.0)


def kink_hits(e: Expr, t: float, eps: float | None = None) -> bool:
    """True when a sign() node (an abs kink in some derivative) is being
    evaluated exactly at its corner."""
    if isinstance(e, Call):
        if e.fn == "sign" and evaluate(e.arg, t, eps) == 0.0:
            return True
        return kink_hits(e.arg, t, eps)
    if isinstance(e, Neg):
        return kink_hits(e.arg, t, eps)
    if isinstance(e, Bin):
        return kink_hits(e.left, t, eps) or kink_hits(e.right, t, eps)
    return False


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 9


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    return _ATOM_PREC


def to_source(e: Expr) -> str:
    """Render with minimal parentheses; reparsing reproduces the tree."""
    if isinstance(e, Num):
        v = e.value
        return repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        if _prec(e.arg) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    p = _PREC[e.op]
    left, right = to_source(e.left), to_source(e.right)
    if e.op == "^":
        if _prec(e.left) < _ATOM_PREC:  # base must be an atom
            left = f"({left})"
        if _prec(e.right) < _NEG_PREC:
            right = f"({right})"
    else:
        if _prec(e.left) < p:
            left = f"({left})"
        if _prec(e.right) <= p:  # left-associative: regrouping needs parens
            right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
