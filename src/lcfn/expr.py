"""Real-valued expressions of one variable: parse, evaluate, differentiate.

Grammar (precedence climbing; '^' is right-associative and binds tighter
than unary minus, so ``-t^2`` means ``-(t^2)``):

    expr   := factor (('+' | '-' | '*' | '/') factor)*   by _PREC, left-assoc.
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | VARIABLE | IDENT '(' expr ')' | '(' expr ')'

NUMBER, shared with element literals (``core``), must read as a finite float.
Each '(', function argument, unary minus and '^' exponent opens one
nesting level; more than MAX_NESTING levels is a syntax error, and so is a
tree more than MAX_HEIGHT operations high.

Nodes are hash-consed: equal trees are one object, so ``parse(s) is
parse(s)`` and ``==`` is identity.  Evaluation is compiled: :func:`_compile`
turns a tuple of trees into one straight-line function that computes each
shared subtree once per point, in one of four forms: their values over a
batch of points (``"columns"``), and for one tree the points where it meets
or crosses zero and its extremes too (``"scan"``); a panel's estimate per
tree and its weighted error on quadrature's ``RULE`` (``"panel"``); or the
value of each tree at one point, with no loop (``"point"``).  :func:`kernel`
keeps the function of each recent form and tuple of roots; :func:`evaluate`
calls the one-tree point form.  :func:`derived` keeps, beside it, the trees
a checker builds from other trees on every call.

Differentiation is symbolic so downstream optimality checks see exact
derivative expressions, and each node keeps its derivative; finite
differences stay available as a test-side oracle.  ``abs`` differentiates
to ``sign``, with sign(0) = 0 by convention; kink hits are detectable via
:func:`kink_hits`.
"""
from __future__ import annotations

import math
import operator
import re
import weakref
from functools import lru_cache, partial

from .errors import (
    DivisionByZero,
    EvalDomainError,
    EvalError,
    ExprError,
    ExprSyntaxError,
    UnknownFunction,
)
from .quadrature import RULE
from .value import Value


class Expr(Value):
    """Base of the node classes.  Nodes are hash-consed (value numbering,
    Ershov 1958): ``Bin(op, left, right)`` returns the live node with that
    operator and those very child objects if there is one, so equal trees
    are one object and ``==`` and ``hash`` are identity.  Each class keeps
    its live nodes in a weak table keyed on its fields, children by ``id``
    (a live node keeps its children alive, so no id in a live key is
    reused); a ``Num`` key tells 0.0 from -0.0.  ``_derivatives`` maps a
    variable to the node's derivative (:func:`_d`).  Copies and unpickled
    nodes are rebuilt through the table."""

    __slots__ = ("__weakref__", "_derivatives")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _intern(cls, table, key, *values):
    """A new ``cls`` node with ``values`` for its fields (in ``__slots__``
    order), entered in ``table`` under ``key``; called on a table miss."""
    node = object.__new__(cls)
    node._set(*values)
    table[key] = node
    return node


# The intern tables; lookups read their ``data`` dicts of weak references.
_NUMS, _VARS, _NEGS, _BINS, _CALLS = (
    weakref.WeakValueDictionary() for _ in range(5))
_NUM_REFS, _VAR_REFS, _NEG_REFS, _BIN_REFS, _CALL_REFS = (
    table.data for table in (_NUMS, _VARS, _NEGS, _BINS, _CALLS))


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        key = value or repr(float(value))  # 0.0 and -0.0 compare equal
        ref = _NUM_REFS.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        # a float, as an int literal would be found by the equal float
        return _intern(cls, _NUMS, key, float(value))


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ref = _VAR_REFS.get(name)
        if ref is not None and (node := ref()) is not None:
            return node
        return _intern(cls, _VARS, name, name)


class Neg(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg: Expr):
        key = id(arg)
        ref = _NEG_REFS.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        return _intern(cls, _NEGS, key, arg)


class Bin(Expr):
    __slots__ = ("op", "left", "right")  # op: a key of _BIN

    def __new__(cls, op: str, left: Expr, right: Expr):
        key = (op, id(left), id(right))
        ref = _BIN_REFS.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if op not in _BIN:  # checked before any entry, so a hit is valid
            raise ExprError(f"unknown operator {op!r}")
        return _intern(cls, _BINS, key, op, left, right)


class Call(Expr):
    __slots__ = ("fn", "arg")  # fn: a key of _FN

    def __new__(cls, fn: str, arg: Expr):
        key = (fn, id(arg))
        ref = _CALL_REFS.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if fn not in _FN:  # checked before any entry, so a hit is valid
            raise ExprError(f"unknown function {fn!r}")
        return _intern(cls, _CALLS, key, fn, arg)


# -- operations: one guarded float function per operator and function name ---

def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DivisionByZero("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise DivisionByZero("zero raised to a negative power")
    try:
        result = a ** b
    except OverflowError:
        raise EvalError("overflow in power") from None
    if isinstance(result, complex):
        raise EvalDomainError(f"negative base {a!r} with non-integer exponent")
    return result


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalError("overflow in exp") from None


def _log(x: float) -> float:
    if x <= 0.0:
        raise EvalDomainError(f"log of nonpositive value {x!r}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _sign(x: float) -> float:
    # abs'(0) convention: 0.
    return 0.0 if x == 0.0 else math.copysign(1.0, x)


_BIN = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": _div, "^": _pow}
# 'sign' is not user-facing vocabulary but appears in derivatives of 'abs';
# the parser accepts it so printed derivatives reparse.
_FN = {"sin": math.sin, "cos": math.cos, "exp": _exp, "log": _log,
       "abs": abs, "sqrt": _sqrt, "sign": _sign}
# What a compiled kernel calls in place of the entry of the same name: the
# raw function, raising (OverflowError or ValueError) where the entry does.
_RAW = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt}

NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>{NUMBER})|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z))"
)


#: Deepest nesting parse() accepts (the catalog's deepest tree has 4
#: levels); it bounds the parser's own recursion, and the third derivative
#: of 32 nested sin calls evaluates in about 1 s.
MAX_NESTING = 32
#: Most operation nodes parse() accepts on a path from the root to a leaf.
#: A flat chain such as t+t+...+t opens no nesting level, but the compile,
#: print, walk and derivative recursions take one frame per level of the
#: tree or of its derivatives, which grow taller.  At this bound the
#: deepest verb, on a '/' chain, takes about 230 frames from ``main`` and
#: the deepest library call, the third derivative of that chain compiled,
#: about 725, leaving its caller about 270 of Python's default 1000; the
#: tests hold them to 250 and 750.
MAX_HEIGHT = 72


def parse(src: str, variables: tuple[str, ...] = ("t",)) -> Expr:
    """Parse ``src`` into an expression tree over the given variables."""
    if not src or src.isspace():
        raise ExprSyntaxError("empty expression", 0)
    state = _Parser(_tokenize(src), variables)
    tree, _ = state.binary()
    kind, value, offset = state.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {value!r}", offset)
    return tree


def _tokenize(src: str):
    """(kind, text, offset) tokens, kind a group of _TOKEN; the last is
    ("end", "", len(src))."""
    out, pos = [], 0
    while True:
        m = _TOKEN.match(src, pos)
        if m is None:
            bad = len(src) - len(src[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        out.append((kind, m[kind], m.start(kind)))
        if kind == "end":
            return out
        pos = m.end()


class _Parser:
    """Recursive descent over the tokens.  Each method returns the tree it
    read and its height: the most operation nodes on a path from its root
    to a leaf."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.index = 0
        self.variables = variables
        self.depth = 0

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

    def nested(self, offset, parse):
        """``parse()`` one level deeper, the level opening at ``offset``."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        read = parse()
        self.depth -= 1
        return read

    def binary(self, min_prec: int = 1) -> tuple[Expr, int]:
        """Factors joined by the operators of _PREC at or above
        ``min_prec``, left-associative; '^' never follows a factor, as
        power() has taken it."""
        node, height = self.factor()
        while True:
            kind, value, offset = self.peek()
            prec = _PREC.get(value, 0) if kind == "op" else 0
            if prec < min_prec:
                return node, height
            self.advance()
            right, right_height = self.binary(prec + 1)
            node = Bin(value, node, right)
            height = _above(max(height, right_height), offset)

    def factor(self) -> tuple[Expr, int]:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg, height = self.nested(offset, self.factor)
            return Neg(arg), _above(height, offset)
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, exponent_height = self.nested(offset, self.factor)
            return (Bin("^", base, exponent),
                    _above(max(height, exponent_height), offset))
        return base, height

    def atom(self) -> tuple[Expr, int]:
        kind, value, offset = self.advance()
        if kind == "num":
            if math.isfinite(number := float(value)):
                return Num(number), 0
            raise ExprSyntaxError(f"number {value!r} is not finite", offset)
        if kind == "ident":
            if value in self.variables:
                return Var(value), 0
            nk, nv, noffset = self.peek()
            if nk == "op" and nv == "(":
                if value not in _FN:
                    raise UnknownFunction(f"unknown function {value!r}", offset)
                self.advance()
                arg, height = self.nested(noffset, self.binary)
                self.expect_op(")")
                return Call(value, arg), _above(height, offset)
            if value in _FN:
                raise ExprSyntaxError(
                    f"function {value!r} needs parentheses", noffset)
            raise ExprSyntaxError(f"unknown variable {value!r}", offset)
        if kind == "op" and value == "(":
            read = self.nested(offset, self.binary)
            self.expect_op(")")
            return read
        raise ExprSyntaxError(
            "expected a number, variable, or '('" if kind != "end"
            else "unexpected end of input", offset)


def _above(height: int, offset: int) -> int:
    """The height of an operation over a child ``height`` high, its
    operator at ``offset``; more than MAX_HEIGHT is a syntax error."""
    if height == MAX_HEIGHT:
        raise ExprSyntaxError(
            f"expression more than {MAX_HEIGHT} operations deep", offset)
    return height + 1


# -- evaluation ---------------------------------------------------------------

def evaluate(e: Expr, t: float, eps: float | None = None) -> float:
    """Evaluate at t (and eps for two-variable expressions): one call of
    ``kernel("point", e)``.  The result is bit-identical to the
    reference tree walk ``walk`` in ``tests/oracles.py``."""
    return kernel("point", e)(t, eps)


FORMS = ("columns", "scan", "panel", "point")  #: kernel's first argument
#: Entries kept by each of :func:`kernel` and :func:`derived`, above their
#: working sets on perfbench's checker-sweep (seeds 1, 101 and 1501): 652
#: (form, roots) keys in 240 or 960 cycles, 60 column, 19 scan, 344 panel
#: and 229 point kernels, and about 380 derived trees a seed.
KERNELS = 1024


@lru_cache(maxsize=KERNELS)
def kernel(form, *roots):
    """The ``form`` of :func:`_compile` of ``roots``, compiled once per
    form and tuple of nodes.  Nodes are interned, so the key hashes in
    O(1) and a checker that builds the same trees again gets this kernel
    back; holding the roots keeps their nodes, and so that reuse, alive."""
    return _compile(form, roots)


@lru_cache(maxsize=KERNELS)
def derived(build, *args):
    """``build(*args)`` per argument tuple, for a module-level ``build``
    that reads only its arguments and puts each float in through
    :func:`num`, so keys that compare equal (0.0, -0.0) build one tree."""
    return build(*args)


def _compile(form: str, roots: tuple):
    """One straight-line function doing, point after point, the float
    operations of the tree walk :func:`_walk` of each root in turn, in one
    of the ``FORMS``, of one root or more, a scan of one root; any other
    call is a ``ValueError``.  ``"columns"`` maps ``(ts, eps)`` to the
    columns ``(values of root 0, values of root 1, ...)``.  ``"panel"`` sums
    over quadrature's ``RULE`` of ``(node, weight, second weight)`` triples:
    it is ``(eps, weights, center, half) -> ((half*K0, half*K1, ...),
    error)``, whose first two arguments the caller binds: at ``t = center +
    half*node``, node after node, each root's value times each weight is
    added to its two sums ``Ki`` and ``Gi``, left to right from ``0.0``, and
    no value is kept; then ``error = w0*abs(half*K0 - half*G0) +
    w1*abs(half*K1 - half*G1) + ...``, added left to right, for ``weights =
    (w0, w1, ...)``.  ``"scan"`` is a column kernel that also keeps, point
    after point, the index ``i`` of each point whose value times the one
    before is ``<= 0.0``, and the least and greatest of the values ``>=
    0.0`` and of the others; from those four it returns ``(ts, eps) ->
    (values, indices, least, greatest, least absolute value)``, the last
    three ``inf``, ``-inf`` and ``inf`` for no point.  A NaN value enters
    none of them.  ``"point"`` is ``(t, eps=None) -> value`` for one root
    and ``-> (value of root 0, value of root 1, ...)`` for several: the
    operations of one point, with no loop and no list, and their ``return``
    inside the ``try``, so that a root that is a leaf (``t``, a constant)
    still gives it a body.

    A post-order walk (left before right, root after root) emits one
    ``vN = ...`` line per operation into the loop (for a point kernel,
    the body) of a factory ``_make(k0, k1, ...)``; a subtree met again
    (in any root; equal subtrees are one object) reuses its ``vN``, so
    it runs once per point.  Constants and ``t`` are read in place.
    Each operation runs raw: ``+ - * /`` and unary minus inline, ``^`` as
    ``**`` on a constant integral exponent, ``exp``, ``log`` and ``sqrt``
    as their ``_RAW`` functions, ``sin``, ``cos`` and ``abs`` as their
    (raw) entries.  These give the bits of the ``_BIN``/``_FN`` entries
    and raise, as an ``ArithmeticError`` or ``ValueError``, exactly where
    the entries do.
    Other powers call ``_pow`` (``**`` of a negative base gives a complex
    number at a non-integral exponent), ``sign`` calls ``_sign`` and other
    variables ``_var``; ``_pow`` and ``_var`` raise their ``EvalError``.
    On any of these errors :func:`_replay` walks the point the kernel
    stopped at, to raise the walk's error naming t.  Constants, variable
    names, those functions, the rule, the caught classes and ``_replay``
    enter as the arguments ``kN``, never as text, so trees of one shape
    share one source and :func:`_factory` compiles each shape once.
    """
    if form not in FORMS or not roots or form == "scan" and len(roots) > 1:
        raise ValueError(f"no {form!r} kernel of root count {len(roots)}")
    lines, args, names = [], [], {}

    def arg(value) -> str:
        args.append(value)
        return f"k{len(args) - 1}"

    def emit(node) -> str:
        name = names.get(id(node))
        if name is not None:
            return name
        if isinstance(node, Num):
            names[id(node)] = name = arg(node.value)
            return name
        if isinstance(node, Var):
            if node.name == "t":
                return "t"
            rhs = f"{arg(_var)}({arg(node.name)}, eps)"
        elif isinstance(node, Neg):
            rhs = f"-{emit(node.arg)}"
        elif isinstance(node, Bin):
            a, b = emit(node.left), emit(node.right)
            if node.op != "^":
                rhs = f"{a} {node.op} {b}"
            elif isinstance(node.right, Num) and node.right.value.is_integer():
                rhs = f"{a} ** {b}"
            else:
                rhs = f"{arg(_pow)}({a}, {b})"
        else:
            fn = _RAW.get(node.fn, _FN[node.fn])
            rhs = f"{arg(fn)}({emit(node.arg)})"
        name = f"v{len(lines)}"
        lines.append(f"    {name} = {rhs}\n")
        names[id(node)] = name
        return name

    results = [emit(root) for root in roots]
    outs = range(len(roots))
    if form == "point":
        head, init, loop, ret = "(t, eps=None)", "", "", ""
        lines.append(f"    return {', '.join(results)}\n")
    elif form in ("columns", "scan"):
        head = "(ts, eps=None)"
        init = "".join(f"  o{i} = []; a{i} = o{i}.append\n" for i in outs)
        loop = "   for t in ts:\n"
        lines += [f"    a{i}({name})\n" for i, name in enumerate(results)]
        out = ", ".join(f"o{i}" for i in outs)
        ret = f"  return {out},\n"
        if form == "scan":  # the extremes of the values >= 0.0 and the others
            (v,) = results
            init += (f"  s = []; p = {arg(math.nan)}\n"
                     f"  pmin = nmin = {arg(math.inf)}; pmax = nmax = -pmin\n")
            lines[-1:-1] = [
                f"    if p * {v} <= 0.0: s.append(len(o0))\n"
                f"    if {v} >= 0.0:\n"
                f"     if {v} < pmin: pmin = {v}\n"
                f"     if {v} > pmax: pmax = {v}\n"
                f"    else:\n"
                f"     if {v} < nmin: nmin = {v}\n"
                f"     if {v} > nmax: nmax = {v}\n"
                f"    p = {v}\n"]
            ret = ("  return (o0, s, nmin if nmin < pmin else pmin,\n"
                   "          pmax if pmax > nmax else nmax,\n"
                   "          pmin if pmin < -nmax else -nmax)\n")
    else:
        head = "(eps, weights, center, half)"
        init = "".join(f"  K{i} = G{i} = 0.0\n" for i in outs)
        loop = (f"   for x, wk, wg in {arg(RULE)}:\n"
                "    t = center + half * x\n")
        lines += [f"    K{i} = K{i} + wk * {name}; G{i} = G{i} + wg * {name}\n"
                  for i, name in enumerate(results)]
        error = " + ".join(f"w{i} * abs(K{i} - half * G{i})" for i in outs)
        ret = ("".join(f"  K{i} = half * K{i}\n" for i in outs)
               + f"  {''.join(f'w{i}, ' for i in outs)}= weights\n"
               + f"  return ({''.join(f'K{i}, ' for i in outs)}), {error}\n")
    replay = arg(partial(_replay, roots))
    caught = arg((ArithmeticError, ValueError, EvalError))
    src = (f"def _make({', '.join(f'k{i}' for i in range(len(args)))}):\n"
           f" def _f{head}:\n" + init + "  try:\n" + loop + "".join(lines)
           + f"  except {caught}:\n"
           + f"   {replay}(t, eps)\n   raise\n"
           + ret + " return _f\n")
    return _factory(src)(*args)


def _replay(roots: tuple, t: float, eps: float | None) -> None:
    """Walk ``roots`` at ``t``, the point where a raw operation of their
    kernel raised, so that the first entry to raise there raises the
    walk's error, of its class, with ``at t=...`` added.  The
    ``ValueError`` of ``math.sin`` or ``math.cos`` at an infinite argument
    is retyped, naming its root and t."""
    for root in roots:
        try:
            _walk(root, t, eps)
        except ValueError:
            raise EvalDomainError(f"sin or cos of an infinite value in "
                                  f"{to_source(root)} at t={t!r}") from None
        except EvalError as err:
            raise type(err)(f"{err} at t={t!r}") from None


def _walk(e: Expr, t: float, eps: float | None) -> float:
    """``e`` at ``t`` by a recursive walk through the table entries."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t if e.name == "t" else _var(e.name, eps)
    if isinstance(e, Neg):
        return -_walk(e.arg, t, eps)
    if isinstance(e, Bin):
        return _BIN[e.op](_walk(e.left, t, eps), _walk(e.right, t, eps))
    return _FN[e.fn](_walk(e.arg, t, eps))


@lru_cache(maxsize=1024)
def _factory(src: str):
    """The factory defined by ``src``, compiled once per tree shape and
    form of kernel (one of ``FORMS``); the source names nothing
    but its arguments, so it runs in an empty scope.
    1024 is above the measured working set: 240 cycles of perfbench's
    checker-sweep build 481-503 shapes (seeds 1, 101 and 1501), and 960
    cycles the same."""
    scope = {}
    exec(compile(src, "<lcfn.expr>", "exec"), scope)
    return scope["_make"]


def _var(name: str, eps: float | None) -> float:
    if name == "eps" and eps is not None:
        return eps
    raise EvalError(f"variable {name!r} is not bound")


# -- smart constructors (local folding only, no general simplification) -------

_ZERO, _ONE = Num(0.0), Num(1.0)  # interned: a 0 or 1 literal *is* one


def num(v: float) -> Expr:
    if v == 0.0:
        return _ZERO  # normalizes -0.0 away
    if v < 0.0:
        return Neg(Num(-v))  # printers never see negative literals
    return Num(v)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value + b.value)
    if a is _ZERO:
        return b
    if b is _ZERO:
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value - b.value)
    if b is _ZERO:
        return a
    if a is _ZERO:
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
    if a is _ZERO or b is _ZERO:
        return _ZERO
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a is _ZERO:
        return _ZERO
    if b is _ONE:
        return a
    return Bin("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if b is _ONE:
        return a
    if b is _ZERO:
        return _ONE
    return Bin("^", a, b)


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
    """The derivative of ``e`` in ``var``, kept on the node: each node is
    differentiated once per variable, and so is a subtree shared by many
    trees.  One frame per level of ``e``: the rules are inline, not in a
    helper this calls."""
    memo = getattr(e, "_derivatives", None)  # unset until the first call
    if memo is None:
        memo = {}
        object.__setattr__(e, "_derivatives", memo)
    out = memo.get(var)
    if out is not None:
        return out
    if isinstance(e, Num):
        out = _ZERO
    elif isinstance(e, Var):
        out = _ONE if e.name == var else _ZERO
    elif isinstance(e, Neg):
        out = neg(_d(e.arg, var))
    elif isinstance(e, Bin):
        u, v = e.left, e.right
        du, dv = _d(u, var), _d(v, var)
        if e.op == "+":
            out = add(du, dv)
        elif e.op == "-":
            out = sub(du, dv)
        elif e.op == "*":
            out = add(mul(du, v), mul(u, dv))
        elif e.op == "/":
            out = div(sub(mul(du, v), mul(u, dv)), pow_(v, Num(2.0)))
        elif isinstance(v, Num):  # '^': power rule for constant exponents
            out = mul(mul(v, pow_(u, num(v.value - 1.0))), du)
        else:  # general u^v via exp-log: u^v * (dv*log u + v*du/u)
            out = mul(pow_(u, v),
                      add(mul(dv, Call("log", u)), mul(v, div(du, u))))
    else:
        u, du = e.arg, _d(e.arg, var)
        if e.fn == "sin":
            out = mul(Call("cos", u), du)
        elif e.fn == "cos":
            out = neg(mul(Call("sin", u), du))
        elif e.fn == "exp":
            out = mul(Call("exp", u), du)
        elif e.fn == "log":
            out = div(du, u)
        elif e.fn == "sqrt":
            out = div(du, mul(Num(2.0), Call("sqrt", u)))
        elif e.fn == "abs":
            out = mul(Call("sign", u), du)
        else:  # 'sign': 0 almost everywhere; the kink is flagged separately
            out = _ZERO
    memo[var] = out
    return out


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
