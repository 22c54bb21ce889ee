"""Expression parsing, evaluation, differentiation, printing."""
import copy
import dataclasses
import gc
import math
import random
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from lcfn import expr as ex
from lcfn.errors import (
    DivisionByZero,
    EvalDomainError,
    EvalError,
    ExprError,
    ExprSyntaxError,
    UnknownFunction,
)
from oracles import walk, walk_at


def ev(src, t, eps=None):
    return ex.evaluate(ex.parse(src, ("t", "eps") if eps is not None else ("t",)),
                       t, eps)


def d(src, order=1):
    return ex.differentiate(ex.parse(src), "t", order)


# -- parsing and evaluation ------------------------------------------------

def test_basic_arithmetic():
    assert ev("t^2 - 3*t", 2.0) == -2.0
    assert ev("2 + 3 * 4", 0.0) == 14.0
    assert ev("(2 + 3) * 4", 0.0) == 20.0
    assert ev("7 / 2", 0.0) == 3.5


def test_unary_minus_binds_looser_than_power():
    assert ev("-t^2", 3.0) == -9.0
    assert ev("(-t)^2", 3.0) == 9.0
    assert ev("2^-2", 0.0) == 0.25


def test_power_right_associative():
    assert ev("2^3^2", 0.0) == 512.0  # 2^(3^2)
    assert ev("(2^3)^2", 0.0) == 64.0


def test_functions():
    assert ev("sin(t)", math.pi / 2) == pytest.approx(1.0)
    assert ev("cos(t) * exp(t)", 0.0) == 1.0
    assert ev("log(exp(1))", 0.0) == pytest.approx(1.0)
    assert ev("sqrt(t)", 9.0) == 3.0
    assert ev("abs(-t)", 3.0) == 3.0


def test_eval_errors():
    with pytest.raises(DivisionByZero):
        ev("sin(t)/t", 0.0)
    with pytest.raises(EvalDomainError):
        ev("log(t)", -1.0)
    with pytest.raises(EvalDomainError):
        ev("sqrt(t)", -4.0)
    with pytest.raises(DivisionByZero):
        ev("t^-1", 0.0)
    with pytest.raises(EvalError):
        ev("exp(t)", 1e6)


def test_syntax_errors_carry_offsets():
    cases = {"t +": 3, "(t": 2, "t $ 2": 2, "sin t": 4, "": 0,
             "1e999*t": 0, "t + 2e308": 4}  # numbers that read as inf
    for src, offset in cases.items():
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(src)
        assert err.value.offset == offset


def test_nesting_past_the_limit_is_a_syntax_error():
    n = ex.MAX_NESTING
    cases = {"(" * (n + 1) + "t" + ")" * (n + 1): n,
             "sin(" * (n + 1) + "t" + ")" * (n + 1): 4 * n + 3,
             "-" * (n + 1) + "t": n,
             "t^" * (n + 1) + "t": 2 * n + 1}
    for src, offset in cases.items():
        with pytest.raises(ExprSyntaxError, match="nesting deeper") as err:
            ex.parse(src)
        assert err.value.offset == offset
    # levels close again: a long sequence of shallow groups is fine
    assert ev("+".join(["(-t)^2"] * (2 * n)), 1.0) == 2 * n


def chain(op: str, n: int) -> str:
    """``t`` joined by ``n`` operators ``op``: a left-deep tree n high."""
    return "t" + f"{op}t" * n


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_chain_past_the_height_bound_is_a_syntax_error(op):
    n = ex.MAX_HEIGHT
    ex.parse(chain(op, n))  # at the bound: accepted
    with pytest.raises(ExprSyntaxError, match=f"more than {n} operations "
                       "deep") as err:
        ex.parse(chain(op, n + 1))
    assert err.value.offset == 2 * n + 1  # at the operator one too many
    # the height counts every operation on the path, unary minus included
    with pytest.raises(ExprSyntaxError, match="operations deep"):
        ex.parse("-" + chain(op, n))  # (-t) op t op ... op t


@pytest.mark.parametrize("op, third", [
    ("+", lambda n, t: 0.0),
    ("*", lambda n, t: (n + 1) * n * (n - 1) * t ** (n - 2)),
    ("/", lambda n, t: (1 - n) * -n * (-n - 1) * t ** (-n - 2)),
])
def test_chain_at_the_height_bound_has_a_third_derivative(op, third,
                                                         within_frames):
    # the deepest recursion, the compile of the third derivative of a '/'
    # chain, takes about 725 frames; MAX_HEIGHT promises it 750
    n, t = ex.MAX_HEIGHT, 0.9
    ex.kernel.cache_clear()  # kernels and derived trees hold their trees,
    ex.derived.cache_clear()  # and the trees hold their derivatives:
    gc.collect()              # take them all afresh
    tree = ex.parse(chain(op, n))
    assert not hasattr(tree, "_derivatives")
    value = within_frames(
        750, lambda: ex.evaluate(ex.differentiate(tree, "t", 3), t))
    assert value == pytest.approx(third(n, t), rel=1e-9, abs=1e-9)


def test_sin_chain_at_the_nesting_limit_differentiates():
    n = ex.MAX_NESTING
    tree = ex.parse("sin(" * n + "t" + ")" * n)
    third = ex.differentiate(tree, "t", 3)
    h, t = 1e-3, 0.3
    value = lambda x: ex.evaluate(tree, x)
    fd = (value(t + 2 * h) - 2 * value(t + h) + 2 * value(t - h)
          - value(t - 2 * h)) / (2 * h ** 3)
    assert math.isfinite(ex.evaluate(third, t))
    assert ex.evaluate(third, t) == pytest.approx(fd, rel=1e-3)


def distinct_nodes(e):
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [getattr(node, f) for f in ("arg", "left", "right")
                      if hasattr(node, f)]
    return len(seen)


def test_repeated_derivatives_keep_shared_subtrees_shared():
    # sin nested 40 deep, built directly since the parser stops at 32: the
    # third derivative has 1,477 distinct nodes; differentiating each
    # occurrence of a shared subtree separately gave 52,626
    n = 40
    tree = ex.Var("t")
    for _ in range(n):
        tree = ex.Call("sin", tree)
    third = ex.differentiate(tree, "t", 3)
    assert distinct_nodes(third) <= 40 * n
    assert ex.evaluate(third, 0.3) == walk(third, 0.3)


def test_unknown_function_and_variable():
    with pytest.raises(UnknownFunction):
        ex.parse("tan(t)")
    with pytest.raises(ExprSyntaxError):
        ex.parse("x + 1")
    # eps is only a variable when declared
    with pytest.raises(ExprSyntaxError):
        ex.parse("eps * t")
    ex.parse("eps * t", ("t", "eps"))


def test_every_table_function_parses_and_no_other():
    for name in ex._FN:
        tree = ex.parse(f"{name}(t)")
        assert tree == ex.Call(name, ex.Var("t"))
        assert ex.to_source(tree) == f"{name}(t)"
        assert ex.evaluate(tree, 0.5) == ex._FN[name](0.5)
    with pytest.raises(UnknownFunction):
        ex.parse("tan(t)")


def test_two_variable_evaluation():
    assert ev("t * eps^2", 3.0, eps=2.0) == 12.0
    with pytest.raises(EvalError):
        ex.evaluate(ex.parse("eps", ("t", "eps")), 1.0)  # eps unbound


# -- compiled evaluation against the tree walk -------------------------------

def _outcome(evaluator, e, t, eps):
    """The value, or the error class and message, of one evaluation."""
    try:
        return evaluator(e, t, eps)
    except EvalError as err:
        return type(err), str(err)


def _compiled_cases():
    from lcfn.scenarios import load_catalog
    from lcfn.variational import DiracKernel, default_eta_catalog
    for s in load_catalog():
        a, b = s.domain
        eps = s.eps0
        f = s.f
        g = s.partner or f.derivative()
        cross = f.cross_with(g)
        # DAGs: f (*) f reuses the r and q objects of f, and the second test
        # function of the dbr-forward catalog has r and q the same object
        square = f.cross_with(f)
        eta = default_eta_catalog(f.gen, f.domain)[1]
        dbr = f.cross_with(eta).plus(g.cross_with(eta.derivative()))
        # the two integrands of integration by parts
        left, right = f.cross_with(g.derivative()), f.derivative().cross_with(g)
        trees = [f.r, f.q, f.center_expr(), cross.r, cross.q,
                 square.r, square.q, dbr.r, dbr.q,
                 left.r, left.q, right.r, right.q]
        trees += [ex.differentiate(c, "t", k) for c in (f.r, f.q)
                  for k in (1, 2, 3)]
        # a margin outside the domain reaches the guarded operations too
        ts = [a - 0.25 + (b - a + 0.5) * i / 40 for i in range(41)]
        yield s.name, trees, ts, eps
    kernel = DiracKernel.build(0.2, 1, 2)
    yield "dirac-kernel", [kernel.expression(0.5)], \
        [0.3 + 0.4 * i / 40 for i in range(41)], None
    two = ex.parse("t*eps^2 - sin(eps*t)/(1 + eps) + log(t)*exp(-eps)",
                   ("t", "eps"))
    for eps in (-1.0, 0.0, 0.3, 2.0):
        yield f"two-variable eps={eps}", [two], \
            [-1.0 + 3.0 * i / 40 for i in range(41)], eps
    # sign(-0.0) is +0.0, not copysign(1.0, -0.0); a NaN keeps its sign
    yield "sign at signed zeros and NaN", [ex.parse("sign(t)")], \
        [0.0, -0.0, -1.5, 2.0, math.nan, -math.nan], None
    yield from _raw_operation_edges()


def _raw_operation_edges():
    """Both sides of each input at which a raw float operation in a
    compiled kernel raises (overflow, a zero divisor or base, a domain
    edge), with signed zeros, infinities and NaN."""
    t = ex.Var("t")
    special = [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan]
    top = math.log(sys.float_info.max)  # exp overflows just above it
    yield "exp edges", [ex.Call("exp", t)], \
        [709.0, math.nextafter(709.0, 0.0), math.nextafter(709.0, math.inf),
         top, math.nextafter(top, math.inf), *special], None
    yield "log and sqrt edges", [ex.Call("log", t), ex.Call("sqrt", t)], \
        [*special, 5e-324, -5e-324, 2.0], None
    yield "division edges", [ex.Bin("/", ex.Num(1.0), t), ex.Bin("/", t, t)], \
        [*special, 2.0], None
    # 600 is the Dirac kernel's power at --k 300; each base set straddles
    # B = 2^min(1000, 1000/|v|), below which |t|^v stays under 2^1000
    for v in (2.0, 3.0, 0.5, 600.0, 1e-300, 1e300, -1.0, -0.5, 0.0):
        bound = 2.0 ** min(1000.0, 1000.0 / abs(v)) if v else 2.0 ** 1000
        above = math.nextafter(bound, math.inf)
        yield f"power edges t^{v!r}", [ex.Bin("^", t, ex.Num(v))], \
            [bound, -bound, above, -above, math.nextafter(bound, 0.0),
             *special, -0.5, 0.5, 1e300, -1e300], None
    # the largest bases whose square and cube are finite, and the next
    # floats, whose powers overflow
    for v, top in ((2.0, 1.3407807929942596e154), (3.0, 5.643803094122361e102)):
        above = math.nextafter(top, math.inf)
        yield f"overflow edges t^{v!r}", [ex.Bin("^", t, ex.Num(v))], \
            [top, -top, above, -above], None
    # a zero base raises, the smallest subnormal's reciprocal overflows
    yield "negative integral powers", \
        [ex.Bin("^", t, ex.Num(-1.0)), ex.Bin("^", t, ex.Num(-2.0))], \
        [5e-324, -5e-324, 0.0, -0.0], None


def test_compiled_evaluation_matches_walk_bit_for_bit():
    checked = 0
    for name, trees, ts, eps in _compiled_cases():
        for tree in trees:
            for t in ts:
                got = _outcome(ex.evaluate, tree, t, eps)
                want = _outcome(walk_at, tree, t, eps)
                # repr tells -0.0 from 0.0 and prints every NaN as 'nan'
                assert repr(got) == repr(want), (name, ex.to_source(tree), t)
                checked += 1
    assert checked > 5000


def _walk_batch(trees, ts, eps):
    """Each tree at each t by the walk, point after point and tree
    after tree; the first error as (class, message) instead, if any."""
    columns = [[] for _ in trees]
    for t in ts:
        for column, tree in zip(columns, trees):
            value = _outcome(walk_at, tree, t, eps)
            if isinstance(value, tuple):
                return value
            column.append(value)
    return tuple(columns)


def _batch(kernel, ts, eps):
    try:
        return kernel(ts, eps)
    except EvalError as err:
        return type(err), str(err)


def test_batch_kernels_match_walk_bit_for_bit():
    """Every case's trees as one kernel, so subtrees are shared across
    roots too, and each consecutive (r, q) pair as its own kernel: on the
    points where the walk raises nowhere they give the walk's bits, and
    on the whole grid the walk's first error.  repr tells -0.0 from 0.0
    and prints every NaN as 'nan'."""
    checked, raised = 0, 0
    for name, trees, ts, eps in _compiled_cases():
        groups = [tuple(trees)] + [tuple(trees[i:i + 2])
                                   for i in range(0, len(trees), 2)]
        for roots in groups:
            kernel = ex._compile("columns", roots)
            good = [t for t in ts
                    if isinstance(_walk_batch(roots, [t], eps)[0], list)]
            got = kernel(good, eps)
            assert repr(got) == repr(_walk_batch(roots, good, eps)), \
                (name, [ex.to_source(root) for root in roots])
            whole = _walk_batch(roots, ts, eps)
            assert repr(_batch(kernel, ts, eps)) == repr(whole)
            checked += len(good) * len(roots)
            raised += len(good) < len(ts)
    assert checked > 15000 and raised > 0


def _scan_reference(column):
    """What the scan kernel records of ``column``, by Python passes: each
    i with ``column[i - 1] * column[i] <= 0.0``, then the least, the
    greatest and the least absolute value that is not NaN."""
    brackets = [i for i in range(1, len(column))
                if column[i - 1] * column[i] <= 0.0]
    seen = [v for v in column if v == v]
    return [brackets, min(seen, default=math.inf),
            max(seen, default=-math.inf), min(map(abs, seen), default=math.inf)]


def test_scan_kernels_match_column_kernels_bit_for_bit():
    """The scan kernel of each tree returns the bits of the column
    kernel's column, or its error, and records what Python passes over
    that column find (extremes compared by value, as 0.0 == -0.0)."""
    checked, raised = 0, 0
    for name, trees, ts, eps in _compiled_cases():
        for tree in trees:
            scan, column = ex.kernel("scan", tree), ex.kernel("columns", tree)
            good = [t for t in ts
                    if isinstance(_batch(column, [t], eps)[0], list)]
            values, *records = scan(good, eps)
            (want,) = column(good, eps)
            assert repr(values) == repr(want), (name, ex.to_source(tree))
            assert records == _scan_reference(want), (name, ex.to_source(tree))
            if len(good) < len(ts):  # the first error, of its class
                assert _batch(scan, ts, eps) == _batch(column, ts, eps)
                raised += 1
            checked += len(good)
    assert checked > 5000 and raised > 0
    assert ex.kernel("scan", ex.Var("t"))([]) == \
        ([], [], math.inf, -math.inf, math.inf)


_SIN, _LOGT = ex.parse("sin(t)"), ex.parse("log(t)")


@pytest.mark.parametrize("roots, ts, eps, cls, message", [
    ((ex.parse("t + 1"), _LOGT), [1.0, 2.0, -2.0, -3.0], None,
     EvalDomainError, "log of nonpositive value -2.0 at t=-2.0"),
    # sin(inf) is the ValueError of math.sin, retyped naming its root and t
    ((ex.parse("t*t"), ex.Bin("*", ex.parse("t*t"), _SIN)),
     [0.5, math.inf, 1.0], None, EvalDomainError,
     "sin or cos of an infinite value in t*t*sin(t) at t=inf"),
    ((_SIN, _SIN), [2.0, -math.inf], None, EvalDomainError,
     "sin or cos of an infinite value in sin(t) at t=-inf"),
    # both roots raise at inf: the first root's message
    ((_SIN, ex.parse("2*cos(t)")), [1.0, math.inf], None, EvalDomainError,
     "sin or cos of an infinite value in sin(t) at t=inf"),
    ((ex.parse("t"), ex.parse("t*eps", ("t", "eps"))), [0.5, 1.0], None,
     EvalError, "variable 'eps' is not bound at t=0.5"),
    # a non-finite r next to a raising q: the kernel checks no finiteness,
    # so q's error is the first
    ((ex.parse("t*1e308*10"), ex.parse("log(t - 2)")), [3.0, 1.0], None,
     EvalDomainError, "log of nonpositive value -1.0 at t=1.0"),
], ids=["log", "sin-inf-shared", "sin-minus-inf", "sin-and-cos-inf",
        "eps-unbound", "inf-r-raising-q"])
def test_batch_errors_match_point_by_point(roots, ts, eps, cls, message):
    with pytest.raises(cls) as batch:
        ex._compile("columns", roots)(ts, eps)
    with pytest.raises(cls) as pointwise:
        for t in ts:
            for root in roots:
                ex.evaluate(root, t, eps)
    assert type(batch.value) is type(pointwise.value) is cls
    assert str(batch.value) == str(pointwise.value) == message


def test_pair_values_raise_as_at_does_point_by_point(tri_am05):
    # r is inf at t = 1 and q raises there; f.at checks r before it reads
    # q, and f.values, one kernel call, must fail the same way
    from lcfn.calculus import FuzzyFunction
    f = FuzzyFunction.from_strings("1e308*10^(2 - t)", "log(t - 2)",
                                   tri_am05, (0.0, 4.0))
    ts = [3.0, 1.0, 0.5]
    with pytest.raises(EvalError) as batch:
        f.values(ts)
    with pytest.raises(EvalError) as pointwise:
        [f.at(t) for t in ts]
    assert type(batch.value) is type(pointwise.value) is EvalError
    assert str(batch.value) == str(pointwise.value) == \
        "component r is inf at t=1.0"
    rs, qs = f.values([3.0, 3.5])
    assert list(zip(rs, qs)) == [(f.at(t).r, f.at(t).q) for t in (3.0, 3.5)]


def _point_cases():
    """``_compiled_cases`` (the catalog's components, their first three
    derivatives and two-variable trees among them) and leaf roots."""
    yield from _compiled_cases()
    leaves = [ex.Num(2.5), ex.Num(-0.0), ex.Var("t")]
    points = [-1.5, 0.0, -0.0, math.inf, math.nan]
    yield "leaves", leaves, points, None
    yield "leaves with eps", leaves + [ex.Var("eps")], points, -0.5


def test_point_kernels_match_walk_bit_for_bit():
    """``kernel("point", *roots)`` at t gives the walk's bits, the
    value itself for one root and the tuple of values for several, or the
    walk's first error, root by root.  repr tells -0.0 from 0.0 and
    prints every NaN as 'nan'."""
    checked, raised = 0, 0
    for name, trees, ts, eps in _point_cases():
        for roots in [(tree,) for tree in trees] + [tuple(trees)]:
            point = ex.kernel("point", *roots)
            for t in ts:
                want = _walk_batch(roots, [t], eps)
                if isinstance(want[0], list):  # one column per root
                    want = want[0][0] if len(roots) == 1 else \
                        tuple(column[0] for column in want)
                try:
                    got = point(t, eps)
                except EvalError as err:
                    got = type(err), str(err)
                assert repr(got) == repr(want), \
                    (name, [ex.to_source(root) for root in roots], t)
                checked += 1
                raised += isinstance(want, tuple) and isinstance(want[0], type)
    assert checked > 10000 and raised > 0


@pytest.mark.parametrize("form, roots", [
    ("scan", (_SIN, _LOGT)),
    ("scan", ()), ("columns", ()), ("panel", ()), ("point", ()),
    ("points", (_SIN,)),
], ids=["scan-of-two", "scan-of-none", "columns-of-none", "panel-of-none",
        "point-of-none", "misspelled"])
def test_kernel_refuses_a_form_it_cannot_compile(form, roots):
    with pytest.raises(ValueError) as err:
        ex.kernel(form, *roots)
    assert str(err.value) == f"no {form!r} kernel of root count {len(roots)}"


@pytest.mark.parametrize("roots, t, eps, cls, message", [
    ((ex.parse("t + 1"), _LOGT), -2.0, None,
     EvalDomainError, "log of nonpositive value -2.0 at t=-2.0"),
    ((ex.parse("1/(t - 1)"),), 1.0, None,
     DivisionByZero, "division by zero at t=1.0"),
    ((ex.parse("t*t"), ex.Bin("*", ex.parse("t*t"), _SIN)), math.inf, None,
     EvalDomainError, "sin or cos of an infinite value in t*t*sin(t) at t=inf"),
    ((ex.parse("t"), ex.parse("t*eps", ("t", "eps"))), 0.5, None,
     EvalError, "variable 'eps' is not bound at t=0.5"),
    ((ex.Var("eps"),), 0.5, None,
     EvalError, "variable 'eps' is not bound at t=0.5"),
], ids=["log", "division", "sin-inf-shared", "eps-unbound", "eps-leaf"])
def test_point_errors_match_column_errors(roots, t, eps, cls, message):
    with pytest.raises(cls) as point:
        ex.kernel("point", *roots)(t, eps)
    with pytest.raises(cls) as column:
        ex.kernel("columns", *roots)([t], eps)
    assert type(point.value) is type(column.value) is cls
    assert str(point.value) == str(column.value) == message


@pytest.mark.parametrize("r, q, t", [
    ("1e308*10^(2 - t)", "log(t - 2)", 1.0),  # r is inf and q raises
    ("log(t - 2)", "t", 1.0),  # r raises
    ("t", "1e308*10^(2 - t)", 1.0),  # q is inf
    ("1e308*t", "1e308", 1.5),  # finite, but r + q overflows
], ids=["inf-r-raising-q", "raising-r", "inf-q", "finite-overflowing-sum"])
def test_at_reads_what_values_reads(tri_am05, r, q, t):
    # f.at's one point call falls back to f.values((t,)) on an error or a
    # non-finite r + q, so it raises values' checked error, r before q,
    # and returns values' bits
    from lcfn.calculus import FuzzyFunction
    f = FuzzyFunction.from_strings(r, q, tri_am05, (0.0, 4.0))

    def read(reader):
        try:
            return reader()
        except EvalError as err:
            return type(err), str(err)

    def at():
        element = f.at(t)
        return [element.r], [element.q]

    assert repr(read(at)) == repr(read(lambda: f.values((t,))))


def test_pair_kernel_runs_a_shared_subtree_once_per_point(monkeypatch):
    calls = []

    def sin(x):
        calls.append(x)
        return math.sin(x)

    monkeypatch.setitem(ex._FN, "sin", sin)
    s = ex.parse("sin(t)")  # compiled below, after the patch
    rs, qs = ex._compile("columns", (ex.Bin("*", s, s),
                          ex.Bin("+", s, ex.Num(1.0))))([0.25, 0.5])
    assert calls == [0.25, 0.5]
    assert (rs, qs) == ([math.sin(0.25) ** 2, math.sin(0.5) ** 2],
                        [math.sin(0.25) + 1.0, math.sin(0.5) + 1.0])


@pytest.mark.parametrize("src, cls", [
    ("1/(t-t)", DivisionByZero),
    ("0^-1", DivisionByZero),
    ("log(-1)", EvalDomainError),
    ("sqrt(-1)", EvalDomainError),
    ("(-2)^0.5", EvalDomainError),
    ("eps*t", EvalError),
    ("exp(1000)", EvalError),
    ("10^400", EvalError),
])
def test_compiled_errors_match_walk(src, cls):
    tree = ex.parse(src, ("t", "eps"))
    with pytest.raises(cls) as compiled:
        ex.evaluate(tree, 0.5)
    with pytest.raises(cls) as walked:
        walk_at(tree, 0.5)
    assert type(compiled.value) is type(walked.value) is cls
    assert str(compiled.value) == str(walked.value)


def test_trees_of_one_shape_share_one_compiled_factory():
    first, second = ex.parse("2*t + 1"), ex.parse("3*t + 5")
    assert ex.evaluate(first, 0.5) == 2.0
    assert ex.evaluate(second, 0.5) == 6.5
    columns = partial(ex.kernel, "columns")
    first_kernel, second_kernel = columns(first), columns(second)
    assert first_kernel is not second_kernel
    assert first_kernel.__code__ is second_kernel.__code__
    # '/' and '^' run raw, inline as '/' and '**', so they are two shapes;
    # a constant divisor or an integral exponent enters as an argument
    quotient, power = ex.parse("t / 4"), ex.parse("t ^ 4")
    assert (ex.evaluate(quotient, 0.5), ex.evaluate(power, 0.5)) == (0.125, 0.0625)
    code = columns(quotient).__code__
    assert columns(ex.parse("t / 5")).__code__ is code
    assert columns(ex.parse("t ^ 3")).__code__ is columns(power).__code__
    assert columns(power).__code__ is not code
    # an inline '-' is another shape
    assert columns(ex.parse("2*t - 1")).__code__ \
        is not first_kernel.__code__


@pytest.mark.parametrize("make, args", [
    (ex.Bin, ("+-", ex.Num(2.0), ex.Var("t"))),
    (ex.Bin, ("", ex.Var("t"), ex.Num(3.0))),
    (ex.Bin, ("-*", ex.Num(-8.0), ex.Var("t"))),
    (ex.Call, ("si", ex.Var("t"))),
    (ex.Call, ("", ex.Var("t"))),
], ids=["+-", "empty-op", "-*", "si", "empty-fn"])
def test_names_outside_the_tables_are_rejected(make, args):
    # a node is built only with an operator of _BIN or a function of _FN,
    # so no evaluator, derivative or printer meets any other name, and the
    # rejected node enters no intern table
    sizes = len(ex._BINS), len(ex._CALLS)
    with pytest.raises(ExprError) as err:
        make(*args)
    assert repr(args[0]) in str(err.value)
    assert (len(ex._BINS), len(ex._CALLS)) == sizes


_LOG = ex.parse("log(t)")
_EPS = ex.Var("eps")


@pytest.mark.parametrize("tree, t", [
    # log(t) is one object used twice: it raises first at t <= 0, and the
    # division by t - t raises after it
    (ex.Bin("-", ex.Bin("/", _LOG, ex.parse("t - t")), _LOG), -1.0),
    (ex.Bin("-", ex.Bin("/", _LOG, ex.parse("t - t")), _LOG), 2.0),
    (ex.Bin("*", ex.parse("sqrt(t)"), ex.Bin("+", _LOG, _LOG)), -1.0),
    (ex.Bin("+", ex.Bin("+", _EPS, ex.parse("1/(t-t)")), _EPS), 1.0),
], ids=lambda v: ex.to_source(v) if isinstance(v, ex.Bin) else repr(v))
def test_shared_subtree_errors_match_walk(tree, t):
    got = _outcome(ex.evaluate, tree, t, None)
    want = _outcome(walk_at, tree, t, None)
    assert isinstance(want, tuple)  # every case raises
    assert got == want


def test_equal_trees_are_one_node():
    src = "sin(t)^2 - 3*t/(1 + abs(t))"
    tree = ex.parse(src)
    assert ex.parse(src) is tree
    by_hand = ex.Bin("-", ex.Bin("^", ex.Call("sin", ex.Var("t")), ex.Num(2.0)),
                     ex.parse("3*t/(1 + abs(t))"))
    assert by_hand is tree and by_hand == tree
    assert ex.Num(3) is ex.parse("3") and type(ex.Num(5).value) is float
    assert copy.deepcopy(tree) is tree
    before = repr(tree)
    ex.evaluate(tree, 0.3)
    assert repr(tree) == before == ("Bin(op='-', left=Bin(op='^', left=Call("
                                    "fn='sin', arg=Var(name='t')), right=Num("
                                    "value=2.0)), right=Bin(op='/', left=Bin("
                                    "op='*', left=Num(value=3.0), right=Var("
                                    "name='t')), right=Bin(op='+', left=Num("
                                    "value=1.0), right=Call(fn='abs', arg=Var("
                                    "name='t')))))")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.op = "+"


def test_derivatives_are_kept_on_the_node(tri_am05, monkeypatch):
    from lcfn.calculus import FuzzyFunction
    f = FuzzyFunction.from_strings("t^3*sin(t)", "exp(2*t)", tri_am05,
                                   (0.0, 1.0))
    first = f.derivative()
    calls = []  # every rule builds its result through these
    for name in ("neg", "add", "sub", "mul", "div", "pow_"):
        build = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *a, build=build:
                            calls.append(a) or build(*a))
    second = f.derivative()
    assert first.r is second.r and first.q is second.q and calls == []
    assert ex.differentiate(f.r, "t", 2) is f.derivative(2).r
    assert ex.differentiate(ex.parse("t^3*sin(t)"), "t", 1) is first.r


def test_signed_zero_literals_are_two_nodes():
    plus, minus = ex.Num(0.0), ex.Num(-0.0)
    assert plus is not minus and ex.Num(-0.0) is minus
    assert repr(ex.evaluate(minus, 1.0)) == "-0.0"
    assert repr(ex.evaluate(ex.Bin("+", minus, minus), 1.0)) == "-0.0"
    assert repr(ex.evaluate(ex.Bin("+", plus, minus), 1.0)) == "0.0"
    assert ex.num(-0.0) is plus  # the smart constructor still drops the sign


def test_dropped_trees_leave_the_tables():
    tables = (ex._NUMS, ex._VARS, ex._NEGS, ex._BINS, ex._CALLS)
    gc.collect()
    before = [len(table) for table in tables]
    t = ex.Var("t")
    trees = [ex.Call("exp", ex.Bin("*", ex.Num(i + 0.123456789), ex.Neg(t)))
             for i in range(10_000)]
    assert len(ex._BINS) == before[3] + 10_000
    assert len(ex._CALLS) == before[4] + 10_000
    del trees, t
    gc.collect()
    assert [len(table) for table in tables] == before


# -- differentiation --------------------------------------------------------

def test_derivative_examples():
    assert ex.evaluate(d("t^3"), 2.0) == 12.0
    assert ex.evaluate(d("sin(t)", 2), 0.0) == 0.0  # -sin(0)
    assert ex.evaluate(d("t^2 - 3*t"), 1.0) == -1.0
    assert ex.evaluate(d("exp(2*t)"), 0.0) == 2.0
    assert ex.evaluate(d("log(t)"), 2.0) == 0.5
    assert ex.evaluate(d("sqrt(t)"), 4.0) == 0.25
    assert ex.evaluate(d("1/t", 2), 1.0) == 2.0  # second derivative of 1/t


def test_third_order_supported_and_higher_rejected():
    assert ex.evaluate(d("t^4", 3), 1.0) == 24.0
    with pytest.raises(ValueError):
        d("t", 4)
    with pytest.raises(ValueError):
        d("t", 0)


def test_abs_differentiates_to_sign_with_zero_convention():
    der = d("abs(t)")
    assert ex.evaluate(der, 2.0) == 1.0
    assert ex.evaluate(der, -2.0) == -1.0
    assert ex.evaluate(der, 0.0) == 0.0
    assert ex.kink_hits(der, 0.0)
    assert not ex.kink_hits(der, 0.5)


def test_general_power_derivative():
    # t^t has derivative t^t (log t + 1)
    der = d("t^t")
    t = 1.7
    assert ex.evaluate(der, t) == pytest.approx(t ** t * (math.log(t) + 1.0))


SMOOTH = [
    "t^3 - 2*t + 1",
    "sin(3*t) * cos(t)",
    "exp(t / 2) + t^2",
    "log(2 + t^2)",
    "sqrt(4 + t^2)",
    "sin(t)^3",
    "t / (2 + cos(t))",
    "exp(-t^2)",
    "(1 + t^2) ^ 2.5",
    "cos(exp(t / 4))",
]


@settings(max_examples=150)
@given(st.sampled_from(SMOOTH), st.floats(-2.0, 2.0, allow_nan=False))
def test_derivative_matches_central_difference(src, t):
    tree = ex.parse(src)
    der = ex.differentiate(tree)
    h = (math.ulp(1.0) ** (1 / 3)) * max(1.0, abs(t))
    fd = (ex.evaluate(tree, t + h) - ex.evaluate(tree, t - h)) / (2 * h)
    exact = ex.evaluate(der, t)
    assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=100)
@given(st.sampled_from(SMOOTH), st.sampled_from(SMOOTH),
       st.floats(-3, 3), st.floats(-3, 3))
def test_derivative_is_linear(src1, src2, a, b):
    e1, e2 = ex.parse(src1), ex.parse(src2)
    combo = ex.add(ex.mul(ex.num(a), e1), ex.mul(ex.num(b), e2))
    lhs = ex.differentiate(combo)
    d1, d2 = ex.differentiate(e1), ex.differentiate(e2)
    for t in (-1.5, -0.3, 0.0, 0.7, 1.9):
        want = a * ex.evaluate(d1, t) + b * ex.evaluate(d2, t)
        assert ex.evaluate(lhs, t) == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- printing ----------------------------------------------------------------

ROUND_TRIP = SMOOTH + [
    "-t^2",
    "(-t)^2",
    "t - (1 - t)",
    "t / (2 * t)",
    "2^3^t",
    "(2^3)^t",
    "-(t + 1)",
    "--t",
    "abs(t) * sign(t)",
    "t^-2",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_print_parse_fixpoint(src):
    tree = ex.parse(src)
    printed = ex.to_source(tree)
    assert ex.parse(printed) == tree
    assert ex.to_source(ex.parse(printed)) == printed


def test_derivatives_reparse():
    # printed derivatives must stay inside the grammar
    rng = random.Random(3)
    for src in SMOOTH:
        der = ex.differentiate(ex.parse(src))
        printed = ex.to_source(der)
        reparsed = ex.parse(printed)
        t = rng.uniform(-1.5, 1.5)
        assert ex.evaluate(reparsed, t) == ex.evaluate(der, t)
