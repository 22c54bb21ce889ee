"""Expression parsing, evaluation, differentiation, printing."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcfn import expr as ex
from lcfn.errors import (
    DivisionByZero,
    EvalDomainError,
    EvalError,
    ExprSyntaxError,
    UnknownFunction,
)


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
    cases = {"t +": 3, "(t": 2, "t $ 2": 2, "sin t": 4, "": 0}
    for src, offset in cases.items():
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(src)
        assert err.value.offset == offset


def test_unknown_function_and_variable():
    with pytest.raises(UnknownFunction):
        ex.parse("tan(t)")
    with pytest.raises(ExprSyntaxError):
        ex.parse("x + 1")
    # eps is only a variable when declared
    with pytest.raises(ExprSyntaxError):
        ex.parse("eps * t")
    ex.parse("eps * t", ("t", "eps"))


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
    from lcfn.variational import DiracKernel
    for s in load_catalog():
        a, b = s.domain
        eps = s.eps0
        f = s.f
        cross = f.cross_with(s.partner or f.derivative())
        trees = [f.r, f.q, f.center_expr(), cross.r, cross.q]
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


def test_compiled_evaluation_matches_walk_bit_for_bit():
    checked = 0
    for name, trees, ts, eps in _compiled_cases():
        for tree in trees:
            for t in ts:
                got = _outcome(ex.evaluate, tree, t, eps)
                want = _outcome(ex._walk, tree, t, eps)
                # repr tells -0.0 from 0.0 and prints every NaN as 'nan'
                assert repr(got) == repr(want), (name, ex.to_source(tree), t)
                checked += 1
    assert checked > 5000


@pytest.mark.parametrize("src, cls", [
    ("1/(t-t)", DivisionByZero),
    ("0^-1", DivisionByZero),
    ("log(-1)", EvalDomainError),
    ("sqrt(-1)", EvalDomainError),
    ("(-2)^0.5", EvalDomainError),
    ("eps*t", EvalError),
    ("exp(1000)", EvalError),
])
def test_compiled_errors_match_walk(src, cls):
    tree = ex.parse(src, ("t", "eps"))
    with pytest.raises(cls) as compiled:
        ex.evaluate(tree, 0.5)
    with pytest.raises(cls) as walked:
        ex._walk(tree, 0.5)
    assert type(compiled.value) is type(walked.value) is cls
    assert str(compiled.value) == str(walked.value)


def test_compiling_leaves_equality_hash_and_repr_unchanged():
    src = "sin(t)^2 - 3*t/(1 + abs(t))"
    tree, twin = ex.parse(src), ex.parse(src)
    before = (repr(tree), hash(tree))
    ex.evaluate(tree, 0.3)
    assert (repr(tree), hash(tree)) == before
    assert tree == twin and hash(tree) == hash(twin)
    assert "_fn" in vars(tree) and "_fn" not in vars(twin)


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
