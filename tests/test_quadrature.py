"""Adaptive Gauss-Kronrod, Gauss-Legendre nodes built without numpy, and
quadrature settings."""
import math
import operator
import subprocess
import sys
from functools import partial, reduce

import pytest

from lcfn import LCFN, FuzzyFunction, Generator, expr as ex, integrate
from lcfn.calculus import integrate_many
from lcfn.errors import (
    DivisionByZero,
    EvalDomainError,
    EvalError,
    NonFiniteIntegrand,
    QuadratureNonConvergent,
)
from lcfn.quadrature import (
    MAX_INTERVALS,
    RULE,
    QuadratureSpec,
    _leggauss,
    gauss_legendre,
    integrate_scalar,
    qag,
)

from conftest import assert_frozen_value
from oracles import (
    G7_WEIGHTS,
    K15_WEIGHTS,
    NODES,
    column_sums,
    panel_of,
    panel_sums,
    qag_reference,
)

SPEC = QuadratureSpec()


def counted(fn):
    """``fn`` and a list whose one item counts its calls."""
    calls = [0]

    def wrapper(t):
        calls[0] += 1
        return fn(t)
    return wrapper, calls


def test_import_lcfn_leaves_numpy_out():
    code = "import sys, lcfn, lcfn.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_gauss_legendre_64_exact_on_even_monomials():
    for k in range(64):  # degree 2k <= 126 < 2*64
        value = gauss_legendre(lambda t: t ** (2 * k), -1.0, 1.0, 64)
        assert value == pytest.approx(2.0 / (2 * k + 1), rel=1e-13), k


@pytest.mark.parametrize("n", [1, 3, 5, 33, 65])
def test_odd_rule_has_node_at_zero_and_is_exact(n):
    xs, ws = _leggauss(n)
    assert len(xs) == len(ws) == n
    assert xs[n // 2] == 0.0
    assert list(xs) == sorted(xs)
    assert all(xs[i] == -xs[-1 - i] and ws[i] == ws[-1 - i]
               for i in range(n))
    for k in range(n):  # degree 2k <= 2n - 2
        value = gauss_legendre(lambda t: t ** (2 * k), -1.0, 1.0, n)
        assert value == pytest.approx(2.0 / (2 * k + 1), rel=1e-13), (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 33, 63, 64, 65])
def test_nodes_and_weights_match_numpy(n):
    np = pytest.importorskip("numpy")
    ref_xs, ref_ws = np.polynomial.legendre.leggauss(n)
    xs, ws = _leggauss(n)
    for x, ref in zip(xs, ref_xs.tolist()):
        assert abs(x - ref) <= 2 * math.ulp(ref), (n, x, ref)
    for w, ref in zip(ws, ref_ws.tolist()):
        assert abs(w - ref) <= 1e-11 * ref, (n, w, ref)


@pytest.mark.parametrize("kwargs, error, match", [
    pytest.param({"abs_tol": tol}, ValueError, f"got {tol!r}", id=repr(tol))
    for tol in (0.0, -1e-10, math.nan, math.inf)
] + [pytest.param({"nodes": n}, TypeError, "nodes", id=f"nodes={n}")
     for n in (0, -1)])
def test_spec_rejects_tolerance_that_is_not_finite_positive(kwargs, error,
                                                            match):
    """A tolerance that is not finite and positive is a ValueError; a node
    count of any value is a TypeError, since the Gauss-Legendre order is
    fixed and not a setting."""
    with pytest.raises(error, match=match):
        QuadratureSpec(**kwargs)


def test_gauss_legendre_order_is_fixed():
    assert QuadratureSpec().nodes == 64
    with pytest.raises(TypeError):
        QuadratureSpec(nodes=64)


def test_spec_is_a_frozen_value():
    assert_frozen_value(QuadratureSpec(), "QuadratureSpec(abs_tol=1e-10)",
                        (1e-10,), QuadratureSpec(1e-6))
    assert QuadratureSpec(abs_tol=1e-6) == QuadratureSpec(1e-6)


# -- adaptive Gauss-Kronrod -----------------------------------------------

def test_kronrod_and_gauss_rules_are_exact_to_their_degree():
    gauss_nodes = NODES[1::2]
    assert len(RULE) == 15 and len(gauss_nodes) == len(G7_WEIGHTS) == 7
    assert list(NODES) == sorted(NODES)
    assert all(wg == 0.0 for _, _, wg in RULE[::2])
    assert all(abs(x - y) <= 2 * math.ulp(1.0)
               for x, y in zip(gauss_nodes, _leggauss(7)[0]))
    for k in range(12):  # K15 is exact to degree 22, G7 to degree 13
        exact = 2.0 / (2 * k + 1)
        kronrod = sum(w * x ** (2 * k) for x, w in zip(NODES, K15_WEIGHTS))
        assert kronrod == pytest.approx(exact, rel=1e-14), k
        if k < 7:
            gauss = sum(w * x ** (2 * k)
                        for x, w in zip(gauss_nodes, G7_WEIGHTS))
            assert gauss == pytest.approx(exact, rel=1e-14), k


def _neumaier(terms):
    """Compensated summation, the rule of ``sum`` of floats since 3.12."""
    total = compensation = 0.0
    for x in terms:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_panel_sums_run_left_to_right():
    """The same bits on every Python: these sums round differently under
    the compensated ``sum`` of 3.12 and later, and the rules must give the
    left-to-right ones, as ``sum`` did on 3.10 and 3.11."""
    def left_to_right(terms):
        return reduce(operator.add, terms, 0.0)

    fx = [-5.0, 9.0, -7.0, -1.0, -6.0, 6.0, 5.0, 6.0,
          3.0, -3.0, -6.0, 6.0, -9.0, 3.0, 4.0]
    kronrod = list(map(operator.mul, K15_WEIGHTS, fx))
    gauss = list(map(operator.mul, G7_WEIGHTS, fx[1::2]))
    assert left_to_right(kronrod) != _neumaier(kronrod)
    assert left_to_right(gauss) != _neumaier(gauss)
    # one panel on [-1, 1], so half = 1 and the tolerance is met at once
    assert qag(panel_of(lambda ts: (fx,), (1.0,)), -1.0, 1.0,
               QuadratureSpec(10.0), (1.0,)) \
        == (left_to_right(kronrod),) == (1.1961473046047395,)
    assert column_sums(fx) == (left_to_right(kronrod), left_to_right(gauss)) \
        == (1.1961473046047395, 6.605591805028993)
    # the scalar panel, the zero G7 weights at the Kronrod-only nodes
    # included, gives the same two sums
    values = dict(zip(NODES, fx))
    assert integrate_scalar(values.__getitem__, -1.0, 1.0,
                            QuadratureSpec(10.0)) == 1.1961473046047395

    xs, ws = _leggauss(64)
    terms = [w * math.cos(x) for x, w in zip(xs, ws)]
    assert left_to_right(terms) != _neumaier(terms)
    assert gauss_legendre(math.cos, -1.0, 1.0) == left_to_right(terms) \
        == 1.6829419696157923


@pytest.mark.parametrize("fn, a, b, exact, evals", [
    pytest.param(math.sqrt, 0.0, 1.0, 2.0 / 3.0, 465, id="sqrt"),
    pytest.param(lambda t: t ** 1000, 0.0, 2.0, 2.0 ** 1001 / 1001, 345,
                 id="t^1000"),
    pytest.param(math.log, 0.0, 1.0, -1.0, 825, id="log"),
])
def test_converges_where_adaptive_simpson_did_not(fn, a, b, exact, evals):
    # adaptive Simpson runs out of depth on all three; t^1000 on [0, 2]
    # (about 2e298) converges through REL_TOL, not the absolute tolerance
    wrapper, calls = counted(fn)
    value = integrate_scalar(wrapper, a, b, SPEC)
    assert abs(value - exact) <= 1e-10 * abs(exact)
    assert calls == [evals]


def test_meets_the_tolerance_on_an_unbounded_integrand():
    # exp(-t)/sqrt(t) is unbounded at 0; its integral over [0, 3] is
    # sqrt(pi) * erf(sqrt(3))
    value = integrate_scalar(lambda t: math.exp(-t) / math.sqrt(t), 0.0, 3.0,
                             SPEC)
    exact = math.sqrt(math.pi) * math.erf(math.sqrt(3.0))
    assert abs(value - exact) <= SPEC.abs_tol


def test_stops_at_the_subinterval_budget():
    # sin(1/t) oscillates without bound near 0: 2,000 subintervals is
    # 1 + 2 * 1,999 panels of 15 points
    wrapper, calls = counted(lambda t: math.sin(1.0 / t))
    with pytest.raises(QuadratureNonConvergent) as err:
        integrate_scalar(wrapper, 0.0, 1.0, SPEC)
    assert str(err.value) == (
        f"tolerance 1e-10 not met on [0.0, 1.0] within "
        f"MAX_INTERVALS={MAX_INTERVALS} subintervals")
    assert calls == [15 * (2 * MAX_INTERVALS - 1)]


def test_reciprocal_is_trapped_not_returned_as_inf():
    # bisecting toward 0 reaches nodes where 1/t overflows; the panel's
    # estimate is inf and its error nan, which would end the loop silently
    with pytest.raises(NonFiniteIntegrand) as err:
        integrate_scalar(lambda t: 1.0 / t, 0.0, 1.0, SPEC)
    assert str(err.value).startswith(
        "integrand not finite on [0.0, 1.0]: subinterval [0.0, ")
    assert str(err.value).endswith("] estimates inf")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_value_names_the_subinterval(value):
    with pytest.raises(NonFiniteIntegrand) as err:
        integrate_scalar(lambda t: value if t < 0.5 else t, 0.0, 1.0, SPEC)
    assert str(err.value) == (
        f"integrand not finite on [0.0, 1.0]: subinterval [0.0, 1.0] "
        f"estimates {value!r}")


# -- one subdivision for k components -----------------------------------------

@pytest.mark.parametrize("r, q, domain, exact", [
    ("sin(t)", "t^2", (0.0, 1.0), (1.0 - math.cos(1.0), 1.0 / 3.0)),
    ("sqrt(t)", "log(t)", (0.0, 1.0), (2.0 / 3.0, -1.0)),
    ("exp(t)", "1/(1 + t^2)", (0.0, 2.0), (math.exp(2.0) - 1.0, math.atan(2.0))),
    ("abs(t - 0.3)", "sqrt(abs(t))", (-1.0, 1.0), (1.09, 4.0 / 3.0)),
], ids=["sin-t2", "sqrt-log", "exp-atan", "kinks"])
@pytest.mark.parametrize("knots", [(-1.0, 0.0, 2.0), (0.0, 0.5, 2.0),
                                   (-5.0, -3.0, 0.0), (9.0, 10.0, 12.0)],
                         ids=["am0", "am0.5", "am-3", "am10"])
def test_pair_error_in_the_lcfn_norm_is_within_abs_tol(r, q, domain, exact,
                                                        knots):
    gen = Generator.triangular(*knots)
    value = integrate(FuzzyFunction.from_strings(r, q, gen, domain))
    assert (value - LCFN(*exact, gen)).norm() <= SPEC.abs_tol


@pytest.mark.parametrize("fn", [math.log, lambda t: 1e20 * math.log(t)],
                         ids=["log", "1e20*log"])
@pytest.mark.parametrize("copies, weights", [(2, (1.0, 1.0)), (1, (2.0,))],
                         ids=["equal-pair", "weight-2"])
def test_doubled_error_runs_as_the_scalar_at_half_the_tolerance(fn, copies,
                                                                weights):
    # two equal components at weight 1, or one at weight 2, double every
    # panel error and the relative scale exactly, so the run takes the
    # subdivision of the scalar run at abs_tol / 2: the same values from
    # the same panels (1e20*log(t) stops on the relative term)
    calls = []

    def kernel(ts):
        calls.append(len(ts))
        return ([fn(t) for t in ts],) * copies

    got = qag(panel_of(kernel, weights), 0.0, 1.0, SPEC, weights)
    wrapper, scalar_calls = counted(fn)
    value = integrate_scalar(wrapper, 0.0, 1.0,
                             QuadratureSpec(SPEC.abs_tol / 2.0))
    assert got == (value,) * copies
    assert set(calls) == {15} and 15 * len(calls) == scalar_calls[0]


def test_a_heavier_weight_refines_further():
    panels = []
    for weight in (1.0, 1e4):
        calls = [0]

        def kernel(ts, calls=calls):
            calls[0] += 1
            return [1.0 for _ in ts], [math.sqrt(t) for t in ts]

        qag(panel_of(kernel, (1.0, weight)), 0.0, 1.0, SPEC, (1.0, weight))
        panels.append(calls[0])
    assert panels[0] < panels[1]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_pair_names_the_first_non_finite_component(bad):
    def kernel(ts):
        return [1.0 for _ in ts], [bad if t < 0.5 else t for t in ts]

    with pytest.raises(NonFiniteIntegrand) as err:
        qag(panel_of(kernel, (1.0, 2.0)), 0.0, 1.0, SPEC, (1.0, 2.0))
    assert str(err.value) == (
        f"integrand not finite on [0.0, 1.0]: subinterval [0.0, 1.0] "
        f"estimates {bad!r}")


def test_empty_interval_gives_a_zero_per_component():
    calls = []
    assert qag(calls.append, 0.5, 0.5, SPEC, (1.0, 1.0, 1.0)) == \
        (0.0, 0.0, 0.0)
    assert calls == []


# -- panel kernels against the stored columns ---------------------------------

def _panel_pairs():
    """Each catalog scenario's (r, q), a cross product, a derivative and
    an eps-aware pair, with the eps each is integrated at."""
    from lcfn.scenarios import load_catalog
    for s in load_catalog():
        yield s.name, s.f, None
    s = load_catalog()[8]
    yield "cross", s.f.cross_with(s.partner), None
    yield "derivative", s.f.derivative(2), None
    gen = Generator.triangular(0.0, 0.5, 2.0)
    yield "eps-aware", FuzzyFunction.from_strings(
        "t*eps^2 - sin(eps*t)/(1 + eps) + log(1 + t)*exp(-eps)", "eps*t^2",
        gen, (0.0, 2.0), two_variable=True), 0.7


def _weights(f):
    return (1.0, 1.0 + abs(f.gen.a_m))


@pytest.mark.parametrize("f, eps", [pytest.param(f, eps, id=name)
                                    for name, f, eps in _panel_pairs()])
def test_panel_kernel_gives_the_column_sums_bit_for_bit(f, eps):
    """The rule kernel of a pair adds each value into its two sums as it
    goes and returns the scaled K15 sums and their weighted error; the
    oracle stores the 15 values and sums the columns.  Both add left to
    right from 0.0, and the zero G7 weights add only +-0.0, so every panel
    gives the same bits, and so does ``integrate``."""
    panel = partial(ex.kernel("panel", f.r, f.q), eps, _weights(f))
    oracle = panel_of(partial(ex.kernel("columns", f.r, f.q), eps=eps),
                      _weights(f))
    a, b = f.domain
    for lo, hi in [(a, b), (a, 0.5 * (a + b)), (0.5 * (a + b), b),
                   (a + 0.3 * (b - a), a + 0.31 * (b - a)), (a, a + 1e-9)]:
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert repr(panel(center, half)) == repr(oracle(center, half)), \
            (lo, hi)
    assert integrate(f, SPEC, eps=eps) == LCFN(
        *qag(oracle, a, b, SPEC, _weights(f)), f.gen)


@pytest.mark.parametrize("r, cls", [("1/(t-0.5)", DivisionByZero),
                                    ("sqrt(t-0.3)", EvalDomainError),
                                    ("exp(1000*t)", EvalError)])
@pytest.mark.parametrize("component", ["r", "q"])
def test_panel_kernel_raises_as_the_column_route(r, cls, component):
    """An error raised in the middle of a panel is the column kernel's
    error on the same points: of its class, naming the same t."""
    gen = Generator.triangular(0.0, 0.5, 2.0)
    pair = (r, "t") if component == "r" else ("t", r)
    f = FuzzyFunction.from_strings(*pair, gen, (0.0, 1.0))
    with pytest.raises(EvalError) as panel:
        integrate(f)
    with pytest.raises(EvalError) as columns:
        qag(panel_of(ex.kernel("columns", f.r, f.q), _weights(f)), 0.0, 1.0,
            SPEC, _weights(f))
    assert type(panel.value) is type(columns.value) is cls
    assert str(panel.value) == str(columns.value)
    assert " at t=" in str(panel.value)


# -- the qag loop against the per-component reference loop --------------------

def _reference_cases():
    """Each catalog scenario over its domain and two sub-intervals, and
    pairs whose integrals overflow, raise or do not converge."""
    from lcfn.scenarios import load_catalog
    for s in load_catalog():
        a, b = s.f.domain
        yield s.name, s.f, a, b
        yield f"{s.name}-left", s.f, a, a + 0.3 * (b - a)
        yield f"{s.name}-narrow", s.f, a + 0.6 * (b - a), a + 0.61 * (b - a)
    gen = Generator.triangular(-1.0, 0.0, 2.0)
    for name, r, q in [("reciprocal", "1/t", "t"), ("log", "log(t)", "1"),
                       ("overflow-r", "1e308*10^(2 - t)", "t"),
                       ("overflow-q", "t", "1e308*10^(2 - t)"),
                       ("sqrt-domain", "sqrt(t - 0.3)", "t"),
                       ("oscillating", "sin(1/t)", "t")]:
        yield name, FuzzyFunction.from_strings(r, q, gen, (0.0, 1.0)), 0.0, 1.0


def _outcome(run):
    """``repr`` of what ``run()`` returns, or the class and message of
    what it raises."""
    try:
        return repr(run())
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def _counted(panel, calls):
    def run(center, half):
        calls.append((center, half))
        return panel(center, half)
    return run


@pytest.mark.parametrize("f, lo, hi", [pytest.param(f, lo, hi, id=name)
                                       for name, f, lo, hi
                                       in _reference_cases()])
def test_qag_runs_as_the_reference_loop(f, lo, hi):
    """``qag`` reads each panel's values and weighted error from the
    kernel and keeps no loop over components; the reference loop computes
    both one component at a time from the column sums.  Both give the same
    values or errors from the same panels, and ``integrate`` gives
    ``qag``'s."""
    weights, calls, reference_calls = _weights(f), [], []
    panel = partial(ex.kernel("panel", f.r, f.q), None, weights)
    got = _outcome(lambda: qag(_counted(panel, calls), lo, hi, SPEC, weights))
    assert got == _outcome(lambda: qag_reference(
        _counted(panel_sums(ex.kernel("columns", f.r, f.q)), reference_calls),
        lo, hi, SPEC, weights))
    assert calls == reference_calls
    assert got == _outcome(lambda: _components(integrate(f, SPEC, lo, hi)))


def _components(value):
    return value.r, value.q


def _joint_cases():
    """Each catalog scenario with its derivative and its square over its
    domain and a sub-interval, and a catalog of sine test functions."""
    from lcfn.scenarios import load_catalog
    from lcfn.variational import default_eta_catalog
    for s in load_catalog():
        fs = (s.f, s.f.derivative(), s.f.cross_with(s.f))
        a, b = s.f.domain
        yield s.name, fs, a, b
        yield f"{s.name}-left", fs, a, a + 0.3 * (b - a)
    s = load_catalog()[8]
    yield "sines", default_eta_catalog(s.f.gen, s.f.domain), *s.f.domain


@pytest.mark.parametrize("fs, lo, hi", [pytest.param(fs, lo, hi, id=name)
                                        for name, fs, lo, hi
                                        in _joint_cases()])
def test_joint_qag_runs_as_the_reference_loop(fs, lo, hi):
    """Several functions on one subdivision: one panel kernel over all
    their roots, its error summed over every component, and the stop on
    the smallest function's norm give the reference loop's values from
    its panels, and ``integrate_many`` gives them as one element per
    function."""
    weights, calls, reference_calls = _weights(fs[0]), [], []
    roots = [root for f in fs for root in (f.r, f.q)]
    panel = partial(ex.kernel("panel", *roots), None, weights * len(fs))
    got = qag(_counted(panel, calls), lo, hi, SPEC, weights, len(fs))
    assert repr(got) == repr(qag_reference(
        _counted(panel_sums(ex.kernel("columns", *roots)), reference_calls),
        lo, hi, SPEC, weights, len(fs)))
    assert calls == reference_calls
    values = integrate_many(fs, SPEC, lo, hi)
    assert repr(got) == repr(tuple(x for v in values for x in _components(v)))


@pytest.mark.parametrize("fn", [lambda t: 0.0, math.exp], ids=["zero", "exp"])
def test_reversed_interval_runs_as_the_reference_loop(fn):
    # half is negative, so a zero panel estimates -0.0, which the sum of
    # the subintervals turns into 0.0
    def columns(ts):
        return [fn(t) for t in ts], [-fn(t) for t in ts]

    got = qag(panel_of(columns, (1.0, 2.0)), 1.0, 0.0, SPEC, (1.0, 2.0))
    assert repr(got) == repr(qag_reference(panel_sums(columns), 1.0, 0.0,
                                           SPEC, (1.0, 2.0)))


def test_overflowing_running_sum_names_the_panels_first_value():
    # every value of the two halves of [0, 4] is finite, but their sum
    # passes the largest float; no value is non-finite, so the message
    # names the second half's first value
    def columns(ts):
        if ts[7] == 2.0:  # the middle node of the first panel, [0, 4]
            return ([math.sqrt(t) for t in ts],)
        return ([0.6e308] * len(ts),)

    message = ("integrand not finite on [0.0, 4.0]: subinterval [2.0, 4.0] "
               "estimates 1.1999999999999995e+308")
    with pytest.raises(NonFiniteIntegrand) as err:
        qag(panel_of(columns, (1.0,)), 0.0, 4.0, SPEC, (1.0,))
    assert str(err.value) == message
    with pytest.raises(NonFiniteIntegrand) as err:
        qag_reference(panel_sums(columns), 0.0, 4.0, SPEC, (1.0,))
    assert str(err.value) == message
