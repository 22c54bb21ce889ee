"""Componentwise derivative/integral and the calculus theorem checkers."""
import copy
import dataclasses
import math
import pickle
import random
from functools import partial

import pytest

from lcfn import (
    CumulativeIntegral,
    FuzzyFunction,
    LCFN,
    QuadratureSpec,
    deriv,
    ftc_check,
    ibp_check,
    integrate,
    interchange_check,
    square_integral,
)
from lcfn.errors import (
    EvalError,
    GeneratorMismatch,
    NonFiniteIntegrand,
    OutsideDomain,
    QuadratureNonConvergent,
    WindowOutsideDomain,
)
from lcfn import calculus, expr as ex
from lcfn.quadrature import (
    MAX_EVALS,
    REL_TOL,
    adaptive_simpson,
    gauss_legendre,
    integrate_scalar,
    qag,
)
from lcfn.calculus import CheckReport, integrate_many, sample
from lcfn.scenarios import (
    catalog_names,
    catalog_scenario,
    load_catalog,
    parse_scenario,
)

from conftest import assert_frozen_value


SPEC = QuadratureSpec()


def fn(r, q, gen, domain=(0.0, 1.0)):
    return FuzzyFunction.from_strings(r, q, gen, domain)


def limit_quotient(f, t, h):
    """Central difference quotient (f(t+h) - f(t-h)) / 2h, to compare
    deriv() against the limit definition in the norm."""
    return (f.at(t + h) - f.at(t - h)).scaled(1.0 / (2.0 * h))


# -- values ------------------------------------------------------------------

def test_fuzzy_function_is_a_frozen_slotted_value(tri_am0):
    f = FuzzyFunction.from_strings("t^2", "sin(t)", tri_am0, (0, 1),
                                   two_variable=True)
    assert repr(f) == (
        "FuzzyFunction(r=Bin(op='^', left=Var(name='t'), right=Num(value=2.0)),"
        " q=Call(fn='sin', arg=Var(name='t')), gen=Generator(knots=((-1.0, 0.0),"
        " (0.0, 1.0), (2.0, 0.0)), a_m=0.0), domain=(0.0, 1.0), eps_aware=True)")
    # expressions hash by identity, so the pin is the field tuple; eps_aware
    # stays out of == and hash
    assert hash(f) == hash((f.r, f.q, f.gen, f.domain))
    plain = FuzzyFunction(f.r, f.q, f.gen, f.domain)
    assert plain == f and hash(plain) == hash(f) and not plain.eps_aware
    assert not hasattr(f, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.domain = (0.0, 2.0)
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)
        assert twin.eps_aware


@pytest.mark.parametrize("value, text, other", [
    (CheckReport("ftc", True, 1e-08, {"max": 0.5}, notes=("spot",),
                 records=({"t": 0.25},)),
     "CheckReport(check='ftc', passed=True, tolerance=1e-08, "
     "residuals={'max': 0.5}, notes=('spot',), records=({'t': 0.25},))",
     CheckReport("ftc", True, 1e-08, {"max": 0.5}, notes=("spot",))),
    (CheckReport("ibp", False, 1e-08, {}),
     "CheckReport(check='ibp', passed=False, tolerance=1e-08, residuals={}, "
     "notes=(), records=())",
     CheckReport("ibp", True, 1e-08, {})),
], ids=["full", "defaults"])
def test_check_report_is_a_frozen_value(value, text, other):
    # residuals is a dict, so a report is unhashable
    assert_frozen_value(value, text, None, other)


def test_scenario_is_a_frozen_value():
    cfg = {"name": "demo", "domain": [0, 1], "r": "t", "q": "1",
           "gen": {"kind": "triangular", "left": -1, "peak": 0, "right": 2},
           "partner": {"r": "2", "q": "t"}}
    s = parse_scenario(cfg)
    gen = ("Generator(knots=((-1.0, 0.0), (0.0, 1.0), (2.0, 0.0)), "
           "a_m=0.0)")
    assert_frozen_value(
        s,
        f"Scenario(name='demo', gen={gen}, domain=(0.0, 1.0), "
        f"f=FuzzyFunction(r=Var(name='t'), q=Num(value=1.0), gen={gen}, "
        "domain=(0.0, 1.0), eps_aware=False), partner=FuzzyFunction("
        f"r=Num(value=2.0), q=Var(name='t'), gen={gen}, domain=(0.0, 1.0), "
        "eps_aware=False), eps0=None)",
        (s.name, s.gen, s.domain, s.f, s.partner, s.eps0),
        parse_scenario({**cfg, "partner": None}))


NAMES = ("component r", "component q")
INF, NAN = math.inf, math.nan


def returning(columns):
    """A kernel that returns ``columns`` at any points."""
    return lambda ts, eps=None: columns


def test_sample_returns_finite_columns_whose_sums_overflow(tri_am0):
    # each column sums past the largest float, which sends sample to scan
    # its columns point by point; the scan finds no non-finite value
    f = fn("1e308", "-1e308", tri_am0)
    ts = [0.0, 0.5, 1.0]
    columns = ([1e308] * 3, [-1e308] * 3)
    assert f.values(ts) == columns
    assert sample(returning(columns), (f.r, f.q), NAMES, ts) is columns


@pytest.mark.parametrize("r, q, message", [
    ([1.0, INF, 1.0], [1.0, 1.0, NAN], "component r is inf at t=0.5"),
    ([1.0, 1.0, -INF], [1.0, NAN, 1.0], "component q is nan at t=0.5"),
    ([1.0, 1.0, NAN], [1.0, 1.0, INF], "component r is nan at t=1.0"),
    ([INF, -INF, 1.0], [1.0, 1.0, 1.0], "component r is inf at t=0.0"),
    ([1e308, 1e308, 1e308], [1e308, 1e308, -INF],
     "component q is -inf at t=1.0"),
], ids=["r-first-point", "point-order", "r-before-q", "inf-minus-inf",
        "overflow-then-inf"])
def test_sample_names_the_first_non_finite_value(tri_am0, r, q, message):
    # in point order, r before q; the roots are read again only when the
    # kernel raised, which this one does not
    f = fn("t", "t", tri_am0)
    with pytest.raises(EvalError) as err:
        sample(returning((r, q)), (f.r, f.q), NAMES, [0.0, 0.5, 1.0])
    assert type(err.value) is EvalError and str(err.value) == message


# -- deriv -----------------------------------------------------------------

@pytest.mark.parametrize("domain", [
    (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_domain_ends_must_be_finite(tri_am0, domain):
    with pytest.raises(ValueError, match="domain ends must be finite") as err:
        fn("t", "t", tri_am0, domain)
    assert f"[{domain[0]}, {domain[1]}]" in str(err.value)


def test_deriv_componentwise(tri_am0):
    f = fn("t^2", "t^3", tri_am0, (0.0, 2.0))
    assert deriv(f, 1.0) == LCFN(2.0, 3.0, tri_am0)


def test_deriv_constant(tri_am0):
    f = fn("4", "-2", tri_am0)
    assert deriv(f, 0.5) == LCFN.zero(tri_am0)


def test_deriv_requires_interior_point(tri_am0):
    f = fn("t", "t", tri_am0)
    with pytest.raises(OutsideDomain):
        deriv(f, 0.0)
    with pytest.raises(OutsideDomain):
        deriv(f, 1.5)


def test_pointwise_values_must_be_finite(tri_am0):
    f = fn("1e300*1e300*t", "t", tri_am0, (-1.0, 1.0))
    with pytest.raises(EvalError, match=r"^component r is -inf at t=-0\.5$"):
        f.at(-0.5)
    with pytest.raises(EvalError, match=r"^derivative r' is inf at t=0\.25$"):
        deriv(f, 0.25)
    g = fn("t", "1e300*1e300*t - 1e300*1e300*t", tri_am0)
    with pytest.raises(EvalError, match=r"^component q is nan at t=0\.5$"):
        g.at(0.5)


def test_deriv_is_linear(tri_am0):
    f = fn("sin(t)", "t^2", tri_am0, (0.0, 2.0))
    g = fn("exp(t)", "cos(t)", tri_am0, (0.0, 2.0))
    rng = random.Random(21)
    for _ in range(25):
        lam = rng.uniform(-3, 3)
        t = rng.uniform(0.1, 1.9)
        lhs = deriv(f.plus(g, lam), t)
        rhs = deriv(f, t) + deriv(g, t) * lam
        assert (lhs - rhs).norm() < 1e-12


def test_deriv_agrees_with_limit_quotient(tri_am0):
    f = fn("sin(t)", "exp(t)", tri_am0, (0.0, 2.0))
    t = 0.8
    h = (math.ulp(1.0) ** (1 / 3))
    assert (limit_quotient(f, t, h) - deriv(f, t)).norm() < 1e-6


def test_limit_quotient_second_order_convergence(tri_am0):
    # halving h divides the central-quotient error by about 4
    f = fn("sin(t)", "exp(t)", tri_am0, (0.0, 2.0))
    t = 0.8
    exact = deriv(f, t)
    errors = [(limit_quotient(f, t, h) - exact).norm()
              for h in (1e-2, 5e-3, 2.5e-3)]
    for big, small in zip(errors, errors[1:]):
        assert math.log2(big / small) > 1.8


# -- integrate ---------------------------------------------------------------

def test_integrate_linear_components(tri_am0):
    value = integrate(fn("t", "t", tri_am0))
    assert value.r == pytest.approx(0.5, abs=1e-12)
    assert value.q == pytest.approx(0.5, abs=1e-12)


def test_integrate_zero_function(tri_am0):
    assert integrate(fn("0", "0", tri_am0)) == LCFN.zero(tri_am0)


def test_integrate_cosine_arc(tri_am0):
    value = integrate(fn("cos(t)", "0", tri_am0, (0.0, math.pi)))
    assert abs(value.r) < 1e-10
    assert value.q == 0.0


def test_integrate_is_linear(tri_am0):
    spec = QuadratureSpec()
    f = fn("sin(t)", "t^2", tri_am0, (0.0, 2.0))
    g = fn("exp(t)", "cos(t)", tri_am0, (0.0, 2.0))
    rng = random.Random(9)
    for _ in range(10):
        lam = rng.uniform(-4, 4)
        lhs = integrate(f.plus(g, lam), spec)
        rhs = integrate(f, spec) + integrate(g, spec) * lam
        assert (lhs - rhs).norm() < 2 * spec.abs_tol * max(1.0, abs(lam))


# -- integrate_many ----------------------------------------------------------

def _sub_intervals(f):
    a, b = f.domain
    return [(a, b), (a, a + 0.3 * (b - a)), (a + 0.6 * (b - a), b),
            (a + 0.6 * (b - a), a + 0.61 * (b - a))]


@pytest.mark.parametrize("name", [s.name for s in load_catalog()])
def test_integrate_many_of_one_function_is_the_pair_run(name):
    # one function: its own (r, q) panel kernel, weights (1, 1 + |a_m|),
    # one qag run, as integrate ran before it became this case
    f = catalog_scenario(name).f
    weights = (1.0, 1.0 + abs(f.gen.a_m))
    panel = partial(ex.kernel("panel", f.r, f.q), None, weights)
    for lo, hi in _sub_intervals(f):
        want = LCFN(*qag(panel, lo, hi, SPEC, weights), f.gen)
        (got,) = integrate_many([f], SPEC, lo, hi)
        assert repr(got) == repr(want) == repr(integrate(f, SPEC, lo, hi))


def _leaf_errors(fs, lo, hi, monkeypatch):
    """The values of ``integrate_many(fs)`` and, for each function, the
    weighted K15 - G7 error of its own panels summed over the leaves of
    the one subdivision (the subintervals that were not bisected)."""
    calls, qag_ = [], calculus.qag

    def recording_qag(panel, *args):
        def run(center, half):
            calls.append((center, half))
            return panel(center, half)
        return qag_(run, *args)

    monkeypatch.setattr(calculus, "qag", recording_qag)
    values = integrate_many(fs, SPEC, lo, hi)
    # dyadic subintervals of [0, 1]: center -+ half gives their ends exactly
    intervals = {(center - half, center + half) for center, half in calls}
    leaves = [(a, b) for a, b in intervals
              if (a, 0.5 * (a + b)) not in intervals]
    weights = (1.0, 1.0 + abs(fs[0].gen.a_m))
    errors = []
    for f in fs:
        panel = partial(ex.kernel("panel", f.r, f.q), None, weights)
        errors.append(sum(panel(0.5 * (a + b), 0.5 * (b - a))[1]
                          for a, b in leaves))
    return values, errors


def test_integrate_many_keeps_each_functions_own_tolerance(tri_am0,
                                                           monkeypatch):
    # a huge integral, whose own relative tolerance 1e-12*|I| is near
    # 2e-8, beside a small one held to abs_tol = 1e-10: the stop takes the
    # smaller norm, so the small one stays within 1e-10 (the sum of the
    # norms would stop at an error of about 2e-10 on it)
    huge = fn("1e4*exp(t)", "1e4*t^3", tri_am0)
    small = fn("sin(20*t)", "cos(7*t)", tri_am0)
    exact = [(1e4 * math.expm1(1.0), 2500.0),
             ((1.0 - math.cos(20.0)) / 20.0, math.sin(7.0) / 7.0)]
    values, errors = _leaf_errors([huge, small], 0.0, 1.0, monkeypatch)
    for value, (r, q), error in zip(values, exact, errors):
        tolerance = max(SPEC.abs_tol, REL_TOL * (abs(r) + abs(q)))
        assert abs(value.r - r) + abs(value.q - q) <= tolerance
        assert error <= tolerance
    assert errors[1] <= SPEC.abs_tol < REL_TOL * (abs(values[0].r)
                                                  + abs(values[0].q))


def test_integrate_many_closed_forms_meet_their_tolerance(tri_am05):
    fs = [fn("t", "t^2", tri_am05), fn("exp(t)", "0", tri_am05),
          fn("cos(t)", "sin(3*t)", tri_am05), fn("1/(1 + t^2)", "1", tri_am05)]
    exact = [(0.5, 1.0 / 3.0), (math.expm1(1.0), 0.0),
             (math.sin(1.0), (1.0 - math.cos(3.0)) / 3.0),
             (math.pi / 4.0, 1.0)]
    for value, (r, q) in zip(integrate_many(fs), exact):
        assert (value - LCFN(r, q, tri_am05)).norm() <= SPEC.abs_tol


def test_integrate_many_names_the_first_non_finite_component(tri_am0):
    # the second function's r overflows to -inf and the third's q to
    # inf on [0, 1]: the message names the estimate met first
    fs = [fn("t", "t", tri_am0), fn("-1e308*10^(2 - t)", "t", tri_am0),
          fn("t", "1e308*10^(2 - t)", tri_am0)]
    with pytest.raises(NonFiniteIntegrand) as err:
        integrate_many(fs)
    assert str(err.value) == ("integrand not finite on [0.0, 1.0]: "
                              "subinterval [0.0, 1.0] estimates -inf")


def test_integrate_many_needs_one_generator_and_one_domain(tri_am0, tri_am05):
    f = fn("t", "t", tri_am0)
    with pytest.raises(GeneratorMismatch):
        integrate_many([f, fn("t", "t", tri_am05)])
    with pytest.raises(ValueError, match="share a domain"):
        integrate_many([f, fn("t", "t", tri_am0, (0.0, 2.0))])


def test_integrate_many_of_an_empty_interval_is_zero_per_function(tri_am0):
    # 1/t would raise at t = 0: no panel is read
    fs = [fn("t", "t", tri_am0), fn("1/t", "1", tri_am0)]
    assert integrate_many(fs, lo=0.0, hi=0.0) == [LCFN.zero(tri_am0)] * 2
    assert integrate_many([]) == []


def test_adaptive_and_gauss_legendre_agree():
    for target in (lambda t: math.sin(3 * t) * math.exp(t),
                   lambda t: 1.0 / (1.0 + t * t)):
        a = adaptive_simpson(target, 0.0, 2.0, 1e-12)
        k = integrate_scalar(target, 0.0, 2.0, QuadratureSpec(1e-12))
        g = gauss_legendre(target, 0.0, 2.0, 64)
        assert a == pytest.approx(g, abs=1e-11)
        assert k == pytest.approx(g, abs=1e-11)


def test_quadrature_nonconvergent():
    with pytest.raises(QuadratureNonConvergent):
        adaptive_simpson(lambda t: math.sin(50.0 / (t + 0.01)), 0.0, 1.0,
                         1e-14, max_depth=3)


def test_nonconvergent_message_names_caller_tolerance_and_intervals():
    with pytest.raises(QuadratureNonConvergent) as err:
        adaptive_simpson(math.sqrt, 0.0, 1.0, 1e-10, max_depth=40)
    assert str(err.value) == (
        f"tolerance 1e-10 not met on [0.0, 1.0]: leaf [0.0, {2.0 ** -40!r}] "
        "did not converge within max_depth=40")


def test_simpson_stops_at_its_evaluation_budget():
    # sin(1e9*t) would take billions of evaluations; the sentinel keeps a
    # missing budget from running for minutes
    count = 0

    def fn(t):
        nonlocal count
        count += 1
        if count > 2 * MAX_EVALS:
            raise AssertionError("no evaluation budget")
        return math.sin(1e9 * t)

    with pytest.raises(QuadratureNonConvergent) as err:
        adaptive_simpson(fn, 0.0, 1.0)
    assert count <= MAX_EVALS
    assert str(err.value) == (
        f"tolerance 1e-10 not met on [0.0, 1.0] within MAX_EVALS={MAX_EVALS} "
        "integrand evaluations")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_integrand_is_named_not_nonconvergent(value):
    # an overflowed integrand exhausts the depth like a slow one; the leaf
    # estimate tells them apart
    with pytest.raises(NonFiniteIntegrand) as err:
        adaptive_simpson(lambda t: value if t < 0.5 else t, 0.0, 1.0)
    assert isinstance(err.value, EvalError)
    assert str(err.value) == (
        f"integrand not finite on [0.0, 1.0]: leaf [0.0, {2.0 ** -40!r}] "
        f"estimates {value!r}")


def test_cumulative_integral_matches_closed_form(tri_am0):
    f = fn("t", "t", tri_am0)
    cumulative = CumulativeIntegral(f)
    for t in (0.0, 0.25, 0.333, 0.5, 1.0):
        value = cumulative.at(t)
        assert value.r == pytest.approx(t * t / 2, abs=1e-10)
        assert value.q == pytest.approx(t * t / 2, abs=1e-10)
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(OutsideDomain):
            cumulative.at(t)


# -- checkers -----------------------------------------------------------------

def test_ftc_examples(tri_am0):
    assert ftc_check(fn("sin(t)", "t^2", tri_am0)).passed
    constant = ftc_check(fn("3", "-1", tri_am0))
    assert constant.passed and constant.residuals["endpoint"] == 0.0
    assert ftc_check(fn("exp(t)", "log(1 + t)", tri_am0, (0.0, 2.0))).passed


@pytest.mark.parametrize("domain, t, h", [
    # h = 0.05*(b - a) is 0.0: the window average divided by zero
    ((0.0, 5e-324), 0.0, 0.0),
    # h = 3e-4 is below half an ulp of t: the window is the point t and
    # its average was 0, so spot_max read |f(t)| where the FTC holds
    ((1e14, 100000000000001.0), 100000000000000.2, 3e-4),
    ((1e300, 1.0000000000000002e300), 1e300, 3e-4),
], ids=["h-zero", "1e14", "1e300"])
def test_ftc_refuses_a_spot_window_that_is_a_point(tri_am0, domain, t, h):
    with pytest.raises(WindowOutsideDomain) as err:
        ftc_check(fn("t", "1", tri_am0, domain))
    assert str(err.value) == (f"FTC spot window of h={h!r} at t={t!r} is a "
                              "single point: t - h is not below t + h")


def s08_fn(r, q):
    """r + q*A on [0, 1] over the generator of scenario s08."""
    return fn(r, q, catalog_scenario("s08_parabola_min").gen)


def test_ftc_fails_on_an_integral_residual_alone():
    # the integral of sign' = 0 is 0, not sign(1/2) - sign(-1/2) = 2,
    # while each spot window of sign averages to its value
    report = ftc_check(s08_fn("sign(t - 0.5)", "0"))
    assert not report.passed
    assert report.residuals["endpoint"] == 2.0
    assert report.residuals["spot_max"] < 1e-12


def test_ftc_fails_on_a_spot_residual_alone():
    # the endpoint identity holds, but the window of width 2h around the
    # kink of abs averages to h/2 = 1.5e-4, not abs(0) = 0
    report = ftc_check(s08_fn("abs(t - 0.5)", "t"))
    assert not report.passed
    assert report.residuals["endpoint"] == 0.0
    assert report.residuals["spot_max"] == pytest.approx(1.5e-4, rel=1e-6)


def test_ibp_fails_across_a_jump():
    # f = sign jumps by 2 at 1/2, which f' = 0 does not see: the identity
    # is off by f's jump times g(1/2) = 1/2, so by 1
    report = ibp_check(s08_fn("sign(t - 0.5)", "t"), s08_fn("t", "0"))
    assert not report.passed
    assert report.residuals["identity"] == pytest.approx(1.0, rel=1e-9)


def test_square_integral_fails_on_a_route_gap_alone():
    # c^2 = (sign(t - 0.3) + 1)^2 jumps from 0 to 4 at 0.3: the adaptive
    # route finds 2.8, the fixed Gauss-Legendre rule misses by 0.04
    value, report = square_integral(s08_fn("sign(t - 0.3) + 1", "0"))
    assert not report.passed
    assert value.center() == pytest.approx(2.8, abs=1e-9)
    assert report.residuals["route_gap"] == pytest.approx(0.0402, abs=1e-4)


def test_square_integral_fails_on_a_negative_center_alone(tri_am0,
                                                          monkeypatch):
    # both routes agree on a center below -abs_tol, which a square's
    # integral cannot have: only the positivity half can fail it
    negative = -10.0 * SPEC.abs_tol
    monkeypatch.setattr(calculus, "integrate",
                        lambda f, spec: LCFN(negative, 0.0, f.gen))
    monkeypatch.setattr(calculus, "gauss_legendre", lambda *args: negative)
    _, report = square_integral(fn("t", "0", tri_am0))
    assert report.residuals["route_gap"] == 0.0
    assert not report.passed


@pytest.mark.parametrize("eps0, passed", [(1.00005, False), (1.5, True)])
def test_interchange_fails_across_a_kink_in_eps(eps0, passed):
    # at 1.00005 the central difference in eps straddles the kink of
    # |eps - 1| at 1 and reads 0.25, the symbolic partial 0.5
    g = FuzzyFunction.from_strings(
        "abs(eps - 1)*t", "t", catalog_scenario("s08_parabola_min").gen,
        (0.0, 1.0), two_variable=True)
    report = interchange_check(g, eps0)
    assert report.passed is passed
    assert report.residuals["rhs_r"] == pytest.approx(0.5, abs=1e-12)
    if not passed:
        assert report.residuals["norm"] == pytest.approx(0.25, abs=1e-4)


def product_rule_residual(f, g, t):
    """The norm of (f*g)'(t) - (f(t)*g'(t) + f'(t)*g(t)), each side from
    the symbolic derivatives."""
    lhs = deriv(f.cross_with(g), t)
    rhs = f.at(t).cross(deriv(g, t)) + deriv(f, t).cross(g.at(t))
    return (lhs - rhs).norm()


def test_product_rule_examples(tri_am0):
    f = fn("t", "1", tri_am0)
    g = fn("1", "t", tri_am0)
    assert product_rule_residual(f, g, 0.7) < 1e-8

    constant = fn("2", "0", tri_am0)
    h = fn("sin(t)", "t", tri_am0)
    assert product_rule_residual(constant, h, 0.3) < 1e-8


def test_ibp_example(tri_am0):
    f = fn("sin(t)", "t", tri_am0)
    g = fn("cos(t)", "1", tri_am0)
    report = ibp_check(f, g)
    assert report.passed and report.residuals["identity"] < 1e-8


def test_square_integral_center_zero(tri_am05):
    f = fn("t", "-2*t", tri_am05)
    value, report = square_integral(f)
    assert report.passed
    assert value.center() == 0.0
    assert report.residuals["center"] <= report.tolerance  # zero class


def test_square_integral_zero_function(tri_am0):
    value, report = square_integral(fn("0", "0", tri_am0))
    assert value == LCFN.zero(tri_am0) and report.passed


def test_square_integral_constant(tri_am0):
    value, report = square_integral(fn("1", "0", tri_am0))
    assert value.r == pytest.approx(1.0, abs=1e-10)
    assert value.q == 0.0
    assert report.passed
    assert not report.residuals["center"] <= report.tolerance


def test_square_integral_tiny_center_is_zero_class(tri_am0):
    # c = 1e-6 everywhere: the integral of c^2 is 1e-12, inside the
    # tolerance, so the L^2 reading puts it in the zero class
    value, report = square_integral(fn("1e-6", "0", tri_am0))
    assert report.passed
    assert value.center() == pytest.approx(1e-12, rel=1e-12)
    assert report.residuals["center"] <= report.tolerance


def test_square_integral_zero_class_over_catalog():
    zero_class = set()
    for scenario in load_catalog():
        _, report = square_integral(scenario.f)
        assert report.passed, scenario.name
        if report.residuals["center"] <= report.tolerance:
            zero_class.add(scenario.name)
    assert zero_class == {"s03_center_zero_line", "s12_reconstruction_gap"}


def test_square_integral_two_route_consistency(tri_am05):
    f = fn("sin(t)", "cos(t)", tri_am05, (0.0, 2.0))
    _, report = square_integral(f)
    assert report.residuals["route_gap"] <= QuadratureSpec().abs_tol


def test_interchange_closed_form(tri_am0):
    g = FuzzyFunction.from_strings("t * eps", "eps^2", tri_am0, (0.0, 1.0),
                                   two_variable=True)
    report = interchange_check(g, 1.0)
    assert report.passed
    assert report.residuals["lhs_r"] == pytest.approx(0.5, abs=1e-6)
    assert report.residuals["lhs_q"] == pytest.approx(2.0, abs=1e-6)
    assert report.residuals["rhs_r"] == pytest.approx(0.5, abs=1e-10)
    assert report.residuals["rhs_q"] == pytest.approx(2.0, abs=1e-10)


def test_interchange_eps_independent(tri_am0):
    g = FuzzyFunction.from_strings("sin(t)", "t", tri_am0, (0.0, 1.0),
                                   two_variable=True)
    report = interchange_check(g, 0.3)
    assert report.passed
    assert abs(report.residuals["lhs_r"]) < 1e-6
    assert abs(report.residuals["rhs_r"]) < 1e-12


def test_interchange_oscillatory(tri_am0):
    g = FuzzyFunction.from_strings("sin(t * eps)", "0", tri_am0, (0.0, 1.0),
                                   two_variable=True)
    assert interchange_check(g, 0.5).passed


def test_interchange_requires_two_variable_function(tri_am0):
    with pytest.raises(ValueError):
        interchange_check(fn("t", "t", tri_am0), 1.0)


@pytest.mark.parametrize("combine", ["plus", "cross_with"])
def test_combined_functions_stay_two_variable(tri_am0, combine):
    f = FuzzyFunction.from_strings("t * eps", "eps", tri_am0, (0.0, 1.0),
                                   two_variable=True)
    for left, right in ((f, f), (f, fn("t", "t", tri_am0, (0.0, 1.0)))):
        g = getattr(left, combine)(right)
        assert g.eps_aware
        assert interchange_check(g, 1.0).passed


@pytest.mark.parametrize("eps0", [math.nan, math.inf, -math.inf])
def test_interchange_rejects_non_finite_eps0(tri_am0, eps0):
    g = FuzzyFunction.from_strings("t * eps", "t", tri_am0, (0.0, 1.0),
                                   two_variable=True)
    with pytest.raises(ValueError, match=f"eps0 must be finite, got {eps0!r}"):
        interchange_check(g, eps0)


# -- scenario catalog ----------------------------------------------------------

def test_catalog_has_twelve_scenarios():
    names = catalog_names()
    assert len(names) == 12
    scenarios = load_catalog()
    assert all(s.partner is not None for s in scenarios)


def test_catalog_scenario_lookup():
    scenario = catalog_scenario("s03_center_zero_line")
    assert scenario.gen.a_m == 0.5
    assert scenario.domain == (0.0, 1.0)
    value, report = square_integral(scenario.f)
    assert value.center() == 0.0 and report.passed


def test_product_rule_across_catalog():
    for scenario in load_catalog():
        a, b = scenario.domain
        residual = product_rule_residual(scenario.f, scenario.partner,
                                         a + 0.37 * (b - a))
        assert residual < 1e-8, scenario.name
