"""Componentwise derivative/integral and the calculus theorem checkers."""
import math
import random

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
    product_rule_check,
    square_integral,
)
from lcfn.errors import (
    EvalError,
    NonFiniteIntegrand,
    OutsideDomain,
    QuadratureNonConvergent,
)
from lcfn.quadrature import adaptive_simpson, gauss_legendre
from lcfn.scenarios import catalog_names, catalog_scenario, load_catalog


def fn(r, q, gen, domain=(0.0, 1.0)):
    return FuzzyFunction.from_strings(r, q, gen, domain)


def limit_quotient(f, t, h):
    """Central difference quotient (f(t+h) - f(t-h)) / 2h, to compare
    deriv() against the limit definition in the norm."""
    return (f.at(t + h) - f.at(t - h)).scaled(1.0 / (2.0 * h))


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


def test_adaptive_and_gauss_legendre_agree():
    for target in (lambda t: math.sin(3 * t) * math.exp(t),
                   lambda t: 1.0 / (1.0 + t * t)):
        a = adaptive_simpson(target, 0.0, 2.0, 1e-12)
        g = gauss_legendre(target, 0.0, 2.0, 64)
        assert a == pytest.approx(g, abs=1e-11)


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


def test_product_rule_examples(tri_am0):
    f = fn("t", "1", tri_am0)
    g = fn("1", "t", tri_am0)
    report = product_rule_check(f, g, 0.7)
    assert report.passed and report.residuals["pointwise"] < 1e-8

    constant = fn("2", "0", tri_am0)
    h = fn("sin(t)", "t", tri_am0)
    assert product_rule_check(constant, h, 0.3).passed


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
    assert report.residuals["grid_violation_fraction"] == 0.0


def test_square_integral_zero_function(tri_am0):
    value, report = square_integral(fn("0", "0", tri_am0))
    assert value == LCFN.zero(tri_am0) and report.passed


def test_square_integral_constant(tri_am0):
    value, report = square_integral(fn("1", "0", tri_am0))
    assert value.r == pytest.approx(1.0, abs=1e-10)
    assert value.q == 0.0
    assert report.passed
    assert report.residuals["grid_violation_fraction"] == 1.0


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
        report = product_rule_check(scenario.f, scenario.partner,
                                    a + 0.37 * (b - a))
        assert report.passed, scenario.name
