"""Critical points, mollifier kernels, and the variational harnesses."""
import math

import pytest

from lcfn import (
    DiracKernel,
    FuzzyFunction,
    Verdict,
    critical_points,
    dbr_forward_check,
    dbr_reconstruct,
    default_eta_catalog,
    lagrange_scan,
    lagrange_witness,
    mollifier_recovery,
    verify_local_order,
    witness_sequence,
)
from lcfn.errors import (
    CatalogBoundaryViolation,
    WindowOutsideDomain,
    ZeroCenterAtT0,
)
from lcfn.quadrature import QuadratureSpec, adaptive_simpson
from lcfn.scenarios import catalog_scenario
from lcfn import expr as ex


def fn(r, q, gen, domain=(0.0, 1.0)):
    return FuzzyFunction.from_strings(r, q, gen, domain)


# -- critical points -------------------------------------------------------

def test_parabola_local_min(tri_am1):
    f = fn("t^2", "t", tri_am1, (-2.0, 1.0))
    points = critical_points(f)
    assert len(points) == 1
    cp = points[0]
    assert cp.t_star == pytest.approx(-0.5, abs=1e-10)
    assert abs(cp.center_d1) <= 1e-10
    assert cp.center_d2 == pytest.approx(2.0, abs=1e-6)
    assert cp.verdict is Verdict.LOCAL_MIN


def test_negated_parabola_local_max(tri_am0):
    f = fn("-t^2", "0", tri_am0, (-1.0, 1.0))
    points = critical_points(f)
    assert len(points) == 1
    assert points[0].t_star == pytest.approx(0.0, abs=1e-10)
    assert points[0].verdict is Verdict.LOCAL_MAX


def test_cubic_inconclusive(tri_am0):
    # the derivative grazes zero without a sign change
    f = fn("t^3", "0", tri_am0, (-1.0, 1.0))
    points = critical_points(f)
    assert len(points) == 1
    assert points[0].t_star == pytest.approx(0.0, abs=1e-9)
    assert points[0].verdict is Verdict.INCONCLUSIVE


def test_multiple_critical_points(tri_am0):
    f = fn("sin(t)", "0", tri_am0, (0.0, 8.0))  # extrema at pi/2, 3pi/2, 5pi/2
    points = critical_points(f)
    assert [p.verdict for p in points] == [Verdict.LOCAL_MAX, Verdict.LOCAL_MIN,
                                           Verdict.LOCAL_MAX]
    assert points[0].t_star == pytest.approx(math.pi / 2, abs=1e-10)
    assert points[1].t_star == pytest.approx(3 * math.pi / 2, abs=1e-10)


def test_no_critical_points(tri_am0):
    assert critical_points(fn("t", "0", tri_am0)) == ()


def test_verify_local_order_min(tri_am1):
    f = fn("t^2", "t", tri_am1, (-2.0, 1.0))
    cp = critical_points(f)[0]
    report = verify_local_order(f, cp, radius=0.1, n=200)
    assert report.passed and report.checked == 200
    # globally convex center: no violations even far outside the basin
    wide = verify_local_order(f, cp, radius=1.0, n=100)
    assert wide.passed


def test_verify_local_order_inconclusive(tri_am0):
    f = fn("t^3", "0", tri_am0, (-1.0, 1.0))
    cp = critical_points(f)[0]
    report = verify_local_order(f, cp, radius=0.1, n=50)
    assert report.claim == "none" and report.checked == 0 and report.passed


def test_verify_local_order_catches_wrong_claim(tri_am0):
    from lcfn.variational import CriticalPoint
    f = fn("t^2", "0", tri_am0, (-1.0, 1.0))
    wrong = CriticalPoint(0.0, 0.0, 2.0, Verdict.LOCAL_MAX)
    report = verify_local_order(f, wrong, radius=0.1, n=50)
    assert not report.passed and report.first_violation is not None


# -- mollifier kernel --------------------------------------------------------

def wallis_mass(epsilon, power):
    return 2.0 * epsilon * math.comb(2 * power, power) / 4.0 ** power


@pytest.mark.parametrize("epsilon,smoothness,index", [
    (0.5, 1, 1), (0.2, 1, 4), (0.3, 2, 3), (0.5, 1, 16), (1.0, 0, 2),
])
def test_kernel_mass_matches_closed_form(epsilon, smoothness, index):
    kernel = DiracKernel.build(epsilon, smoothness, index)
    power = (smoothness + 1) * index
    assert kernel.mass_norm == pytest.approx(wallis_mass(epsilon, power),
                                             rel=1e-10)
    mass = adaptive_simpson(kernel, -epsilon, epsilon, 1e-12)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_kernel_shape():
    kernel = DiracKernel.build(0.5, 1, 2)
    assert kernel(0.5) == 0.0 and kernel(-0.5) == 0.0 and kernel(0.7) == 0.0
    assert kernel(0.0) > kernel(0.1) > kernel(0.3) > 0.0
    for x in (0.05, 0.17, 0.31, 0.493):
        assert kernel(x) == kernel(-x)


def test_kernel_expression_matches_callable():
    kernel = DiracKernel.build(0.3, 1, 4)
    tree = kernel.expression(1.0)
    for t in (0.75, 0.9, 1.0, 1.12, 1.29):
        assert ex.evaluate(tree, t) == pytest.approx(kernel(t - 1.0), rel=1e-12)


def test_kernel_smoothness_order_vanishing():
    # first `smoothness` derivatives of the expression vanish at the edges
    kernel = DiracKernel.build(0.4, 2, 1)
    tree = kernel.expression(0.0)
    edge = 0.4 - 1e-9  # just inside; the expression is only valid there
    value = ex.evaluate(tree, edge)
    d1 = ex.evaluate(ex.differentiate(tree, "t", 1), edge)
    d2 = ex.evaluate(ex.differentiate(tree, "t", 2), edge)
    assert abs(value) < 1e-15 and abs(d1) < 1e-5 and abs(d2) < 1e-2


def test_kernel_concentrates():
    # integrating a fixed smooth function against the kernels approaches
    # its value at the center, monotonically over the index ladder
    errors = []
    for index in (1, 2, 4, 8, 16):
        kernel = DiracKernel.build(0.5, 1, index)
        value = adaptive_simpson(lambda x: math.exp(x) * kernel(x),
                                 -0.5, 0.5, 1e-12)
        errors.append(abs(value - 1.0))
    assert all(big > small for big, small in zip(errors, errors[1:]))
    assert errors[-1] < 0.01


def test_kernel_rejects_bad_params():
    with pytest.raises(ValueError):
        DiracKernel.build(0.0, 1, 1)
    with pytest.raises(ValueError):
        DiracKernel.build(0.5, 1, 0)


# -- Lagrange witness ---------------------------------------------------------

def test_witness_constant_function(tri_am0):
    f = fn("1", "0", tri_am0)
    results = witness_sequence(f, 0.5, epsilon=0.2, smoothness=1)
    bs = [w.b_k for w in results]
    assert all(abs(b - 1.0) < 0.05 for b in bs)
    assert abs(bs[-1] - 1.0) < 1e-8  # constant center: no smoothing error
    assert results[-1].limit == 1.0


def test_witness_linear_function(tri_am0):
    f = fn("t", "0", tri_am0)
    results = witness_sequence(f, 0.5, epsilon=0.2, smoothness=1)
    assert results[-1].limit == 0.25
    assert abs(results[-1].b_k - 0.25) < 0.01
    # smoothing error shrinks along the ladder
    errs = [abs(w.b_k - 0.25) for w in results]
    assert errs[0] > errs[-1]


def test_witness_two_routes_agree(tri_am0):
    f = fn("sin(t)", "cos(t)", tri_am0, (0.5, 2.5))
    w = lagrange_witness(f, 1.5, epsilon=0.2, index=4)
    assert w.b_k == pytest.approx(w.b_direct, abs=1e-9)


def test_witness_window_clamped(tri_am0):
    f = fn("1", "0", tri_am0)
    w = lagrange_witness(f, 0.1, epsilon=0.2, index=1)
    assert w.epsilon == pytest.approx(0.45 * 0.1)
    lo, hi = w.eta.domain
    assert lo == pytest.approx(0.1 - w.epsilon)
    assert hi == pytest.approx(0.1 + w.epsilon)


def test_witness_zero_center_rejected(tri_am05):
    f = fn("t", "-2*t", tri_am05)
    for t0 in (0.25, 0.5, 0.8046875):
        with pytest.raises(ZeroCenterAtT0):
            lagrange_witness(f, t0)


def test_witness_outside_domain_rejected(tri_am0):
    f = fn("1", "0", tri_am0)
    with pytest.raises(WindowOutsideDomain):
        lagrange_witness(f, 0.0)
    with pytest.raises(WindowOutsideDomain):
        lagrange_witness(f, 1.2)


def test_mollifier_recovery(tri_am0):
    scenario = catalog_scenario("s06_recovery_window")
    recovered, exact = mollifier_recovery(scenario.f, 1.5, epsilon=0.2,
                                          index=16)
    assert recovered.r == pytest.approx(math.sin(1.5), abs=0.05)
    assert recovered.q == pytest.approx(math.cos(1.5), abs=0.05)
    assert (exact.r, exact.q) == (math.sin(1.5), math.cos(1.5))


def test_lagrange_scan_recovery_scenario():
    scenario = catalog_scenario("s06_recovery_window")
    report = lagrange_scan(scenario.f, epsilon=0.2, grid=5)
    assert report.passed
    assert report.residuals["max_recovery_error"] < 0.05
    assert all(r["admissible"] for r in report.records)


def test_lagrange_scan_zero_function(tri_am0):
    report = lagrange_scan(fn("0", "0", tri_am0), grid=3)
    assert report.passed
    assert all(not r["admissible"] for r in report.records)


def test_lagrange_scan_center_zero_scenario():
    scenario = catalog_scenario("s03_center_zero_line")
    report = lagrange_scan(scenario.f, grid=3)
    assert report.passed  # no admissible witness points; recovery still holds
    assert all(not r["admissible"] for r in report.records)


# -- du Bois-Reymond ------------------------------------------------------------

def test_dbr_forward_on_derivative_pair():
    scenario = catalog_scenario("s09_dbr_pair")
    report = dbr_forward_check(scenario.f, scenario.partner)
    assert report.passed
    assert report.residuals["max"] < 1e-7
    assert len(report.records) == 8


def test_dbr_forward_detects_perturbation():
    scenario = catalog_scenario("s10_dbr_perturbed")
    report = dbr_forward_check(scenario.f, scenario.partner)
    assert not report.passed
    assert max(r["residual"] for r in report.records) > 1e-3


def test_dbr_forward_constant_pair(tri_am0):
    report = dbr_forward_check(fn("0", "0", tri_am0), fn("2", "-1", tri_am0))
    assert report.passed
    assert report.residuals["max"] < 1e-10


def test_dbr_catalog_boundary_enforced(tri_am0):
    bad = fn("cos(t)", "0", tri_am0)  # cos(0) = 1 at the left endpoint
    with pytest.raises(CatalogBoundaryViolation):
        dbr_forward_check(fn("0", "0", tri_am0), fn("1", "0", tri_am0),
                          catalog=(bad,))


def test_default_catalog_vanishes_at_endpoints(tri_am0):
    for eta in default_eta_catalog(tri_am0, (0.25, 2.0)):
        for endpoint in (0.25, 2.0):
            value = eta.at(endpoint)
            assert abs(value.r) < 1e-12 and abs(value.q) < 1e-12


def test_dbr_reconstruct_constant(tri_am0):
    result = dbr_reconstruct(fn("2", "-1", tri_am0), grid=17)
    assert result.u.r == pytest.approx(2.0, abs=2e-10)
    assert result.u.q == pytest.approx(-1.0, abs=2e-10)
    assert result.max_center_residual < 2e-10
    assert result.max_coord_residual < 2e-10


def test_dbr_reconstruct_linear(tri_am0):
    result = dbr_reconstruct(fn("t", "0", tri_am0), grid=17)
    assert result.u.r == pytest.approx(0.5, abs=1e-10)
    t0, center0, _ = result.residual_grid[0]
    assert t0 == 0.0 and center0 == pytest.approx(-0.5, abs=1e-10)


def test_dbr_reconstruct_gap_scenario():
    # center-zero but nonconstant: in the zero class everywhere, far from
    # constant in coordinates; the two residuals must separate
    scenario = catalog_scenario("s12_reconstruction_gap")
    result = dbr_reconstruct(scenario.f, grid=65)
    assert result.max_center_residual < 1e-9
    assert result.max_coord_residual > 0.5


def test_dbr_reconstruct_g_tilde(tri_am0):
    f = fn("cos(t)", "2*t", tri_am0, (0.0, 2.0))
    result = dbr_reconstruct(f, grid=33)
    a = 0.0
    assert result.g_tilde(a) == result.u  # F(a) = 0
    # g_tilde differentiates back to f (central difference)
    h = 1e-5
    t = 1.2
    approx = (result.g_tilde(t + h) - result.g_tilde(t - h)).scaled(1 / (2 * h))
    assert (approx - f.at(t)).norm() < 1e-5


def test_catalog_extrema_respect_order_definition():
    # every decided verdict must survive the order-based check
    from lcfn.scenarios import load_catalog
    decided = 0
    for scenario in load_catalog():
        for cp in critical_points(scenario.f):
            if cp.verdict is Verdict.INCONCLUSIVE:
                continue
            decided += 1
            assert verify_local_order(scenario.f, cp, radius=1e-3,
                                      n=100).passed, scenario.name
    assert decided >= 3  # the catalog does contain decided extrema


def test_catalog_witnesses_eventually_positive():
    from lcfn.scenarios import load_catalog
    for scenario in load_catalog():
        a, b = scenario.domain
        for u in (0.3, 0.62):
            t0 = a + u * (b - a)
            value = scenario.f.at(t0)
            if abs(value.center()) < 1e-3:
                continue
            w = lagrange_witness(scenario.f, t0, epsilon=0.2, index=8)
            assert w.b_k > 0.0, (scenario.name, t0)


def test_dbr_residual_scales_with_quadrature_tolerance():
    scenario = catalog_scenario("s09_dbr_pair")
    for tol in (1e-4, 1e-7, 1e-10):
        report = dbr_forward_check(scenario.f, scenario.partner,
                                   spec=QuadratureSpec(abs_tol=tol),
                                   tolerance=10 * tol)
        assert report.residuals["max"] <= 10 * tol


def test_newton_polish_flag(tri_am1):
    f = fn("t^2", "t", tri_am1, (-2.0, 1.0))
    polished = critical_points(f, newton_polish=True)
    assert len(polished) == 1
    assert abs(polished[0].center_d1) <= 1e-12
    assert polished[0].t_star == pytest.approx(-0.5, abs=1e-12)
