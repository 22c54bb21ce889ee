"""Critical points, mollifier kernels, and the variational harnesses."""
import math
import random

import pytest

from lcfn import (
    DiracKernel,
    FuzzyFunction,
    Generator,
    Verdict,
    critical_points,
    dbr_forward_check,
    dbr_reconstruct,
    default_eta_catalog,
    integrate,
    lagrange_point,
    lagrange_scan,
    verify_local_order,
)
from lcfn.calculus import integrate_many
from lcfn.errors import CatalogBoundaryViolation, WindowOutsideDomain
from lcfn.quadrature import QuadratureSpec, adaptive_simpson
from lcfn.calculus import MAX_GRID_NODES, node_grid
from lcfn.scenarios import catalog_scenario, load_catalog
from lcfn.variational import (
    RECONSTRUCT_GRID,
    CriticalPoint,
    LocalOrderReport,
    ReconstructionResult,
)
from lcfn import LCFN, expr as ex, variational
from conftest import assert_frozen_value
from oracles import b_direct, kernel_value, reconstruction_rows
import oracles


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


def _seeded_centers(seed, count=8):
    """Quadratic and trigonometric (r, q, domain) triples on seeded
    coefficients, the kinds of center the checkers scan."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(-3.0, 1.0)
        b = a + rng.uniform(0.5, 4.0)
        m, c, d = rng.uniform(a, b), rng.uniform(-4.0, 4.0), rng.uniform(-2, 2)
        out.append((f"{c!r}*(t - {m!r})^2 + {d!r}*t", f"{d!r}*t", (a, b)))
        w, phi = rng.uniform(0.5, 9.0), rng.uniform(0.0, 6.0)
        out.append((f"{c!r}*sin({w!r}*t + {phi!r})", f"{d!r}*cos({w!r}*t)",
                    (a, b)))
    return out


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_critical_points_match_the_reference_scan_on_seeded_centers(
        tri_am05, seed):
    for r, q, domain in _seeded_centers(seed):
        f = fn(r, q, tri_am05, domain)
        assert repr(critical_points(f)) == repr(oracles.critical_points(f)), \
            (r, q, domain)


def test_critical_points_match_the_reference_scan_over_catalog():
    # s03 and s12 have a zero center derivative: 1,022 inconclusive points
    inconclusive = 0
    for scenario in load_catalog():
        got = critical_points(scenario.f)
        assert repr(got) == repr(oracles.critical_points(scenario.f)), \
            scenario.name
        inconclusive += sum(p.verdict is Verdict.INCONCLUSIVE for p in got)
    assert inconclusive >= 2 * 1022


@pytest.mark.parametrize("r, domain, grid", [
    # g' = 2*(t - 511) is zero at a node of the grid of integers
    ("(t - 511)^2", (0.0, 1023.0), 1024),
    # the root of g' lies between the last two nodes
    ("(t - 0.9999)^2", (0.0, 1.0), 1024),
    # g' = 3*t^2 touches zero between nodes, and at a node
    ("t^3", (-1.0, 1.0), 1024),
    ("t^3", (-1.0, 1.0), 1025),
    ("(t - 0.3)^2", (0.0, 1.0), 2),
    ("sin(40*t)", (0.0, 3.0), MAX_GRID_NODES),
], ids=["zero-at-node", "last-interval", "touching", "touching-at-node",
        "grid-2", "largest-grid"])
def test_critical_points_match_the_reference_scan_on_edges(tri_am0, r,
                                                           domain, grid):
    f = fn(r, "0", tri_am0, domain)
    got = critical_points(f, grid)
    assert repr(got) == repr(oracles.critical_points(f, grid))
    assert got  # each edge case has a critical point to find


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


@pytest.mark.parametrize("radius, n, message", [
    (0.0, 50, "radius must be finite and positive, got 0.0"),
    (-0.1, 50, "radius must be finite and positive, got -0.1"),
    (math.nan, 50, "radius must be finite and positive, got nan"),
    (math.inf, 50, "radius must be finite and positive, got inf"),
    (-math.inf, 50, "radius must be finite and positive, got -inf"),
    (0.1, 0, "local-order check needs n >= 1, got 0"),
    (0.1, -3, "local-order check needs n >= 1, got -3"),
    # valid arguments with no sample but t* in [0, 1]: the one sample is
    # t*, the samples round to t*, or they lie off the domain
    (0.1, 1, "no sample other than t*=0.5 lies in the domain [0.0, 1.0] "
             "for radius=0.1 and n=1"),
    (1e-300, 4, "no sample other than t*=0.5 lies in the domain [0.0, 1.0] "
                "for radius=1e-300 and n=4"),
    (5.0, 2, "no sample other than t*=0.5 lies in the domain [0.0, 1.0] "
             "for radius=5.0 and n=2"),
])
def test_verify_local_order_refuses_a_vacuous_check(tri_am0, radius, n,
                                                    message):
    # each of these once passed with checked == 0, sampling nothing
    f = fn("(t-0.5)^2", "0", tri_am0, (0.0, 1.0))
    cp = critical_points(f)[0]
    assert cp.verdict is Verdict.LOCAL_MIN
    with pytest.raises(ValueError) as err:
        verify_local_order(f, cp, radius, n)
    assert str(err.value) == message


# -- mollifier kernel --------------------------------------------------------

def wallis_mass(epsilon, power):
    # integers divided first: C(2n, n) and 4**n as floats overflow from n ~ 512
    return 2.0 * epsilon * (math.comb(2 * power, power) / 4 ** power)


@pytest.mark.parametrize("epsilon,smoothness,index", [
    (0.5, 1, 1), (0.2, 1, 4), (0.3, 2, 3), (0.5, 1, 16), (1.0, 0, 2),
    (0.2, 1, 300),
])
def test_kernel_mass_matches_closed_form(epsilon, smoothness, index):
    kernel = DiracKernel.build(epsilon, smoothness, index)
    power = (smoothness + 1) * index
    assert kernel.mass_norm == pytest.approx(wallis_mass(epsilon, power),
                                             rel=1e-10)
    mass = adaptive_simpson(lambda x: kernel_value(kernel, x), -epsilon,
                            epsilon, 1e-12)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_kernel_shape():
    kernel = DiracKernel.build(0.5, 1, 2)

    def value(x):
        return kernel_value(kernel, x)

    assert value(0.5) == 0.0 and value(-0.5) == 0.0 and value(0.7) == 0.0
    assert value(0.0) > value(0.1) > value(0.3) > 0.0
    for x in (0.05, 0.17, 0.31, 0.493):
        assert value(x) == value(-x)


def test_kernel_expression_matches_callable():
    kernel = DiracKernel.build(0.3, 1, 4)
    tree = kernel.expression(1.0)
    for t in (0.75, 0.9, 1.0, 1.12, 1.29):
        assert ex.evaluate(tree, t) == pytest.approx(
            kernel_value(kernel, t - 1.0), rel=1e-12)


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
        value = adaptive_simpson(
            lambda x: math.exp(x) * kernel_value(kernel, x), -0.5, 0.5, 1e-12)
        errors.append(abs(value - 1.0))
    assert all(big > small for big, small in zip(errors, errors[1:]))
    assert errors[-1] < 0.01


def test_kernel_rejects_bad_params():
    with pytest.raises(ValueError):
        DiracKernel.build(0.0, 1, 1)
    with pytest.raises(ValueError):
        DiracKernel.build(0.5, 1, 0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -0.1])
def test_kernel_rejects_epsilon_that_is_not_finite_positive(epsilon):
    with pytest.raises(ValueError, match=f"got {epsilon!r}"):
        DiracKernel.build(epsilon, 1, 1)


def test_kernel_power_is_bounded_before_the_big_integers(monkeypatch):
    # C(2n, n)/4^n costs about 4x per doubling of n (28 s at n = 800,000),
    # so an n above MAX_KERNEL_POWER is refused before any of it
    powers = []
    monkeypatch.setattr(variational, "_wallis",
                        lambda n: powers.append(n) or 0.5)
    limit = variational.MAX_KERNEL_POWER
    assert DiracKernel.build(0.2, 1, limit // 2).power == limit
    for smoothness, index in ((1, limit // 2 + 1), (0, limit + 1),
                              (1, 10 ** 6)):
        n = (smoothness + 1) * index
        with pytest.raises(ValueError) as err:
            DiracKernel.build(0.2, smoothness, index)
        assert str(err.value) == (f"kernel power n = (l+1)*k = {n} is above "
                                  f"MAX_KERNEL_POWER={limit}")
    assert powers == [limit]


def test_lagrange_harnesses_reject_nan_epsilon():
    f = catalog_scenario("s06_recovery_window").f
    for run in (lambda: lagrange_point(f, 1.5, epsilon=math.nan),
                lambda: lagrange_scan(f, epsilon=math.nan, grid=1)):
        with pytest.raises(ValueError, match="got nan"):
            run()


# -- Lagrange witness ---------------------------------------------------------

def test_witness_constant_function(tri_am0):
    f = fn("1", "0", tri_am0)
    point = lagrange_point(f, 0.5, epsilon=0.2, smoothness=1)
    bs = point["b"]
    assert all(abs(b - 1.0) < 0.05 for b in bs)
    assert abs(bs[-1] - 1.0) < 1e-8  # constant center: no smoothing error
    assert point["limit"] == 1.0


def test_witness_linear_function(tri_am0):
    f = fn("t", "0", tri_am0)
    point = lagrange_point(f, 0.5, epsilon=0.2, smoothness=1)
    assert point["limit"] == 0.25
    assert abs(point["b"][-1] - 0.25) < 0.01
    # smoothing error shrinks along the ladder
    errs = [abs(b - 0.25) for b in point["b"]]
    assert errs[0] > errs[-1]


def test_witness_two_routes_agree(tri_am0):
    f = fn("sin(t)", "cos(t)", tri_am0, (0.5, 2.5))
    b_k, = lagrange_point(f, 1.5, epsilon=0.2, indices=(4,))["b"]
    assert b_k == pytest.approx(b_direct(f, 1.5, 0.2, 4, QuadratureSpec()),
                                abs=1e-9)


def test_witness_window_clamped(tri_am0, monkeypatch):
    # the window is read off the functions given to integrate_many
    f = fn("1", "0", tri_am0)
    calls, joint = [], variational.integrate_many
    monkeypatch.setattr(variational, "integrate_many",
                        lambda fs, spec: calls.append(fs) or joint(fs, spec))
    lagrange_point(f, 0.1, epsilon=0.2, indices=(1,))
    (recovery, witness), = calls
    lo, hi = witness.domain
    epsilon = 0.5 * (hi - lo)
    assert epsilon == pytest.approx(0.45 * 0.1)
    assert lo == pytest.approx(0.1 - epsilon)
    assert hi == pytest.approx(0.1 + epsilon)
    assert recovery.domain == witness.domain


def test_witness_zero_center_rejected(tri_am05):
    # a center of exactly zero has no witness, only the recovery
    f = fn("t", "-2*t", tri_am05)
    for t0 in (0.25, 0.5, 0.8046875):
        point = lagrange_point(f, t0)
        assert point["center"] == 0.0
        assert point["admissible"] is False and "b" not in point
        assert point["recovery_ok"] and point["passed"]


def test_witness_outside_domain_rejected(tri_am0):
    f = fn("1", "0", tri_am0)
    with pytest.raises(WindowOutsideDomain):
        lagrange_point(f, 0.0)
    with pytest.raises(WindowOutsideDomain):
        lagrange_point(f, 1.2)


@pytest.mark.parametrize("t0, epsilon", [(0.5, 1e-300),
                                         (1.0 / 6.0, 1e-17)])
def test_collapsed_window_names_epsilon_and_t0(tri_am0, t0, epsilon):
    # an epsilon below half an ulp of t0 leaves t0 - eps == t0 + eps; the
    # window was once reported as an empty domain, naming neither
    f = fn("1", "0", tri_am0)
    message = (f"mollifier window of epsilon={epsilon!r} at t0={t0!r} is a "
               "single point: t0 - epsilon is not below t0 + epsilon")
    with pytest.raises(WindowOutsideDomain) as err:
        lagrange_point(f, t0, epsilon=epsilon)
    assert str(err.value) == message


def test_scan_computes_the_kernel_mass_once(monkeypatch):
    # the recovery and each admissible witness build the kernel of the one
    # index at every point; C(2n, n) is a big-integer product, computed
    # once per n (it took 2.4 s at n = 200,000)
    comb, calls = math.comb, []

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting_comb)
    variational._wallis.cache_clear()
    report = lagrange_scan(catalog_scenario("s06_recovery_window").f,
                           grid=3, indices=(7,))
    assert all(r["admissible"] for r in report.records)
    assert calls == [(28, 14)]  # n = (l + 1) * k with l = 1
    assert DiracKernel.build(0.2, 1, 7).mass_norm == wallis_mass(0.2, 14)


def test_mollifier_recovery(tri_am0):
    scenario = catalog_scenario("s06_recovery_window")
    point = lagrange_point(scenario.f, 1.5, epsilon=0.2, indices=(16,))
    recovered_r, recovered_q = point["recovered"]
    assert recovered_r == pytest.approx(math.sin(1.5), abs=0.05)
    assert recovered_q == pytest.approx(math.cos(1.5), abs=0.05)
    # the error is read against the exact f(1.5) = sin(1.5) + cos(1.5)A
    assert point["recovery_error"] == max(abs(recovered_r - math.sin(1.5)),
                                          abs(recovered_q - math.cos(1.5)))


@pytest.mark.parametrize("k", [1, 16])
@pytest.mark.parametrize("t0", [1.0, 1.5, 2.3])
def test_mollifier_recovery_integrates_the_witness_window(t0, k):
    # (delta_k, 0) (*) f is the witness's eta, so the recovery is its
    # integral: bit for bit on the one subdivision it shares with the
    # witness f (*) eta, and within the tolerance of the crisp product
    # integrated alone
    f = catalog_scenario("s06_recovery_window").f
    point = lagrange_point(f, t0, indices=(k,))
    kernel = DiracKernel.build(variational._window(f, t0, variational.EPSILON),
                               variational.SMOOTHNESS, k)
    delta = kernel.expression(t0)
    window = (t0 - kernel.epsilon, t0 + kernel.epsilon)
    eta = FuzzyFunction(ex.mul(f.r, delta), ex.mul(f.q, delta), f.gen, window)
    on_window = FuzzyFunction(f.r, f.q, f.gen, window)
    recovered, witness = integrate_many([eta, on_window.cross_with(eta)])
    assert point["recovered"] == [recovered.r, recovered.q]
    assert point["b"] == [witness.center()]
    crisp = FuzzyFunction(delta, ex.Num(0.0), f.gen, window)
    alone = integrate(crisp.cross_with(on_window))
    assert (alone - recovered).norm() <= QuadratureSpec().abs_tol


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


def test_dbr_reconstruct_refuses_a_domain_too_narrow_for_its_mean(tri_am0):
    # 1/(b - a) overflows below b - a = 1/max-float; the mean value was
    # 0*inf = nan, and every residual with it
    with pytest.raises(ValueError) as err:
        dbr_reconstruct(fn("t", "0", tri_am0, (0.0, 5e-324)), grid=3)
    assert str(err.value) == ("domain [0.0, 5e-324] is too narrow for a "
                              "mean value: 1/(b - a) is not finite")
    # one ulp at 1.0 is narrow too, but its reciprocal is finite
    narrow = fn("t", "0", tri_am0, (1.0, 1.0 + 2.0 ** -52))
    assert dbr_reconstruct(narrow, grid=3).u.r == pytest.approx(1.0)


def test_dbr_reconstruct_gap_scenario():
    # center-zero but nonconstant: in the zero class everywhere, far from
    # constant in coordinates; the two residuals must separate
    scenario = catalog_scenario("s12_reconstruction_gap")
    result = dbr_reconstruct(scenario.f, grid=65)
    assert result.max_center_residual < 1e-9
    assert result.max_coord_residual > 0.5


_SIGNED_ZERO = "signed zero"
_NAN_CENTER = "nan center"


@pytest.mark.parametrize("name", [s.name for s in load_catalog()]
                         + [_SIGNED_ZERO, _NAN_CENTER])
def test_dbr_reconstruct_columns_match_rows(name):
    if name == _SIGNED_ZERO:
        # r - u.r is -0.0 - 0.0 = -0.0 for t < 0, and so is q - u.q, so
        # the center -0.0 + -0.0*a_m is -0.0, a sign that another way of
        # summing (math.fsum of the two terms, say) loses
        f = fn("0*t", "0*t", Generator.triangular(0.0, 0.5, 2.0), (-1.0, 0.0))
    elif name == _NAN_CENTER:
        # the spike at t = 0 falls between the quadrature nodes, and q - u.q
        # overflows there, so the first center is -0.5 + inf*0.0 = nan: the
        # maxima skip it, as a NaN the fold does not start with
        f = fn("t", "0.85e308*cos(4*t) + 0.9e308*exp(-1e12*t^2)",
               Generator.triangular(-1.0, 0.0, 2.0))
    else:
        f = catalog_scenario(name).f
    result = dbr_reconstruct(f)
    want = reconstruction_rows(f, result.u,
                               node_grid(*f.domain, RECONSTRUCT_GRID))
    got = (result.residual_grid, result.max_center_residual,
           result.max_coord_residual)
    # repr tells -0.0 from 0.0 and prints every NaN as 'nan'
    assert repr(got) == repr(want)
    if name == _SIGNED_ZERO:
        assert repr(result.residual_grid[0]) == "(-1.0, -0.0, 0.0)"
    if name == _NAN_CENTER:
        assert repr(result.residual_grid[0]) == "(0.0, nan, inf)"
        assert repr(got[1:]) == "(0.5, inf)"


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
    # and matches the closed form F(t) = sin(t) + t^2 A
    value = result.g_tilde(t) - result.u
    assert value.r == pytest.approx(math.sin(t), abs=1e-10)
    assert value.q == pytest.approx(t * t, abs=1e-10)


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
            point = lagrange_point(scenario.f, t0, epsilon=0.2, indices=(8,))
            assert point["b"][0] > 0.0, (scenario.name, t0)


def test_dbr_residual_scales_with_quadrature_tolerance():
    scenario = catalog_scenario("s09_dbr_pair")
    for tol in (1e-4, 1e-7, 1e-10):
        report = dbr_forward_check(scenario.f, scenario.partner,
                                   spec=QuadratureSpec(abs_tol=tol))
        assert report.residuals["max"] <= 10 * tol


def test_bisection_lands_on_parabola_vertex(tri_am1):
    f = fn("t^2", "t", tri_am1, (-2.0, 1.0))
    points = critical_points(f)
    assert len(points) == 1
    assert abs(points[0].center_d1) <= 1e-12
    assert points[0].t_star == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_critical_points_rejects_grid_below_two(tri_am1, grid):
    f = fn("t^2", "t", tri_am1, (-2.0, 1.0))
    with pytest.raises(ValueError, match=f"got {grid}"):
        critical_points(f, grid=grid)


@pytest.mark.parametrize("a, b, nodes", [(0.0, 1.0, 2), (-1.0, 2.0, 19),
                                         (0.1, 2.0 * math.pi, 257),
                                         (0.5, 2.5, 1024), (1e-300, 3e-300, 7),
                                         (-3.0, -1.0, MAX_GRID_NODES)])
def test_node_grid_keeps_the_bits_of_the_integer_formula(a, b, nodes):
    # the grid divides by float(nodes - 1) and multiplies by cached float
    # indices; both are exact, so every node has the bits of the formula
    # with integers
    want = [a + (b - a) * i / (nodes - 1) for i in range(nodes)]
    want[-1] = b
    assert repr(node_grid(a, b, nodes)) == repr(want)


def test_node_grid_refuses_more_than_its_maximum():
    assert len(node_grid(0.0, 1.0, MAX_GRID_NODES)) == MAX_GRID_NODES
    with pytest.raises(ValueError) as err:
        node_grid(0.0, 1.0, MAX_GRID_NODES + 1)
    assert str(err.value) == (f"need at most MAX_GRID_NODES={MAX_GRID_NODES} "
                              f"grid nodes, got {MAX_GRID_NODES + 1}")


_GRID_NOT_INT = "grid node count must be an int, got "


@pytest.mark.parametrize("call, message", [
    (lambda f: critical_points(f, grid=2.5), _GRID_NOT_INT + "2.5"),
    (lambda f: critical_points(f, grid=1024.0), _GRID_NOT_INT + "1024.0"),
    # below 2, but refused as not an int before its size is read
    (lambda f: critical_points(f, grid=1.5), _GRID_NOT_INT + "1.5"),
    (lambda f: dbr_reconstruct(f, grid=300.0), _GRID_NOT_INT + "300.0"),
    # the caller's grid, not the grid + 2 nodes it becomes
    (lambda f: lagrange_scan(f, grid=2.0), _GRID_NOT_INT + "2.0"),
    (lambda f: verify_local_order(
        f, CriticalPoint(1.5, 0.0, 1.0, Verdict.LOCAL_MIN), 0.1, 2.5),
     "local-order sample count n must be an int, got 2.5"),
    # the mollifier's index and smoothness, read by math.comb
    (lambda f: DiracKernel.build(0.1, index=2.0),
     "kernel index k must be an int, got 2.0"),
    (lambda f: DiracKernel.build(0.1, index=1.5),
     "kernel index k must be an int, got 1.5"),
    (lambda f: DiracKernel.build(0.1, smoothness=1.0),
     "kernel smoothness l must be an int, got 1.0"),
    (lambda f: lagrange_scan(f, indices=(1, 2.0), grid=1),
     "kernel index k must be an int, got 2.0"),
], ids=["critical-2.5", "critical-1024.0", "critical-1.5", "reconstruct",
        "lagrange", "local-order", "kernel-index-2.0", "kernel-index-1.5",
        "kernel-smoothness-1.0", "lagrange-index-ladder"])
def test_a_grid_that_is_not_an_int_is_refused_by_name(call, message):
    f = catalog_scenario("s06_recovery_window").f
    with pytest.raises(TypeError) as err:
        call(f)
    assert str(err.value) == message


@pytest.mark.parametrize("grid", [0, -1])
def test_lagrange_scan_rejects_empty_grid(grid):
    f = catalog_scenario("s06_recovery_window").f
    with pytest.raises(ValueError, match=f"got {grid}"):
        lagrange_scan(f, grid=grid)


def test_lagrange_scan_rejects_empty_index_ladder():
    f = catalog_scenario("s06_recovery_window").f
    with pytest.raises(ValueError, match="non-empty index ladder, got"):
        lagrange_scan(f, indices=(), grid=1)


def test_lagrange_point_rejects_empty_index_ladder():
    f = catalog_scenario("s06_recovery_window").f
    for indices in ((), []):
        with pytest.raises(ValueError, match="Lagrange point needs a "
                           "non-empty index ladder, got"):
            lagrange_point(f, 0.5, indices=indices)


@pytest.mark.parametrize("indices", [(16, 1), (2, 2), [1, 4, 2]])
def test_lagrange_point_rejects_a_ladder_that_does_not_increase(indices):
    # a ladder was once judged at its last entry: (16, 1) gave the k = 1
    # verdict and never judged k = 16
    f = catalog_scenario("s06_recovery_window").f
    message = f"index ladder must strictly increase, got {tuple(indices)!r}"
    for run in (lambda: lagrange_point(f, 1.5, indices=indices),
                lambda: lagrange_scan(f, indices=indices, grid=1)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message


def test_dbr_forward_rejects_empty_catalog():
    scenario = catalog_scenario("s09_dbr_pair")
    for catalog in ((), []):
        with pytest.raises(ValueError, match="non-empty test-function "
                           "catalog, got"):
            dbr_forward_check(scenario.f, scenario.partner, catalog=catalog)


# -- result values -------------------------------------------------------------

_GEN = Generator.triangular(-1.0, 0.0, 2.0)
_F = FuzzyFunction.from_strings("t^2", "1", _GEN, (0, 1))
_GEN_TEXT = "Generator(knots=((-1.0, 0.0), (0.0, 1.0), (2.0, 0.0)), a_m=0.0)"
_F_TEXT = ("FuzzyFunction(r=Bin(op='^', left=Var(name='t'), "
           f"right=Num(value=2.0)), q=Num(value=1.0), gen={_GEN_TEXT}, "
           "domain=(0.0, 1.0), eps_aware=False)")
_GRID = ((0.0, -0.5, 0.5), (1.0, 0.5, 0.5))


@pytest.mark.parametrize("value, text, key, other", [
    (CriticalPoint(0.5, 0.0, 2.0, Verdict.LOCAL_MIN),
     "CriticalPoint(t_star=0.5, center_d1=0.0, center_d2=2.0, "
     "verdict=<Verdict.LOCAL_MIN: 'local-min'>)",
     (0.5, 0.0, 2.0, Verdict.LOCAL_MIN),
     CriticalPoint(0.5, 0.0, 2.0, Verdict.INCONCLUSIVE)),
    (LocalOrderReport(0.5, "local-min", 8, False, first_violation=0.625),
     "LocalOrderReport(t_star=0.5, claim='local-min', checked=8, "
     "passed=False, first_violation=0.625)",
     (0.5, "local-min", 8, False, 0.625),
     LocalOrderReport(0.5, "local-min", 8, False)),
    (LocalOrderReport(0.5, "none", 0, True),
     "LocalOrderReport(t_star=0.5, claim='none', checked=0, passed=True, "
     "first_violation=None)",
     (0.5, "none", 0, True, None),
     LocalOrderReport(0.5, "none", 1, True)),
    (DiracKernel.build(0.25, 1, 2),
     "DiracKernel(epsilon=0.25, smoothness=1, index=2, mass_norm=0.13671875)",
     (0.25, 1, 2, 0.13671875), DiracKernel.build(0.25, 1, 3)),
    (ReconstructionResult(u=LCFN(0.5, 0.25, _GEN), f=_F, spec=QuadratureSpec(),
                          residual_grid=_GRID, max_center_residual=0.5,
                          max_coord_residual=0.5),
     f"ReconstructionResult(u=LCFN(r=0.5, q=0.25, gen={_GEN_TEXT}), "
     f"f={_F_TEXT}, spec=QuadratureSpec(abs_tol=1e-10), "
     "residual_grid=((0.0, -0.5, 0.5), (1.0, 0.5, 0.5)), "
     "max_center_residual=0.5, max_coord_residual=0.5)",
     (LCFN(0.5, 0.25, _GEN), _F, QuadratureSpec(), _GRID, 0.5, 0.5),
     ReconstructionResult(LCFN(0.5, 0.25, _GEN), _F, QuadratureSpec(), _GRID,
                          0.5, 0.25)),
], ids=["critical-point", "local-order", "local-order-defaults",
        "dirac-kernel", "reconstruction"])
def test_results_are_frozen_values(value, text, key, other):
    assert_frozen_value(value, text, key, other)
