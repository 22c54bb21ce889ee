"""Acceptance suite: one test per criterion, one printed line per verdict.

Sampling conventions (shared with the unit suites):

* Continuous uniform coordinates exercise order/limit behavior and the
  dual-route product agreement, whose tolerance is measured in ulps at
  the scale of the largest intermediate term (the result itself can
  cancel to zero, where result-relative ulps are meaningless).
* Exactness claims (sign table, zero-class propagation, norm axioms) are
  sampled from a dyadic lattice where every product and sum in the
  coordinate formulas is exactly representable, so float evaluation
  coincides with real arithmetic and the stated slacks are pure headroom.
"""
import math
import random
import time

from lcfn import (
    FuzzyFunction,
    LCFN,
    Ordering,
    SignClass,
    Verdict,
    compare,
    critical_points,
    cross_oracle,
    dbr_forward_check,
    dbr_reconstruct,
    ftc_check,
    ibp_check,
    lagrange_point,
    scalar_le,
    square_integral,
    verify_local_order,
)
from lcfn.scenarios import catalog_scenario, load_catalog

import cli_golden
from conftest import (
    continuous_element,
    lattice_element,
    lattice_element_in_class,
    lattice_generator,
    lattice_value,
    random_generator,
)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{verdict}] {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_order_axioms():
    rng = random.Random(0xC1)
    generators = ([random_generator(rng) for _ in range(12)]
                  + [lattice_generator(rng) for _ in range(12)])
    start = time.perf_counter()
    violations = 0
    for i in range(10_000):
        g = generators[i % len(generators)]
        style = rng.random()
        if style < 0.5:
            triple = [continuous_element(rng, g) for _ in range(3)]
        else:
            # exact center ties (lattice) exercise tiers 2 and 3
            center = lattice_value(rng)
            triple = [LCFN(center - q * g.a_m, q, g)
                      for q in (lattice_value(rng) for _ in range(3))]
        if style > 0.9:
            triple[1] = triple[0]
        b, c, d = triple
        if compare(b, b) is not Ordering.EQUAL:
            violations += 1
        if (b <= c and c <= b) and (b.r, b.q) != (c.r, c.q):
            violations += 1
        if not (b <= c or c <= b):
            violations += 1
        if b <= c and c <= d and not b <= d:
            violations += 1
    elapsed = time.perf_counter() - start
    report(1, "order axioms on 10,000 triples, 24 generators",
           violations == 0 and elapsed < 5.0,
           f"violations={violations}, {elapsed:.2f}s")


def test_criterion_02_square_positivity():
    rng = random.Random(0xC2)
    violations = 0
    for i in range(10_000):
        g = lattice_generator(rng)
        if i % 4 == 0:  # exact zero-center stratum
            b = lattice_element_in_class(rng, g, 0)
        else:
            b = lattice_element(rng, g)
        sq = b.square()
        if not scalar_le(0.0, sq):
            violations += 1
        if (sq.sign_class() is SignClass.ZERO) != (b.center() == 0.0):
            violations += 1
    report(2, "0 <= B^2 and zero-class iff center zero, 10,000 samples",
           violations == 0, f"violations={violations}")


def test_criterion_03_cross_dual_formula():
    rng = random.Random(0xC3)
    worst = 0.0
    for _ in range(10_000):
        g = random_generator(rng)
        b = continuous_element(rng, g)
        c = continuous_element(rng, g)
        direct, oracle = b.cross(c), cross_oracle(b, c)
        am = g.a_m
        scale_r = max(abs(direct.r), abs(oracle.r), abs(b.r * c.r),
                      abs(am * am * b.q * c.q), abs(b.center() * c.center()))
        scale_q = max(abs(direct.q), abs(oracle.q), abs(b.r * c.q),
                      abs(c.r * b.q), abs(2 * am * b.q * c.q),
                      abs(c.center() * b.q), abs(b.center() * c.q))
        worst = max(worst,
                    abs(direct.r - oracle.r) / math.ulp(max(scale_r, 1e-300)),
                    abs(direct.q - oracle.q) / math.ulp(max(scale_q, 1e-300)))
    report(3, "cross vs defining-form oracle within 4 ulps, 10,000 pairs",
           worst <= 4.0, f"worst={worst:.2f} ulps")


def test_criterion_04_sign_rule_table():
    rng = random.Random(0xC4)
    per_stratum = 1_000
    violations = 0
    for sb in (-1, 0, 1):
        for sc in (-1, 0, 1):
            for _ in range(per_stratum):
                g = lattice_generator(rng)
                b = lattice_element_in_class(rng, g, sb)
                c = lattice_element_in_class(rng, g, sc)
                got = b.cross(c).sign_class()
                if sb == 0 or sc == 0:
                    want = SignClass.ZERO
                elif sb == sc:
                    want = SignClass.POSITIVE
                else:
                    want = SignClass.NEGATIVE
                if got is not want:
                    violations += 1
    report(4, "sign-rule table, 1,000 pairs per stratum (9 strata)",
           violations == 0, f"violations={violations}")


def test_criterion_05_norm_axioms():
    rng = random.Random(0xC5)
    violations = 0
    worst_homogeneity = 0.0
    worst_triangle = 0.0
    for _ in range(10_000):
        g = lattice_generator(rng)
        b = lattice_element(rng, g)
        c = lattice_element(rng, g)
        lam = rng.randrange(-2 ** 14, 2 ** 14 + 1) * 2.0 ** -12
        n_scaled = (lam * b).norm()
        n_ref = abs(lam) * b.norm()
        if n_scaled != n_ref:
            gap = abs(n_scaled - n_ref) / math.ulp(max(n_scaled, n_ref))
            worst_homogeneity = max(worst_homogeneity, gap)
            if gap > 1.0:
                violations += 1
        slack = b.norm() + c.norm() - (b + c).norm()
        worst_triangle = min(worst_triangle, slack)
        if slack < -1e-15:
            violations += 1
        if (b.norm() == 0.0) != (b.r == 0.0 and b.q == 0.0):
            violations += 1
        if b.norm() < 0.0:
            violations += 1
    report(5, "norm axioms (homogeneity <= 1 ulp, triangle, definiteness)",
           violations == 0,
           f"violations={violations}, worst homogeneity "
           f"{worst_homogeneity:.2f} ulps, triangle slack {worst_triangle:g}")


def test_criterion_06_ftc_ibp_catalog():
    start = time.perf_counter()
    worst_ftc = 0.0
    worst_ibp = 0.0
    ok = True
    for scenario in load_catalog():
        ftc = ftc_check(scenario.f)
        ibp = ibp_check(scenario.f, scenario.partner)
        worst_ftc = max(worst_ftc, ftc.residuals["endpoint"])
        worst_ibp = max(worst_ibp, ibp.residuals["identity"])
        ok = ok and ftc.residuals["endpoint"] < 1e-8 \
            and ibp.residuals["identity"] < 1e-8
    elapsed = time.perf_counter() - start
    report(6, "FTC and IBP residuals < 1e-8 on the 12-scenario catalog",
           ok and elapsed < 10.0,
           f"worst ftc={worst_ftc:.2e}, worst ibp={worst_ibp:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_07_square_integral_positivity():
    ok = True
    for scenario in load_catalog():
        value, rep = square_integral(scenario.f)
        ok = ok and value.center() >= -1e-10 and rep.passed
    designed = catalog_scenario("s03_center_zero_line")
    value, rep = square_integral(designed.f)
    ok = ok and abs(value.center()) < 1e-10
    ok = ok and rep.residuals["center"] <= rep.tolerance  # zero class
    report(7, "integral of squares nonnegative; designed center-zero exact",
           ok, f"designed center={value.center():g}")


def test_criterion_08_optimality():
    scenario = catalog_scenario("s08_parabola_min")
    points = critical_points(scenario.f)
    ok = len(points) == 1
    detail = f"{len(points)} points"
    if ok:
        cp = points[0]
        order = verify_local_order(scenario.f, cp, radius=1e-3, n=100)
        ok = (abs(cp.t_star + 0.5) < 1e-10
              and cp.verdict is Verdict.LOCAL_MIN
              and order.passed)
        detail = (f"t*={cp.t_star!r}, verdict={cp.verdict.value}, "
                  f"order checked={order.checked}")
    report(8, "single local minimum at t*=-0.5 with order verification",
           ok, detail)


def test_criterion_09_dirac_lagrange():
    gen = catalog_scenario("s06_recovery_window").gen
    f = FuzzyFunction.from_strings("1", "0", gen, (0.0, 1.0))
    bs = lagrange_point(f, 0.5, epsilon=0.2, smoothness=1,
                        indices=(1, 2, 4, 8, 16))["b"]
    ladder_ok = all(later >= earlier - 1e-9
                    for earlier, later in zip(bs, bs[1:]))
    ok = ladder_ok and abs(bs[-1] - 1.0) < 0.05

    recovery = catalog_scenario("s06_recovery_window")
    recovered_r, recovered_q = lagrange_point(
        recovery.f, 1.5, epsilon=0.2, indices=(16,))["recovered"]
    rec_err = max(abs(recovered_r - math.sin(1.5)),
                  abs(recovered_q - math.cos(1.5)))
    ok = ok and rec_err < 0.05
    report(9, "witness ladder b_k -> 1 and mollifier recovery within 0.05",
           ok, f"b={['%.6f' % b for b in bs]}, recovery err={rec_err:.4f}")


def test_criterion_10_dbr_forward():
    pair = catalog_scenario("s09_dbr_pair")
    clean = dbr_forward_check(pair.f, pair.partner)
    perturbed_scenario = catalog_scenario("s10_dbr_perturbed")
    perturbed = dbr_forward_check(perturbed_scenario.f,
                                  perturbed_scenario.partner)
    detected = max(r["residual"] for r in perturbed.records) > 1e-3
    ok = clean.passed and clean.residuals["max"] < 1e-7 and detected
    report(10, "sine-catalog residuals < 1e-7; 0.1 perturbation detected",
           ok, f"clean max={clean.residuals['max']:.2e}, "
               f"perturbed max={perturbed.residuals['max']:.2e}")


def test_criterion_11_reconstruction_gap():
    scenario = catalog_scenario("s12_reconstruction_gap")
    result = dbr_reconstruct(scenario.f, grid=257)
    ok = (result.max_center_residual < 1e-9
          and result.max_coord_residual > 0.5)
    report(11, "center residuals ~0 while coordinate residuals stay large",
           ok, f"center={result.max_center_residual:.2e}, "
               f"coord={result.max_coord_residual:.3f}")


def test_criterion_12_cli_determinism(tmp_path):
    mismatched = []
    invocations = cli_golden.materialize(tmp_path)
    for name, argv in invocations:
        runs = [cli_golden.run(argv) for _ in range(2)]
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            mismatched.append(name)
        if runs[0].returncode != runs[1].returncode:
            mismatched.append(name)
        if any(cli_golden.render(r) != cli_golden.golden(name) for r in runs):
            mismatched.append(f"{name} (golden)")
    report(12, "byte-identical JSON across repeated runs of every verb, "
               "equal to the recorded goldens",
           not mismatched, f"checked {len(invocations)} invocations, "
                           f"mismatched {sorted(set(mismatched))}")
