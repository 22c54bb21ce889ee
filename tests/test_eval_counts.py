"""Kernel work and ``ex.evaluate`` calls, pinned.

The counts are deterministic, so a change that moves the amount of
quadrature or sampling work fails here rather than only showing up as
wall time.  Every integral of ``(r, q)`` pairs, one pair or the pairs of
an ``integrate_many`` call, is one ``qag`` run whose panels each make one
call of the pairs' panel kernel on the 15 nodes of ``RULE``, so the
fixture wraps ``qag`` where ``calculus`` imports it and counts both the
points (one point is one node, where every pair of the run is read; 15
per panel call) and the kernel calls: points alone are not a work proxy,
as one call on many points costs less than many calls.
It also counts the points read through ``calculus.sample`` (the
checkers' grids) and the ``ex.evaluate`` calls left in the checkers,
wrapping each where ``calculus`` and ``variational`` import it, and each
``f.at`` read, one point call of the pair's point kernel, as one sampled
point (a read that falls back to ``f.values`` is counted there again).
"""
import collections
import operator
import types

import pytest

from lcfn import Generator, calculus, expr as ex, variational
from lcfn.errors import EvalError
from lcfn.quadrature import RULE, QuadratureSpec
from lcfn.scenarios import catalog_scenario, load_catalog


@pytest.fixture
def counts(monkeypatch):
    """qag points and kernel calls, sampled points and ``ex.evaluate``
    calls so far."""
    count = {"points": 0, "calls": 0, "sampled": 0, "evaluate": 0}
    qag, sample, at = calculus.qag, calculus.sample, calculus.FuzzyFunction.at

    def counting_qag(panel, *args):
        def counted(center, half):
            count["points"] += len(RULE)
            count["calls"] += 1
            return panel(center, half)
        return qag(counted, *args)

    def counting_sample(kernel, roots, names, ts, eps=None):
        count["sampled"] += len(ts)
        return sample(kernel, roots, names, ts, eps)

    def counting_at(f, t, eps=None):
        count["sampled"] += 1
        return at(f, t, eps)

    def counting_ex(ex):
        def evaluate(e, t, eps=None):
            count["evaluate"] += 1
            return ex.evaluate(e, t, eps)
        proxy = types.ModuleType(ex.__name__)
        proxy.__dict__.update(ex.__dict__)
        proxy.evaluate = evaluate
        return proxy

    monkeypatch.setattr(calculus, "qag", counting_qag)
    monkeypatch.setattr(calculus.FuzzyFunction, "at", counting_at)
    for module in (calculus, variational):
        monkeypatch.setattr(module, "sample", counting_sample)
        monkeypatch.setattr(module, "ex", counting_ex(module.ex))
    return count


def test_integrate_evals_over_catalog(counts):
    # 14 panels of 15 points over the catalog, one subdivision for r and q
    # (scalar Gauss-Kronrod took 390 points and 390 evaluate calls in 26
    # panels, adaptive Simpson 1,708)
    for scenario in load_catalog():
        calculus.integrate(scenario.f)
    assert counts == {"points": 210, "calls": 14, "sampled": 0, "evaluate": 0}


def test_ftc_check_evals_over_catalog(counts):
    # f.at at both ends and at the 3 spot points: 5 points per scenario,
    # once 120 evaluate calls; the integrals took 1,530 scalar points, and
    # 3,328 with adaptive Simpson
    for scenario in load_catalog():
        calculus.ftc_check(scenario.f)
    assert counts == {"points": 780, "calls": 52, "sampled": 60, "evaluate": 0}


def test_ibp_check_evals_over_catalog(counts):
    # two cross-product integrals per scenario and f, g at both ends
    for scenario in load_catalog():
        calculus.ibp_check(scenario.f, scenario.partner)
    assert counts == {"points": 660, "calls": 44, "sampled": 48, "evaluate": 0}


def test_square_integral_points_on_s09(monkeypatch):
    # every kernel call, counted by its number of points (a panel kernel
    # by the 15 nodes of RULE, a point kernel by one, a column or scan
    # kernel by the length of its column): the cross pair's 3
    # qag panels and the 64 Gauss-Legendre nodes of the direct route, one
    # evaluate call each, which is one call of the point kernel of c^2.
    # The zero class is read from the integral; the 2,048-point grid it
    # once took made 2,157 points in 68 calls, and any grid read past qag
    # and sample shows here
    kernel, calls = ex.kernel, []

    def counting_kernel(form, *roots):
        compiled = kernel(form, *roots)

        def counted(first, *rest, **kwargs):  # ts, a panel's eps, or t
            calls.append(len(RULE) if form == "panel"
                         else 1 if form == "point" else len(first))
            return compiled(first, *rest, **kwargs)
        return counted

    monkeypatch.setattr(ex, "kernel", counting_kernel)
    calculus.square_integral(catalog_scenario("s09_dbr_pair").f)
    assert sorted(collections.Counter(calls).items()) == [(1, 64), (15, 3)]


@pytest.mark.parametrize("ts, message", [
    ([3.0, 1.0], "component q is inf at t=3.0"),
    ([1.0, 3.0], "component r is inf at t=1.0"),
])
def test_non_finite_columns_are_scanned_not_evaluated_again(counts, tri_am05,
                                                            ts, message):
    # r is inf below t = 2 and q above t = 0, and neither raises: the
    # kernel returns its columns, which are scanned in point order, r
    # before q, with no point read again (once every point was evaluated
    # again, one evaluate call per root)
    f = calculus.FuzzyFunction.from_strings("1e308*10^(2 - t)", "1e308*10*t",
                                            tri_am05, (0.0, 4.0))
    with pytest.raises(EvalError) as err:
        f.values(ts)
    assert type(err.value) is EvalError and str(err.value) == message
    assert counts == {"points": 0, "calls": 0, "sampled": 2, "evaluate": 0}


PROBE_FRACTIONS = (0.25, 0.5, 0.3)  # the checker-sweep benchmark's F(t) probes


def test_cumulative_integral_evals_over_catalog(counts):
    # one integral over [a, t] per query and nothing up front; scalar
    # Gauss-Kronrod took 1,080 points, adaptive Simpson 4,716
    queries = []
    for scenario in load_catalog():
        a, b = scenario.f.domain
        cumulative = calculus.CumulativeIntegral(scenario.f)
        for u in PROBE_FRACTIONS:
            t = a + (b - a) * u
            queries.append((scenario.f, t, cumulative.at(t)))
    assert counts == {"points": 540, "calls": 36, "sampled": 0, "evaluate": 0}
    assert all(value == calculus.integrate(f, hi=t) for f, t, value in queries)


def test_lagrange_scan_evals(counts):
    # Each point reads f(t0) once (3 sampled points; 6 when the recovery
    # and the witnesses read it each, once 12 evaluate calls) and makes one
    # integrate_many call over the recovery and the 5 witness integrands
    # (4,140 points in 276 calls as 6 integrals).  The kernel mass is
    # closed form, so it has no quadrature.  Integrand points: 83,391 with
    # adaptive Simpson and the kernel mass quadrature, 48,048 without it,
    # 7,920 with scalar Gauss-Kronrod.
    variational.lagrange_scan(catalog_scenario("s06_recovery_window").f, grid=3)
    assert counts == {"points": 1035, "calls": 69, "sampled": 3,
                      "evaluate": 0}


def test_witness_sequence_evals(counts):
    # the b_k integrals of the default ladder on one subdivision (one
    # integral per index took 1,095 points in 73 calls); the
    # one-quadrature oracle the witness used to compute as well took
    # 18,867 -> 11,778 points, adaptive Simpson 11,778 -> scalar
    # Gauss-Kronrod 1,980
    variational.witness_sequence(catalog_scenario("s06_recovery_window").f,
                                 1.5)
    assert counts == {"points": 345, "calls": 23, "sampled": 1, "evaluate": 0}


def test_dbr_reconstruct_evals_over_catalog(counts):
    # the mean value (one integral) plus f at each of the 257 grid nodes,
    # read in one kernel call per scenario (once 6,168 evaluate calls);
    # the integrals took 390 scalar points, 1,708 with adaptive Simpson
    for scenario in load_catalog():
        variational.dbr_reconstruct(scenario.f)
    assert counts == {"points": 210, "calls": 14, "sampled": 3084,
                      "evaluate": 0}


def test_critical_points_evals_over_catalog(counts):
    # g' on the 1,024-node scan grid in one scan-kernel call per scenario,
    # which also finds the brackets and extremes; the bisections, the
    # touching-zero refinement and the classification still evaluate
    # point by point
    for scenario in load_catalog():
        variational.critical_points(scenario.f)
    assert counts == {"points": 0, "calls": 0, "sampled": 12288,
                      "evaluate": 4190}


@pytest.mark.parametrize("name", ["s06_recovery_window", "s03_center_zero_line"])
def test_lagrange_scan_matches_witness_and_recovery(name):
    """Each scan point integrates the recovery integrand of
    ``mollifier_recovery`` and, where admissible, the witness integrands
    of ``witness_sequence`` on one subdivision: its records are one
    ``integrate_many`` of those functions, bit for bit, and agree with the
    two harnesses, which integrate on subdivisions of their own, within
    the quadrature tolerance."""
    f = catalog_scenario(name).f
    indices, spec = (1, 2, 4), QuadratureSpec()
    report = variational.lagrange_scan(f, indices=indices, grid=3)
    assert len(report.records) == 3
    for record in report.records:
        t0 = record["t0"]
        eps = variational._window(f, t0, variational.EPSILON)
        etas = [variational._eta(f, t0, variational.DiracKernel.build(
            eps, variational.SMOOTHNESS, k)) for k in indices]
        fs = [etas[-1]]
        if record["admissible"]:
            fs += [calculus.FuzzyFunction(f.r, f.q, f.gen, eta.domain)
                   .cross_with(eta) for eta in etas]
        recovered, *witnesses = calculus.integrate_many(fs, spec)
        assert record["recovered"] == [recovered.r, recovered.q]
        alone, _ = variational.mollifier_recovery(f, t0, index=indices[-1])
        assert abs(recovered.r - alone.r) <= spec.abs_tol
        assert abs(recovered.q - alone.q) <= spec.abs_tol
        if record["admissible"]:
            assert record["b"] == [w.center() for w in witnesses]
            ws = variational.witness_sequence(f, t0, indices=indices)
            assert all(abs(b - w.b_k) <= spec.abs_tol
                       for b, w in zip(record["b"], ws))
    admissible = [r["admissible"] for r in report.records]
    assert admissible == ([True] * 3 if name.startswith("s06") else [False] * 3)


def test_repeated_checks_compile_no_kernel(monkeypatch):
    """Checkers rebuild their trees on every call; interned nodes make the
    rebuilt trees the very roots the kernel cache holds, so a second pass
    over the same checks compiles nothing (per-object kernels compiled 25,
    then 22).  The first pass compiles 17: the point kernel of ``f.at``
    and the panel kernel of ``integrate`` are two compiles where f is
    both read at points and integrated, and ``dbr_forward_check`` and
    each Lagrange scan point compile one panel kernel over all their
    integrands (24 with one kernel per integrand; 23 when one column
    kernel served both reads of f, 24 with the grid kernel of
    ``center_expr()`` that ``square_integral`` no longer reads)."""
    compiled = []
    compile_roots = ex._compile

    def counting_compile(form, roots):
        compiled.append((form, roots))
        return compile_roots(form, roots)

    monkeypatch.setattr(ex, "_compile", counting_compile)
    ex.kernel.cache_clear()
    scenario = catalog_scenario("s09_dbr_pair")

    def one_pass():
        f, g = scenario.f, scenario.partner
        calculus.ftc_check(f)
        calculus.ibp_check(f, g)
        calculus.square_integral(f)
        variational.dbr_forward_check(f, g)
        variational.lagrange_scan(f, grid=1)

    one_pass()
    first = len(compiled)
    one_pass()
    assert (first, len(compiled) - first) == (17, 0)


def _derived_trees(f, g, lam, center):
    """The trees each of the five builders routed through ``ex.derived``
    gives for f, g, ``lam`` and a bump at ``center``, as a tuple, with the
    builder and the arguments that build them directly."""
    kernel = variational.DiracKernel.build(0.25, 1, 2)
    cross, plus, am = f.cross_with(g), f.plus(g, lam), f.gen.a_m
    sines = variational.default_eta_catalog(f.gen, f.domain)[::2]
    return [
        ((cross.r, cross.q), calculus._cross, (f.r, f.q, g.r, g.q, am)),
        ((plus.r, plus.q), calculus._plus, (f.r, f.q, g.r, g.q, lam)),
        ((f.center_expr(),), calculus._center, (f.r, f.q, am)),
        ((kernel.expression(center),), variational._bump,
         (center, kernel.epsilon, kernel.mass_norm, kernel.power)),
        (tuple(eta.r for eta in sines), variational._sines, (*f.domain, 4)),
    ]


@pytest.mark.parametrize("first, then", [(0.0, -0.0), (-0.0, 0.0)])
def test_derived_trees_are_the_trees_built_directly(first, then):
    """Through ``ex.derived`` each builder gives the very object (``is``)
    that calling it directly on a cleared memo builds: on each catalog
    pair as found again in the memo, and on the pair over a generator of
    peak ``then`` (a_m = ``then``), with ``plus(lam=then)`` and a bump and
    a domain at ``then``, as found in the entries that peak ``first`` (the
    other zero) made."""
    def over(scenario, zero):
        gen = Generator.triangular(-1.0, zero, 2.0)
        return tuple(calculus.FuzzyFunction(h.r, h.q, gen, (zero, 1.0))
                     for h in (scenario.f, scenario.partner or scenario.f))

    for scenario in load_catalog():
        f, g = scenario.f, scenario.partner or scenario.f
        ex.derived.cache_clear()
        _derived_trees(f, g, -1.5, 0.5 * sum(f.domain))
        _derived_trees(*over(scenario, first), first, first)
        misses = ex.derived.cache_info().misses
        found = (_derived_trees(f, g, -1.5, 0.5 * sum(f.domain))
                 + _derived_trees(*over(scenario, then), then, then))
        assert ex.derived.cache_info().misses == misses  # all ten found
        ex.derived.cache_clear()
        for trees, build, args in found:
            direct = build(*args)
            direct = direct if isinstance(direct, tuple) else (direct,)
            assert len(direct) == len(trees), (scenario.name, build.__name__)
            assert all(map(operator.is_, direct, trees)), (
                scenario.name, build.__name__)
