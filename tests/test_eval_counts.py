"""Integrand-evaluation and ``ex.evaluate`` call counts, pinned.

The counts are deterministic, so a change that moves the amount of
quadrature work fails here rather than only showing up as wall time.
Integrand points alone are not a work proxy: sharing one subdivision
between r and q lowers them while raising the evaluate calls.  So each
quadrature entry point and the ``ex`` module alias are both wrapped where
the checkers import them.
"""
import types

import pytest

from lcfn import calculus, variational
from lcfn.scenarios import catalog_scenario, load_catalog

SITES = {
    calculus: ("integrate_scalar", "gauss_legendre"),
    variational: ("integrate_scalar", "adaptive_simpson"),
}


@pytest.fixture
def counts(monkeypatch):
    """Integrand evaluations and ``ex.evaluate`` calls so far."""
    count = {"evals": 0, "evaluate": 0}

    def counting(real):
        def wrapper(fn, *args, **kwargs):
            def counted(x):
                count["evals"] += 1
                return fn(x)
            return real(counted, *args, **kwargs)
        return wrapper

    def counting_ex(ex):
        def evaluate(e, t, eps=None):
            count["evaluate"] += 1
            return ex.evaluate(e, t, eps)
        proxy = types.ModuleType(ex.__name__)
        proxy.__dict__.update(ex.__dict__)
        proxy.evaluate = evaluate
        return proxy

    for module, names in SITES.items():
        monkeypatch.setattr(module, "ex", counting_ex(module.ex))
        for name in names:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return count


def test_integrate_evals_over_catalog(counts):
    # 15 points per G7/K15 panel: 26 panels over the catalog's r and q
    # (adaptive Simpson took 1,708 points)
    for scenario in load_catalog():
        calculus.integrate(scenario.f)
    assert counts == {"evals": 390, "evaluate": 390}


def test_ftc_check_evals_over_catalog(counts):
    # adaptive Simpson took 3,328 points and 3,448 evaluate calls
    for scenario in load_catalog():
        calculus.ftc_check(scenario.f)
    assert counts == {"evals": 1530, "evaluate": 1650}


PROBE_FRACTIONS = (0.25, 0.5, 0.3)  # the checker-sweep benchmark's F(t) probes


def test_cumulative_integral_evals_over_catalog(counts):
    # one integral over [a, t] per query and nothing up front; adaptive
    # Simpson took 4,716
    queries = []
    for scenario in load_catalog():
        a, b = scenario.f.domain
        cumulative = calculus.CumulativeIntegral(scenario.f)
        for u in PROBE_FRACTIONS:
            t = a + (b - a) * u
            queries.append((scenario.f, t, cumulative.at(t)))
    assert counts == {"evals": 1080, "evaluate": 1080}
    assert all(value == calculus.integrate(f, hi=t) for f, t, value in queries)


def test_lagrange_scan_evals(counts):
    # The scan is built from mollifier_recovery and witness_sequence, and
    # each reads f(t0) for itself: 48,054 -> 48,060 evaluate calls, one
    # more r, q read at each of the 3 admissible points.  The kernel mass
    # is closed form, so its quadrature no longer counts: 83,391 -> 48,048
    # evals; the evaluate calls never included it.  Gauss-Kronrod in place
    # of adaptive Simpson: 48,048 -> 7,920 evals.
    variational.lagrange_scan(catalog_scenario("s06_recovery_window").f, grid=3)
    assert counts == {"evals": 7920, "evaluate": 7932}


def test_witness_sequence_evals(counts):
    # one b_k integral per index of the default ladder; the one-quadrature
    # oracle the witness used to compute as well took 18,867 -> 11,778, and
    # Gauss-Kronrod in place of adaptive Simpson 11,778 -> 1,980
    variational.witness_sequence(catalog_scenario("s06_recovery_window").f,
                                 1.5)
    assert counts["evals"] == 1980


def test_dbr_reconstruct_evals_over_catalog(counts):
    # the mean value (one integral) plus f at each of the 257 grid nodes;
    # adaptive Simpson took 1,708 evals and 7,876 evaluate calls
    for scenario in load_catalog():
        variational.dbr_reconstruct(scenario.f)
    assert counts == {"evals": 390, "evaluate": 6558}


@pytest.mark.parametrize("name", ["s06_recovery_window", "s03_center_zero_line"])
def test_lagrange_scan_matches_witness_and_recovery(name):
    """The scan is built from the public harnesses: its witness ladder
    and its recovery must be theirs, bit for bit."""
    f = catalog_scenario(name).f
    indices = (1, 2, 4)
    report = variational.lagrange_scan(f, indices=indices, grid=3)
    assert len(report.records) == 3
    for record in report.records:
        t0 = record["t0"]
        if record["admissible"]:
            ws = variational.witness_sequence(f, t0, indices=indices)
            assert record["b"] == [w.b_k for w in ws]
        recovered, _ = variational.mollifier_recovery(f, t0, index=indices[-1])
        assert record["recovered"] == [recovered.r, recovered.q]
    admissible = [r["admissible"] for r in report.records]
    assert admissible == ([True] * 3 if name.startswith("s06") else [False] * 3)
