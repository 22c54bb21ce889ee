"""Integrand-evaluation counts, pinned.

The counts are deterministic, so a change that moves the amount of
quadrature work fails here rather than only showing up as wall time.
Each quadrature entry point is wrapped where the checkers import it.
"""
import pytest

from lcfn import calculus, variational
from lcfn.scenarios import catalog_scenario, load_catalog

SITES = {
    calculus: ("integrate_scalar", "gauss_legendre"),
    variational: ("integrate_scalar", "adaptive_simpson"),
}


@pytest.fixture
def evals(monkeypatch):
    """A one-element list holding the integrand evaluations so far."""
    count = [0]

    def counting(real):
        def wrapper(fn, *args, **kwargs):
            def counted(x):
                count[0] += 1
                return fn(x)
            return real(counted, *args, **kwargs)
        return wrapper

    for module, names in SITES.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return count


def test_integrate_evals_over_catalog(evals):
    for scenario in load_catalog():
        calculus.integrate(scenario.f)
    assert evals[0] == 1708


def test_ftc_check_evals_over_catalog(evals):
    for scenario in load_catalog():
        calculus.ftc_check(scenario.f)
    assert evals[0] == 3328


def test_lagrange_scan_evals(evals):
    variational.lagrange_scan(catalog_scenario("s06_recovery_window").f, grid=3)
    assert evals[0] == 111065
