"""Gauss-Legendre nodes built without numpy, and quadrature settings."""
import math
import subprocess
import sys

import pytest

from lcfn.quadrature import QuadratureSpec, _leggauss, gauss_legendre


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
