"""Scalar quadrature: adaptive Simpson plus a Gauss-Legendre cross-check.

Two independent methods on purpose; checkers can route the same integrand
through both to guard against silent quadrature failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergent

ADAPTIVE_SIMPSON = "adaptive-simpson"
GAUSS_LEGENDRE = "gauss-legendre"


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = ADAPTIVE_SIMPSON
    abs_tol: float = 1e-10
    max_depth: int = 40
    nodes: int = 64  # Gauss-Legendre only

    def __post_init__(self):
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be positive")

    def with_tol(self, abs_tol: float) -> "QuadratureSpec":
        return QuadratureSpec(self.method, abs_tol, self.max_depth, self.nodes)


def integrate_scalar(fn, a: float, b: float, spec: QuadratureSpec) -> float:
    if a == b:
        return 0.0
    if spec.method == GAUSS_LEGENDRE:
        return gauss_legendre(fn, a, b, spec.nodes)
    return adaptive_simpson(fn, a, b, spec.abs_tol, spec.max_depth)


def adaptive_simpson(fn, a: float, b: float,
                     abs_tol: float = 1e-10, max_depth: int = 40) -> float:
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    try:
        return _simpson_rec(fn, a, b, fa, fm, fb, whole, abs_tol, max_depth)
    except _LeafNotConverged as leaf:
        lo, hi = leaf.args
        raise QuadratureNonConvergent(
            f"tolerance {abs_tol:g} not met on [{a!r}, {b!r}]: leaf "
            f"[{lo!r}, {hi!r}] did not converge within "
            f"max_depth={max_depth}") from None


class _LeafNotConverged(Exception):
    """Raised by the leaf that ran out of depth; args are its interval."""


def _simpson_rec(fn, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise _LeafNotConverged(a, b)
    half = 0.5 * tol
    return (_simpson_rec(fn, a, m, fa, flm, fm, left, half, depth - 1)
            + _simpson_rec(fn, m, b, fm, frm, fb, right, half, depth - 1))


@lru_cache(maxsize=16)
def _leggauss(n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return tuple(xs.tolist()), tuple(ws.tolist())


def gauss_legendre(fn, a: float, b: float, n: int = 64) -> float:
    xs, ws = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * fn(mid + half * x) for x, w in zip(xs, ws))
