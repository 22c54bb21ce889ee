"""Scalar quadrature: adaptive Simpson plus a Gauss-Legendre cross-check.

Two independent methods on purpose; checkers can route the same integrand
through both to guard against silent quadrature failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonFiniteIntegrand, QuadratureNonConvergent

MAX_DEPTH = 40  # adaptive Simpson recursion limit
MAX_EVALS = 2 ** 20  # integrand evaluations per adaptive Simpson integral


@dataclass(frozen=True)
class QuadratureSpec:
    """The adaptive Simpson tolerance; the Gauss-Legendre order is fixed."""

    abs_tol: float = 1e-10
    nodes = 64  # class constant, not a field

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(
                f"abs_tol must be finite and positive, got {self.abs_tol!r}")


def integrate_scalar(fn, a: float, b: float, spec: QuadratureSpec) -> float:
    if a == b:
        return 0.0
    return adaptive_simpson(fn, a, b, spec.abs_tol)


def adaptive_simpson(fn, a: float, b: float,
                     abs_tol: float = 1e-10, max_depth: int = MAX_DEPTH) -> float:
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # one item per subdivision: it costs 4 evaluations, the first call 5
    budget = iter(range((MAX_EVALS - 5) // 4))
    try:
        return _simpson_rec(fn, a, b, fa, fm, fb, whole, abs_tol, max_depth,
                            budget)
    except _OutOfEvals:
        raise QuadratureNonConvergent(
            f"tolerance {abs_tol:g} not met on [{a!r}, {b!r}] within "
            f"MAX_EVALS={MAX_EVALS} integrand evaluations") from None
    except _LeafNotConverged as leaf:
        lo, hi, estimate = leaf.args
        if not math.isfinite(estimate):
            raise NonFiniteIntegrand(
                f"integrand not finite on [{a!r}, {b!r}]: leaf "
                f"[{lo!r}, {hi!r}] estimates {estimate!r}") from None
        raise QuadratureNonConvergent(
            f"tolerance {abs_tol:g} not met on [{a!r}, {b!r}]: leaf "
            f"[{lo!r}, {hi!r}] did not converge within "
            f"max_depth={max_depth}") from None


class _LeafNotConverged(Exception):
    """Raised by the leaf that ran out of depth; args are its interval
    and its Simpson estimate."""


class _OutOfEvals(Exception):
    """Raised by the subdivision that would pass MAX_EVALS."""


def _simpson_rec(fn, a, b, fa, fm, fb, whole, tol, depth, budget):
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
        raise _LeafNotConverged(a, b, left + right)
    if next(budget, None) is None:  # converged leaves pay nothing
        raise _OutOfEvals
    half = 0.5 * tol
    return (_simpson_rec(fn, a, m, fa, flm, fm, left, half, depth - 1, budget)
            + _simpson_rec(fn, m, b, fm, frm, fb, right, half, depth - 1,
                           budget))


@lru_cache(maxsize=16)
def _leggauss(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule:
    Newton's method on P_n from a cosine estimate of each positive root,
    mirrored for the negative ones; odd n adds the root 0."""
    roots = []  # positive, descending
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:  # under one ulp of x near 1
                break
        roots.append(x)
    xs = [-x for x in roots] + [0.0] * (n % 2) + roots[::-1]
    dps = [_legendre(n, x)[1] for x in xs]
    ws = [2.0 / ((1.0 - x * x) * dp * dp) for x, dp in zip(xs, dps)]
    return tuple(xs), tuple(ws)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) from the three-term recurrence, |x| < 1."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(fn, a: float, b: float, n: int = 64) -> float:
    xs, ws = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * fn(mid + half * x) for x, w in zip(xs, ws))
