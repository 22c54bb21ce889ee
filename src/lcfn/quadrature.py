"""Quadrature: adaptive Gauss-Kronrod plus a Gauss-Legendre cross-check.

``qag`` is QUADPACK's adaptive QAG on G7/K15 (Piessens et al. 1983), run
on the components of one or more functions over one subdivision as
DCUHRE runs vector integrands (Berntsen, Espelid and Genz 1991): the
subinterval with the largest error ``sum(w_c * |K15_c - G7_c|)`` over
every component of every function is bisected until the summed error is
at most ``max(abs_tol, REL_TOL * min_i sum_c(w_c * |I_i,c|))``, each
function i weighing its components alike, within ``MAX_INTERVALS``
subintervals.  The smallest function's own relative term governs, so
each function's error is within the tolerance it would have alone.
Both schemes need only the two weighted sums of a panel, never its 15
values, so a panel is one call that returns the K15 estimate of each
component and the panel's weighted error: ``calculus.integrate_many``
and ``integrate`` pass the compiled kernel of the (r, q) pairs of their
functions built on :data:`RULE`, its ``eps`` and weights bound, and
``integrate_scalar``, one function of one component, a loop over
``RULE`` that calls its integrand once per node.  The panel sums, the
weighted error and the Gauss-Legendre sum add left to right, so they
round alike on every Python.  At a finite value the zero G7 weights of
the Kronrod-only nodes add +-0.0, which leaves such a sum as it is; a
non-finite value makes the K15 sum non-finite too, and ``qag`` raises on
it.
``gauss_legendre`` is the independent fixed-order rule a checker can
route the same integrand through to guard against silent quadrature
failure.  ``adaptive_simpson`` is no longer on any library path; tests
use it as a third, independent method.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from functools import lru_cache

from .errors import NonFiniteIntegrand, QuadratureNonConvergent
from .value import Value

MAX_DEPTH = 40  # adaptive Simpson recursion limit
MAX_EVALS = 2 ** 20  # integrand evaluations per adaptive Simpson integral
MAX_INTERVALS = 2000  # Gauss-Kronrod subintervals per integral
REL_TOL = 1e-12  # relative tolerance beside QuadratureSpec.abs_tol

# The positive Kronrod nodes on [-1, 1], descending, and the weights of
# K15 and G7 (QUADPACK qk15).
_XK = (0.991455371120812639206854697526329,
       0.949107912342758524526189684047851,
       0.864864423359769072789712788640926,
       0.741531185599394439863864773280788,
       0.586087235467691130294144845693013,
       0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970,
       0.063092092629978553290700663189204,
       0.104790010322250183839876322541518,
       0.140653259715525918745189590510238,
       0.169004726639267902826583426598550,
       0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG7 = _WG + (0.417959183673469387755102040816327,) + _WG[::-1]


class _Rule(tuple):
    """A tuple that is equal to itself alone and hashes by identity, as the
    expression nodes do: ``expr.kernel`` keys its cache on the rule at
    every call, and a plain tuple would hash its 45 floats each time."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


#: The G7/K15 rule: one ``(node, K15 weight, G7 weight)`` per node of
#: [-1, 1], ascending; the G7 weight is 0.0 at the 8 Kronrod-only nodes
#: (the even-indexed ones).
RULE = _Rule(zip(
    tuple(-x for x in _XK) + (0.0,) + _XK[::-1],
    _WK + (0.209482141084727828012999174891714,) + _WK[::-1],
    tuple(w for g in _WG7 for w in (0.0, g)) + (0.0,)))


class QuadratureSpec(Value):
    """The absolute tolerance of every :func:`qag` integral; its relative
    tolerance ``REL_TOL`` and the Gauss-Legendre order are fixed."""

    __slots__ = ("abs_tol",)
    nodes = 64  # class constant, not a field

    def __init__(self, abs_tol: float = 1e-10):
        if not (math.isfinite(abs_tol) and abs_tol > 0.0):
            raise ValueError(
                f"abs_tol must be finite and positive, got {abs_tol!r}")
        self._set(abs_tol)


def integrate_scalar(fn, a: float, b: float, spec: QuadratureSpec) -> float:
    """Integral of ``fn`` over [a, b] by :func:`qag` on one component,
    ``fn`` called once per node."""
    def panel(center, half):
        kronrod = gauss = 0.0
        for x, wk, wg in RULE:
            value = fn(center + half * x)
            kronrod = kronrod + wk * value
            gauss = gauss + wg * value
        kronrod = half * kronrod
        return (kronrod,), abs(kronrod - half * gauss)
    return qag(panel, a, b, spec, (1.0,))[0]


def qag(panel, a: float, b: float, spec: QuadratureSpec,
        weights: tuple[float, ...], functions: int = 1) -> tuple[float, ...]:
    """Integrals over [a, b] of ``functions`` functions of ``m =
    len(weights)`` components each, their errors weighted by the positive
    ``weights``: ``k = functions * m`` values, function after function.
    ``panel(center, half)`` gives, for the subinterval ``[center - half,
    center + half]``, ``(values, error)``: ``values[c] = half*K_c`` for
    each of the k components and ``error = w_0*abs(half*K_0 - half*G_0) +
    w_1*abs(...) + ...``, added left to right with ``weights`` repeated
    once per function, where ``K_c`` and ``G_c`` are the sums over
    :data:`RULE` of the K15 and G7 weights times component c at
    ``center + half*x``, added left to right from ``0.0`` in node order;
    each subinterval is one ``panel`` call.  The summed error must reach
    ``max(abs_tol, REL_TOL * min_i(w_0*|I_i,0| + w_1*|I_i,1| + ...))``,
    the smallest function's own relative term, so for one function the
    stop is that function's alone.

    Raises ``NonFiniteIntegrand`` as soon as a running sum or the error
    stops being finite (naming the first non-finite component's panel
    estimate), and ``QuadratureNonConvergent`` when the tolerance needs
    more than ``MAX_INTERVALS`` subintervals."""
    if a == b:
        return (0.0,) * (functions * len(weights))
    values, err = panel(0.5 * (a + b), 0.5 * (b - a))
    if not (math.isfinite(err) and all(map(math.isfinite, values))):
        raise _non_finite(values, a, b, a, b)
    if _converged(err, spec, weights, values):
        return tuple(value + 0.0 for value in values)  # fsum of one term
    heap, totals = [(-err, a, b, values)], values  # (-error, lo, hi, values)
    while len(heap) < MAX_INTERVALS:
        neg_err, lo, hi, values = heapq.heappop(heap)  # the worst subinterval
        totals = tuple(map(operator.sub, totals, values))
        err += neg_err
        mid = 0.5 * (lo + hi)
        for lo, hi in ((lo, mid), (mid, hi)):
            values, panel_err = panel(0.5 * (lo + hi), 0.5 * (hi - lo))
            totals = tuple(map(operator.add, totals, values))
            err += panel_err
            if not (math.isfinite(err) and all(map(math.isfinite, totals))):
                raise _non_finite(values, a, b, lo, hi)
            heapq.heappush(heap, (-panel_err, lo, hi, values))
        if _converged(err, spec, weights, totals):
            return tuple(map(math.fsum, zip(*[item[3] for item in heap])))
    raise QuadratureNonConvergent(
        f"tolerance {spec.abs_tol:g} not met on [{a!r}, {b!r}] "
        f"within MAX_INTERVALS={MAX_INTERVALS} subintervals")


def _converged(err, spec, weights, totals) -> bool:
    """``err <= max(abs_tol, REL_TOL * min_i norm_i)``, where norm_i, the
    weighted sum of function i's ``len(weights)`` totals, adds left to
    right from 0.  The norms are formed only when ``err`` is above
    ``abs_tol`` and at most ``REL_TOL`` times the weighted sum of all the
    totals, which is at least each norm and, for one function, its norm:
    most bisections are rejected on that sum alone."""
    if err <= spec.abs_tol:
        return True
    if err > REL_TOL * sum(map(operator.mul, itertools.cycle(weights),
                               map(abs, totals))):
        return False
    scaled = map(operator.mul, itertools.cycle(weights), map(abs, totals))
    return err <= REL_TOL * min(map(sum, zip(*[scaled] * len(weights))))


def _non_finite(values, a, b, lo, hi) -> NonFiniteIntegrand:
    """The error of panel [lo, hi] of [a, b], naming its first non-finite
    value (its first value if all are finite)."""
    value = next((v for v in values if not math.isfinite(v)), values[0])
    return NonFiniteIntegrand(
        f"integrand not finite on [{a!r}, {b!r}]: subinterval "
        f"[{lo!r}, {hi!r}] estimates {value!r}")


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
    total = 0.0  # left to right, as the panel sums
    for x, w in zip(xs, ws):
        total += w * fn(mid + half * x)
    return half * total
