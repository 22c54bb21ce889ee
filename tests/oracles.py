"""Reference computations the tests hold the library to.

Each one takes a route the library does not: a recursive tree walk for
the compiled expressions, the 15 values of a panel stored and summed
column by column for the panel sums, one loop over the components of
each panel for ``qag``, the kernel's pointwise formula for its
expression form, one scalar quadrature for the witness's b_k, one
``LCFN`` per row for the reconstruction's residual grid, branches
sliced from the knots on every call and walked knot by knot for a
generator's alpha-levels, three intermediate elements for the product's
defining form, one helper per signed term for element literals,
``center()`` with a verdict built per call for the order, the sign
classes and the norm, and Python passes over the g' column for the
critical-point scan.
"""
import heapq
import math
import operator
from functools import reduce

from lcfn import LCFN, DiracKernel, expr as ex
from lcfn.calculus import finite, node_grid, sample
from lcfn.core import _ELEMENT, Ordering, SignClass, _require_same_gen
from lcfn.errors import (EvalError, ExprSyntaxError, NonFiniteIntegrand,
                         QuadratureNonConvergent)
from lcfn.quadrature import MAX_INTERVALS, REL_TOL, RULE, integrate_scalar
from lcfn.variational import (ACCEPT_FACTOR, CLASSIFY_TOL, SCAN_GRID,
                               SMOOTHNESS, TOUCH_FACTOR, CriticalPoint,
                               Verdict, _bisect)


def walk(e, t, eps=None):
    """Recursive tree walk; ``ex.evaluate`` must match it bit for bit."""
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Var):
        return t if e.name == "t" else ex._var(e.name, eps)
    if isinstance(e, ex.Neg):
        return -walk(e.arg, t, eps)
    if isinstance(e, ex.Bin):
        return ex._BIN[e.op](walk(e.left, t, eps), walk(e.right, t, eps))
    return ex._FN[e.fn](walk(e.arg, t, eps))


def walk_at(e, t, eps=None):
    """``walk``, its ``EvalError`` raised again as the compiled kernels
    raise it: of its class, with ``at t=...`` added."""
    try:
        return walk(e, t, eps)
    except EvalError as err:
        raise type(err)(f"{err} at t={t!r}") from None


NODES, K15_WEIGHTS, _ = zip(*RULE)
G7_WEIGHTS = tuple(wg for _, _, wg in RULE[1::2])  # the 7 Gauss nodes


def column_sums(fx):
    """The K15 and G7 sums of one panel's 15 stored values ``fx``, each
    added left to right from ``0.0``, the G7 sum over the Gauss nodes
    alone."""
    return (reduce(operator.add, map(operator.mul, K15_WEIGHTS, fx), 0.0),
            reduce(operator.add, map(operator.mul, G7_WEIGHTS, fx[1::2]), 0.0))


def panel_sums(columns):
    """A :func:`qag_reference` panel from ``columns``, which maps a list of
    points to one list of values per component: one call on the 15 nodes
    of the subinterval, then the column sums of each list."""
    def panel(center, half):
        return tuple(map(column_sums,
                         columns([center + half * x for x in NODES])))
    return panel


def panel_of(columns, weights):
    """A ``qag`` panel from ``columns``: the column sums of
    :func:`panel_sums`, each K15 sum times half, and their error weighted
    by ``weights``, added one component after another from ``0.0``."""
    sums = panel_sums(columns)

    def panel(center, half):
        values, err = [], 0.0
        for w, (k15, g7) in zip(weights, sums(center, half)):
            values.append(half * k15)
            err += w * abs(half * k15 - half * g7)
        return tuple(values), err
    return panel


def qag_reference(panel, a, b, spec, weights, functions=1):
    """``quadrature.qag`` as one loop over components per panel, its
    running sums updated one component at a time; ``panel`` gives one
    ``(K15 sum, G7 sum)`` pair per component (:func:`panel_sums`), the
    components of ``functions`` functions weighted by ``weights`` each.
    The stop takes each function's weighted norm in turn and compares the
    error with the smallest.  The library's loop must give the same
    values, the same errors and the same panels."""
    size = functions * len(weights)
    if a == b:
        return (0.0,) * size
    heap, totals, err = [], [0.0] * size, 0.0  # (-error, lo, hi, values)
    panels = ((a, b),)
    while True:
        for lo, hi in panels:
            center = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            values, panel_err = [], 0.0
            for c, (w, (k15, g7)) in enumerate(zip(weights * functions,
                                                   panel(center, half))):
                kronrod = half * k15
                gauss = half * g7
                values.append(kronrod)
                panel_err += w * abs(kronrod - gauss)
                totals[c] += kronrod
            err += panel_err
            if not (math.isfinite(err) and all(map(math.isfinite, totals))):
                value = next((v for v in values if not math.isfinite(v)),
                             values[0])
                raise NonFiniteIntegrand(
                    f"integrand not finite on [{a!r}, {b!r}]: subinterval "
                    f"[{lo!r}, {hi!r}] estimates {value!r}")
            heapq.heappush(heap, (-panel_err, lo, hi, values))
        norms = [sum(map(operator.mul, weights,
                         map(abs, totals[i:i + len(weights)])))
                 for i in range(0, size, len(weights))]
        if err <= max(spec.abs_tol, REL_TOL * min(norms)):
            return tuple(math.fsum(item[3][c] for item in heap)
                         for c in range(size))
        if len(heap) >= MAX_INTERVALS:
            raise QuadratureNonConvergent(
                f"tolerance {spec.abs_tol:g} not met on [{a!r}, {b!r}] "
                f"within MAX_INTERVALS={MAX_INTERVALS} subintervals")
        neg_err, lo, hi, values = heapq.heappop(heap)  # the worst subinterval
        totals = [total - v for total, v in zip(totals, values)]
        err += neg_err
        mid = 0.5 * (lo + hi)
        panels = ((lo, mid), (mid, hi))


def kernel_value(kernel, x):
    """The mollifier ``kernel`` at offset ``x`` from its center: zero off
    the open window, the normalized cosine power on it."""
    if abs(x) >= kernel.epsilon:
        return 0.0
    base = (math.cos(math.pi * x / kernel.epsilon) + 1.0) / 2.0
    return base ** kernel.power / kernel.mass_norm


def b_direct(f, t0, epsilon, index, spec, smoothness=SMOOTHNESS):
    """b_k of the Lagrange witness of index k at t0, on a window of
    half-width ``epsilon`` (already clamped), as one scalar quadrature of
    (r + a_m*q)^2 * delta over that window."""
    squared = ex.pow_(f.center_expr(), ex.Num(2.0))
    kernel = DiracKernel.build(epsilon, smoothness, index)
    return integrate_scalar(
        lambda t: ex.evaluate(squared, t) * kernel_value(kernel, t - t0),
        t0 - epsilon, t0 + epsilon, spec)


def reconstruction_rows(f, u, ts):
    """The residual grid of ``dbr_reconstruct`` over ``ts`` and its two
    maxima, one ``LCFN`` e = f(t) - u per row."""
    rows, max_center, max_coord = [], 0.0, 0.0
    for t, r, q in zip(ts, *f.values(ts)):
        e = LCFN(r - u.r, q - u.q, f.gen)
        center = e.center()
        coord = max(abs(e.r), abs(e.q))
        rows.append((t, center, coord))
        max_center = max(max_center, abs(center))
        max_coord = max(max_coord, coord)
    return tuple(rows), max_center, max_coord


def branch_x_at(branch, mu):
    """x with membership mu on a branch ascending in mu, by a walk over its
    segments; ``generator._branch_x_at`` must match it bit for bit."""
    if mu <= branch[0][1]:
        return branch[0][0]
    for i in range(1, len(branch)):
        x0, m0 = branch[i - 1]
        x1, m1 = branch[i]
        if mu <= m1:
            return x0 + (mu - m0) * (x1 - x0) / (m1 - m0)
    return branch[-1][0]


def alpha_level(gen, alpha):
    """``gen.alpha_level(alpha)`` for alpha in [0, 1], finding the peak and
    slicing both branches from ``gen.knots`` on every call."""
    if alpha == 0.0:
        return gen.support
    peak = next(i for i, (_, mu) in enumerate(gen.knots) if mu == 1.0)
    if alpha == 1.0:
        return (gen.a_m, gen.a_m)
    lo = branch_x_at(gen.knots[: peak + 1], alpha)
    hi = branch_x_at(tuple(reversed(gen.knots[peak:])), alpha)
    return (lo, hi)


def cross_composed(b, c):
    """The product's defining form center(C)*B + center(B)*C - b*c
    composed of three elements and the vector-space operations, which
    check the generators; ``core.cross_oracle`` must match it bit for
    bit."""
    cb, cc = b.center(), c.center()
    return b.scaled(cc) + c.scaled(cb) - LCFN.from_scalar(cb * cc, b.gen)


def parse_element(src, gen):
    """``core.parse_element`` reading the match one signed term at a time,
    each term a pair added to the first."""
    m = _ELEMENT.fullmatch(src)
    if m is None:
        prefix = _ELEMENT.match(src)
        at = prefix.end() if prefix else 0
        raise ExprSyntaxError(
            f"element literal {src!r} is not r + q*A from {src[at:]!r}", at)
    r, q = _signed_term(*m.group(1, 2, 3, 4))
    if m[5]:
        r2, q2 = _signed_term(*m.group(5, 6, 7, 8))
        r, q = r + r2, q + q2
    if not (math.isfinite(r) and math.isfinite(q)):
        raise ExprSyntaxError(f"element literal {src!r} is not finite", 0)
    return LCFN(r + 0.0, q + 0.0, gen)


def _signed_term(sign, number, a, lone_a):
    value = (-1.0 if sign == "-" else 1.0) * (1.0 if lone_a else float(number))
    return (0.0, value) if a or lone_a else (value, 0.0)


def compare_with_tier(b, c):
    """``core.compare_with_tier`` from each element's ``center()``, its
    verdict tuple built per call; the library must return the same
    verdict, its members the very ``Ordering`` members, or raise the same
    ValueError for a pair with a NaN center, before tier 2 sees it."""
    if b.gen is not c.gen:
        _require_same_gen(b, c)
    cb, cc = b.center(), c.center()
    if cb < cc:
        return (Ordering.LESS, 1)
    if cb > cc:
        return (Ordering.GREATER, 1)
    if cb != cc:
        raise ValueError(f"elements ({b.r!r}, {b.q!r}) and ({c.r!r}, "
                         f"{c.q!r}) have no place in the order: a center "
                         "is NaN")
    ab, ac = abs(b.q), abs(c.q)
    if ab < ac:
        return (Ordering.LESS, 2)
    if ab > ac:
        return (Ordering.GREATER, 2)
    if b.q < c.q:
        return (Ordering.LESS, 3)
    if b.q > c.q:
        return (Ordering.GREATER, 3)
    if b.r < c.r:
        return (Ordering.LESS, 1)
    if b.r > c.r:
        return (Ordering.GREATER, 1)
    return (Ordering.EQUAL, None)


def sign_class(b):
    """``LCFN.sign_class`` from ``center()``; a NaN center raises."""
    c = b.center()
    if c > 0.0:
        return SignClass.POSITIVE
    if c < 0.0:
        return SignClass.NEGATIVE
    if c == 0.0:
        return SignClass.ZERO
    raise ValueError(f"element ({b.r!r}, {b.q!r}) has center {c!r}, "
                     "which has no sign class")


def norm(b):
    """``LCFN.norm`` from ``center()``."""
    return abs(b.q) + abs(b.center())


def critical_points(f, grid=SCAN_GRID):
    """``variational.critical_points`` from the column kernel of g', read
    by a sign loop over every interval, ``max`` and ``min`` of the column
    and ``min`` of its absolute values; the library must return the same
    points, bit for bit."""
    a, b = f.domain
    g1 = ex.differentiate(f.center_expr(), "t", 1)
    g2 = ex.differentiate(g1, "t", 1)
    ts = node_grid(a, b, grid)
    (vals,) = sample(ex.kernel("columns", g1), (g1,),
                     ("center derivative g'",), ts)
    spacing = (b - a) / (grid - 1)
    scale = max(1.0, max(vals), -min(vals))

    roots = []

    def add(t):
        if a < t < b and all(abs(t - seen) > 0.5 * spacing for seen in roots):
            roots.append(t)

    for i in range(1, grid):
        v0, v1 = vals[i - 1], vals[i]
        if v0 == 0.0:
            add(ts[i - 1])
        elif v0 * v1 < 0.0:
            add(_bisect(g1, ts[i - 1], ts[i], v0))

    touch = TOUCH_FACTOR * scale
    for i in range(1, grid - 1) if min(map(abs, vals)) <= touch else ():
        v = abs(vals[i])
        if v == 0.0 or v > touch:
            continue
        if v > abs(vals[i - 1]) or v > abs(vals[i + 1]):
            continue
        if vals[i - 1] * vals[i] < 0.0 or vals[i] * vals[i + 1] < 0.0:
            continue
        w0 = ex.evaluate(g2, ts[i - 1])
        w1 = ex.evaluate(g2, ts[i + 1])
        if w0 * w1 < 0.0:
            t_hat = _bisect(g2, ts[i - 1], ts[i + 1], w0)
            if abs(ex.evaluate(g1, t_hat)) <= ACCEPT_FACTOR * scale:
                add(t_hat)

    points = []
    for t in sorted(roots):
        d1 = finite(ex.evaluate(g1, t), "center derivative g'", t)
        d2 = finite(ex.evaluate(g2, t), "center curvature g''", t)
        if d2 > CLASSIFY_TOL:
            verdict = Verdict.LOCAL_MIN
        elif d2 < -CLASSIFY_TOL:
            verdict = Verdict.LOCAL_MAX
        else:
            verdict = Verdict.INCONCLUSIVE
        points.append(CriticalPoint(t, d1, d2, verdict))
    return tuple(points)
