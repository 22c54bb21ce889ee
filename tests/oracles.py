"""Reference computations the tests hold the library to.

Each one takes a route the library does not: a recursive tree walk for
the compiled expressions, the 15 values of a panel stored and summed
column by column for the panel sums, one loop over the components of
each panel for ``qag``, the kernel's pointwise formula for its
expression form, one scalar quadrature for the witness's b_k, one
``LCFN`` per row for the reconstruction's residual grid, and branches
sliced from the knots on every call for a generator's alpha-levels.
"""
import heapq
import math
import operator
from functools import reduce

from lcfn import LCFN, DiracKernel, expr as ex
from lcfn.errors import EvalError, NonFiniteIntegrand, QuadratureNonConvergent
from lcfn.generator import _branch_x_at
from lcfn.quadrature import MAX_INTERVALS, REL_TOL, RULE, integrate_scalar
from lcfn.variational import SMOOTHNESS


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


def qag_reference(panel, a, b, spec, weights):
    """``quadrature.qag`` as one loop over components per panel, its
    running sums updated one component at a time; ``panel`` gives one
    ``(K15 sum, G7 sum)`` pair per component (:func:`panel_sums`).  The
    library's loop must give the same values, the same errors and the
    same panels."""
    if a == b:
        return (0.0,) * len(weights)
    heap, totals, err = [], [0.0] * len(weights), 0.0  # (-error, lo, hi, values)
    panels = ((a, b),)
    while True:
        for lo, hi in panels:
            center = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            values, panel_err = [], 0.0
            for c, (w, (k15, g7)) in enumerate(zip(weights,
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
        if err <= max(spec.abs_tol,
                      REL_TOL * sum(map(operator.mul, weights,
                                        map(abs, totals)))):
            return tuple(math.fsum(item[3][c] for item in heap)
                         for c in range(len(weights)))
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


def b_direct(f, witness, spec, smoothness=SMOOTHNESS):
    """b_k of ``witness`` as one scalar quadrature of
    (r + a_m*q)^2 * delta over its window."""
    squared = ex.pow_(f.center_expr(), ex.Num(2.0))
    kernel = DiracKernel.build(witness.epsilon, smoothness, witness.index)
    t0, eps = witness.t0, witness.epsilon
    return integrate_scalar(
        lambda t: ex.evaluate(squared, t) * kernel_value(kernel, t - t0),
        t0 - eps, t0 + eps, spec)


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


def alpha_level(gen, alpha):
    """``gen.alpha_level(alpha)`` for alpha in [0, 1], finding the peak and
    slicing both branches from ``gen.knots`` on every call."""
    if alpha == 0.0:
        return gen.support
    peak = next(i for i, (_, mu) in enumerate(gen.knots) if mu == 1.0)
    if alpha == 1.0:
        return (gen.a_m, gen.a_m)
    lo = _branch_x_at(gen.knots[: peak + 1], alpha)
    hi = _branch_x_at(tuple(reversed(gen.knots[peak:])), alpha)
    return (lo, hi)
