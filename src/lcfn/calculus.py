"""Calculus for functions t -> r(t) + q(t)*A and its theorem checkers.

Derivatives and Riemann integrals act componentwise on the coordinate
functions; a function reads r and q through one compiled kernel call per
batch of points (a grid) or per point (``at``, their point kernel), and
its integral makes one call of their panel kernel per quadrature panel,
which returns the panel's sums, and bounds the error in the norm
|q| + |r + a_m*q|.
Functions of one generator and one domain integrate together
(``integrate_many``): one panel kernel over all their components, one
subdivision, and each function held to its own tolerance.
Components are interned expressions, so the kernels (``expr.kernel``)
and the derivative of a function rebuilt from the same trees are found
again, not redone.
The checkers turn the calculus theorems (fundamental theorem,
integration by parts, positivity of the squared integral, whose center
also decides the zero class, derivative / integral interchange) into
numeric residuals with pinned tolerances.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

from . import expr as ex
from .core import LCFN
from .errors import (EvalError, GeneratorMismatch, OutsideDomain,
                     WindowOutsideDomain)
from .generator import Generator, same_generator
# Not called here: perfbench hooks integrate_scalar.
from .quadrature import QuadratureSpec, gauss_legendre, integrate_scalar, qag
from .value import Value

FTC_TOL = 1e-8
IBP_TOL = 1e-8
DERIV_FD_TOL = 1e-6
INTERCHANGE_TOL = 1e-6
SPOT_FRACTIONS = (0.21, 0.5, 0.79)  # FTC spot checks, as domain fractions
MAX_GRID_NODES = 2 ** 16  # the largest grid: 64 times the default scan


class CheckReport(Value):
    """Uniform result shape for the theorem checkers."""

    __slots__ = ("check", "passed", "tolerance", "residuals", "notes",
                 "records")

    def __init__(self, check: str, passed: bool, tolerance: float,
                 residuals: dict, notes: tuple[str, ...] = (),
                 records: tuple[dict, ...] = ()):
        self._set(check, passed, tolerance, residuals, notes, records)

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "residuals": dict(self.residuals),
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.records:
            out["records"] = [dict(r) for r in self.records]
        return out


class FuzzyFunction(Value):
    """t -> r(t) + q(t)*A on a closed interval, components as expressions."""

    __slots__ = ("r", "q", "gen", "domain", "eps_aware")

    def __init__(self, r: ex.Expr, q: ex.Expr, gen: Generator,
                 domain: tuple[float, float], eps_aware: bool = False):
        a, b = domain
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"domain ends must be finite, got [{a}, {b}]")
        if not a < b:
            raise ValueError(f"empty domain [{a}, {b}]")
        self._set(r, q, gen, domain, eps_aware)

    def _key(self) -> tuple:  # eps_aware stays out of == and hash
        return (self.r, self.q, self.gen, self.domain)

    @classmethod
    def from_strings(cls, r_src: str, q_src: str, gen: Generator,
                     domain, two_variable: bool = False) -> "FuzzyFunction":
        variables = ("t", "eps") if two_variable else ("t",)
        return cls(ex.parse(r_src, variables), ex.parse(q_src, variables),
                   gen, (float(domain[0]), float(domain[1])),
                   eps_aware=two_variable)

    def at(self, t: float, eps: float | None = None) -> LCFN:
        """f(t) by one call of the (r, q) point kernel; on an error or a
        non-finite value, the checked read of ``values``, so it raises
        what ``values((t,), eps)`` raises."""
        a, b = self.domain
        if not a <= t <= b:
            raise OutsideDomain(f"t={t!r} outside [{a!r}, {b!r}]")
        try:
            r, q = ex.kernel("point", self.r, self.q)(t, eps)
        except EvalError:
            r = q = math.nan
        if not math.isfinite(r + q):  # or finite values whose sum overflows
            (r,), (q,) = self.values((t,), eps)
        return LCFN(r, q, self.gen)

    def values(self, ts, eps: float | None = None) -> tuple[list, list]:
        """r and q at each of ``ts``, checked finite, in one kernel call."""
        return sample(ex.kernel("columns", self.r, self.q), (self.r, self.q),
                      ("component r", "component q"), ts, eps)

    def derivative(self, order: int = 1, var: str = "t") -> "FuzzyFunction":
        return FuzzyFunction(ex.differentiate(self.r, var, order),
                             ex.differentiate(self.q, var, order),
                             self.gen, self.domain, eps_aware=self.eps_aware)

    def center_expr(self) -> ex.Expr:
        """r + a_m*q as a single expression."""
        return ex.derived(_center, self.r, self.q, self.gen.a_m)

    def plus(self, other: "FuzzyFunction", lam: float = 1.0) -> "FuzzyFunction":
        self._check_compatible(other)
        r, q = ex.derived(_plus, self.r, self.q, other.r, other.q, lam)
        return FuzzyFunction(r, q, self.gen, self.domain,
                             eps_aware=self.eps_aware or other.eps_aware)

    def cross_with(self, other: "FuzzyFunction") -> "FuzzyFunction":
        """Pointwise product, composed through the coordinate formulas so
        the result is again expression-backed (and symbolically
        differentiable)."""
        self._check_compatible(other)
        r, q = ex.derived(_cross, self.r, self.q, other.r, other.q,
                          self.gen.a_m)
        return FuzzyFunction(r, q, self.gen, self.domain,
                             eps_aware=self.eps_aware or other.eps_aware)

    def _check_compatible(self, other: "FuzzyFunction") -> None:
        if not same_generator(self.gen, other.gen):
            raise GeneratorMismatch("functions live over different generators")
        if self.domain != other.domain:
            raise ValueError("functions must share a domain")


# The roots of center_expr, plus and cross_with, built through ex.derived.
def _center(r: ex.Expr, q: ex.Expr, am: float) -> ex.Expr:
    return ex.add(r, ex.mul(ex.num(am), q))


def _plus(r: ex.Expr, q: ex.Expr, r2: ex.Expr, q2: ex.Expr, lam: float):
    lam_e = ex.num(lam)
    return ex.add(r, ex.mul(lam_e, r2)), ex.add(q, ex.mul(lam_e, q2))


def _cross(r: ex.Expr, q: ex.Expr, r2: ex.Expr, q2: ex.Expr, am: float):
    qq = ex.mul(q, q2)
    return (ex.sub(ex.mul(r, r2), ex.mul(ex.num(am * am), qq)),
            ex.add(ex.add(ex.mul(r, q2), ex.mul(r2, q)),
                   ex.mul(ex.num(2.0 * am), qq)))


def deriv(f: FuzzyFunction, t: float, eps: float | None = None) -> LCFN:
    """Derivative at an interior point, componentwise and symbolic."""
    a, b = f.domain
    if not a < t < b:
        raise OutsideDomain(f"t={t!r} is not interior to [{a!r}, {b!r}]")
    fd = f.derivative()
    return LCFN(finite(ex.evaluate(fd.r, t, eps), "derivative r'", t),
                finite(ex.evaluate(fd.q, t, eps), "derivative q'", t), f.gen)


def finite(value: float, name: str, t: float) -> float:
    """``value``, or an EvalError naming ``name``, ``t`` and the value."""
    if math.isfinite(value):
        return value
    raise EvalError(f"{name} is {value!r} at t={t!r}")


def sample(kernel, roots: tuple, names: tuple, ts,
           eps: float | None = None) -> tuple[list, ...]:
    """``roots`` at ``ts`` by one call of their compiled ``kernel``, checked
    finite: the first error of reading each point, root by root, as
    ``finite(ex.evaluate(root, t, eps), name, t)``.  Each returned column
    is summed (a non-finite value makes its sum non-finite), and only when
    a sum is not finite are the columns scanned in that order, which finds
    nothing when finite values merely overflowed the sum; only a kernel
    that raised is read again, point by point.  What a scan kernel
    returns after its column is passed through unchecked."""
    try:
        out = kernel(ts, eps)
    except EvalError:
        out = None
    if out is None:
        for t in ts:
            for root, name in zip(roots, names):
                finite(ex.evaluate(root, t, eps), name, t)
        raise AssertionError(
            "a batch failed where its points one by one did not")
    columns = out[:len(roots)]
    if not all(map(math.isfinite, map(sum, columns))):
        for t, *row in zip(ts, *columns):
            for value, name in zip(row, names):
                finite(value, name, t)
    return out


def integrate(f: FuzzyFunction, spec: QuadratureSpec = QuadratureSpec(),
              lo: float | None = None, hi: float | None = None,
              eps: float | None = None) -> LCFN:
    """Componentwise quadrature over the domain (or a sub-interval); eps
    binds the second variable of a two-variable function.  The
    one-function case of :func:`integrate_many`: the same ``qag`` run,
    its element returned without a list.

    r and q share one subdivision, and the tolerance bounds the error E
    in the norm: ||E|| = |E_q| + |E_r + a_m*E_q| <= |E_r| + (1 + |a_m|)*|E_q|."""
    return LCFN(*_integrate(f, (f.r, f.q), spec, lo, hi, eps), f.gen)


def integrate_many(fs, spec: QuadratureSpec = QuadratureSpec(),
                   lo: float | None = None, hi: float | None = None,
                   eps: float | None = None) -> list[LCFN]:
    """The integral of each of ``fs``, functions of one generator and one
    domain, over the domain (or a sub-interval) on one subdivision: one
    panel kernel over all their (r, q) roots, so a subtree they share is
    evaluated once per node, and one ``qag`` run.  Each function's error
    in the norm stays within the tolerance it has alone: the summed error
    must reach ``max(abs_tol, REL_TOL * min_i N_i)``, where ``N_i =
    |I_r,i| + (1 + |a_m|)*|I_q,i|``."""
    if not fs:
        return []
    f = fs[0]
    for other in fs[1:]:
        f._check_compatible(other)
    values = iter(_integrate(f, [root for g in fs for root in (g.r, g.q)],
                             spec, lo, hi, eps))
    return [LCFN(r_val, q_val, f.gen) for r_val, q_val in zip(values, values)]


def _integrate(f: FuzzyFunction, roots, spec: QuadratureSpec,
               lo: float | None, hi: float | None,
               eps: float | None) -> tuple[float, ...]:
    """The integrals of ``roots``, the (r, q) pairs of functions on f's
    domain and generator, in one ``qag`` run over [lo, hi] (the domain
    by default), each pair's error weighted by (1, 1 + |a_m|)."""
    a, b = f.domain
    lo = a if lo is None else lo
    hi = b if hi is None else hi
    if not (a <= lo <= hi <= b):
        raise OutsideDomain(f"[{lo!r}, {hi!r}] not inside [{a!r}, {b!r}]")
    weights, functions = (1.0, 1.0 + abs(f.gen.a_m)), len(roots) // 2
    panel = ex.kernel("panel", *roots)
    return qag(partial(panel, eps, weights * functions), lo, hi, spec,
               weights, functions)


def node_grid(a: float, b: float, nodes: int) -> list[float]:
    """``nodes`` equally spaced points from a to b, both ends exact; an
    ``int`` from 2 to ``MAX_GRID_NODES``, checked before anything is
    built."""
    need_int(nodes, "grid node count")
    if nodes < 2:
        raise ValueError(f"need at least 2 grid nodes, got {nodes!r}")
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"need at most MAX_GRID_NODES={MAX_GRID_NODES} "
                         f"grid nodes, got {nodes!r}")
    span, last = b - a, float(nodes - 1)
    ts = [a + span * i / last for i in _steps(nodes)]
    ts[-1] = b
    return ts


def need_int(count, name: str) -> None:
    """A TypeError naming ``name`` and ``count`` unless it is an int."""
    if not isinstance(count, int):
        raise TypeError(f"{name} must be an int, got {count!r}")


@lru_cache(maxsize=4)
def _steps(nodes: int) -> tuple[float, ...]:
    """The floats 0.0 ... nodes - 1, kept per node count (about 32 bytes a
    node): float-by-float products are faster than int-by-float ones, and
    each is exact, so ``span * i / last`` keeps its bits."""
    return tuple(map(float, range(nodes)))


class CumulativeIntegral:
    """F(t) = integral of f from the left endpoint, computed on demand:
    each query is one ``integrate`` call over [a, t], so nothing is
    cached and a t outside the domain raises ``OutsideDomain``."""

    def __init__(self, f: FuzzyFunction,
                 spec: QuadratureSpec = QuadratureSpec()):
        self.f = f
        self.spec = spec

    def at(self, t: float) -> LCFN:
        return integrate(self.f, self.spec, hi=t)


# -- checkers -----------------------------------------------------------------

def ftc_check(f: FuzzyFunction,
              spec: QuadratureSpec = QuadratureSpec()) -> CheckReport:
    """integral of f' against f(b) - f(a), plus mean-value spot checks of
    F' = f at interior points; a spot window [t - h, t + h] whose ends do
    not part raises.  Each tolerance is scaled by max(1, the norms of the
    values it compares), so round-off at large values does not fail."""
    a, b = f.domain
    fd = f.derivative()
    total = integrate(fd, spec)
    fa, fb = f.at(a), f.at(b)
    endpoint = fb - fa
    residual = (total - endpoint).norm()
    passed = residual < FTC_TOL * max(1.0, total.norm(), fa.norm(), fb.norm())

    h = min(3e-4, 0.05 * (b - a))
    tight = QuadratureSpec(min(spec.abs_tol, 1e-13))
    spots = []
    for u in SPOT_FRACTIONS:
        t = a + (b - a) * u
        lo, hi = t - h, t + h
        if not lo < hi:
            raise WindowOutsideDomain(
                f"FTC spot window of h={h!r} at t={t!r} is a single point: "
                "t - h is not below t + h")
        # the mean over the window as rounded: near t's ulp, hi - lo is not 2h
        window = integrate(f, tight, lo, hi).scaled(1.0 / (hi - lo))
        value = f.at(t)
        spots.append((window - value).norm())
        passed = passed and spots[-1] < DERIV_FD_TOL * max(
            1.0, window.norm(), value.norm())
    spot_residual = max(spots)

    notes = []
    if ex.kink_hits(fd.r, a) or ex.kink_hits(fd.q, a):
        notes.append("abs kink at left endpoint; sign(0)=0 convention used")
    return CheckReport(
        check="ftc", passed=passed, tolerance=FTC_TOL,
        residuals={"endpoint": residual, "spot_max": spot_residual},
        notes=tuple(notes))


def ibp_check(f: FuzzyFunction, g: FuzzyFunction,
              spec: QuadratureSpec = QuadratureSpec()) -> CheckReport:
    """integral(f*g') + integral(f'*g) against the boundary term."""
    a, b = f.domain
    left = integrate(f.cross_with(g.derivative()), spec)
    right = integrate(f.derivative().cross_with(g), spec)
    boundary = f.at(b).cross(g.at(b)) - f.at(a).cross(g.at(a))
    residual = (left + right - boundary).norm()
    return CheckReport(
        check="ibp", passed=residual < IBP_TOL, tolerance=IBP_TOL,
        residuals={"identity": residual})


def square_integral(f: FuzzyFunction, spec: QuadratureSpec = QuadratureSpec()
                    ) -> tuple[LCFN, CheckReport]:
    """Integral of the pointwise square, with positivity diagnostics.

    The center of the result is the integral of c^2, c = r + a_m*q, so it
    can never be genuinely negative; a direct Gauss-Legendre quadrature of
    c^2 cross-checks the adaptive coordinate route through an independent
    method.  c = 0 almost everywhere exactly when that integral is 0, so
    ``residuals["center"] <= tolerance`` reads the zero class in L^2,
    within the quadrature tolerance: a center tiny but nonzero everywhere,
    as c = 1e-6 on [0, 1] (integral 1e-12), counts as zero class.
    """
    a, b = f.domain
    value = integrate(f.cross_with(f), spec)
    center = value.center()

    sq = ex.pow_(f.center_expr(), ex.Num(2.0))
    direct = gauss_legendre(lambda t: ex.evaluate(sq, t), a, b, spec.nodes)

    passed = center >= -spec.abs_tol and abs(center - direct) <= spec.abs_tol
    report = CheckReport(
        check="square-integral", passed=passed, tolerance=spec.abs_tol,
        residuals={
            "center": center,
            "center_direct": direct,
            "route_gap": abs(center - direct),
        })
    return value, report


def interchange_check(g: FuzzyFunction, eps0: float,
                      spec: QuadratureSpec = QuadratureSpec()) -> CheckReport:
    """d/deps of integral(g(t, eps)) against integral(d g/d eps) at eps0.

    g must be built with two_variable=True so its components may mention
    eps.  The left side uses a central difference in eps over tightened
    quadratures; the right side integrates the symbolic partial.
    """
    if not g.eps_aware:
        raise ValueError("interchange_check needs a two-variable function")
    if not math.isfinite(eps0):
        raise ValueError(f"eps0 must be finite, got {eps0!r}")
    tight = QuadratureSpec(min(spec.abs_tol, 1e-13))
    h = 1e-4 * max(1.0, abs(eps0))
    lhs = (integrate(g, tight, eps=eps0 + h)
           - integrate(g, tight, eps=eps0 - h)).scaled(1.0 / (2.0 * h))
    rhs = integrate(g.derivative(var="eps"), spec, eps=eps0)

    residual = (lhs - rhs).norm()
    return CheckReport(
        check="interchange", passed=residual < INTERCHANGE_TOL,
        tolerance=INTERCHANGE_TOL,
        residuals={"norm": residual,
                   "lhs_r": lhs.r, "lhs_q": lhs.q,
                   "rhs_r": rhs.r, "rhs_q": rhs.q})
