"""Calculus for functions t -> r(t) + q(t)*A and its theorem checkers.

Derivatives and Riemann integrals act componentwise on the coordinate
functions, so every operation here reduces to scalar calculus plus the
coordinate arithmetic from :mod:`lcfn.core`.  The checkers turn the
calculus theorems (linearity, fundamental theorem, product rule,
integration by parts, positivity of the squared integral, derivative /
integral interchange) into numeric residuals with pinned tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from .core import LCFN
from .errors import EvalError, GeneratorMismatch, OutsideDomain
from .generator import Generator, same_generator
from .quadrature import QuadratureSpec, gauss_legendre, integrate_scalar

FTC_TOL = 1e-8
IBP_TOL = 1e-8
PRODUCT_RULE_TOL = 1e-8
DERIV_FD_TOL = 1e-6
INTERCHANGE_TOL = 1e-6
AE_GRID_POINTS = 2048
AE_THRESHOLD = 1e-9  # |center| above this counts as a grid violation
SPOT_FRACTIONS = (0.21, 0.5, 0.79)  # FTC spot checks, as domain fractions


@dataclass(frozen=True)
class CheckReport:
    """Uniform result shape for the theorem checkers."""

    check: str
    passed: bool
    tolerance: float
    residuals: dict
    notes: tuple[str, ...] = ()
    records: tuple[dict, ...] = ()

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


@dataclass(frozen=True)
class FuzzyFunction:
    """t -> r(t) + q(t)*A on a closed interval, components as expressions."""

    r: ex.Expr
    q: ex.Expr
    gen: Generator
    domain: tuple[float, float]
    eps_aware: bool = field(default=False, compare=False)

    def __post_init__(self):
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"domain ends must be finite, got [{a}, {b}]")
        if not a < b:
            raise ValueError(f"empty domain [{a}, {b}]")

    @classmethod
    def from_strings(cls, r_src: str, q_src: str, gen: Generator,
                     domain, two_variable: bool = False) -> "FuzzyFunction":
        variables = ("t", "eps") if two_variable else ("t",)
        return cls(ex.parse(r_src, variables), ex.parse(q_src, variables),
                   gen, (float(domain[0]), float(domain[1])),
                   eps_aware=two_variable)

    def at(self, t: float, eps: float | None = None) -> LCFN:
        a, b = self.domain
        if not a <= t <= b:
            raise OutsideDomain(f"t={t!r} outside [{a!r}, {b!r}]")
        return LCFN(finite(ex.evaluate(self.r, t, eps), "component r", t),
                    finite(ex.evaluate(self.q, t, eps), "component q", t),
                    self.gen)

    def derivative(self, order: int = 1, var: str = "t") -> "FuzzyFunction":
        return FuzzyFunction(ex.differentiate(self.r, var, order),
                             ex.differentiate(self.q, var, order),
                             self.gen, self.domain, eps_aware=self.eps_aware)

    def center_expr(self) -> ex.Expr:
        """r + a_m*q as a single expression."""
        return ex.add(self.r, ex.mul(ex.num(self.gen.a_m), self.q))

    def plus(self, other: "FuzzyFunction", lam: float = 1.0) -> "FuzzyFunction":
        self._check_compatible(other)
        lam_e = ex.num(lam)
        return FuzzyFunction(ex.add(self.r, ex.mul(lam_e, other.r)),
                             ex.add(self.q, ex.mul(lam_e, other.q)),
                             self.gen, self.domain)

    def cross_with(self, other: "FuzzyFunction") -> "FuzzyFunction":
        """Pointwise product, composed through the coordinate formulas so
        the result is again expression-backed (and symbolically
        differentiable)."""
        self._check_compatible(other)
        am = self.gen.a_m
        qq = ex.mul(self.q, other.q)
        new_r = ex.sub(ex.mul(self.r, other.r), ex.mul(ex.num(am * am), qq))
        new_q = ex.add(ex.add(ex.mul(self.r, other.q), ex.mul(other.r, self.q)),
                       ex.mul(ex.num(2.0 * am), qq))
        return FuzzyFunction(new_r, new_q, self.gen, self.domain)

    def _check_compatible(self, other: "FuzzyFunction") -> None:
        if not same_generator(self.gen, other.gen):
            raise GeneratorMismatch("functions live over different generators")
        if self.domain != other.domain:
            raise ValueError("functions must share a domain")


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


def integrate(f: FuzzyFunction, spec: QuadratureSpec = QuadratureSpec(),
              lo: float | None = None, hi: float | None = None,
              eps: float | None = None) -> LCFN:
    """Componentwise quadrature over the domain (or a sub-interval); eps
    binds the second variable of a two-variable function."""
    a, b = f.domain
    lo = a if lo is None else lo
    hi = b if hi is None else hi
    if not (a <= lo <= hi <= b):
        raise OutsideDomain(f"[{lo!r}, {hi!r}] not inside [{a!r}, {b!r}]")
    r_val = integrate_scalar(lambda t: ex.evaluate(f.r, t, eps), lo, hi, spec)
    q_val = integrate_scalar(lambda t: ex.evaluate(f.q, t, eps), lo, hi, spec)
    return LCFN(r_val, q_val, f.gen)


def node_grid(a: float, b: float, nodes: int) -> list[float]:
    """``nodes`` equally spaced points from a to b, both ends exact."""
    if nodes < 2:
        raise ValueError(f"need at least 2 grid nodes, got {nodes!r}")
    ts = [a + (b - a) * i / (nodes - 1) for i in range(nodes)]
    ts[-1] = b
    return ts


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
    F' = f at interior points."""
    a, b = f.domain
    fd = f.derivative()
    total = integrate(fd, spec)
    endpoint = f.at(b) - f.at(a)
    residual = (total - endpoint).norm()

    h = min(3e-4, 0.05 * (b - a))
    tight = QuadratureSpec(min(spec.abs_tol, 1e-13))
    spots = []
    for u in SPOT_FRACTIONS:
        t = a + (b - a) * u
        window = integrate(f, tight, t - h, t + h).scaled(1.0 / (2.0 * h))
        spots.append((window - f.at(t)).norm())
    spot_residual = max(spots)

    notes = []
    if ex.kink_hits(fd.r, a) or ex.kink_hits(fd.q, a):
        notes.append("abs kink at left endpoint; sign(0)=0 convention used")
    passed = residual < FTC_TOL and spot_residual < DERIV_FD_TOL
    return CheckReport(
        check="ftc", passed=passed, tolerance=FTC_TOL,
        residuals={"endpoint": residual, "spot_max": spot_residual},
        notes=tuple(notes))


def product_rule_check(f: FuzzyFunction, g: FuzzyFunction,
                       t: float) -> CheckReport:
    """(f*g)'(t) against f(t)*g'(t) + f'(t)*g(t), both sides symbolic."""
    fd, gd = f.derivative(), g.derivative()
    lhs = deriv(f.cross_with(g), t)
    rhs = f.at(t).cross(deriv(g, t)) + deriv(f, t).cross(g.at(t))
    residual = (lhs - rhs).norm()
    notes = []
    for component in (fd.r, fd.q, gd.r, gd.q):
        if ex.kink_hits(component, t):
            notes.append(f"abs kink at t={t!r}; sign(0)=0 convention used")
            break
    return CheckReport(
        check="product-rule", passed=residual < PRODUCT_RULE_TOL,
        tolerance=PRODUCT_RULE_TOL, residuals={"pointwise": residual},
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

    The center of the result equals the integral of (r + a_m*q)^2, so it
    can never be genuinely negative; a direct Gauss-Legendre quadrature
    of that integrand cross-checks the adaptive coordinate route through
    an independent method.  The almost-everywhere clause is surrogated by
    the fraction of a fixed grid where |r + a_m*q| exceeds a small
    threshold.
    """
    a, b = f.domain
    value = integrate(f.cross_with(f), spec)
    center = value.center()

    ce = f.center_expr()
    sq = ex.pow_(ce, ex.Num(2.0))
    direct = gauss_legendre(lambda t: ex.evaluate(sq, t), a, b, spec.nodes)

    violations = sum(abs(ex.evaluate(ce, t)) > AE_THRESHOLD
                     for t in node_grid(a, b, AE_GRID_POINTS))
    fraction = violations / AE_GRID_POINTS

    passed = center >= -spec.abs_tol and abs(center - direct) <= spec.abs_tol
    report = CheckReport(
        check="square-integral", passed=passed, tolerance=spec.abs_tol,
        residuals={
            "center": center,
            "center_direct": direct,
            "route_gap": abs(center - direct),
            "grid_violation_fraction": fraction,
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
