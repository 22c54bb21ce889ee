"""Optimality conditions and the variational lemma harnesses.

Local extrema of t -> r(t) + q(t)*A under the total order are governed by
the scalar center g(t) = r(t) + a_m*q(t): first-order necessity is
g'(t*) = 0 and a strict sign of g''(t*) decides min/max.  The Lagrange and
du Bois-Reymond harnesses drive mollifier kernels

    delta_k(x) = c_k^-1 * ((cos(pi*x/eps) + 1)/2)^((l+1)*k)

against the integral identities those lemmas assert.  "For all test
functions" is not numerically decidable; every report names the finite
family of test functions actually used, so results read as "consistent
with", never "proves".
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import expr as ex
from .calculus import (
    CheckReport,
    CumulativeIntegral,
    FuzzyFunction,
    integrate,
)
from .core import LCFN, Ordering, compare
from .errors import (
    CatalogBoundaryViolation,
    WindowOutsideDomain,
    ZeroCenterAtT0,
)
from .quadrature import QuadratureSpec, adaptive_simpson, integrate_scalar

ROOT_TOL = 1e-12          # bisection bracket width
CLASSIFY_TOL = 1e-9       # |g''| below this gives no verdict
SCAN_GRID = 1024          # critical-point scan resolution
TOUCH_FACTOR = 1e-4       # node |g'| must be this small (relative) to try
ACCEPT_FACTOR = 1e-9      # ... and this small at the refined point to accept
MOLLIFIER_TOL = 0.05      # recovery accuracy for the default index ladder
DBR_TOL = 1e-7
DETECT_TOL = 1e-3
BOUNDARY_TOL = 1e-12
DEFAULT_INDICES = (1, 2, 4, 8, 16)
ADMISSIBLE_CENTER = 1e-9  # |center| below this is treated as zero-class
EPS_CLAMP = 0.45          # window half-width <= EPS_CLAMP * distance to edge


class Verdict(enum.Enum):
    LOCAL_MIN = "local-min"
    LOCAL_MAX = "local-max"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CriticalPoint:
    t_star: float
    center_d1: float  # g'(t*)
    center_d2: float  # g''(t*)
    verdict: Verdict

    def to_dict(self) -> dict:
        return {"t": self.t_star, "d1": self.center_d1,
                "d2": self.center_d2, "verdict": self.verdict.value}


def critical_points(f: FuzzyFunction, grid: int = SCAN_GRID,
                    root_tol: float = ROOT_TOL,
                    classify_tol: float = CLASSIFY_TOL,
                    newton_polish: bool = False) -> tuple[CriticalPoint, ...]:
    """Interior zeros of the center derivative, classified by curvature.

    Sign changes of g' are bracketed and bisected (guaranteed
    convergence); touching zeros (g' grazing zero without a sign change,
    as for cubic centers) are caught at grid nodes where |g'| is locally
    minimal and tiny, refined on the sign change of g''.  newton_polish
    runs a few Newton steps after bisection and keeps them only when they
    improve |g'|.
    """
    a, b = f.domain
    g = f.center_expr()
    g1 = ex.differentiate(g, "t", 1)
    g2 = ex.differentiate(g1, "t", 1)
    ts = [a + (b - a) * i / (grid - 1) for i in range(grid)]
    vals = [ex.evaluate(g1, t) for t in ts]
    spacing = (b - a) / (grid - 1)
    scale = max(1.0, max(abs(v) for v in vals))

    roots: list[float] = []

    def add(t: float) -> None:
        if a < t < b and all(abs(t - seen) > 0.5 * spacing for seen in roots):
            roots.append(t)

    for i in range(1, grid):
        v0, v1 = vals[i - 1], vals[i]
        if v0 == 0.0:
            add(ts[i - 1])
        elif v0 * v1 < 0.0:
            add(_bisect(g1, ts[i - 1], ts[i], v0, root_tol))

    for i in range(1, grid - 1):
        v = abs(vals[i])
        if v == 0.0 or v > TOUCH_FACTOR * scale:
            continue
        if v > abs(vals[i - 1]) or v > abs(vals[i + 1]):
            continue
        if vals[i - 1] * vals[i] < 0.0 or vals[i] * vals[i + 1] < 0.0:
            continue  # already bracketed
        w0 = ex.evaluate(g2, ts[i - 1])
        w1 = ex.evaluate(g2, ts[i + 1])
        if w0 * w1 < 0.0:  # extremum of g' inside; refine there
            t_hat = _bisect(g2, ts[i - 1], ts[i + 1], w0, root_tol)
            if abs(ex.evaluate(g1, t_hat)) <= ACCEPT_FACTOR * scale:
                add(t_hat)

    points = []
    for t in sorted(roots):
        if newton_polish:
            t = _newton_polish(g1, g2, t, a, b)
        d1 = ex.evaluate(g1, t)
        d2 = ex.evaluate(g2, t)
        if d2 > classify_tol:
            verdict = Verdict.LOCAL_MIN
        elif d2 < -classify_tol:
            verdict = Verdict.LOCAL_MAX
        else:
            verdict = Verdict.INCONCLUSIVE
        points.append(CriticalPoint(t, d1, d2, verdict))
    return tuple(points)


def _newton_polish(g1: ex.Expr, g2: ex.Expr, t: float,
                   a: float, b: float, steps: int = 3) -> float:
    best = t
    best_val = abs(ex.evaluate(g1, t))
    for _ in range(steps):
        slope = ex.evaluate(g2, t)
        if slope == 0.0:
            break
        t = t - ex.evaluate(g1, t) / slope
        if not a < t < b:
            break
        val = abs(ex.evaluate(g1, t))
        if val < best_val:
            best, best_val = t, val
    return best


def _bisect(fn: ex.Expr, lo: float, hi: float, flo: float, width_tol: float) -> float:
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        fmid = ex.evaluate(fn, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LocalOrderReport:
    t_star: float
    claim: str
    checked: int
    passed: bool
    first_violation: float | None = None

    def to_dict(self) -> dict:
        out = {"t": self.t_star, "claim": self.claim,
               "checked": self.checked, "passed": self.passed}
        if self.first_violation is not None:
            out["first_violation"] = self.first_violation
        return out


def verify_local_order(f: FuzzyFunction, cp: CriticalPoint,
                       radius: float, n: int) -> LocalOrderReport:
    """Check the order-based extremum definition around a critical point:
    every sample z in the radius must satisfy f(t*) <= f(z) for a local
    minimum (>= for a maximum)."""
    if cp.verdict is Verdict.INCONCLUSIVE:
        return LocalOrderReport(cp.t_star, "none", 0, True)
    a, b = f.domain
    f_star = f.at(cp.t_star)
    bad = (Ordering.GREATER if cp.verdict is Verdict.LOCAL_MIN
           else Ordering.LESS)
    checked = 0
    for i in range(n):
        z = cp.t_star - radius + 2.0 * radius * (i + 0.5) / n
        if not a <= z <= b or z == cp.t_star:
            continue
        checked += 1
        if compare(f_star, f.at(z)) is bad:
            return LocalOrderReport(cp.t_star, cp.verdict.value, checked,
                                    False, first_violation=z)
    return LocalOrderReport(cp.t_star, cp.verdict.value, checked, True)


# -- mollifier kernels ---------------------------------------------------------

@dataclass(frozen=True)
class DiracKernel:
    """Even, nonnegative cosine-power bump of unit mass on [-eps, eps];
    it vanishes at the edges together with its first ``smoothness``
    derivatives, and concentrates as ``index`` grows."""

    epsilon: float
    smoothness: int  # l
    index: int       # k
    mass_norm: float  # normalization constant

    @property
    def power(self) -> int:
        return (self.smoothness + 1) * self.index

    @classmethod
    def build(cls, epsilon: float, smoothness: int = 1, index: int = 1,
              tol: float = 1e-12) -> "DiracKernel":
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if index < 1 or smoothness < 0:
            raise ValueError("need index >= 1 and smoothness >= 0")
        n = (smoothness + 1) * index
        mass = adaptive_simpson(
            lambda x: ((math.cos(math.pi * x / epsilon) + 1.0) / 2.0) ** n,
            -epsilon, epsilon, tol, 40)
        return cls(epsilon, smoothness, index, mass)

    def __call__(self, x: float) -> float:
        if abs(x) >= self.epsilon:
            return 0.0
        base = (math.cos(math.pi * x / self.epsilon) + 1.0) / 2.0
        return base ** self.power / self.mass_norm

    def expression(self, center: float) -> ex.Expr:
        """The kernel as an expression in t, centered at ``center``.

        Exact on [center - eps, center + eps]; the kernel is zero outside
        that window by definition, which the expression form does not
        encode, so only evaluate it there.
        """
        x = ex.sub(ex.Var("t"), ex.num(center))
        bump = ex.div(ex.add(ex.call("cos",
                                     ex.mul(ex.num(math.pi / self.epsilon), x)),
                             ex.Num(1.0)),
                      ex.Num(2.0))
        return ex.mul(ex.num(1.0 / self.mass_norm),
                      ex.pow_(bump, ex.num(float(self.power))))


# -- Lagrange-lemma harness ----------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    t0: float
    index: int
    epsilon: float        # effective (clamped) window half-width
    eta: FuzzyFunction    # supported on the window, zero outside
    b_k: float            # center of integral of f (*) eta
    b_direct: float       # one-quadrature oracle for the same number
    limit: float          # (r(t0) + a_m*q(t0))^2, the k -> inf target


def lagrange_witness(f: FuzzyFunction, t0: float, epsilon: float = 0.2,
                     smoothness: int = 1, index: int = 1,
                     spec: QuadratureSpec | None = None) -> WitnessResult:
    """The constructive witness for the Lagrange lemma at one point.

    eta multiplies both components of f by a mollifier window at t0; the
    center b_k of integral(f (*) eta) then approximates
    (r(t0) + a_m*q(t0))^2 from the window average, so b_k turns strictly
    positive for large index whenever the center of f(t0) is nonzero.
    """
    spec = spec or QuadratureSpec()
    a, b = f.domain
    if not a < t0 < b:
        raise WindowOutsideDomain(f"t0={t0!r} not interior to [{a!r}, {b!r}]")
    center0 = f.at(t0).center()
    if center0 == 0.0:
        raise ZeroCenterAtT0(f"center of f({t0!r}) is zero; no witness exists")

    eps_eff = min(epsilon, EPS_CLAMP * min(t0 - a, b - t0))
    kernel = DiracKernel.build(eps_eff, smoothness, index)
    window = (t0 - eps_eff, t0 + eps_eff)
    delta_e = kernel.expression(t0)

    eta = FuzzyFunction(ex.mul(f.r, delta_e), ex.mul(f.q, delta_e),
                        f.gen, window)
    f_win = FuzzyFunction(f.r, f.q, f.gen, window)
    b_k = integrate(f_win.cross_with(eta), spec).center()

    squared = ex.pow_(f_win.center_expr(), ex.Num(2.0))
    b_direct = integrate_scalar(
        lambda t: ex.evaluate(squared, t) * kernel(t - t0),
        window[0], window[1], spec)

    return WitnessResult(t0=t0, index=index, epsilon=eps_eff, eta=eta,
                         b_k=b_k, b_direct=b_direct, limit=center0 * center0)


def witness_sequence(f: FuzzyFunction, t0: float, epsilon: float = 0.2,
                     smoothness: int = 1, indices=DEFAULT_INDICES,
                     spec: QuadratureSpec | None = None) -> tuple[WitnessResult, ...]:
    return tuple(lagrange_witness(f, t0, epsilon, smoothness, k, spec)
                 for k in indices)


def mollifier_recovery(f: FuzzyFunction, t0: float, epsilon: float = 0.2,
                       smoothness: int = 1, index: int = 16,
                       spec: QuadratureSpec | None = None) -> tuple[LCFN, LCFN]:
    """Recover (r(t0), q(t0)) through the crisp mollifier: the product of
    f with the window (delta_k, 0) integrates to the component averages.
    Returns (recovered, exact)."""
    spec = spec or QuadratureSpec()
    a, b = f.domain
    if not a < t0 < b:
        raise WindowOutsideDomain(f"t0={t0!r} not interior to [{a!r}, {b!r}]")
    eps_eff = min(epsilon, EPS_CLAMP * min(t0 - a, b - t0))
    kernel = DiracKernel.build(eps_eff, smoothness, index)
    lo, hi = t0 - eps_eff, t0 + eps_eff
    r_hat = integrate_scalar(
        lambda t: ex.evaluate(f.r, t) * kernel(t - t0), lo, hi, spec)
    q_hat = integrate_scalar(
        lambda t: ex.evaluate(f.q, t) * kernel(t - t0), lo, hi, spec)
    return LCFN(r_hat, q_hat, f.gen), f.at(t0)


def lagrange_scan(f: FuzzyFunction, epsilon: float = 0.2, smoothness: int = 1,
                  indices=DEFAULT_INDICES, grid: int = 17,
                  recovery_tol: float = MOLLIFIER_TOL,
                  spec: QuadratureSpec | None = None) -> CheckReport:
    """Scan interior points: wherever the center of f is materially
    nonzero the witness sequence must end positive and near its target;
    everywhere the crisp mollifier must recover the components."""
    spec = spec or QuadratureSpec()
    a, b = f.domain
    t0s = [a + (b - a) * (i + 1) / (grid + 1) for i in range(grid)]

    def scan_one(t0: float) -> dict:
        record: dict = {"t0": t0}
        center0 = f.at(t0).center()
        record["center"] = center0
        admissible = abs(center0) > ADMISSIBLE_CENTER
        record["admissible"] = admissible
        ok = True
        if admissible:
            ws = witness_sequence(f, t0, epsilon, smoothness, indices, spec)
            record["b"] = [w.b_k for w in ws]
            record["limit"] = ws[-1].limit
            last = ws[-1]
            witness_ok = (last.b_k > 0.0 and
                          abs(last.b_k - last.limit)
                          <= recovery_tol * max(1.0, last.limit))
            record["witness_ok"] = witness_ok
            ok = ok and witness_ok
        recovered, exact = mollifier_recovery(f, t0, epsilon, smoothness,
                                              indices[-1], spec)
        err = max(abs(recovered.r - exact.r), abs(recovered.q - exact.q))
        record["recovered"] = [recovered.r, recovered.q]
        record["recovery_error"] = err
        record["recovery_ok"] = err <= recovery_tol
        record["passed"] = ok and record["recovery_ok"]
        return record

    records = [scan_one(t0) for t0 in t0s]
    worst = max(r["recovery_error"] for r in records)
    return CheckReport(
        check="lagrange-scan",
        passed=all(r["passed"] for r in records),
        tolerance=recovery_tol,
        residuals={"max_recovery_error": worst},
        notes=(
            "test functions: windowed mollifier products and crisp "
            f"mollifiers, index ladder {tuple(indices)}",
            "b_k target computed as (r(t0) + a_m*q(t0))^2",
        ),
        records=tuple(records))


# -- du Bois-Reymond harness ---------------------------------------------------

def default_eta_catalog(gen, domain, modes: int = 4) -> tuple[FuzzyFunction, ...]:
    """Sine test functions vanishing at both endpoints: components
    sin(m*pi*(t - a)/(b - a)) for m = 1..modes, crossed with a zero and a
    same-sine noise component."""
    a, b = domain
    out = []
    for m in range(1, modes + 1):
        s = ex.call("sin", ex.mul(ex.num(m * math.pi / (b - a)),
                                  ex.sub(ex.Var("t"), ex.num(a))))
        out.append(FuzzyFunction(s, ex.Num(0.0), gen, domain))
        out.append(FuzzyFunction(s, s, gen, domain))
    return tuple(out)


def dbr_forward_check(f: FuzzyFunction, g: FuzzyFunction,
                      catalog=None, spec: QuadratureSpec | None = None,
                      tolerance: float = DBR_TOL) -> CheckReport:
    """Forward direction of the du Bois-Reymond identity: when g' = f,
    integral(f (*) eta + g (*) eta') vanishes for every admissible eta."""
    spec = spec or QuadratureSpec()
    a, b = f.domain
    if catalog is None:
        catalog = default_eta_catalog(f.gen, f.domain)
    for i, eta in enumerate(catalog):
        for endpoint in (a, b):
            value = eta.at(endpoint)
            if abs(value.r) > BOUNDARY_TOL or abs(value.q) > BOUNDARY_TOL:
                raise CatalogBoundaryViolation(
                    f"test function {i} is {value.r!r}+{value.q!r}A "
                    f"at t={endpoint!r}")

    def residual_for(eta: FuzzyFunction) -> float:
        integrand = f.cross_with(eta).plus(g.cross_with(eta.derivative()))
        return integrate(integrand, spec).norm()

    residuals = [residual_for(eta) for eta in catalog]
    records = tuple(
        {"eta": i, "r": ex.to_source(eta.r), "q": ex.to_source(eta.q),
         "residual": res, "passed": res < tolerance}
        for i, (eta, res) in enumerate(zip(catalog, residuals)))
    return CheckReport(
        check="dbr-forward",
        passed=all(r["passed"] for r in records),
        tolerance=tolerance,
        residuals={"max": max(residuals)},
        notes=(f"test-function universe: {len(catalog)} sine catalog entries",),
        records=records)


@dataclass(frozen=True)
class ReconstructionResult:
    """Mean value u, cumulative integral F, and the f(t) - u residual
    grid that separates 'constant modulo the zero class' from genuinely
    constant."""

    u: LCFN
    cumulative: CumulativeIntegral
    residual_grid: tuple[tuple[float, float, float], ...]  # (t, center, coord)
    max_center_residual: float
    max_coord_residual: float

    def g_tilde(self, t: float) -> LCFN:
        """The continuous reconstruction F(t) + u."""
        return self.cumulative.at(t) + self.u

    def to_report(self) -> CheckReport:
        return CheckReport(
            check="dbr-reconstruct", passed=True, tolerance=0.0,
            residuals={"max_center_residual": self.max_center_residual,
                       "max_coord_residual": self.max_coord_residual,
                       "u_r": self.u.r, "u_q": self.u.q},
            records=tuple({"t": t, "center_residual": c, "coord_residual": x}
                          for t, c, x in self.residual_grid))


def dbr_reconstruct(f: FuzzyFunction, spec: QuadratureSpec | None = None,
                    grid: int = 257) -> ReconstructionResult:
    """Recover the constant candidate u as the mean value of f and report
    how far f - u is from the zero class (center residuals) and from zero
    itself (coordinate residuals)."""
    spec = spec or QuadratureSpec()
    a, b = f.domain
    u = integrate(f, spec).scaled(1.0 / (b - a))
    cumulative = CumulativeIntegral(f, spec, nodes=grid)
    rows = []
    max_center = 0.0
    max_coord = 0.0
    for t in cumulative.grid:
        e = f.at(t) - u
        center = e.center()
        coord = max(abs(e.r), abs(e.q))
        rows.append((t, center, coord))
        max_center = max(max_center, abs(center))
        max_coord = max(max_coord, coord)
    return ReconstructionResult(u=u, cumulative=cumulative,
                                residual_grid=tuple(rows),
                                max_center_residual=max_center,
                                max_coord_residual=max_coord)
