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
from functools import lru_cache

from . import expr as ex
from .calculus import (CheckReport, FuzzyFunction, finite, integrate,
                       integrate_many, need_int, node_grid, sample)
from .core import LCFN, Ordering, compare
from .errors import (
    CatalogBoundaryViolation,
    WindowOutsideDomain,
    ZeroCenterAtT0,
)
# Not called here: perfbench hooks these names.
from .quadrature import QuadratureSpec, adaptive_simpson, integrate_scalar
from .value import Value

ROOT_TOL = 1e-12          # bisection bracket width
CLASSIFY_TOL = 1e-9       # |g''| below this gives no verdict
SCAN_GRID = 1024          # critical-point scan resolution
TOUCH_FACTOR = 1e-4       # node |g'| must be this small (relative) to try
ACCEPT_FACTOR = 1e-9      # ... and this small at the refined point to accept
MOLLIFIER_TOL = 0.05      # recovery accuracy for the default index ladder
DBR_TOL = 1e-7
BOUNDARY_TOL = 1e-12
EPSILON = 0.2             # mollifier window half-width before clamping
SMOOTHNESS = 1            # l: kernel vanishes with its first l derivatives
DEFAULT_INDICES = (1, 2, 4, 8, 16)
LAGRANGE_GRID = 17        # interior points of the Lagrange scan
RECONSTRUCT_GRID = 257    # residual grid nodes of dbr_reconstruct
ADMISSIBLE_CENTER = 1e-9  # |center| below this is treated as zero-class
EPS_CLAMP = 0.45          # window half-width <= EPS_CLAMP * distance to edge
MAX_KERNEL_POWER = 2 ** 18  # largest n = (l+1)*k; C(2n, n)/4^n: 1-3 s


class Verdict(enum.Enum):
    LOCAL_MIN = "local-min"
    LOCAL_MAX = "local-max"
    INCONCLUSIVE = "inconclusive"


class CriticalPoint(Value):
    """A critical point t* of the center g, with g'(t*) and g''(t*)."""

    __slots__ = ("t_star", "center_d1", "center_d2", "verdict")

    def __init__(self, t_star: float, center_d1: float, center_d2: float,
                 verdict: Verdict):
        self._set(t_star, center_d1, center_d2, verdict)

    def to_dict(self) -> dict:
        return {"t": self.t_star, "d1": self.center_d1,
                "d2": self.center_d2, "verdict": self.verdict.value}


def critical_points(f: FuzzyFunction, grid: int = SCAN_GRID
                    ) -> tuple[CriticalPoint, ...]:
    """Interior zeros of the center derivative, classified by curvature.

    One pass of the scan kernel of g' over the grid gives its values, the
    nodes where it meets or crosses zero and its extremes.  Sign changes
    of g' are bracketed and bisected (guaranteed convergence); touching
    zeros (g' grazing zero without a sign change, as for cubic centers)
    are caught at grid nodes where |g'| is locally minimal and tiny,
    refined on the sign change of g''.
    """
    need_int(grid, "grid node count")
    if grid < 2:
        raise ValueError(f"critical-point scan needs grid >= 2, got {grid!r}")
    a, b = f.domain
    g = f.center_expr()
    g1 = ex.differentiate(g, "t", 1)
    g2 = ex.differentiate(g1, "t", 1)
    ts = node_grid(a, b, grid)
    # sample checked vals finite; least is the smallest |g'|
    vals, brackets, lo, hi, least = sample(
        ex.kernel("scan", g1), (g1,), ("center derivative g'",), ts)
    spacing = (b - a) / (grid - 1)
    scale = max(1.0, hi, -lo)

    roots: list[float] = []

    def add(t: float) -> None:
        if a < t < b and all(abs(t - seen) > 0.5 * spacing for seen in roots):
            roots.append(t)

    for i in brackets:  # each i with vals[i - 1] * vals[i] <= 0.0
        v0, v1 = vals[i - 1], vals[i]
        if v0 == 0.0:
            add(ts[i - 1])
        elif v0 * v1 < 0.0:
            add(_bisect(g1, ts[i - 1], ts[i], v0))

    touch = TOUCH_FACTOR * scale
    # with every |g'| above the threshold no node can be a touching zero
    for i in range(1, grid - 1) if least <= touch else ():
        v = abs(vals[i])
        if v == 0.0 or v > touch:
            continue
        if v > abs(vals[i - 1]) or v > abs(vals[i + 1]):
            continue
        if vals[i - 1] * vals[i] < 0.0 or vals[i] * vals[i + 1] < 0.0:
            continue  # already bracketed
        w0 = ex.evaluate(g2, ts[i - 1])
        w1 = ex.evaluate(g2, ts[i + 1])
        if w0 * w1 < 0.0:  # extremum of g' inside; refine there
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


def _bisect(fn: ex.Expr, lo: float, hi: float, flo: float) -> float:
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = ex.evaluate(fn, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class LocalOrderReport(Value):
    """The order-based extremum check around a critical point."""

    __slots__ = ("t_star", "claim", "checked", "passed", "first_violation")

    def __init__(self, t_star: float, claim: str, checked: int, passed: bool,
                 first_violation: float | None = None):
        self._set(t_star, claim, checked, passed, first_violation)

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
    minimum (>= for a maximum).  A claim with no sample other than t* in
    the domain is refused, not passed."""
    need_int(n, "local-order sample count n")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(
            f"radius must be finite and positive, got {radius!r}")
    if n < 1:
        raise ValueError(f"local-order check needs n >= 1, got {n!r}")
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
    if not checked:
        raise ValueError(
            f"no sample other than t*={cp.t_star!r} lies in the domain "
            f"[{a!r}, {b!r}] for radius={radius!r} and n={n!r}")
    return LocalOrderReport(cp.t_star, cp.verdict.value, checked, True)


# -- mollifier kernels ---------------------------------------------------------

class DiracKernel(Value):
    """Even, nonnegative cosine-power bump of unit mass on [-eps, eps];
    it vanishes at the edges together with its first ``smoothness``
    derivatives (l), and concentrates as ``index`` (k) grows.  ``mass_norm``
    is the normalization constant."""

    __slots__ = ("epsilon", "smoothness", "index", "mass_norm")

    def __init__(self, epsilon: float, smoothness: int, index: int,
                 mass_norm: float):
        self._set(epsilon, smoothness, index, mass_norm)

    @property
    def power(self) -> int:
        return (self.smoothness + 1) * self.index

    @classmethod
    def build(cls, epsilon: float, smoothness: int = SMOOTHNESS,
              index: int = 1) -> "DiracKernel":
        """The mass of ((cos(pi*x/eps) + 1)/2)^n is 2*eps*C(2n, n)/4^n
        (Wallis); dividing the integers first keeps large n finite.  An
        n above ``MAX_KERNEL_POWER`` is refused before any big-integer
        work."""
        need_int(index, "kernel index k")
        need_int(smoothness, "kernel smoothness l")
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError(
                f"epsilon must be finite and positive, got {epsilon!r}")
        if index < 1 or smoothness < 0:
            raise ValueError("need index >= 1 and smoothness >= 0")
        n = (smoothness + 1) * index
        if n > MAX_KERNEL_POWER:
            raise ValueError(
                f"kernel power n = (l+1)*k = {n} is above "
                f"MAX_KERNEL_POWER={MAX_KERNEL_POWER}")
        return cls(epsilon, smoothness, index, 2.0 * epsilon * _wallis(n))

    def expression(self, center: float) -> ex.Expr:
        """The kernel as an expression in t, centered at ``center``.

        Exact on [center - eps, center + eps]; the kernel is zero outside
        that window by definition, which the expression form does not
        encode, so only evaluate it there.
        """
        return ex.derived(_bump, center, self.epsilon, self.mass_norm,
                          self.power)


def _bump(center: float, eps: float, mass_norm: float, power: int) -> ex.Expr:
    """The tree of ``DiracKernel.expression``, built through ex.derived."""
    x = ex.sub(ex.Var("t"), ex.num(center))
    bump = ex.div(ex.add(ex.Call("cos", ex.mul(ex.num(math.pi / eps), x)),
                         ex.Num(1.0)),
                  ex.Num(2.0))
    return ex.mul(ex.num(1.0 / mass_norm),
                  ex.pow_(bump, ex.num(float(power))))


@lru_cache(maxsize=64)
def _wallis(n: int) -> float:
    """C(2n, n)/4^n, the float of the exact integer quotient, kept per n:
    a scan builds the kernel of one index at every point, and the big
    integers take seconds at n = 200,000."""
    return math.comb(2 * n, n) / 4 ** n


# -- Lagrange-lemma harness ----------------------------------------------------

class WitnessResult(Value):
    """One Lagrange witness at t0: ``epsilon`` is the effective (clamped)
    window half-width, ``eta`` is supported on the window and zero
    outside, ``b_k`` is the center of the integral of f (*) eta, and
    ``limit`` is (r(t0) + a_m*q(t0))^2, the k -> inf target."""

    __slots__ = ("t0", "index", "epsilon", "eta", "b_k", "limit")

    def __init__(self, t0: float, index: int, epsilon: float,
                 eta: FuzzyFunction, b_k: float, limit: float):
        self._set(t0, index, epsilon, eta, b_k, limit)


def _window(f: FuzzyFunction, t0: float, epsilon: float) -> float:
    """Half-width of the mollifier window at t0, clamped into the domain;
    a positive one too small to part t0 - eps from t0 + eps raises."""
    a, b = f.domain
    if not a < t0 < b:
        raise WindowOutsideDomain(f"t0={t0!r} not interior to [{a!r}, {b!r}]")
    eps = min(epsilon, EPS_CLAMP * min(t0 - a, b - t0))
    if eps > 0.0 and not t0 - eps < t0 + eps:
        raise WindowOutsideDomain(
            f"mollifier window of epsilon={eps!r} at t0={t0!r} is a single "
            "point: t0 - epsilon is not below t0 + epsilon")
    return eps


def _eta(f: FuzzyFunction, t0: float, kernel: DiracKernel) -> FuzzyFunction:
    """The window function (f.r*delta, f.q*delta) on [t0 - eps, t0 + eps]:
    the crisp mollifier product (delta, 0) (*) f.  Its integral recovers
    the kernel-weighted component averages at t0."""
    delta_e = kernel.expression(t0)
    return FuzzyFunction(ex.mul(f.r, delta_e), ex.mul(f.q, delta_e), f.gen,
                         (t0 - kernel.epsilon, t0 + kernel.epsilon))


def _witness_integrand(f: FuzzyFunction, eta: FuzzyFunction) -> FuzzyFunction:
    """f (*) eta on eta's window: the center of its integral is b_k."""
    return FuzzyFunction(f.r, f.q, f.gen, eta.domain).cross_with(eta)


def lagrange_witness(f: FuzzyFunction, t0: float, epsilon: float = EPSILON,
                     smoothness: int = SMOOTHNESS, index: int = 1,
                     spec: QuadratureSpec = QuadratureSpec()) -> WitnessResult:
    """The constructive witness for the Lagrange lemma at one point.

    eta multiplies both components of f by a mollifier window at t0; the
    center b_k of integral(f (*) eta) then approximates
    (r(t0) + a_m*q(t0))^2 from the window average, so b_k turns strictly
    positive for large index whenever the center of f(t0) is nonzero.
    """
    return witness_sequence(f, t0, epsilon, smoothness, (index,), spec)[0]


def witness_sequence(f: FuzzyFunction, t0: float, epsilon: float = EPSILON,
                     smoothness: int = SMOOTHNESS, indices=DEFAULT_INDICES,
                     spec: QuadratureSpec = QuadratureSpec()
                     ) -> tuple[WitnessResult, ...]:
    """The witness of :func:`lagrange_witness` for each index of the
    ladder, on one clamped window and one reading of f(t0), its integrals
    on one subdivision (:func:`integrate_many`)."""
    if not indices:
        raise ValueError(
            f"witness sequence needs a non-empty index ladder, got {indices!r}")
    eps_eff = _window(f, t0, epsilon)
    center0 = f.at(t0).center()
    if center0 == 0.0:
        raise ZeroCenterAtT0(f"center of f({t0!r}) is zero; no witness exists")
    etas = [_eta(f, t0, DiracKernel.build(eps_eff, smoothness, k))
            for k in indices]
    values = integrate_many([_witness_integrand(f, eta) for eta in etas], spec)
    return tuple(WitnessResult(t0, k, eps_eff, eta, value.center(),
                               center0 * center0)
                 for k, eta, value in zip(indices, etas, values))


def mollifier_recovery(f: FuzzyFunction, t0: float, epsilon: float = EPSILON,
                       smoothness: int = SMOOTHNESS, index: int = 16,
                       spec: QuadratureSpec = QuadratureSpec()
                       ) -> tuple[LCFN, LCFN]:
    """Recover (r(t0), q(t0)) through the crisp mollifier: the product of
    f with the window (delta_k, 0) integrates to the component averages.
    Returns (recovered, exact)."""
    kernel = DiracKernel.build(_window(f, t0, epsilon), smoothness, index)
    return integrate(_eta(f, t0, kernel), spec), f.at(t0)


def lagrange_scan(f: FuzzyFunction, epsilon: float = EPSILON,
                  smoothness: int = SMOOTHNESS, indices=DEFAULT_INDICES,
                  grid: int = LAGRANGE_GRID,
                  spec: QuadratureSpec = QuadratureSpec()) -> CheckReport:
    """Scan interior points: wherever the center of f is materially
    nonzero the witness sequence must end positive and near its target;
    everywhere the crisp mollifier must recover the components.  Each
    point clamps its window and reads f(t0) once, and integrates the
    recovery integrand of :func:`mollifier_recovery` and, where admissible,
    the witness integrands of :func:`witness_sequence` in one
    :func:`integrate_many` call."""
    need_int(grid, "grid node count")  # named before it becomes grid + 2
    if grid < 1:
        raise ValueError(f"Lagrange scan needs grid >= 1, got {grid!r}")
    if not indices:
        raise ValueError(
            f"Lagrange scan needs a non-empty index ladder, got {indices!r}")

    def scan_one(t0: float) -> dict:
        eps_eff = _window(f, t0, epsilon)
        exact = f.at(t0)
        center0 = exact.center()
        admissible = abs(center0) > ADMISSIBLE_CENTER
        etas = [_eta(f, t0, DiracKernel.build(eps_eff, smoothness, k))
                for k in (indices if admissible else indices[-1:])]
        integrands = [etas[-1]]  # the recovery's: the last index's window
        if admissible:
            integrands += [_witness_integrand(f, eta) for eta in etas]
        recovered, *witnesses = integrate_many(integrands, spec)
        record: dict = {"t0": t0, "center": center0, "admissible": admissible}
        if admissible:
            bs = [w.center() for w in witnesses]
            limit = center0 * center0
            record.update(b=bs, limit=limit, witness_ok=(
                bs[-1] > 0.0
                and abs(bs[-1] - limit) <= MOLLIFIER_TOL * max(1.0, limit)))
        err = max(abs(recovered.r - exact.r), abs(recovered.q - exact.q))
        record.update(recovered=[recovered.r, recovered.q],
                      recovery_error=err, recovery_ok=err <= MOLLIFIER_TOL)
        record["passed"] = (record.get("witness_ok", True)
                            and record["recovery_ok"])
        return record

    records = [scan_one(t0) for t0 in node_grid(*f.domain, grid + 2)[1:-1]]
    worst = max(r["recovery_error"] for r in records)
    return CheckReport(
        check="lagrange-scan",
        passed=all(r["passed"] for r in records),
        tolerance=MOLLIFIER_TOL,
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
    out = []
    for s in ex.derived(_sines, *domain, modes):
        out.append(FuzzyFunction(s, ex.Num(0.0), gen, domain))
        out.append(FuzzyFunction(s, s, gen, domain))
    return tuple(out)


def _sines(a: float, b: float, modes: int) -> tuple[ex.Expr, ...]:
    """The sines of ``default_eta_catalog``, built through ex.derived."""
    return tuple(ex.Call("sin", ex.mul(ex.num(m * math.pi / (b - a)),
                                       ex.sub(ex.Var("t"), ex.num(a))))
                 for m in range(1, modes + 1))


def dbr_forward_check(f: FuzzyFunction, g: FuzzyFunction,
                      catalog=None, spec: QuadratureSpec = QuadratureSpec()
                      ) -> CheckReport:
    """Forward direction of the du Bois-Reymond identity: when g' = f,
    integral(f (*) eta + g (*) eta') vanishes for every admissible eta."""
    a, b = f.domain
    if catalog is None:
        catalog = default_eta_catalog(f.gen, f.domain)
    if not catalog:
        raise ValueError("du Bois-Reymond check needs a non-empty "
                         f"test-function catalog, got {catalog!r}")
    for i, eta in enumerate(catalog):
        for endpoint in (a, b):
            value = eta.at(endpoint)
            if abs(value.r) > BOUNDARY_TOL or abs(value.q) > BOUNDARY_TOL:
                raise CatalogBoundaryViolation(
                    f"test function {i} is {value.r!r}+{value.q!r}A "
                    f"at t={endpoint!r}")

    integrands = [f.cross_with(eta).plus(g.cross_with(eta.derivative()))
                  for eta in catalog]
    residuals = [value.norm() for value in integrate_many(integrands, spec)]
    records = tuple(
        {"eta": i, "r": ex.to_source(eta.r), "q": ex.to_source(eta.q),
         "residual": res, "passed": res < DBR_TOL}
        for i, (eta, res) in enumerate(zip(catalog, residuals)))
    return CheckReport(
        check="dbr-forward",
        passed=all(r["passed"] for r in records),
        tolerance=DBR_TOL,
        residuals={"max": max(residuals)},
        notes=(f"test-function universe: {len(catalog)} sine catalog entries",),
        records=records)


class ReconstructionResult(Value):
    """Mean value u of f, and the f(t) - u residual grid, of (t, center,
    coord) rows, that separates 'constant modulo the zero class' from
    genuinely constant."""

    __slots__ = ("u", "f", "spec", "residual_grid", "max_center_residual",
                 "max_coord_residual")

    def __init__(self, u: LCFN, f: FuzzyFunction, spec: QuadratureSpec,
                 residual_grid: tuple[tuple[float, float, float], ...],
                 max_center_residual: float, max_coord_residual: float):
        self._set(u, f, spec, residual_grid, max_center_residual,
                  max_coord_residual)

    def g_tilde(self, t: float) -> LCFN:
        """The continuous reconstruction F(t) + u, where F(t) is the
        integral of f from the left endpoint, computed on demand."""
        return integrate(self.f, self.spec, hi=t) + self.u

    def to_report(self) -> CheckReport:
        return CheckReport(
            check="dbr-reconstruct", passed=True, tolerance=0.0,
            residuals={"max_center_residual": self.max_center_residual,
                       "max_coord_residual": self.max_coord_residual,
                       "u_r": self.u.r, "u_q": self.u.q},
            records=tuple({"t": t, "center_residual": c, "coord_residual": x}
                          for t, c, x in self.residual_grid))


def dbr_reconstruct(f: FuzzyFunction, spec: QuadratureSpec = QuadratureSpec(),
                    grid: int = RECONSTRUCT_GRID) -> ReconstructionResult:
    """Recover the constant candidate u as the mean value of f and report
    how far f - u is from the zero class (center residuals) and from zero
    itself (coordinate residuals)."""
    a, b = f.domain
    scale = 1.0 / (b - a)
    if not math.isfinite(scale):
        raise ValueError(f"domain [{a!r}, {b!r}] is too narrow for a mean "
                         "value: 1/(b - a) is not finite")
    u = integrate(f, spec).scaled(scale)
    ts = node_grid(a, b, grid)
    rs, qs = f.values(ts)
    ur, uq, a_m = u.r, u.q, f.gen.a_m
    er, eq = [r - ur for r in rs], [q - uq for q in qs]
    center = [x + y * a_m for x, y in zip(er, eq)]  # as LCFN.center()
    coord = [ay if ay > ax else ax  # max(ax, ay), NaN included
             for ax, ay in zip(map(abs, er), map(abs, eq))]
    if math.isfinite(sum(coord)):  # er, eq finite, so no NaN in center
        max_center = max(0.0, max(center), -min(center))
    else:  # a fold from 0.0 skips every NaN; max(center) stops at a first
        max_center = max(0.0, *map(abs, center))
    return ReconstructionResult(
        u=u, f=f, spec=spec, residual_grid=tuple(zip(ts, center, coord)),
        max_center_residual=max_center, max_coord_residual=max(0.0, *coord))
