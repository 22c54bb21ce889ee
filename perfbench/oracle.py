"""Answers the benchmark checks lcfn against, computed without lcfn.

* Order, tier, sign class, norm, cross product and alpha-levels in exact
  ``fractions.Fraction`` arithmetic on the float coordinates.
* A term library whose terms carry closed-form derivatives and
  antiderivatives, so integrals, means, derivatives and critical points
  of sums of terms are known exactly.
* A verdict table holding only the checker verdicts the mathematics fixes.

Nothing here imports lcfn.
"""
from __future__ import annotations

import math
from fractions import Fraction

ULP = 2.0 ** -52


# -- exact order on r + q*A ---------------------------------------------------

def exact_center(r: float, q: float, a_m: float) -> Fraction:
    return Fraction(r) + Fraction(q) * Fraction(a_m)


def order(b, c, a_m: float) -> tuple[int, int | None]:
    """(ordering, tier) of b = (r, q) against c, as -1/0/1 and 1/2/3."""
    cb, cc = exact_center(b[0], b[1], a_m), exact_center(c[0], c[1], a_m)
    if cb != cc:
        return (-1 if cb < cc else 1), 1
    if abs(b[1]) != abs(c[1]):
        return (-1 if abs(b[1]) < abs(c[1]) else 1), 2
    if b[1] != c[1]:
        return (-1 if b[1] < c[1] else 1), 3
    return 0, None  # equal exact center and equal q force equal r


def sign_class(r: float, q: float, a_m: float) -> str:
    c = exact_center(r, q, a_m)
    return "positive" if c > 0 else "negative" if c < 0 else "zero"


def norm(r: float, q: float, a_m: float) -> tuple[Fraction, float]:
    """Exact norm |q| + |center| and the scale its float error is measured at."""
    return (abs(Fraction(q)) + abs(exact_center(r, q, a_m)),
            abs(q) + abs(r) + abs(q * a_m))


def cross(b, c, a_m: float) -> tuple[Fraction, Fraction, float]:
    """Exact (r, q) of the interactive product, and the magnitude of the
    operands' product that bounds every intermediate term."""
    rb, qb, rc, qc, am = map(Fraction, (b[0], b[1], c[0], c[1], a_m))
    r = rb * rc - am * am * qb * qc
    q = rb * qc + rc * qb + 2 * am * qb * qc
    size = 1.0 + abs(a_m)
    scale = ((abs(b[0]) + abs(b[1]) * size) * (abs(c[0]) + abs(c[1]) * size)
             * size)
    return r, q, scale


def branch_x(branch, mu: float) -> Fraction:
    """Exact x with membership mu on a monotone branch (mu ascending),
    taking the same segment as a linear interpolation would."""
    if mu <= branch[0][1]:
        return Fraction(branch[0][0])
    for (x0, m0), (x1, m1) in zip(branch, branch[1:]):
        if mu <= m1:
            x0, m0, x1, m1 = map(Fraction, (x0, m0, x1, m1))
            return x0 + (Fraction(mu) - m0) * (x1 - x0) / (m1 - m0)
    return Fraction(branch[-1][0])


def generator_alpha(knots, alpha: float) -> tuple[Fraction, Fraction]:
    if alpha == 0.0:
        return Fraction(knots[0][0]), Fraction(knots[-1][0])
    peak = next(i for i, (_, mu) in enumerate(knots) if mu == 1.0)
    if alpha == 1.0:
        x = Fraction(knots[peak][0])
        return x, x
    return (branch_x(knots[: peak + 1], alpha),
            branch_x(tuple(reversed(knots[peak:])), alpha))


def element_alpha(r: float, q: float, knots, alpha: float):
    """Exact realized alpha-level of r + q*A, lower end first."""
    lo, hi = generator_alpha(knots, alpha)
    e1 = Fraction(r) + Fraction(q) * lo
    e2 = Fraction(r) + Fraction(q) * hi
    return min(e1, e2), max(e1, e2)


def alpha_scale(r: float, q: float, knots) -> float:
    return abs(r) + abs(q) * max(abs(x) for x, _ in knots)


# -- term library with closed forms -------------------------------------------
#
# A component is a tuple of (coefficient, term); a term is (kind, param).
# For each kind: source text, value, first and second derivative, and an
# antiderivative, all as plain Python on floats.

def _term_src(kind: str, p: float) -> str:
    if kind == "one":
        return "1"
    if kind == "pow":
        return "t" if p == 1 else f"t^{int(p)}"
    if kind in ("sin", "cos", "exp"):
        return f"{kind}({p!r}*t)"
    if kind == "log":
        return f"log(t + {p!r})"
    if kind == "sqrt":
        return f"sqrt(t + {p!r})" if p else "sqrt(t)"
    if kind == "tsin":
        return "t*sin(t)"
    if kind == "recip":
        return "1/(1 + t^2)"
    raise ValueError(kind)


def _term_fns(kind: str, p: float):
    """(f, f', f'', F) for one term."""
    if kind == "one":
        return (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, lambda t: t)
    if kind == "pow":
        n = int(p)
        return (lambda t: t ** n,
                lambda t: n * t ** (n - 1),
                lambda t: n * (n - 1) * t ** (n - 2) if n >= 2 else 0.0,
                lambda t: t ** (n + 1) / (n + 1))
    if kind == "sin":
        return (lambda t: math.sin(p * t), lambda t: p * math.cos(p * t),
                lambda t: -p * p * math.sin(p * t),
                lambda t: -math.cos(p * t) / p)
    if kind == "cos":
        return (lambda t: math.cos(p * t), lambda t: -p * math.sin(p * t),
                lambda t: -p * p * math.cos(p * t),
                lambda t: math.sin(p * t) / p)
    if kind == "exp":
        return (lambda t: math.exp(p * t), lambda t: p * math.exp(p * t),
                lambda t: p * p * math.exp(p * t),
                lambda t: math.exp(p * t) / p)
    if kind == "log":
        return (lambda t: math.log(t + p), lambda t: 1.0 / (t + p),
                lambda t: -1.0 / (t + p) ** 2,
                lambda t: (t + p) * math.log(t + p) - t)
    if kind == "sqrt":
        return (lambda t: math.sqrt(t + p),
                lambda t: 0.5 / math.sqrt(t + p),
                lambda t: -0.25 * (t + p) ** -1.5,
                lambda t: (2.0 / 3.0) * (t + p) ** 1.5)
    if kind == "tsin":
        return (lambda t: t * math.sin(t),
                lambda t: math.sin(t) + t * math.cos(t),
                lambda t: 2.0 * math.cos(t) - t * math.sin(t),
                lambda t: math.sin(t) - t * math.cos(t))
    if kind == "recip":
        return (lambda t: 1.0 / (1.0 + t * t),
                lambda t: -2.0 * t / (1.0 + t * t) ** 2,
                lambda t: (6.0 * t * t - 2.0) / (1.0 + t * t) ** 3,
                lambda t: math.atan(t))
    raise ValueError(kind)


class Component:
    """A sum of coefficient * term with closed-form calculus."""

    def __init__(self, parts):
        self.parts = tuple((float(c), (kind, p)) for c, (kind, p) in parts)
        self._fns = [(c, _term_fns(kind, p)) for c, (kind, p) in self.parts]

    def src(self) -> str:
        pieces = []
        for c, (kind, p) in self.parts:
            body = _term_src(kind, p)
            mag = abs(c)
            text = body if mag == 1.0 else f"{mag!r}*({body})"
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(pieces) if pieces else "0"

    def _sum(self, k: int, t: float) -> float:
        return math.fsum(c * fns[k](t) for c, fns in self._fns)

    def value(self, t: float) -> float:
        return self._sum(0, t)

    def d1(self, t: float) -> float:
        return self._sum(1, t)

    def d2(self, t: float) -> float:
        return self._sum(2, t)

    def integral(self, a: float, b: float) -> float:
        return self._sum(3, b) - self._sum(3, a)

    def magnitude(self, a: float, b: float) -> float:
        """max |value| on a 65-point grid; the scale tolerances use."""
        return max(abs(self.value(a + (b - a) * i / 64)) for i in range(65))

    def derivative_component(self) -> "Component":
        """f' as a term sum; only for kinds closed under differentiation
        in the library (one, pow, sin, cos, exp)."""
        parts = []
        for c, (kind, p) in self.parts:
            if kind == "pow":
                n = int(p)
                parts.append((c * n, ("one", 0.0) if n == 1 else ("pow", n - 1)))
            elif kind == "sin":
                parts.append((c * p, ("cos", p)))
            elif kind == "cos":
                parts.append((-c * p, ("sin", p)))
            elif kind == "exp":
                parts.append((c * p, ("exp", p)))
            elif kind != "one":
                raise ValueError(f"{kind} has no library derivative")
        return Component(parts)


class Quadratic:
    """c*(t - m)^2 with closed-form calculus, for critical-point inputs
    whose root is known exactly."""

    def __init__(self, c: float, m: float):
        self.c, self.m = c, m

    def src(self) -> str:
        return f"{self.c!r}*(t - {self.m!r})^2"

    def value(self, t):
        return self.c * (t - self.m) ** 2

    def d1(self, t):
        return 2.0 * self.c * (t - self.m)

    def d2(self, t):
        return 2.0 * self.c

    def integral(self, a, b):
        return self.c * ((b - self.m) ** 3 - (a - self.m) ** 3) / 3.0

    def magnitude(self, a, b):
        return max(abs(self.value(a)), abs(self.value(b)))


def component(*parts) -> Component:
    return Component(parts)


ONE = ("one", 0.0)
T = ("pow", 1)
T2 = ("pow", 2)
T3 = ("pow", 3)
SIN = ("sin", 1.0)
COS = ("cos", 1.0)
EXP = ("exp", 1.0)

#: The shipped catalog in closed form: (r, q, a_m, domain) per scenario,
#: written from the scenario files' expressions.
CATALOG = {
    "s01_sine_poly": (component((1, SIN)), component((1, T2)), 0.0, (0.0, 1.0)),
    "s02_exp_log": (component((1, EXP)), component((1, ("log", 1.0))), 0.0,
                    (0.0, 2.0)),
    "s03_center_zero_line": (component((1, T)), component((-2, T)), 0.5,
                             (0.0, 1.0)),
    "s04_cosine_arc": (component((1, COS)), component(), 0.0, (0.0, math.pi)),
    "s05_piecewise_cubic": (component((1, T3), (-1, T)), component((1, COS)),
                            0.0, (-1.0, 1.0)),
    "s06_recovery_window": (component((1, SIN)), component((1, COS)), 0.0,
                            (0.5, 2.5)),
    "s07_linear_pair": (component((1, T)), component((1, ONE)), 0.0, (0.0, 1.0)),
    "s08_parabola_min": (component((1, T2)), component((1, T)), 1.0,
                         (-2.0, 1.0)),
    "s09_dbr_pair": (component((1, COS)), component((2, T)), 0.0, (0.0, math.pi)),
    "s10_dbr_perturbed": (component((1, COS), (0.1, ONE)), component((2, T)),
                          0.0, (0.0, math.pi)),
    "s11_shifted_peak": (component((1, ONE), (1, SIN)), component((1, T)), 0.25,
                         (0.0, 1.0)),
    "s12_reconstruction_gap": (component((1, ONE), (1, SIN)),
                               component((-2, ONE), (-2, SIN)), 0.5,
                               (0.0, 2.0 * math.pi)),
}

#: Catalog scenarios whose center derivative vanishes identically, so every
#: interior point is critical and no finite root set is right.
DEGENERATE_CENTER = ("s03_center_zero_line", "s12_reconstruction_gap")


def center_roots(r, q, a_m: float, domain, grid: int = 8192):
    """Interior zeros of g' for g = r + a_m*q, by a fine sign scan and
    bisection on the closed-form derivative, each with its verdict."""
    a, b = domain
    d1 = lambda t: r.d1(t) + a_m * q.d1(t)
    d2 = lambda t: r.d2(t) + a_m * q.d2(t)
    ts = [a + (b - a) * i / grid for i in range(grid + 1)]
    vs = [d1(t) for t in ts]
    roots = []
    for i in range(grid + 1):
        if vs[i] == 0.0 and 0 < i < grid:
            roots.append((ts[i], "local-min" if d2(ts[i]) > 0 else "local-max"))
        if i == 0:
            continue
        lo, hi, flo = ts[i - 1], ts[i], vs[i - 1]
        if flo * vs[i] < 0.0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = d1(mid)
                if fm == 0.0 or hi - lo < 1e-14:
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            t = 0.5 * (lo + hi)
            curv = d2(t)
            roots.append((t, "local-min" if curv > 0 else "local-max"))
    return roots


# -- verdict table --------------------------------------------------------------

#: Checker verdicts fixed by the mathematics: ftc, ibp and the squared
#: integral hold for every smooth input; the du Bois-Reymond forward
#: identity holds exactly when g' = f.  dbr-reconstruct is absent on
#: purpose: it always reports passed, so its mean is checked instead.
VERDICTS = {
    "ftc": True,
    "ibp": True,
    "square": True,
    "interchange": True,
    "dbr-forward:derivative-pair": True,
    "dbr-forward:perturbed-pair": False,
}

CATALOG_DBR_PAIRS = {"s09_dbr_pair": "dbr-forward:derivative-pair",
                     "s10_dbr_perturbed": "dbr-forward:perturbed-pair"}


def dirac_mass(epsilon: float, smoothness: int, index: int) -> float:
    """Mass of ((cos(pi*x/eps) + 1)/2)^n on [-eps, eps]: 2*eps times the
    mean of cos^(2n) over a period, 2*eps*C(2n, n)/4^n."""
    n = (smoothness + 1) * index
    return 2.0 * epsilon * math.comb(2 * n, n) / 4 ** n


def gl_nodes(n: int):
    """Gauss-Legendre nodes and weights by Newton on the three-term
    recurrence."""
    xs, ws = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * dp * dp))
    return xs, ws


_GL20 = gl_nodes(20)


def quad(fn, a: float, b: float, panels: int = 64) -> float:
    """Composite 20-point Gauss-Legendre; accurate to rounding for the
    smooth integrands the benchmark generates."""
    xs, ws = _GL20
    h = (b - a) / panels
    total = []
    for p in range(panels):
        mid = a + (p + 0.5) * h
        total.extend(w * fn(mid + 0.5 * h * x) for x, w in zip(xs, ws))
    return 0.5 * h * math.fsum(total)
