"""The generator fuzzy number: a piecewise-linear membership polyline.

Membership rises strictly from 0 to exactly 1 at a single knot and falls
strictly back to 0, so every alpha-level is a closed interval, the support
is bounded, and the 1-level is the singleton ``{a_m}``.  Validation also
rejects mirror-symmetric polylines: symmetry would make the coordinate
map (r, q) -> r + qA non-injective and the whole coordinate calculus
meaningless.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    AlphaOutOfRange,
    GeneratorError,
    NotNormal,
    PlateauAtOne,
    Symmetric,
    UnsortedKnots,
)

TRIANGULAR = "triangular"
PIECEWISE_LINEAR = "piecewise-linear"

#: Reflected-branch deviation below this means mirror symmetry.
MIRROR_TOL = 1e-12

Knot = tuple[float, float]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a successful validation."""

    a_m: float
    support: tuple[float, float]
    asymmetry_gap: float  # max |reflected left branch - right branch|


@dataclass(frozen=True)
class Generator:
    """Immutable generator; safe to share between threads.

    ``knots`` is the membership polyline as (x, mu) pairs, ``a_m`` the
    abscissa of the unique mu = 1 knot.  The knots alone identify the
    generator: a triangular one equals its 3-knot piecewise-linear twin.
    """

    knots: tuple[Knot, ...]
    a_m: float

    @classmethod
    def triangular(cls, left: float, peak: float, right: float) -> "Generator":
        return cls.piecewise_linear(((left, 0.0), (peak, 1.0), (right, 0.0)))

    @classmethod
    def piecewise_linear(cls, knots) -> "Generator":
        knots = tuple((float(x), float(mu)) for x, mu in knots)
        return cls(knots, validate(knots).a_m)

    @classmethod
    def from_config(cls, cfg: dict) -> "Generator":
        kind = cfg.get("kind")
        if kind == TRIANGULAR:
            return cls.triangular(cfg["left"], cfg["peak"], cfg["right"])
        if kind == PIECEWISE_LINEAR:
            return cls.piecewise_linear(cfg["knots"])
        raise GeneratorError(f"unknown generator kind: {kind!r}")

    def to_config(self) -> dict:
        if len(self.knots) == 3:
            (left, _), (peak, _), (right, _) = self.knots
            return {"kind": TRIANGULAR, "left": left, "peak": peak,
                    "right": right}
        return {"kind": PIECEWISE_LINEAR, "knots": [list(k) for k in self.knots]}

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def alpha_level(self, alpha: float) -> tuple[float, float]:
        """Closed interval {x : membership(x) >= alpha}.

        alpha = 0 returns the support closure, alpha = 1 the peak
        singleton; in between, endpoints come from linear interpolation
        on each branch.
        """
        if not 0.0 <= alpha <= 1.0:
            raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
        if alpha == 0.0:
            return self.support
        peak = self._peak_index()
        if alpha == 1.0:
            return (self.a_m, self.a_m)
        lo = _branch_x_at(self.knots[: peak + 1], alpha)
        hi = _branch_x_at(tuple(reversed(self.knots[peak:])), alpha)
        return (lo, hi)

    def center_at_zero(self) -> "Generator":
        """Shift the polyline so the peak sits at 0.

        The generated space is unchanged as a set: the shift is absorbed
        into the deterministic coordinate of each element.
        """
        if self.a_m == 0.0:
            return self
        shifted = tuple((x - self.a_m, mu) for x, mu in self.knots)
        return Generator(shifted, 0.0)

    def _peak_index(self) -> int:
        for i, (_, mu) in enumerate(self.knots):
            if mu == 1.0:
                return i
        raise NotNormal("no knot with membership 1")  # unreachable post-validation


def validate(knots) -> ValidationReport:
    """Check all generator invariants, returning a report or raising.

    Raises UnsortedKnots, NotNormal, PlateauAtOne, Symmetric, or the base
    GeneratorError for the remaining structural defects.
    """
    knots = tuple((float(x), float(mu)) for x, mu in knots)
    if len(knots) < 3:
        raise GeneratorError("need at least three knots")
    for i in range(1, len(knots)):
        if not knots[i - 1][0] < knots[i][0]:
            raise UnsortedKnots(
                f"knot abscissae must increase strictly (index {i})")
    for x, mu in knots:
        if not 0.0 <= mu <= 1.0:
            raise GeneratorError(f"membership {mu} at x={x} outside [0, 1]")

    ones = [i for i, (_, mu) in enumerate(knots) if mu == 1.0]
    if not ones:
        raise NotNormal("no knot reaches membership 1")
    if len(ones) > 1:
        raise PlateauAtOne(
            f"1-level spans knots {ones[0]}..{ones[-1]}, not a single point")
    peak = ones[0]

    if knots[0][1] != 0.0 or knots[-1][1] != 0.0:
        raise GeneratorError("membership must be 0 at the first and last knot")
    for i in range(1, peak + 1):
        if not knots[i - 1][1] < knots[i][1]:
            raise GeneratorError("left branch must rise strictly to 1")
    for i in range(peak + 1, len(knots)):
        if not knots[i - 1][1] > knots[i][1]:
            raise GeneratorError("right branch must fall strictly from 1")

    a_m = knots[peak][0]
    left = knots[: peak + 1]
    right = tuple(reversed(knots[peak:]))  # ascending in mu

    # Two piecewise-linear branches coincide iff they coincide at the union
    # of their breakpoint membership values, so this grid test is exact.
    grid = sorted({mu for _, mu in left} | {mu for _, mu in right})
    gap = 0.0
    for mu in grid:
        reflected = 2.0 * a_m - _branch_x_at(left, mu)
        gap = max(gap, abs(reflected - _branch_x_at(right, mu)))
    if gap < MIRROR_TOL:
        raise Symmetric(
            f"branches mirror each other within {MIRROR_TOL:g}; "
            "coordinates would not be unique")

    return ValidationReport(a_m=a_m, support=(knots[0][0], knots[-1][0]),
                            asymmetry_gap=gap)


def same_generator(g1: Generator, g2: Generator) -> bool:
    """Shared reference or structurally equal configs interoperate."""
    return g1 is g2 or g1 == g2


def load_generator(path) -> Generator:
    with open(path, "r", encoding="utf-8") as fh:
        return Generator.from_config(json.load(fh))


def _branch_x_at(branch, mu: float) -> float:
    """x with membership mu on a strictly monotone branch (mu ascending)."""
    if mu <= branch[0][1]:
        return branch[0][0]
    for i in range(1, len(branch)):
        x0, m0 = branch[i - 1]
        x1, m1 = branch[i]
        if mu <= m1:
            return x0 + (mu - m0) * (x1 - x0) / (m1 - m0)
    return branch[-1][0]
