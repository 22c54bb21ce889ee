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
import math
from bisect import bisect_left
from operator import itemgetter

from .errors import (
    AlphaOutOfRange,
    GeneratorError,
    NotNormal,
    PlateauAtOne,
    Symmetric,
    UnsortedKnots,
)
from .value import Value

TRIANGULAR = "triangular"
PIECEWISE_LINEAR = "piecewise-linear"

#: Reflected-branch deviation below this means mirror symmetry.
MIRROR_TOL = 1e-12

_MU = itemgetter(1)  # a knot's membership


class Generator(Value):
    """Immutable generator; safe to share between threads.

    ``knots`` is the membership polyline as (x, mu) pairs of numbers, any
    iterable of them, converted once to a tuple of float pairs and
    validated on construction; ``a_m``, derived from them, is the abscissa
    of the unique mu = 1 knot.  The knots alone identify the generator: a
    triangular one equals its 3-knot piecewise-linear twin.
    """

    # _left and _right are alpha_level's branches, both ascending in mu:
    # the knots up to the peak, and the knots from the peak reversed.
    __slots__ = ("knots", "a_m", "_left", "_right")

    def __init__(self, knots):
        try:
            pairs = tuple((float(x), float(mu)) for x, mu in knots)
        except (TypeError, ValueError, OverflowError):
            raise GeneratorError(
                f"knots must be [x, mu] pairs of numbers, got {knots!r}"
            ) from None
        left, right = _branches(pairs)
        self._set(pairs, left[-1][0], left, right)

    def __reduce__(self):  # a_m is derived, not a constructor argument
        return Generator, (self.knots,)

    @classmethod
    def triangular(cls, left: float, peak: float, right: float) -> "Generator":
        return cls(((left, 0.0), (peak, 1.0), (right, 0.0)))

    @classmethod
    def from_config(cls, cfg: dict) -> "Generator":
        if not isinstance(cfg, dict):
            raise GeneratorError("generator config must be a JSON object, "
                                 f"got {type(cfg).__name__}")
        kind = cfg.get("kind")
        try:
            if kind == TRIANGULAR:
                return cls.triangular(cfg["left"], cfg["peak"], cfg["right"])
            if kind == PIECEWISE_LINEAR:
                return cls(cfg["knots"])
        except KeyError as missing:
            raise GeneratorError(
                f"{kind} generator config is missing key {missing}") from None
        raise GeneratorError(f"unknown generator kind: {kind!r}")

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
        if alpha == 1.0:
            return (self.a_m, self.a_m)
        return (_branch_x_at(self._left, alpha), _branch_x_at(self._right, alpha))


def _branches(knots: tuple) -> tuple[tuple, tuple]:
    """Check every generator invariant of the float knots and return the
    two branches, both ascending in mu: the knots up to the peak, and the
    knots from the peak reversed.

    Raises UnsortedKnots, NotNormal, PlateauAtOne, Symmetric, or the base
    GeneratorError for the remaining structural defects.
    """
    if len(knots) < 3:
        raise GeneratorError("need at least three knots")
    for i in range(1, len(knots)):
        if not knots[i - 1][0] < knots[i][0]:
            raise UnsortedKnots(
                f"knot abscissae must increase strictly (index {i})")
    for i, (x, mu) in enumerate(knots):
        if not math.isfinite(x):
            raise GeneratorError(f"knot {i} has a non-finite abscissa {x}")
        if i and not math.isfinite(x - knots[i - 1][0]):
            raise GeneratorError(
                f"knot {i} lies too far from knot {i - 1}: their spacing "
                "overflows a float")
        if not 0.0 <= mu <= 1.0:
            raise GeneratorError(f"membership {mu} at x={x} outside [0, 1]")
    if not math.isfinite(knots[-1][0] - knots[0][0]):  # bounds the mirror gap
        raise GeneratorError(
            f"knot {len(knots) - 1} lies too far from knot 0: the support "
            "width overflows a float")

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
    right = tuple(reversed(knots[peak:]))
    for i, (x, _) in enumerate(left):
        if not math.isfinite(2.0 * a_m - x):
            raise GeneratorError(
                f"knot {i} mirrored about the peak, 2*a_m - x, overflows a "
                "float, so symmetry cannot be tested")

    # Two piecewise-linear branches coincide iff they coincide at the union
    # of their breakpoint membership values, so this grid test is exact.
    grid = {mu for _, mu in knots}
    if all(abs(2.0 * a_m - _branch_x_at(left, mu) - _branch_x_at(right, mu))
           < MIRROR_TOL for mu in grid):
        raise Symmetric(
            f"branches mirror each other within {MIRROR_TOL:g}; "
            "coordinates would not be unique")
    return left, right


def same_generator(g1: Generator, g2: Generator) -> bool:
    """Shared reference or structurally equal configs interoperate."""
    return g1 is g2 or g1 == g2


def load_generator(path) -> Generator:
    with open(path, "r", encoding="utf-8") as fh:
        return Generator.from_config(json.load(fh))


def _branch_x_at(branch, mu: float) -> float:
    """x with membership mu on a strictly monotone branch (mu ascending):
    the first knot i >= 1 with mu <= mu_i, found by bisection, and linear
    interpolation from knot i - 1 to it."""
    if mu <= branch[0][1]:
        return branch[0][0]
    i = bisect_left(branch, mu, 1, key=_MU)
    if i == len(branch):
        return branch[-1][0]
    (x0, m0), (x1, m1) = branch[i - 1], branch[i]
    return x0 + (mu - m0) * (x1 - x0) / (m1 - m0)
