"""Coordinate arithmetic on the space generated by an asymmetric fuzzy number.

An element is a pair (r, q) standing for r + q*A.  Addition and scaling act
componentwise, the norm is |q| + |center|, and the interactive product is
the linearization of the real product at the 1-level points:

    B (*) C = center(C)*B + center(B)*C - center(B)*center(C)

which in coordinates reads

    (rB*rC - a_m^2*qB*qC,  rB*qC + rC*qB + 2*a_m*qB*qC).

Both routes are implemented; tests hold them against each other.
"""
from __future__ import annotations

import enum
import math
import re

from .errors import ExprSyntaxError, GeneratorMismatch
from .expr import NUMBER
from .generator import Generator, same_generator
from .value import Value


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class SignClass(enum.Enum):
    """Partition of the space by the sign of the center."""

    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


class LCFN(Value):
    """r + q*A over a shared generator; immutable, operations are pure."""

    __slots__ = ("r", "q", "gen")

    def __new__(cls, r: float, q: float, gen: Generator) -> "LCFN":
        # built as an _Open, whose stores are plain slot writes, then
        # switched to cls, whose __setattr__ is frozen; inside core the
        # constructors call this directly, as _element(LCFN, r, q, gen)
        e = _new(_Open)
        e.r = r
        e.q = q
        e.gen = gen
        e.__class__ = cls
        return e

    @classmethod
    def zero(cls, gen: Generator) -> "LCFN":
        return _element(cls, 0.0, 0.0, gen)

    @classmethod
    def from_scalar(cls, lam: float, gen: Generator) -> "LCFN":
        return _element(cls, float(lam), 0.0, gen)

    def center(self) -> float:
        """Midpoint of the 1-level: r + q*a_m, rounded twice on every
        Python.  The order, the sign classes, the norm and cross_oracle
        compute it inline with the same two float operations."""
        return self.r + self.q * self.gen.a_m

    def norm(self) -> float:
        return abs(self.q) + abs(self.r + self.q * self.gen.a_m)

    def sign_class(self) -> SignClass:
        """The class of the sign of the center; a NaN center has none and
        raises ValueError."""
        c = self.r + self.q * self.gen.a_m
        if c > 0.0:
            return _POSITIVE
        if c < 0.0:
            return _NEGATIVE
        if c == 0.0:
            return _ZERO
        raise ValueError(f"element ({self.r!r}, {self.q!r}) has center "
                         f"{c!r}, which has no sign class")

    def cross(self, other: "LCFN") -> "LCFN":
        if self.gen is not other.gen:
            _require_same_gen(self, other)
        am = self.gen.a_m
        qq = self.q * other.q
        return _element(
            LCFN,
            self.r * other.r - (am * am) * qq,
            self.r * other.q + other.r * self.q + 2.0 * am * qq,
            self.gen,
        )

    def square(self) -> "LCFN":
        return self.cross(self)

    def alpha_level(self, alpha: float) -> tuple[float, float]:
        """Realized alpha-level [r + q*lo, r + q*hi], endpoints swapped
        when q < 0."""
        lo, hi = self.gen.alpha_level(alpha)
        if self.q >= 0.0:
            return (self.r + self.q * lo, self.r + self.q * hi)
        return (self.r + self.q * hi, self.r + self.q * lo)

    def scaled(self, lam: float) -> "LCFN":
        return _element(LCFN, lam * self.r, lam * self.q, self.gen)

    # -- vector-space dunders ------------------------------------------------
    def __add__(self, other: "LCFN") -> "LCFN":
        if self.gen is not other.gen:
            _require_same_gen(self, other)
        return _element(LCFN, self.r + other.r, self.q + other.q, self.gen)

    def __sub__(self, other: "LCFN") -> "LCFN":
        if self.gen is not other.gen:
            _require_same_gen(self, other)
        return _element(LCFN, self.r - other.r, self.q - other.q, self.gen)

    def __neg__(self) -> "LCFN":
        return self.scaled(-1.0)

    def __mul__(self, lam) -> "LCFN":
        if isinstance(lam, (int, float)):
            return self.scaled(float(lam))
        return NotImplemented

    __rmul__ = __mul__

    # -- total order ---------------------------------------------------------
    def __lt__(self, other: "LCFN") -> bool:
        return compare_with_tier(self, other)[0] is _LESS

    def __le__(self, other: "LCFN") -> bool:
        return compare_with_tier(self, other)[0] is not _GREATER

    def __gt__(self, other: "LCFN") -> bool:
        return compare_with_tier(self, other)[0] is _GREATER

    def __ge__(self, other: "LCFN") -> bool:
        return compare_with_tier(self, other)[0] is not _LESS


class _Open(LCFN):
    """An LCFN under construction, whose fields set as plain slots.  Only
    LCFN.__new__ makes one, and it switches the class before it returns,
    so no _Open is seen outside it."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


_new = object.__new__
_element = LCFN.__new__

_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER
_NEGATIVE, _ZERO, _POSITIVE = (SignClass.NEGATIVE, SignClass.ZERO,
                               SignClass.POSITIVE)
# the seven verdicts of compare_with_tier, built once
_LESS_1, _LESS_2, _LESS_3 = ((_LESS, tier) for tier in (1, 2, 3))
_GREATER_1, _GREATER_2, _GREATER_3 = ((_GREATER, tier) for tier in (1, 2, 3))
_TIE = (_EQUAL, None)


def compare_with_tier(b: LCFN, c: LCFN) -> tuple[Ordering, int | None]:
    """Three-way comparison plus the deciding tier (1 = center,
    2 = noise width, 3 = signed noise); Equal carries no tier.

    Exact float comparisons throughout; ties are genuine ties, never
    tolerance artifacts, so the order is antisymmetric: a pair that no
    comparison parts has equal coordinates.  A NaN center, which a NaN
    coordinate or inf - inf gives, raises ValueError before tier 2, where
    it would order the element against anything and make cycles.  The
    centers are computed as center() computes them, with b's a_m (equal
    generators share it up to the sign of a zero, which no comparison
    sees).
    """
    if b.gen is not c.gen:
        _require_same_gen(b, c)
    am = b.gen.a_m
    cb, cc = b.r + b.q * am, c.r + c.q * am
    if cb < cc:
        return _LESS_1
    if cb > cc:
        return _GREATER_1
    if cb != cc:
        raise ValueError(f"elements ({b.r!r}, {b.q!r}) and ({c.r!r}, "
                         f"{c.q!r}) have no place in the order: a center "
                         "is NaN")
    ab, ac = abs(b.q), abs(c.q)
    if ab < ac:
        return _LESS_2
    if ab > ac:
        return _GREATER_2
    if b.q < c.q:
        return _LESS_3
    if b.q > c.q:
        return _GREATER_3
    # Equal q and equal computed centers can still hide an r difference
    # below the sum's resolution; r then decides, which matches the
    # tier-1 comparison carried out in exact arithmetic.
    if b.r < c.r:
        return _LESS_1
    if b.r > c.r:
        return _GREATER_1
    return _TIE  # no NaN center, so no NaN coordinate: all are equal


def compare(b: LCFN, c: LCFN) -> Ordering:
    return compare_with_tier(b, c)[0]


def cross_oracle(b: LCFN, c: LCFN) -> LCFN:
    """The product via its defining form center(C)*B + center(B)*C - b*c,
    from the two centers by scaling and addition only, not from the
    coordinate formula of cross(), so tests can hold the two routes
    against each other.  It does the float operations of the composed
    ``b.scaled(cc) + c.scaled(cb) - LCFN.from_scalar(cb*cc, gen)`` into
    one element, with its bits and its ``GeneratorMismatch``.
    """
    if b.gen is not c.gen:
        _require_same_gen(b, c)
    cb, cc = b.r + b.q * b.gen.a_m, c.r + c.q * c.gen.a_m  # the center()s
    # q - 0.0 is q, even for q = -0.0, so the scalar's q drops out
    return _element(LCFN, cc * b.r + cb * c.r - cb * cc,
                    cc * b.q + cb * c.q, b.gen)


# -- textual literals and report payloads ------------------------------------

_TERM = rf"({NUMBER})(?:\s*\*?\s*(A))?|(A)"  # q*A, qA, q A, r, or A
_ELEMENT = re.compile(rf"\s*([+-]?)\s*(?:{_TERM})\s*(?:([+-])\s*(?:{_TERM})\s*)?")


def parse_element(src: str, gen: Generator) -> LCFN:
    """Parse an ``r+q*A`` literal such as ``3+2A``, ``-1.5A``, or ``4``:
    an optional sign, a term, and at most one more signed term.  The
    match's groups are read once; each term's signed value goes to q when
    it carries ``A``, else to r."""
    m = _ELEMENT.fullmatch(src)
    if m is None:
        prefix = _ELEMENT.match(src)
        at = prefix.end() if prefix else 0
        raise ExprSyntaxError(
            f"element literal {src!r} is not r + q*A from {src[at:]!r}", at)
    sign, number, a, lone_a, sign2, number2, a2, lone_a2 = m.groups()
    value = 1.0 if lone_a else float(number)
    if sign == "-":
        value = -value
    r, q = (0.0, value) if a or lone_a else (value, 0.0)
    if sign2:  # the second term, added to its coordinate
        value = 1.0 if lone_a2 else float(number2)
        if sign2 == "-":
            value = -value
        if a2 or lone_a2:
            q += value
        else:
            r += value
    if not (math.isfinite(r) and math.isfinite(q)):
        raise ExprSyntaxError(f"element literal {src!r} is not finite", 0)
    # + 0.0 turns a signed -0.0 into 0.0
    return _element(LCFN, r + 0.0, q + 0.0, gen)


def element_payload(b: LCFN) -> dict:
    """b's coordinates, center and sign class; a NaN center has no class,
    so it gets None, and the CLI's finiteness check names the NaN."""
    center = b.center()
    return {"r": b.r, "q": b.q, "center": center,
            "class": None if center != center else b.sign_class().value}


def _require_same_gen(b: LCFN, c: LCFN) -> None:
    """Raise unless b and c share a generator; callers that operate on two
    elements test ``b.gen is not c.gen`` first, so shared generators skip
    the call."""
    if not same_generator(b.gen, c.gen):
        raise GeneratorMismatch(
            "elements belong to spaces over different generators")
