"""Element arithmetic, the total order, sign classes, and the product."""
import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcfn import (
    LCFN,
    FuzzyFunction,
    Generator,
    Ordering,
    SignClass,
    compare,
    compare_with_tier,
    cross_oracle,
    element_payload,
    parse_element,
)
from lcfn.calculus import deriv, integrate, integrate_many
from lcfn.core import _Open
from lcfn.errors import ExprSyntaxError, GeneratorMismatch
from lcfn.generator import same_generator
from lcfn.value import Value

import oracles
from conftest import (
    continuous_element,
    lattice_element,
    lattice_element_in_class,
    lattice_generator,
    random_generator,
)

coord = st.floats(-100.0, 100.0, allow_nan=False)


# -- vector space --------------------------------------------------------------

def test_add_componentwise(tri_am0):
    assert LCFN(3, 2, tri_am0) + LCFN(1, -1, tri_am0) == LCFN(4, 1, tri_am0)
    b = LCFN(2.5, -3.0, tri_am0)
    assert b + LCFN.zero(tri_am0) == b
    assert LCFN(1, 1, tri_am0) + LCFN(-1, -1, tri_am0) == LCFN.zero(tri_am0)


def test_scale_neg_sub(tri_am0):
    assert 2 * LCFN(3, -1, tri_am0) == LCFN(6, -2, tri_am0)
    assert 0 * LCFN(5, 7, tri_am0) == LCFN.zero(tri_am0)
    assert LCFN(3, 2, tri_am0) - LCFN(1, 2, tri_am0) == LCFN(2, 0, tri_am0)
    assert -LCFN(1, -2, tri_am0) == LCFN(-1, 2, tri_am0)


# Every operation on two elements; each requires one generator, and skips
# the equality test when both hold the same Generator object.
TWO_ELEMENT_OPS = {
    "+": lambda b, c: b + c,
    "-": lambda b, c: b - c,
    "cross": LCFN.cross,
    "compare": compare,
    "compare_with_tier": compare_with_tier,
    "cross_oracle": cross_oracle,
}


def test_generator_mismatch_raises(tri_am0, tri_am05):
    for name, op in TWO_ELEMENT_OPS.items():
        with pytest.raises(GeneratorMismatch):
            op(LCFN(1, 0, tri_am0), LCFN(1, 0, tri_am05))
        with pytest.raises(GeneratorMismatch):
            op(LCFN(1, 0, tri_am05), LCFN(1, 0, tri_am0))


def test_equal_configs_interoperate():
    g1 = Generator.triangular(-1, 0, 2)
    g2 = Generator.triangular(-1, 0, 2)
    assert g1 is not g2
    assert LCFN(1, 1, g1) + LCFN(1, 1, g2) == LCFN(2, 2, g1)
    b, c = LCFN(3.0, 2.0, g1), LCFN(-1.0, 0.5, g1)
    for name, op in TWO_ELEMENT_OPS.items():
        assert op(b, LCFN(c.r, c.q, g2)) == op(b, c), name


# -- value semantics -----------------------------------------------------------

PINNED_GEN = ((-1.0, 0.0), (0.3, 1.0), (2.0, 0.0))
PINNED_PL = ((-2.0, 0.0), (-1.0, 0.4), (0.5, 1.0), (1.0, 0.7), (3.0, 0.0))


@pytest.mark.parametrize("r, q, knots, text, hashed", [
    (1.5, -2.25, PINNED_GEN,
     "LCFN(r=1.5, q=-2.25, gen=Generator(knots=((-1.0, 0.0), (0.3, 1.0), "
     "(2.0, 0.0)), a_m=0.3))", 6888125113994339963),
    (0.0, -0.0, PINNED_PL,
     "LCFN(r=0.0, q=-0.0, gen=Generator(knots=((-2.0, 0.0), (-1.0, 0.4), "
     "(0.5, 1.0), (1.0, 0.7), (3.0, 0.0)), a_m=0.5))", 3100525891683085774),
    (1e300, 5e-324, PINNED_GEN,
     "LCFN(r=1e+300, q=5e-324, gen=Generator(knots=((-1.0, 0.0), (0.3, 1.0), "
     "(2.0, 0.0)), a_m=0.3))", -2897028113142013836),
], ids=["triangular", "signed-zero", "extremes"])
def test_lcfn_is_a_frozen_slotted_value(r, q, knots, text, hashed):
    b = LCFN(r, q, Generator(knots))
    assert repr(b) == text and hash(b) == hashed
    assert b == LCFN(r=r, q=q, gen=Generator(knots))
    assert not hasattr(b, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.r = 2.0
    for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert twin == b and hash(twin) == hash(b) and repr(twin) == repr(b)


def test_every_attribute_name_is_frozen(tri_am0):
    # not only the fields: a slotted class has no other name to set either
    f = FuzzyFunction.from_strings("t", "1", tri_am0, (0.0, 1.0))
    for value in (LCFN(1.0, 2.0, tri_am0), f, tri_am0):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.x = 1.0


def _assert_closed(x):
    """x is an LCFN, not the open class it is built as: every name, a
    field or not, refuses assignment and deletion."""
    assert type(x) is LCFN
    for name in ("r", "q", "gen", "x"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)


_B_GEN = Generator(PINNED_GEN)
_B, _C = LCFN(1.5, -2.0, _B_GEN), LCFN(-0.25, 3.0, _B_GEN)
_F = FuzzyFunction.from_strings("t^2", "sin(t)", _B_GEN, (0.0, 1.0))

ELEMENT_ROUTES = {
    "positional": lambda: LCFN(1.5, -2.0, _B_GEN),
    "keyword": lambda: LCFN(r=1.5, q=-2.0, gen=_B_GEN),
    "zero": lambda: LCFN.zero(_B_GEN),
    "from_scalar": lambda: LCFN.from_scalar(2, _B_GEN),
    "+": lambda: _B + _C,
    "-": lambda: _B - _C,
    "unary -": lambda: -_B,
    "*": lambda: _B * 2.0,
    "__rmul__": lambda: 3 * _B,
    "scaled": lambda: _B.scaled(0.5),
    "cross": lambda: _B.cross(_C),
    "square": lambda: _B.square(),
    "cross_oracle": lambda: cross_oracle(_B, _C),
    "parse_element": lambda: parse_element("3+2A", _B_GEN),
    "copy.copy": lambda: copy.copy(_B),
    "copy.deepcopy": lambda: copy.deepcopy(_B),
    "pickle": lambda: pickle.loads(pickle.dumps(_B)),
    "FuzzyFunction.at": lambda: _F.at(0.5),
    "deriv": lambda: deriv(_F, 0.5),
    "integrate": lambda: integrate(_F),
    "integrate_many": lambda: integrate_many([_F, _F])[1],
}


@pytest.mark.parametrize("route", ELEMENT_ROUTES.values(),
                         ids=ELEMENT_ROUTES.keys())
def test_no_open_element_escapes(route):
    _assert_closed(route())


def test_a_value_subclass_without_fields_keeps_its_parents():
    assert _Open._fields is LCFN._fields and _Open._key is LCFN._key

    class Pair(Value):
        __slots__ = ("a", "_cache", "b")

        def __init__(self, a, b):
            self._set(a, None, b)  # into Pair's slots, though Tagged has its own

    class Tagged(Pair):
        __slots__ = ("_tag",)

    assert Tagged._fields is Pair._fields and Tagged._key is Pair._key
    t = Tagged(1.0, 2.0)
    assert t._fields() == (1.0, 2.0) and hash(t) == hash((1.0, 2.0))
    assert t == Tagged(1.0, 2.0) and t != Tagged(1.0, 3.0)
    assert copy.copy(t) == t and type(copy.copy(t)) is Tagged
    assert (t.a, t._cache, t.b) == (1.0, None, 2.0)
    assert repr(t) == f"{Tagged.__qualname__}(a=1.0, b=2.0)"


# -- center / norm -------------------------------------------------------------

def test_center_examples(tri_am0, tri_am05):
    assert LCFN(3, 2, tri_am0).center() == 3.0
    assert LCFN(1, -2, tri_am05).center() == 0.0
    quarter = Generator.triangular(0.0, 0.25, 1.25)
    assert LCFN(0, 4, quarter).center() == 1.0


def test_norm_examples(tri_am0, tri_am05):
    assert LCFN(3, 2, tri_am0).norm() == 5.0
    assert LCFN(0, 0, tri_am0).norm() == 0.0
    assert LCFN(-1, 2, tri_am05).norm() == 2.0


def test_norm_axioms_on_lattice():
    # lattice samples evaluate exactly, so the axioms hold with no slack
    rng = random.Random(5150)
    for _ in range(2000):
        g = lattice_generator(rng)
        b = lattice_element(rng, g)
        c = lattice_element(rng, g)
        lam = rng.randrange(-2 ** 14, 2 ** 14 + 1) * 2.0 ** -12
        assert b.norm() >= 0.0
        assert (b.norm() == 0.0) == (b.r == 0.0 and b.q == 0.0)
        assert (lam * b).norm() == abs(lam) * b.norm()
        assert (b + c).norm() <= b.norm() + c.norm()


@settings(max_examples=300)
@given(coord, coord, coord, coord, st.integers(0, 10_000))
def test_triangle_inequality_relative(r1, q1, r2, q2, seed):
    g = random_generator(random.Random(seed))
    b, c = LCFN(r1, q1, g), LCFN(r2, q2, g)
    slack = b.norm() + c.norm() - (b + c).norm()
    scale = max(1.0, b.norm() + c.norm())
    assert slack >= -8 * math.ulp(scale)


# -- total order ---------------------------------------------------------------

def test_compare_tier_examples(tri_am0, tri_am05):
    b, c = LCFN(1, 0, tri_am05), LCFN(0, 1, tri_am05)
    assert compare_with_tier(b, c) == (Ordering.GREATER, 1)
    b, c = LCFN(3, -2, tri_am0), LCFN(3, 2, tri_am0)
    assert compare_with_tier(b, c) == (Ordering.LESS, 3)
    b, c = LCFN(3, 0, tri_am0), LCFN(3, 2, tri_am0)
    assert compare_with_tier(b, c) == (Ordering.LESS, 2)
    assert compare(LCFN(4, 0, tri_am0), LCFN(4, 0, tri_am0)) is Ordering.EQUAL


def test_rich_comparisons(tri_am0):
    assert LCFN(1, 0, tri_am0) < LCFN(2, 0, tri_am0)
    assert LCFN(2, 0, tri_am0) <= LCFN(2, 0, tri_am0)
    assert LCFN(3, 2, tri_am0) > LCFN(3, -2, tri_am0)


def _random_tie_triple(rng, gen):
    """Triple sharing the exact same center, exercising tiers 2 and 3."""
    center = rng.randrange(-2 ** 14, 2 ** 14 + 1) * 2.0 ** -12
    out = []
    for _ in range(3):
        q = rng.randrange(-2 ** 14, 2 ** 14 + 1) * 2.0 ** -12
        out.append(LCFN(center - q * gen.a_m, q, gen))
    return out


def test_order_axioms_with_ties():
    rng = random.Random(98)
    for _ in range(3000):
        g = lattice_generator(rng)
        if rng.random() < 0.5:
            triple = [lattice_element(rng, g) for _ in range(3)]
        else:
            triple = _random_tie_triple(rng, g)
        if rng.random() < 0.2:
            triple[2] = triple[0]  # force genuine equality
        b, c, d = triple
        # reflexivity
        assert compare(b, b) is Ordering.EQUAL
        # antisymmetry: mutual <= means identical coordinates
        if b <= c and c <= b:
            assert (b.r, b.q) == (c.r, c.q)
        # totality
        assert b <= c or c <= b
        # transitivity
        if b <= c and c <= d:
            assert b <= d


def test_order_extends_real_order(tri_am05):
    # embedded reals compare like reals regardless of the generator
    assert LCFN.from_scalar(1.0, tri_am05) < LCFN.from_scalar(2.0, tri_am05)
    assert compare(LCFN.from_scalar(2.0, tri_am05),
                   LCFN.from_scalar(2.0, tri_am05)) is Ordering.EQUAL


def test_compare_scalar_examples(tri_am05, tri_am0):
    # a scalar lam is the element lam + 0*A, ordered by the dunders
    scalar = LCFN.from_scalar
    assert scalar(0.0, tri_am05) <= LCFN(1, -2, tri_am05)  # center exactly 0
    b = LCFN(0, 1, tri_am05)                              # center 0.5
    assert b <= scalar(1.0, tri_am05) and not scalar(1.0, tri_am05) <= b
    b = LCFN(2, 0, tri_am0)
    assert scalar(2.0, tri_am0) <= b <= scalar(2.0, tri_am0)  # embedded real


# lam <= B and B <= lam, with lam embedded as lam + 0*A
SCALAR_ORDERS = {
    "scalar_le": lambda lam, b: LCFN.from_scalar(lam, b.gen) <= b,
    "scalar_ge": lambda lam, b: b <= LCFN.from_scalar(lam, b.gen),
}


@pytest.mark.parametrize("scalar_cmp", SCALAR_ORDERS.values(),
                         ids=SCALAR_ORDERS.keys())
def test_scalar_comparison_refuses_nan(scalar_cmp, tri_am05):
    # a NaN center used to fall through to tier 2 whenever q != 0
    for b in (LCFN(0.0, 1.0, tri_am05), LCFN(2.0, 0.0, tri_am05)):
        with pytest.raises(ValueError, match=r"\(nan, 0\.0\).* have no "
                           "place in the order: a center is NaN"):
            scalar_cmp(math.nan, b)


def test_scalar_comparison_orders_infinities(tri_am05):
    b = LCFN(0.0, 1.0, tri_am05)
    le, ge = SCALAR_ORDERS.values()
    assert le(-math.inf, b) and not ge(-math.inf, b)
    assert ge(math.inf, b) and not le(math.inf, b)


def test_a_nan_center_makes_no_cycle():
    # with a NaN center, tier 2 ordered a against anything: a < b < c < a
    g = Generator.triangular(-1, 0, 2)
    a, b, c = LCFN(math.nan, 1, g), LCFN(0, 2, g), LCFN(100, 0.5, g)
    assert b < c
    for x, y in ((a, b), (c, a), (b, a), (a, a)):
        with pytest.raises(ValueError, match="a center is NaN"):
            x < y
    # arithmetic alone reaches such an element: inf - inf
    x = LCFN(1e308, 0, g)
    nan = (x + x) - (x + x)
    assert math.isnan(nan.r) and nan.q == 0.0
    with pytest.raises(ValueError, match="a center is NaN"):
        nan < b


def _order_pool(rng):
    """Pairs over one generator or two equal ones (signed-zero peaks
    included): edge coordinates, continuous ones, and near ties whose
    second r is up to three ulps from the tie, by math.nextafter."""
    twins = [(Generator(knots), Generator(knots))
             for knots in (PINNED_GEN, PINNED_PL)]
    twins.append((Generator.triangular(-1.0, 0.0, 2.0),
                  Generator.triangular(-1.0, -0.0, 2.0)))
    coords = EDGE_COORDS + (math.inf, -math.inf, math.nan)
    pairs = []
    for g, twin in twins:
        for _ in range(600):
            gc = rng.choice((g, twin))
            kind = rng.random()
            if kind < 0.3:
                r1, q1, r2, q2 = rng.choices(coords, k=4)
            else:
                r1, q1 = rng.uniform(-10, 10), rng.uniform(-10, 10)
                q2 = rng.choice((q1, -q1, rng.uniform(-10, 10)))
                r2 = rng.uniform(-10, 10)
                if kind < 0.8:  # the tie r1 + q1*a_m = r2 + q2*a_m, nudged
                    r2 = (r1 + q1 * g.a_m) - q2 * g.a_m
                    for _ in range(rng.randint(0, 3)):
                        r2 = math.nextafter(r2, rng.choice((-1, 1)) * math.inf)
            pairs.append((LCFN(r1, q1, g), LCFN(r2, q2, gc)))
    return pairs


def test_order_sign_and_norm_match_the_center_references():
    raised = signless = 0
    for b, c in _order_pool(random.Random(2611)):
        try:
            want = oracles.compare_with_tier(b, c)
        except ValueError as err:  # a NaN coordinate left them unparted
            raised += 1
            for order in (compare_with_tier, compare, LCFN.__lt__,
                          LCFN.__le__, LCFN.__gt__, LCFN.__ge__):
                with pytest.raises(ValueError) as got:
                    order(b, c)
                assert str(got.value) == str(err), (b, c)
        else:
            got = compare_with_tier(b, c)
            assert got == want and got[0] is want[0], (b, c)
            assert compare(b, c) is want[0]
            assert (b < c, b <= c, b > c, b >= c) == (
                want[0] is Ordering.LESS, want[0] is not Ordering.GREATER,
                want[0] is Ordering.GREATER, want[0] is not Ordering.LESS)
        for e in (b, c):
            try:
                want_class = oracles.sign_class(e)
            except ValueError as err:  # a NaN center
                signless += 1
                with pytest.raises(ValueError) as got:
                    e.sign_class()
                assert str(got.value) == str(err), e
            else:
                assert e.sign_class() is want_class
            assert repr(e.norm()) == repr(oracles.norm(e))
    assert raised and signless  # the pool holds NaN pairs of both kinds


def test_a_nan_is_neither_a_tie_nor_the_zero_class(tri_am0):
    nan = math.nan
    one = LCFN(1.0, 0.0, tri_am0)
    for b in (LCFN(nan, 0.0, tri_am0), LCFN(1.0, nan, tri_am0)):
        for b_, c_ in ((b, one), (one, b), (b, b)):
            with pytest.raises(ValueError, match="no place in the order"):
                compare_with_tier(b_, c_)
            with pytest.raises(ValueError, match="no place in the order"):
                b_ <= c_
        with pytest.raises(ValueError, match="has center nan, which has no "
                           "sign class"):
            b.sign_class()
    # equal coordinates stay a tie, infinite ones included, and a center
    # of -0.0 stays the zero class
    inf = LCFN(math.inf, 0.0, tri_am0)
    assert compare_with_tier(inf, inf) == (Ordering.EQUAL, None)
    assert LCFN(-0.0, -0.0, tri_am0).sign_class() is SignClass.ZERO


def test_order_mismatch_raises_as_the_reference(tri_am0, tri_am05):
    for b, c in ((LCFN(1.0, 2.0, tri_am0), LCFN(-0.0, 1e300, tri_am05)),
                 (LCFN(5e-324, 0.0, tri_am05), LCFN(3.0, -1.0, tri_am0))):
        with pytest.raises(GeneratorMismatch) as want:
            oracles.compare_with_tier(b, c)
        for order in (compare_with_tier, compare, LCFN.__lt__, LCFN.__le__,
                      LCFN.__gt__, LCFN.__ge__):
            with pytest.raises(GeneratorMismatch) as got:
                order(b, c)
            assert str(got.value) == str(want.value)


# -- cross product and sign classes --------------------------------------------

def test_cross_examples(tri_am0, tri_am05):
    b, c = LCFN(3, 2, tri_am0), LCFN(1, -1, tri_am0)
    assert b.cross(c) == LCFN(3, -1, tri_am0)
    assert b.cross(c) == c.cross(b)
    assert b.cross(LCFN(1, 0, tri_am0)) == b  # multiplicative identity
    # zero-class element annihilates the center of any product
    z = LCFN(1, -2, tri_am05)
    other = LCFN(0.375, 1.5, tri_am05)
    assert z.cross(other).center() == 0.0


def approx_equal(b, c, tol=1e-12):
    """Coordinate closeness for assertions only: Equal in compare() means
    identical coordinates, otherwise antisymmetry would fail."""
    return (same_generator(b.gen, c.gen)
            and abs(b.r - c.r) <= tol and abs(b.q - c.q) <= tol)


def test_approx_equal_is_assertion_only(tri_am0):
    b = LCFN(1.0, 2.0, tri_am0)
    c = LCFN(1.0 + 1e-13, 2.0, tri_am0)
    assert approx_equal(b, c)
    # ... but the order still distinguishes them
    assert compare(b, c) is Ordering.LESS


def test_cross_oracle_examples(tri_am0):
    b, c = LCFN(3, 2, tri_am0), LCFN(1, -1, tri_am0)
    assert cross_oracle(b, c) == LCFN(3, -1, tri_am0)
    assert cross_oracle(LCFN.zero(tri_am0), c) == LCFN.zero(tri_am0)
    assert cross_oracle(LCFN(2, 0, tri_am0), LCFN(5, 0, tri_am0)) == \
        LCFN(10, 0, tri_am0)


def test_cross_matches_oracle_scale_aware_ulps():
    # dual-formula agreement; ulps measured at the scale of the largest
    # intermediate term because the result itself may cancel to ~0
    rng = random.Random(31337)
    for _ in range(5000):
        g = random_generator(rng)
        b = continuous_element(rng, g)
        c = continuous_element(rng, g)
        direct, oracle = b.cross(c), cross_oracle(b, c)
        am = g.a_m
        scale_r = max(abs(b.r * c.r), abs(am * am * b.q * c.q),
                      abs(b.center() * c.center()))
        scale_q = max(abs(b.r * c.q), abs(c.r * b.q), abs(2 * am * b.q * c.q),
                      abs(c.center() * b.q), abs(b.center() * c.q))
        assert abs(direct.r - oracle.r) <= 4 * math.ulp(
            max(abs(direct.r), abs(oracle.r), scale_r))
        assert abs(direct.q - oracle.q) <= 4 * math.ulp(
            max(abs(direct.q), abs(oracle.q), scale_q))


EDGE_COORDS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -1.5e-310, 1.0, -3.25, 1e300, -1e300, 1.7e308, 1e-300,
               -7e-301)


def test_cross_oracle_matches_the_composed_form_bit_for_bit(tri_am0):
    gens = (tri_am0, Generator(PINNED_GEN), Generator(PINNED_PL))
    rng = random.Random(4242)
    pairs = [(LCFN(r1, q1, g), LCFN(r2, q2, g))
             for g in gens
             for r1, q1, r2, q2 in (rng.choices(EDGE_COORDS, k=4)
                                    for _ in range(400))]
    pairs += [(continuous_element(rng, g), continuous_element(rng, g))
              for g in gens for _ in range(300)]
    # an equal twin generator: both forms keep b's generator object
    twin = Generator(PINNED_GEN)
    pairs.append((LCFN(1.5, -2.0, gens[1]), LCFN(0.25, 3.0, twin)))
    for b, c in pairs:
        got, want = cross_oracle(b, c), oracles.cross_composed(b, c)
        assert repr(got) == repr(want), (b, c)
        assert got.gen is want.gen is b.gen


def test_cross_oracle_mismatch_raises_as_the_composed_form(tri_am0,
                                                           tri_am05):
    for b, c in ((LCFN(1.0, 2.0, tri_am0), LCFN(-0.0, 1e300, tri_am05)),
                 (LCFN(5e-324, 0.0, tri_am05), LCFN(3.0, -1.0, tri_am0))):
        with pytest.raises(GeneratorMismatch) as want:
            oracles.cross_composed(b, c)
        with pytest.raises(GeneratorMismatch) as got:
            cross_oracle(b, c)
        assert str(got.value) == str(want.value)


def test_cross_bilinear_on_lattice():
    rng = random.Random(2024)
    for _ in range(500):
        g = lattice_generator(rng)
        b, c, d = (lattice_element(rng, g) for _ in range(3))
        lam = rng.randrange(-2 ** 8, 2 ** 8 + 1) * 2.0 ** -4
        assert b.cross(c + d * lam) == b.cross(c) + b.cross(d) * lam


def test_square_examples(tri_am0, tri_am05):
    assert LCFN(3, 2, tri_am0).square() == LCFN(9, 12, tri_am0)
    assert LCFN(3, 2, tri_am0).square().center() == 9.0
    # center-zero element squares to the zero element: both coordinates
    # vanish because q*(r + a_m*q) = 0 as well
    assert LCFN(1, -2, tri_am05).square() == LCFN.zero(tri_am05)
    assert LCFN.zero(tri_am0).square() == LCFN.zero(tri_am0)


def test_square_nonnegative_and_zero_class_iff():
    rng = random.Random(8080)
    for _ in range(4000):
        g = lattice_generator(rng)
        b = lattice_element(rng, g)
        if rng.random() < 0.25:
            b = lattice_element_in_class(rng, g, 0)
        sq = b.square()
        assert LCFN.zero(g) <= sq
        assert (sq.sign_class() is SignClass.ZERO) == (b.center() == 0.0)


def test_classify_examples(tri_am0, tri_am05):
    assert LCFN(1, -2, tri_am05).sign_class() is SignClass.ZERO
    assert LCFN(3, 2, tri_am0).sign_class() is SignClass.POSITIVE
    assert LCFN(-1, 0, tri_am0).sign_class() is SignClass.NEGATIVE


def test_sign_rules_on_lattice():
    rng = random.Random(60601)
    table = {
        (SignClass.POSITIVE, SignClass.POSITIVE): SignClass.POSITIVE,
        (SignClass.NEGATIVE, SignClass.NEGATIVE): SignClass.POSITIVE,
        (SignClass.POSITIVE, SignClass.NEGATIVE): SignClass.NEGATIVE,
        (SignClass.NEGATIVE, SignClass.POSITIVE): SignClass.NEGATIVE,
    }
    for _ in range(2000):
        g = lattice_generator(rng)
        for sb in (-1, 0, 1):
            b = lattice_element_in_class(rng, g, sb)
            for sc in (-1, 0, 1):
                c = lattice_element_in_class(rng, g, sc)
                product = b.cross(c).sign_class()
                if sb == 0 or sc == 0:
                    assert product is SignClass.ZERO
                else:
                    assert product is table[(b.sign_class(), c.sign_class())]


def test_annihilator_witness_construction():
    # the unit witnesses every B != 0: B (*) 1 = B, and 1 is outside the
    # zero class
    rng = random.Random(404)
    for _ in range(2000):
        g = lattice_generator(rng)
        b = lattice_element(rng, g)
        if b.r == 0.0 and b.q == 0.0:
            continue
        if rng.random() < 0.3:
            b = LCFN(0.0, b.q if b.q != 0.0 else 1.0, b.gen)
        one = LCFN.from_scalar(1.0, g)
        assert one.sign_class() is not SignClass.ZERO
        assert b.cross(one) == b


# -- alpha-level realization ---------------------------------------------------

def test_realize_alpha_examples(tri_am0):
    assert LCFN(3, 2, tri_am0).alpha_level(0.5) == (2.0, 5.0)
    assert LCFN(1, -1, tri_am0).alpha_level(0.5) == (0.0, 1.5)
    assert LCFN(4, 0, tri_am0).alpha_level(0.37) == (4.0, 4.0)


@settings(max_examples=200)
@given(coord, coord, st.floats(0, 1), st.floats(0, 1), st.integers(0, 10_000))
def test_realize_alpha_nested_and_width(r, q, alpha, beta, seed):
    g = random_generator(random.Random(seed))
    b = LCFN(r, q, g)
    lo_g, hi_g = g.alpha_level(alpha)
    lo, hi = b.alpha_level(alpha)
    assert hi - lo == pytest.approx(abs(q) * (hi_g - lo_g), rel=1e-12, abs=1e-9)
    alpha, beta = min(alpha, beta), max(alpha, beta)
    outer = b.alpha_level(alpha)
    inner = b.alpha_level(beta)
    assert outer[0] <= inner[0] + 1e-9 and inner[1] <= outer[1] + 1e-9


# -- literals and payloads -----------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("3+2A", (3.0, 2.0)),
    ("3 - 2A", (3.0, -2.0)),
    ("-1.5A", (0.0, -1.5)),
    ("4", (4.0, 0.0)),
    ("A", (0.0, 1.0)),
    ("-A", (0.0, -1.0)),
    ("2.5e-1+1A", (0.25, 1.0)),
    ("3+2*A", (3.0, 2.0)),
    ("2 A", (0.0, 2.0)),
    ("1e+2A", (0.0, 100.0)),
    (" - 3 * A ", (0.0, -3.0)),
    ("+.5-.5A", (0.5, -0.5)),
    ("1.e5", (100000.0, 0.0)),
    ("2A+3", (3.0, 2.0)),
])
def test_parse_element(text, expected, tri_am0):
    b = parse_element(text, tri_am0)
    assert (b.r, b.q) == expected


@pytest.mark.parametrize("text", ["-1.5A", "-2", "-0", "-0 - 0A"])
def test_parse_element_has_no_negative_zero(text, tri_am0):
    # the sign multiplies both coordinates; -0.0 must not survive it
    b = parse_element(text, tri_am0)
    for value in (b.r, b.q, b.center()):
        if value == 0.0:
            assert math.copysign(1.0, value) == 1.0, (text, b)


@pytest.mark.parametrize("bad", ["", "3+", "A+A+A", "3**A", "x", "3+2B", "1 2",
                                 "*A", "2*", "A2", "A A", "3+-2A", "1e", "2AA",
                                 # not finite: r = nan has no place in the order
                                 "1e999", "1e999-1e999", "9e307+9e307"])
def test_parse_element_rejects(bad, tri_am0):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element(bad, tri_am0)
    assert err.value.offset >= 0


def random_literal(rng: random.Random) -> str:
    """An element literal in any of the accepted spellings, or a near miss."""
    def number():
        mantissa = rng.choice(["0", "7", "12", "3.", "0.5", ".25", "1.125"])
        return mantissa + rng.choice(["", "", "e3", "E-2", "e+0", "e999"])

    def term():
        return rng.choice(["A", number(),
                           number() + rng.choice(["A", "*A", " * A", " A"])])

    space = lambda: rng.choice(["", " ", "  "])
    text = space() + rng.choice(["", "+", "-"]) + space() + term() + space()
    if rng.random() < 0.6:
        text += rng.choice(["+", "-"]) + space() + term() + space()
    if rng.random() < 0.1:
        text += rng.choice(["+", "A", "2", "x"])  # junk: refused
    return text


@pytest.mark.parametrize("text", [
    "3", "-3", "+3", "2A", "-2A", "2*A", "A", "-A", "+A", "-0", "0", "-0A",
    "-0 - 0A", "0 - 0", "-0A + 0", "3+2A", "3 - 2A", "2A+3", "-A-1",
    "-1.5A + 7e-1", " .5 A - .25 ", "5e-324 - 5e-324A", "1e308+1e308",
    "1e999", "1e999 - 1e999", "A+A", "-A-A", "3+", "A A", "",
])
def test_parse_element_matches_the_term_by_term_parse(text, tri_am0):
    assert_parses_alike(text, tri_am0)


def test_parse_element_matches_the_term_by_term_parse_on_random_literals(
        tri_am0):
    rng = random.Random(2718)
    for _ in range(2000):
        assert_parses_alike(random_literal(rng), tri_am0)


def assert_parses_alike(text: str, gen: Generator) -> None:
    try:
        want = oracles.parse_element(text, gen)
    except ExprSyntaxError as err:
        with pytest.raises(ExprSyntaxError) as got:
            parse_element(text, gen)
        assert (str(got.value), got.value.offset) == (str(err), err.offset)
    else:
        assert repr(parse_element(text, gen)) == repr(want), text


def test_element_payload(tri_am05):
    payload = element_payload(LCFN(1, -2, tri_am05))
    assert payload == {"r": 1.0, "q": -2.0, "center": 0.0, "class": "zero"}
    # a NaN center has no sign class: None, for the CLI to refuse by name
    payload = element_payload(LCFN(math.inf, -math.inf, tri_am05))
    assert math.isnan(payload["center"]) and payload["class"] is None
