"""Element arithmetic, the total order, sign classes, and the product."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcfn import (
    LCFN,
    Generator,
    Ordering,
    SignClass,
    annihilator_witness,
    compare,
    compare_with_tier,
    cross_oracle,
    element_payload,
    format_element,
    parse_element,
    scalar_ge,
    scalar_le,
)
from lcfn.errors import ExprSyntaxError, GeneratorMismatch

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


def test_generator_mismatch_raises(tri_am0, tri_am05):
    with pytest.raises(GeneratorMismatch):
        LCFN(1, 0, tri_am0) + LCFN(1, 0, tri_am05)
    with pytest.raises(GeneratorMismatch):
        LCFN(1, 0, tri_am0).cross(LCFN(1, 0, tri_am05))


def test_equal_configs_interoperate():
    g1 = Generator.triangular(-1, 0, 2)
    g2 = Generator.triangular(-1, 0, 2)
    assert g1 is not g2
    assert LCFN(1, 1, g1) + LCFN(1, 1, g2) == LCFN(2, 2, g1)


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
    assert scalar_le(0.0, LCFN(1, -2, tri_am05))          # center exactly 0
    b = LCFN(0, 1, tri_am05)                              # center 0.5
    assert scalar_ge(1.0, b) and not scalar_le(1.0, b)
    b = LCFN(2, 0, tri_am0)
    assert scalar_le(2.0, b) and scalar_ge(2.0, b)        # embedded real


@settings(max_examples=300)
@given(coord, coord, st.floats(-50, 50), st.integers(0, 10_000))
def test_compare_scalar_agrees_with_embedding(r, q, lam, seed):
    g = random_generator(random.Random(seed))
    b = LCFN(r, q, g)
    embedded = LCFN.from_scalar(lam, g)
    assert scalar_le(lam, b) == (compare(embedded, b) is not Ordering.GREATER)
    assert scalar_ge(lam, b) == (compare(b, embedded) is not Ordering.GREATER)


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


def test_approx_equal_is_assertion_only(tri_am0):
    from lcfn import approx_equal
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
        assert scalar_le(0.0, sq)
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
    rng = random.Random(404)
    for _ in range(2000):
        g = lattice_generator(rng)
        b = lattice_element(rng, g)
        if b.r == 0.0 and b.q == 0.0:
            continue
        if rng.random() < 0.3:
            b = LCFN(0.0, b.q if b.q != 0.0 else 1.0, b.gen)
        w = annihilator_witness(b)
        assert w.sign_class() is not SignClass.ZERO
        assert b.cross(w) != LCFN.zero(g)
    with pytest.raises(ValueError):
        annihilator_witness(LCFN.zero(lattice_generator(rng)))


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
])
def test_parse_element(text, expected, tri_am0):
    b = parse_element(text, tri_am0)
    assert (b.r, b.q) == expected


@pytest.mark.parametrize("bad", ["", "3+", "A+A+A", "3**A", "x", "3+2B", "1 2"])
def test_parse_element_rejects(bad, tri_am0):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element(bad, tri_am0)
    assert err.value.offset >= 0


def test_format_parse_round_trip(tri_am0):
    rng = random.Random(7)
    for _ in range(200):
        b = continuous_element(rng, tri_am0)
        again = parse_element(format_element(b), tri_am0)
        assert (again.r, again.q) == (b.r, b.q)


def test_element_payload(tri_am05):
    payload = element_payload(LCFN(1, -2, tri_am05))
    assert payload == {"r": 1.0, "q": -2.0, "center": 0.0, "class": "zero"}
