"""Generator validation, alpha-levels, and centering."""
import copy
import json
import math
import pickle
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from lcfn import LCFN, Generator, load_generator, validate
from lcfn.errors import (
    AlphaOutOfRange,
    GeneratorError,
    NotNormal,
    PlateauAtOne,
    Symmetric,
    UnsortedKnots,
)
from lcfn.generator import _branch_x_at

import oracles
from conftest import assert_frozen_value, random_generator


def test_valid_triangular_unequal_spreads():
    g = Generator.triangular(-1.0, 0.0, 2.0)
    assert g.a_m == 0.0
    assert g.support == (-1.0, 2.0)


def test_mirror_symmetric_rejected():
    with pytest.raises(Symmetric):
        Generator.triangular(-1.0, 0.0, 1.0)


def test_plateau_at_one_rejected():
    with pytest.raises(PlateauAtOne):
        Generator.piecewise_linear([(0, 0), (1, 1), (2, 1), (3, 0)])


def test_no_peak_rejected():
    with pytest.raises(NotNormal):
        Generator.piecewise_linear([(0, 0), (1, 0.5), (2, 0)])


def test_unsorted_knots_rejected():
    with pytest.raises(UnsortedKnots):
        Generator.piecewise_linear([(0, 0), (2, 1), (1, 0)])


def test_infinite_knot_rejected():
    # the support must be bounded: an infinite end knot passes every
    # ordering and membership check
    with pytest.raises(GeneratorError, match="knot 2 has a non-finite"):
        Generator(((-1, 0), (0, 1), (float("inf"), 0)))


def test_overflowing_knot_spacing_rejected():
    # finite knots whose difference is inf would interpolate to inf:
    # alpha_level(0.5) was (inf, 1.725e+308)
    with pytest.raises(GeneratorError, match="knot 1 lies too far from knot 0"):
        Generator(((-1.7e308, 0), (1.7e308, 1), (1.75e308, 0)))
    # a mirror image whose reflection 2*a_m - x overflows passed the
    # symmetry test with an infinite gap
    with pytest.raises(GeneratorError, match="knot 0 mirrored about the peak"):
        Generator(((1.0e308, 0), (1.2e308, 1), (1.4e308, 0)))
    # every spacing and mirror finite, but the support width is not: the
    # asymmetry gap read inf
    with pytest.raises(GeneratorError, match="knot 3 lies too far from knot "
                       "0: the support width overflows a float"):
        validate(((-0.85e308, 0), (-0.8e308, 1), (0.95e308, 0.99),
                  (1.7e308, 0)))


def test_asymmetry_gap_is_finite_near_the_float_limit():
    # support width 1.75e308, just inside the largest float (about 1.8e308);
    # the gap, at mu = 0, is 0.9e308 - (2*a_m + 0.85e308)
    report = validate(((-0.85e308, 0), (-0.8e308, 1), (0.5e308, 0.99),
                       (0.9e308, 0)))
    assert math.isfinite(report.asymmetry_gap)
    assert report.asymmetry_gap == pytest.approx(1.65e308)


def test_nonzero_support_edge_rejected():
    with pytest.raises(GeneratorError):
        Generator.piecewise_linear([(0, 0.2), (1, 1), (2, 0)])


def test_nonmonotone_branch_rejected():
    with pytest.raises(GeneratorError):
        Generator.piecewise_linear([(0, 0), (1, 0.6), (2, 0.4), (3, 1), (4, 0)])


def test_symmetric_piecewise_detected():
    # reflected left branch matches right branch knot-for-knot
    with pytest.raises(Symmetric):
        Generator.piecewise_linear([(-2, 0), (-1, 0.5), (0, 1), (1, 0.5), (2, 0)])


def test_asymmetry_gap_reported():
    report = validate([(-1, 0), (0, 1), (2, 0)])
    assert report.a_m == 0.0
    assert report.asymmetry_gap == pytest.approx(1.0)


def test_validation_report_is_a_frozen_value():
    report = validate([(-1, 0), (0.25, 1), (2, 0)])
    assert_frozen_value(
        report,
        "ValidationReport(a_m=0.25, support=(-1.0, 2.0), asymmetry_gap=0.5)",
        (0.25, (-1.0, 2.0), 0.5), validate([(-1, 0), (0.25, 1), (3, 0)]))


def test_alpha_level_triangular():
    g = Generator.triangular(-1.0, 0.0, 2.0)
    assert g.alpha_level(1.0) == (0.0, 0.0)
    assert g.alpha_level(0.0) == (-1.0, 2.0)
    assert g.alpha_level(0.5) == (-0.5, 1.0)


def test_alpha_level_piecewise():
    g = Generator.piecewise_linear([(0, 0), (1, 0.5), (2, 1), (3, 0)])
    assert g.alpha_level(0.5) == (1.0, 2.5)
    assert g.alpha_level(0.75) == (1.5, 2.25)


def test_alpha_out_of_range():
    g = Generator.triangular(-1.0, 0.0, 2.0)
    with pytest.raises(AlphaOutOfRange):
        g.alpha_level(1.5)
    with pytest.raises(AlphaOutOfRange):
        g.alpha_level(-0.1)


def test_constructor_validates_and_derives_the_peak():
    with pytest.raises(Symmetric):
        Generator(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    with pytest.raises(TypeError):
        Generator(((-1.0, 0.0), (0.0, 1.0), (2.0, 0.0)), 5.0)
    g = Generator(((-1.0, 0.0), (0.0, 1.0), (2.0, 0.0)))
    assert g.a_m == 0.0
    assert g == Generator.triangular(-1.0, 0.0, 2.0)


def test_center_at_zero_triangular():
    g = Generator.triangular(1.0, 2.0, 5.0)
    shifted = g.center_at_zero()
    assert shifted.knots == ((-1.0, 0.0), (0.0, 1.0), (3.0, 0.0))
    assert shifted.a_m == 0.0


def test_center_at_zero_already_centered():
    g = Generator.triangular(-1.0, 0.0, 2.0)
    assert g.center_at_zero() is g


def test_center_at_zero_piecewise():
    g = Generator.piecewise_linear([(0, 0), (1, 0.5), (2, 1), (3, 0)])
    assert g.center_at_zero().knots == ((-2.0, 0.0), (-1.0, 0.5), (0.0, 1.0),
                                        (1.0, 0.0))


def test_center_at_zero_idempotent_and_width_preserving():
    rng = random.Random(11)
    for _ in range(50):
        g = random_generator(rng)
        shifted = g.center_at_zero()
        assert shifted.center_at_zero() == shifted
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            lo, hi = g.alpha_level(alpha)
            slo, shi = shifted.alpha_level(alpha)
            assert shi - slo == pytest.approx(hi - lo, abs=1e-12)


@settings(max_examples=100)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_alpha_levels_nested(alpha, beta, seed):
    g = random_generator(random.Random(seed))
    lo_a, hi_a = g.alpha_level(alpha)
    lo_b, hi_b = g.alpha_level(beta)
    if alpha <= beta:  # higher level sits inside lower level
        assert lo_a <= lo_b + 1e-12 and hi_b <= hi_a + 1e-12
    else:
        assert lo_b <= lo_a + 1e-12 and hi_a <= hi_b + 1e-12


def test_reflected_branch_tolerance_boundary():
    # deviation below the mirror tolerance is rejected as symmetric
    with pytest.raises(Symmetric):
        Generator.triangular(-1.0, 0.0, 1.0 + 1e-13)
    Generator.triangular(-1.0, 0.0, 1.0 + 1e-11)  # above tolerance: accepted


def test_json_config_round_trip(tmp_path):
    cfg = {"kind": "triangular", "left": -1.0, "peak": 0.0, "right": 2.0}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    g = load_generator(path)
    assert g == Generator.from_config(cfg)
    assert g.to_config() == cfg

    pl = {"kind": "piecewise-linear",
          "knots": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.0, 0.0]]}
    path.write_text(json.dumps(pl))
    assert load_generator(path).to_config() == pl


def test_triangular_equals_its_piecewise_linear_twin():
    tri = Generator.triangular(-1, 0, 2)
    twin = Generator.piecewise_linear([(-1, 0), (0, 1), (2, 0)])
    assert tri == twin and hash(tri) == hash(twin)
    assert twin.to_config() == tri.to_config()
    total = LCFN(1.0, 2.0, tri) + LCFN(0.5, -1.0, twin)  # no GeneratorMismatch
    assert (total.r, total.q) == (1.5, 1.0)


@pytest.mark.parametrize("knots, text, hashed", [
    (((-1.0, 0.0), (0.3, 1.0), (2.0, 0.0)),
     "Generator(knots=((-1.0, 0.0), (0.3, 1.0), (2.0, 0.0)), a_m=0.3)",
     8588218499092563207),
    (((-2.0, 0.0), (-1.0, 0.4), (0.5, 1.0), (1.0, 0.7), (3.0, 0.0)),
     "Generator(knots=((-2.0, 0.0), (-1.0, 0.4), (0.5, 1.0), (1.0, 0.7), "
     "(3.0, 0.0)), a_m=0.5)",
     -3660920448275339658),
], ids=["triangular", "piecewise-linear"])
def test_repr_hash_and_copies_are_the_knots_and_peak(knots, text, hashed):
    # the cached branches stay out of repr, ==, hash and the config
    g = Generator.piecewise_linear(knots)
    assert repr(g) == text and hash(g) == hashed
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert twin.to_config() == g.to_config()
        assert twin.alpha_level(0.5) == g.alpha_level(0.5)


@st.composite
def generator_and_alpha(draw):
    """A valid piecewise-linear generator of 3-7 knots, and an alpha in
    [0, 1] that is one of its memberships half of the time."""
    n = draw(st.integers(3, 7))
    xs = sorted(draw(st.lists(st.floats(-100.0, 100.0), min_size=n,
                              max_size=n, unique=True)))
    peak = draw(st.integers(1, n - 2))
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    rise = draw(st.lists(inner, min_size=peak - 1, max_size=peak - 1,
                         unique=True))
    fall = draw(st.lists(inner, min_size=n - peak - 2, max_size=n - peak - 2,
                         unique=True))
    mus = [0.0, *sorted(rise), 1.0, *sorted(fall, reverse=True), 0.0]
    try:
        g = Generator.piecewise_linear(zip(xs, mus))
    except Symmetric:
        reject()
    alpha = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(mus)))
    return g, alpha


@settings(max_examples=300)
@given(generator_and_alpha())
def test_alpha_level_matches_sliced_branches(case):
    g, alpha = case
    got = g.alpha_level(alpha)
    want = oracles.alpha_level(g, alpha)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("knots", [
    ((-1.0, 0.0), (0.0, 1.0), (2.0, 0.0)),
    ((0.1, 0.0), (0.7, 1.0), (0.9, 0.0)),
    ((-2.0, 0.0), (-1.0, 0.4), (0.5, 1.0), (1.0, 0.7), (3.0, 0.0)),
    # interpolated to mu = 1 on its last segment, each branch gives
    # 0.30000000000000004, not the peak's 0.3: the segment choice shows
    ((-3.1, 0.0), (-2.3, 0.13), (-0.7, 0.61), (0.3, 1.0), (1.9, 0.0)),
    ((0.0, 0.0), (1.0, 1.0), (1.5, 0.8), (2.0, 0.3), (7.0, 0.0)),
], ids=["triangular", "triangular-offset", "five-knot", "five-knot-rounding",
        "five-knot-right"])
def test_bisected_branches_match_the_segment_walk(knots):
    g = Generator.piecewise_linear(knots)
    mus = sorted({mu for _, mu in knots})
    alphas = [0.0, 1.0, *mus, 5e-324, 0.05, 0.2, 0.5, 0.6, 0.75, 0.999,
              *(math.nextafter(mu, 2.0) for mu in mus[:-1]),
              *(math.nextafter(mu, -1.0) for mu in mus[1:])]
    for alpha in alphas:
        got, want = g.alpha_level(alpha), oracles.alpha_level(g, alpha)
        assert [x.hex() for x in got] == [x.hex() for x in want], alpha
    peak = [mu for _, mu in knots].index(1.0)
    for branch in (knots[: peak + 1], tuple(reversed(knots[peak:]))):
        for mu in (-0.5, *alphas, 1.5):  # past both ends too
            assert (_branch_x_at(branch, mu).hex()
                    == oracles.branch_x_at(branch, mu).hex()), (branch, mu)


def test_unknown_kind_rejected():
    with pytest.raises(GeneratorError):
        Generator.from_config({"kind": "gaussian", "left": 0})
