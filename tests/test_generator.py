"""Generator validation, alpha-levels, and centering."""
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lcfn import LCFN, Generator, load_generator, validate
from lcfn.errors import (
    AlphaOutOfRange,
    GeneratorError,
    NotNormal,
    PlateauAtOne,
    Symmetric,
    UnsortedKnots,
)

from conftest import random_generator


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


def test_unknown_kind_rejected():
    with pytest.raises(GeneratorError):
        Generator.from_config({"kind": "gaussian", "left": 0})
