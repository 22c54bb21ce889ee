"""Shared fixtures and samplers.

Two sampling regimes on purpose:

* continuous floats for order/limit behavior and dual-route agreement;
* a dyadic lattice (coordinates are integer multiples of 2**-12 in
  [-8, 8], peak offsets multiples of 1/16) on which every product and sum
  in the coordinate formulas is exactly representable, so properties that
  are exact in real arithmetic (sign rules, norm axioms, zero-class
  propagation) can be asserted with zero tolerance.
"""
from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import sys

import pytest

from lcfn import Generator, LCFN

LATTICE_STEP = 2.0 ** -12
LATTICE_MAX = 8.0


@pytest.fixture
def within_frames():
    """``within_frames(n, fn, *args)`` calls ``fn(*args)`` with only ``n``
    Python frames left above the caller, whatever depth pytest runs the
    test at, so a recursion that outgrows ``n`` raises RecursionError
    every time rather than only under a deeper caller."""
    def run(frames, fn, *args):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + frames)
        try:
            return fn(*args)
        finally:
            sys.setrecursionlimit(limit)
    return run


@pytest.fixture
def tri_am0():
    return Generator.triangular(-1.0, 0.0, 2.0)


@pytest.fixture
def tri_am05():
    return Generator.triangular(0.0, 0.5, 2.0)


@pytest.fixture
def tri_am1():
    return Generator.triangular(0.0, 1.0, 3.0)


def random_generator(rng: random.Random) -> Generator:
    """Random asymmetric triangular generator (continuous knots)."""
    peak = rng.uniform(-2.0, 2.0)
    left = rng.uniform(0.2, 3.0)
    right = rng.uniform(0.2, 3.0)
    while abs(left - right) < 0.05:
        right = rng.uniform(0.2, 3.0)
    return Generator.triangular(peak - left, peak, peak + right)


def lattice_value(rng: random.Random, nonzero: bool = False) -> float:
    v = rng.randrange(-int(LATTICE_MAX / LATTICE_STEP),
                      int(LATTICE_MAX / LATTICE_STEP) + 1) * LATTICE_STEP
    while nonzero and v == 0.0:
        v = rng.randrange(-int(LATTICE_MAX / LATTICE_STEP),
                          int(LATTICE_MAX / LATTICE_STEP) + 1) * LATTICE_STEP
    return v


def lattice_generator(rng: random.Random) -> Generator:
    """Asymmetric triangular generator whose peak is a multiple of 1/16."""
    peak = rng.randrange(-32, 33) / 16.0
    left = rng.randrange(1, 33) / 16.0
    right = rng.randrange(1, 33) / 16.0
    while left == right:
        right = rng.randrange(1, 33) / 16.0
    return Generator.triangular(peak - left, peak, peak + right)


def lattice_element(rng: random.Random, gen: Generator) -> LCFN:
    return LCFN(lattice_value(rng), lattice_value(rng), gen)


def lattice_element_in_class(rng: random.Random, gen: Generator,
                             sign: int) -> LCFN:
    """Element with center of the requested sign; sign 0 builds
    r = -q*a_m, which is exact on the lattice."""
    if sign == 0:
        q = lattice_value(rng, nonzero=True)
        return LCFN(-q * gen.a_m, q, gen)
    while True:
        b = lattice_element(rng, gen)
        c = b.center()
        if sign > 0 and c > 1e-3:
            return b
        if sign < 0 and c < -1e-3:
            return b


def continuous_element(rng: random.Random, gen: Generator,
                       scale: float = 10.0) -> LCFN:
    return LCFN(rng.uniform(-scale, scale), rng.uniform(-scale, scale), gen)


def assert_frozen_value(value, text: str, key: tuple | None, other) -> None:
    """The value-class contract: ``value`` prints as ``text`` and hashes as
    ``key``, the tuple of its compared fields (``None``: a field is a dict,
    so ``hash`` raises); ``other`` differs in a compared field and is
    unequal; copies, deep copies and pickle round trips are equal twins;
    setting or deleting its first field raises ``FrozenInstanceError``."""
    assert repr(value) == text
    if key is None:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(key)
    assert value == value and value != other and not value == other
    assert value != key
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin is not value and type(twin) is type(value)
        assert twin == value and repr(twin) == text
        if key is not None:
            assert hash(twin) == hash(value)
    first = text.partition("(")[2].partition("=")[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, first)
    assert repr(value) == text
