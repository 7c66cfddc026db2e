"""Tests for the slope/framing algebra on a single torus."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from slopecert import (
    INF,
    NEG_INF,
    Framing,
    FramingChange,
    InvariantError,
    PrimitiveClass,
    Slope,
    canonical_slope,
    framing_change,
    geometric_intersection,
    numerical_slope,
    slope_from_numerical,
)

STD = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), -1)


def random_framing(rng, meridian=None):
    """A random framing, optionally with a prescribed meridian class.

    Built as a product of shears and flips applied to the standard
    basis, so the result is always unimodular.  The sign field is the
    intersection number in a fixed orientation: sign = -det.
    """
    mu = meridian if meridian is not None else PrimitiveClass(1, 0)
    a, b = mu.a, mu.b
    # any completion of a primitive (a, b) to a det +1 basis, then shear
    x, y = _bezout(a, b)
    c, d = -y, x
    for _ in range(rng.randrange(4)):
        k = rng.randrange(-3, 4)
        c, d = c + k * a, d + k * b
    if rng.randrange(2):
        c, d = -c, -d
    lam = PrimitiveClass(c, d)
    det = mu.a * lam.b - mu.b * lam.a
    return Framing(mu, lam, -det)


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def random_slope(rng, bound=50):
    while True:
        a = rng.randrange(-bound, bound + 1)
        b = rng.randrange(-bound, bound + 1)
        if (a, b) != (0, 0):
            return canonical_slope(a, b)


# --- canonical representatives ------------------------------------------


def test_canonical_slope_normalizes_sign():
    assert canonical_slope(-3, -2) == canonical_slope(3, 2)
    assert canonical_slope(3, -2) == canonical_slope(-3, 2)
    assert canonical_slope(-1, 0).rep == PrimitiveClass(1, 0)
    assert canonical_slope(0, -1).rep == PrimitiveClass(0, 1)


def test_canonical_slope_reduces():
    s = canonical_slope(6, -4)
    assert (s.a, s.b) == (-3, 2)
    assert canonical_slope(0, -5) == canonical_slope(0, 1)
    assert canonical_slope(-7, 0) == canonical_slope(1, 0)


def test_canonical_slope_rejects_zero():
    with pytest.raises(ValueError, match="not a homology class of a curve"):
        canonical_slope(0, 0)


def test_primitive_class_rejects_imprimitive():
    with pytest.raises(ValueError, match="gcd"):
        PrimitiveClass(2, 4)
    with pytest.raises(ValueError, match="gcd"):
        PrimitiveClass(0, 0)
    with pytest.raises(TypeError):
        PrimitiveClass(Fraction(1, 2), 1)


def test_slope_rejects_noncanonical_rep():
    with pytest.raises(ValueError, match="not canonical"):
        Slope(PrimitiveClass(3, -2))
    with pytest.raises(ValueError, match="not canonical"):
        Slope(PrimitiveClass(-1, 0))


def test_slope_equality_ignores_orientation():
    rng = random.Random(11)
    for _ in range(200):
        s = random_slope(rng)
        assert canonical_slope(-s.a, -s.b) == s


# --- numerical slope ------------------------------------------------------


def test_numerical_slope_standard_values():
    assert numerical_slope(STD, canonical_slope(3, 4)) == Fraction(-3, 4)
    assert numerical_slope(STD, canonical_slope(-5, 1)) == Fraction(5)
    assert numerical_slope(STD, canonical_slope(0, 1)) == 0
    assert numerical_slope(STD, canonical_slope(1, 0)) is INF


def test_infinity_atoms_are_distinct_and_copy_to_themselves():
    assert INF is not NEG_INF and INF != NEG_INF
    assert (repr(INF), repr(NEG_INF)) == ("INF", "NEG_INF")
    for atom in (INF, NEG_INF):
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
    assert copy.deepcopy({"d": [NEG_INF, INF]})["d"][1] is INF


def test_meridian_is_the_only_infinite_slope():
    rng = random.Random(5)
    for _ in range(100):
        f = random_framing(rng, meridian=PrimitiveClass(*_random_primitive(rng)))
        for _ in range(20):
            s = random_slope(rng)
            v = numerical_slope(f, s)
            assert (v is INF) == (s == f.meridian_slope())


def _random_primitive(rng, bound=20):
    from math import gcd

    while True:
        a = rng.randrange(-bound, bound + 1)
        b = rng.randrange(-bound, bound + 1)
        if gcd(a, b) == 1:
            return a, b


def test_numerical_slope_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        f = random_framing(rng, meridian=PrimitiveClass(*_random_primitive(rng)))
        s = random_slope(rng)
        assert slope_from_numerical(f, numerical_slope(f, s)) == s
        r = Fraction(rng.randrange(-99, 100), rng.randrange(1, 40))
        assert numerical_slope(f, slope_from_numerical(f, r)) == r
    assert slope_from_numerical(STD, INF) == STD.meridian_slope()


def test_numerical_slope_is_injective_on_a_fixed_framing():
    rng = random.Random(13)
    f = random_framing(rng)
    seen = {}
    for a in range(-12, 13):
        for b in range(-12, 13):
            if (a, b) == (0, 0):
                continue
            s = canonical_slope(a, b)
            v = numerical_slope(f, s)
            key = "inf" if v is INF else v
            assert seen.setdefault(key, s) == s


# --- geometric intersection ----------------------------------------------


def test_geometric_intersection_examples():
    mu = canonical_slope(1, 0)
    lam = canonical_slope(0, 1)
    assert geometric_intersection(mu, lam) == 1
    assert geometric_intersection(mu, mu) == 0
    assert geometric_intersection(canonical_slope(2, 3), canonical_slope(1, 1)) == 1
    assert geometric_intersection(canonical_slope(5, 2), canonical_slope(3, 1)) == 1


def test_geometric_intersection_symmetric_and_detects_equality():
    rng = random.Random(17)
    for _ in range(200):
        s, t = random_slope(rng), random_slope(rng)
        n = geometric_intersection(s, t)
        assert n == geometric_intersection(t, s)
        assert (n == 0) == (s == t)


# --- framings and framing changes ----------------------------------------


def test_framing_rejects_non_basis():
    with pytest.raises(ValueError, match="not a basis"):
        Framing(PrimitiveClass(1, 0), PrimitiveClass(1, 2), 1)
    with pytest.raises(ValueError, match="sign"):
        Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), 2)


def test_framing_change_identity_and_shear():
    assert framing_change(STD, STD) == FramingChange(1, 0)
    sheared = Framing(PrimitiveClass(1, 0), PrimitiveClass(2, 1), -1)
    ch = framing_change(STD, sheared)
    # lambda_2 = 2*mu + lambda, so values shift: s -> s + 2
    assert ch == FramingChange(1, 2)
    assert ch.apply(Fraction(-3, 4)) == Fraction(5, 4)
    assert ch.apply(INF) is INF


def test_framing_change_requires_equal_meridians():
    other = Framing(PrimitiveClass(0, 1), PrimitiveClass(1, 0), 1)
    with pytest.raises(ValueError, match="meridian slopes differ"):
        framing_change(STD, other)


def test_framing_change_rejects_a_corrupted_basis():
    # a Framing is validated when built; one corrupted afterwards is
    # caught by an explicit check, which python -O keeps
    broken = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), -1)
    object.__setattr__(broken, "lambda_", PrimitiveClass(1, 3))
    with pytest.raises(InvariantError, match="coefficient 3"):
        framing_change(STD, broken)


def test_framing_change_covariance():
    # the defining property: nu_2(s) = epsilon*nu_1(s) + h for every slope
    rng = random.Random(23)
    for _ in range(200):
        mu = PrimitiveClass(*_random_primitive(rng))
        f1 = random_framing(rng, meridian=mu)
        f2 = random_framing(rng, meridian=-mu if rng.randrange(2) else mu)
        ch = framing_change(f1, f2)
        for _ in range(10):
            s = random_slope(rng)
            v1, v2 = numerical_slope(f1, s), numerical_slope(f2, s)
            if v1 is INF:
                assert v2 is INF
            else:
                assert v2 == ch.epsilon * v1 + ch.h


def test_framing_change_group_laws():
    rng = random.Random(29)
    for _ in range(100):
        mu = PrimitiveClass(*_random_primitive(rng))
        f1 = random_framing(rng, meridian=mu)
        f2 = random_framing(rng, meridian=mu)
        f3 = random_framing(rng, meridian=mu)
        ch12 = framing_change(f1, f2)
        ch23 = framing_change(f2, f3)
        assert framing_change(f1, f3) == ch23.compose(ch12)
        assert framing_change(f2, f1) == ch12.inverse()
        assert ch12.compose(ch12.inverse()) == FramingChange(1, 0)


def test_framing_change_epsilon_h_types():
    with pytest.raises(ValueError):
        FramingChange(2, 0)
    with pytest.raises(TypeError):
        FramingChange(1, Fraction(1, 2))
