"""slopecert.rational.Rational against fractions.Fraction, and what the
library does with inputs that are not rationals."""

import copy
import operator
import pickle
import sys
from fractions import Fraction

import pytest

from slopecert import (
    AffineSlopeMap,
    AtomKnot,
    FramingChange,
    diameter,
    slope_from_numerical,
)
from slopecert.cablespace import STANDARD_OUTER_FRAMING
from slopecert.rational import Rational

COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
OPERATIONS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_rational_agrees_with_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Zero, small values, values past 2**64, and a denominator that has no
    # inverse modulo the hash modulus (the hash is then sys.hash_info.inf).
    ints = (
        st.integers(-50, 50)
        | st.integers(-(2 ** 130), 2 ** 130)
        | st.sampled_from([2 ** 64, -(2 ** 64) - 1, sys.hash_info.modulus, -2 * sys.hash_info.modulus])
    )
    nonzero = ints.filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(ints, nonzero, ints, nonzero)
    def check(a, b, c, d):
        x, fx = Rational(a, b), Fraction(a, b)
        y, fy = Rational(c, d), Fraction(c, d)
        assert (x.numerator, x.denominator) == (fx.numerator, fx.denominator)
        assert str(x) == str(fx) and hash(x) == hash(fx)
        assert x == fx and fx == x and type(-x) is Rational and -x == -fx
        assert type(abs(x)) is Rational and abs(x) == abs(fx) and float(x) == float(fx)
        # A Rational, a Fraction and an int as the other operand, on either side.
        for other, f_other in ((y, fy), (fy, fy), (c, c)):
            for op in COMPARISONS:
                assert op(x, other) == op(fx, f_other), op
                assert op(other, x) == op(f_other, fx), op
            for op in OPERATIONS:
                for left, right, f_left, f_right in ((x, other, fx, f_other),
                                                     (other, x, f_other, fx)):
                    if op is operator.truediv and f_right == 0:
                        with pytest.raises(ZeroDivisionError):
                            op(left, right)
                        continue
                    got, want = op(left, right), op(f_left, f_right)
                    assert type(got) is Rational, op
                    assert got == want and hash(got) == hash(want) and str(got) == str(want), op
        # A set of both types holds each value once.
        assert len({x, fx, y, fy, a}) == len({fx, fy, a})

    check()


def test_rational_is_an_immutable_value():
    half = Rational(2, 4)
    assert (half.numerator, half.denominator, str(half)) == (1, 2, "1/2")
    assert repr(Rational(-6, -4)) == "Rational(3, 2)" and str(Rational(14, 1)) == "14"
    assert Rational(Fraction(1, 2)) == half and Rational(half) is half
    assert Rational(half, 3) == Fraction(1, 6) and Rational(3, Fraction(1, 2)) == 6
    assert not Rational(0) and Rational(0, 5) == 0 and bool(half)
    # float divides the integers, as Fraction does, so a huge ratio does not overflow.
    big = Rational(10 ** 400 + 1, 3 * 10 ** 399)
    assert float(big) == float(Fraction(10 ** 400 + 1, 3 * 10 ** 399)) and abs(-big) == big
    assert copy.deepcopy(half) == half and pickle.loads(pickle.dumps(half)) == half
    for change in (lambda: setattr(half, "numerator", 3), lambda: delattr(half, "denominator")):
        with pytest.raises(AttributeError, match="a Rational is immutable"):
            change()
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    # A float is not a rational: it equals no Rational, and mixes with none.
    assert half != 0.5 and 0.5 != half
    with pytest.raises(TypeError):
        half + 0.5
    with pytest.raises(TypeError):
        half < 0.5


@pytest.mark.parametrize("make", [
    lambda: Rational(0.5),
    lambda: Rational("1/2"),
    lambda: AffineSlopeMap(1, 2, 0.5),
    lambda: AffineSlopeMap(1, 2, 6).apply(0.5),
    lambda: AtomKnot(strict_numerical_slopes={0.5}),
    lambda: FramingChange(1, 2).apply("1/2"),
    lambda: slope_from_numerical(STANDARD_OUTER_FRAMING, 0.5),
    lambda: diameter([0.5, 1]),
], ids=["Rational", "Rational-str", "map", "apply", "atom", "framing-change",
        "slope", "diameter"])
def test_a_float_or_str_library_input_is_a_type_error(make):
    # Values are read through numerator and denominator: ints, Fractions and
    # Rationals are accepted, anything else is refused.
    with pytest.raises(TypeError):
        make()


def test_library_values_accept_ints_and_fractions_alike():
    smap = AffineSlopeMap(1, 3, Fraction(6))
    assert type(smap.u) is Rational and smap == AffineSlopeMap(1, 3, 6)
    assert smap.apply(Fraction(1, 3)) == smap.apply(Rational(1, 3)) == 9
    assert AtomKnot({Fraction(1, 2), 2}) == AtomKnot({Rational(1, 2), Rational(2)})
    assert diameter([Fraction(1, 2), 3]) == Fraction(5, 2)
