"""Exact rationals on reduced integer pairs: a leaf, importing only math and sys.

``Rational(n, d=1)`` is n/d in lowest terms with a positive denominator.
Every operand is read through its ``numerator`` and ``denominator``, so
ints, ``fractions.Fraction``s and Rationals mix freely, and a float or a
str is refused.  A Rational is equal to, ordered like and hashed like the
int or Fraction of the same value (the hash is CPython's
``Fraction.__hash__``), and ``str`` writes it as Fraction does: "7/2",
"14".  It supports ``+ - * /`` and negation, with an int, a Fraction or a
Rational on either side, each giving a Rational, and ``abs`` and
``float`` as Fraction computes them.  slopecert computes with
it in place of Fraction, so that reading and writing documents loads
neither fractions nor the decimal, numbers and re modules that fractions
imports.
"""

import sys
from math import gcd

_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _compare(op):
    """The rich comparison of two rationals that applies `op` to their
    cross products."""

    def compare(a, b):
        try:
            return op(a.numerator * b.denominator, b.numerator * a.denominator)
        except AttributeError:
            return NotImplemented

    return compare


def _arithmetic(op):
    """The method and its reflected form for `op`, which maps (n1, d1, n2,
    d2) to the numerator and denominator of n1/d1 op n2/d2."""

    def forward(a, b):
        try:
            return _make(*op(a.numerator, a.denominator, b.numerator, b.denominator))
        except AttributeError:
            return NotImplemented

    return forward, lambda a, b: forward(b, a)


class Rational:
    """An immutable rational number, ``numerator``/``denominator`` in lowest
    terms with ``denominator`` > 0."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, n, d=1):
        if d == 1 and type(n) is Rational:
            return n
        try:
            return _make(n.numerator * d.denominator, n.denominator * d.numerator)
        except AttributeError:
            raise TypeError("a Rational is made of ints and rationals, not %s and %s"
                            % (type(n).__name__, type(d).__name__)) from None

    def __setattr__(self, name, value=None):
        raise AttributeError("a Rational is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Rational, (self.numerator, self.denominator)

    def __repr__(self):
        return "Rational(%s, %s)" % (self.numerator, self.denominator)

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return "%s/%s" % (self.numerator, self.denominator)

    def __bool__(self):
        return self.numerator != 0

    def __float__(self):
        return self.numerator / self.denominator

    def __abs__(self):
        return self if self.numerator >= 0 else -self

    def __hash__(self):
        n = self.numerator
        try:
            inverse = pow(self.denominator, -1, _MODULUS)
        except ValueError:  # the denominator is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(n)) * inverse)
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(self, other):
        try:
            return self.numerator == other.numerator and self.denominator == other.denominator
        except AttributeError:
            return NotImplemented

    __lt__, __le__, __gt__, __ge__ = map(_compare, (int.__lt__, int.__le__, int.__gt__, int.__ge__))

    __add__, __radd__ = _arithmetic(lambda n1, d1, n2, d2: (n1 * d2 + n2 * d1, d1 * d2))
    __sub__, __rsub__ = _arithmetic(lambda n1, d1, n2, d2: (n1 * d2 - n2 * d1, d1 * d2))
    __mul__, __rmul__ = _arithmetic(lambda n1, d1, n2, d2: (n1 * n2, d1 * d2))
    __truediv__, __rtruediv__ = _arithmetic(lambda n1, d1, n2, d2: (n1 * d2, d1 * n2))

    def __neg__(self):
        return _make(-self.numerator, self.denominator)


_new = object.__new__
_set_numerator = Rational.numerator.__set__
_set_denominator = Rational.denominator.__set__


def _make(n, d):
    """The Rational n/d of two ints."""
    if not d:
        raise ZeroDivisionError("Rational(%s, 0)" % n)
    g = gcd(n, d)
    if d < 0:
        g = -g
    r = _new(Rational)
    _set_numerator(r, n // g)
    _set_denominator(r, d // g)
    return r
