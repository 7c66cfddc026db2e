"""Exact slope calculus on a torus.

Once a basis of H_1(T; Z) = Z^2 is fixed, a *slope* on the torus T is an
unordered pair {x, -x} of primitive classes, i.e. the homology trace of
an essential simple closed curve.  Classes on a given torus are always
written in a fixed reference basis (E1, E2) for that torus; the
canonical representative (a, b) of a slope has b > 0, or b = 0 and
a = 1.

A *framing* is an ordered basis (mu, lambda) of H_1(T; Z) whose first
member is the meridian class of a knot.  Framings are never
canonicalized: the actual signs of mu and lambda matter.  The ``sign``
field of a Framing records the intersection number lambda . mu in the
orientation the torus carries; it cannot be derived from the coordinates
alone because the reference basis does not by itself orient the torus.
Slope-level computations in this module never consult ``sign``; it is
carried for the homology models, which do.

The numerical slope of <a*mu + b*lambda> relative to a framing is the
exact rational -a/b (a rational.Rational; a value given to this module
may be an int, a Fraction or a Rational), with the meridian itself taking
the distinguished value INF.  INF is an atom, never the fraction 1/0, and
supports no arithmetic; so is NEG_INF, the diameter of an empty slope set.  Changing
the framing acts on numerical values by an affine map s -> epsilon*s + h
with epsilon = +-1 and h an integer; framing_change() computes that map.
The record base class and InvariantError are the leaf module record's.
"""

from math import gcd

from .rational import Rational
from .record import InvariantError, Record, _store


class _Atom:
    """A named constant of its own: no arithmetic, and unique.

    Compared with ``is``; copying or unpickling an atom gives the atom
    itself, because it reduces to its module-level name.
    """

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name


# The numerical slope of the meridian.
INF = _Atom("INF")
# The diameter of an empty slope set.
NEG_INF = _Atom("NEG_INF")


def value_text(v):
    """A numerical slope or a diameter as reports write it: inf, -inf or the rational."""
    if v is INF:
        return "inf"
    if v is NEG_INF:
        return "-inf"
    return str(v)


def _sorted_values(values):
    """Deterministic ordering: finite values ascending, INF last."""
    finite = sorted(v for v in values if v is not INF)
    return tuple(finite) + ((INF,) if any(v is INF for v in values) else ())


class PrimitiveClass(Record):
    """A primitive element of H_1(T; Z), written in the reference basis."""

    def __init__(self, a, b):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError("coordinates must be integers")
        if gcd(a, b) != 1:
            raise ValueError("not a primitive class: gcd(%d, %d) != 1" % (a, b))
        _store(self, locals())

    def __neg__(self):
        return PrimitiveClass(-self.a, -self.b)


class Slope(Record):
    """An unoriented isotopy class of essential curves: {rep, -rep}.

    The stored representative is canonical (b > 0, or b = 0 and a = 1),
    so two slopes are equal exactly when their representatives are.
    Construct via canonical_slope() unless the input pair is already
    canonical.
    """

    def __init__(self, rep):
        if not (rep.b > 0 or (rep.b == 0 and rep.a == 1)):
            raise ValueError("representative (%d, %d) is not canonical" % (rep.a, rep.b))
        _store(self, locals())

    @property
    def a(self):
        return self.rep.a

    @property
    def b(self):
        return self.rep.b

    def __repr__(self):
        return "Slope(%d, %d)" % (self.rep.a, self.rep.b)


def canonical_slope(a, b):
    """The slope <a*E1 + b*E2>, reduced and sign-normalized.

    The input pair need not be primitive; it is divided by its gcd.  The
    zero pair is rejected: it is not the class of a curve.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("coordinates must be integers")
    g = gcd(a, b)
    if g == 0:
        raise ValueError("not a homology class of a curve")
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return Slope(PrimitiveClass(a, b))


class Framing(Record):
    """An ordered basis (mu, lambda_) of H_1(T; Z), mu the meridian class.

    ``sign`` is the intersection number lambda . mu on the oriented
    torus, either +1 or -1.
    """

    def __init__(self, mu, lambda_, sign):
        d = mu.a * lambda_.b - mu.b * lambda_.a
        if d not in (1, -1):
            raise ValueError("not a basis: det(mu, lambda) = %d" % d)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1, got %r" % (sign,))
        _store(self, locals())

    @property
    def det(self):
        """det of the (mu, lambda) column matrix in reference coordinates."""
        return self.mu.a * self.lambda_.b - self.mu.b * self.lambda_.a

    def meridian_slope(self):
        return canonical_slope(self.mu.a, self.mu.b)


def _in_basis(f, x):
    """Coordinates (a, b) of the class x with x = a*mu + b*lambda_.

    Exact integer Cramer solve; the framing matrix has det +-1.
    """
    d = f.det
    a = (x.a * f.lambda_.b - f.lambda_.a * x.b) * d
    b = (f.mu.a * x.b - x.a * f.mu.b) * d
    return a, b


def numerical_slope(f, s):
    """The value -a/b of the slope s = <a*mu + b*lambda> in the framing f.

    Returns INF exactly when s is the meridian slope.  The value does
    not depend on the choice of representative of s.
    """
    a, b = _in_basis(f, s.rep)
    if b == 0:
        return INF
    return Rational(-a, b)


def slope_from_numerical(f, r):
    """The slope with numerical value r in the framing f.

    Inverse of numerical_slope for every framing: r = -a/b in lowest
    terms maps to <a*mu + b*lambda>, and INF maps to the meridian slope.
    """
    if r is INF:
        return canonical_slope(f.mu.a, f.mu.b)
    r = Rational(r)
    a, b = -r.numerator, r.denominator
    return canonical_slope(
        a * f.mu.a + b * f.lambda_.a,
        a * f.mu.b + b * f.lambda_.b,
    )


def geometric_intersection(s, t):
    """Minimal geometric intersection number of two slopes: |a1*b2 - a2*b1|."""
    return abs(s.a * t.b - t.a * s.b)


class FramingChange(Record):
    """The affine map s -> epsilon*s + h on numerical slopes.

    Composition of framing changes composes these maps, and they form a
    group: FramingChange(eps, h) has inverse FramingChange(eps, -eps*h).
    """

    def __init__(self, epsilon, h):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not isinstance(h, int):
            raise TypeError("h must be an integer")
        _store(self, locals())

    def apply(self, r):
        """Apply to a numerical slope; INF is a fixed point."""
        if r is INF:
            return INF
        return self.epsilon * Rational(r) + self.h

    def compose(self, inner):
        """self after inner, as affine maps."""
        return FramingChange(
            self.epsilon * inner.epsilon,
            self.epsilon * inner.h + self.h,
        )

    def inverse(self):
        return FramingChange(self.epsilon, -self.epsilon * self.h)


def framing_change(f1, f2):
    """The affine map taking f1-values to f2-values of every slope.

    Both framings must frame the same knot on the same torus, i.e. have
    equal meridian slopes.  Writing mu2 = e*mu1 and
    lambda2 = c*mu1 + w*lambda1 (with e, w = +-1), the change of basis
    sends the f1-value s of a slope to e*w*s + e*c, and that pair
    (epsilon, h) = (e*w, e*c) is returned.
    """
    if f1.meridian_slope() != f2.meridian_slope():
        raise ValueError("meridian slopes differ")
    e, z = _in_basis(f1, f2.mu)
    if z != 0:
        raise InvariantError("framing change: mu2 is not a multiple of mu1")
    c, w = _in_basis(f1, f2.lambda_)
    if w not in (1, -1):
        raise InvariantError(
            "framing change: lambda2 has coefficient %d on lambda1, not +-1" % w
        )
    return FramingChange(e * w, e * c)
