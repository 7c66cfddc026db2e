"""The slope correspondence across a cable space, and its affine law.

A slope on the outer torus T1 and a slope on the inner torus T2 of a
cable space correspond exactly when their images in H1(N; Q) are
parallel (rational multiples of one another).  Since both boundary
inclusions are isomorphisms over Q, that rule is a bijection phi from
slopes on T1 to slopes on T2, computed here by an exact 2x2 linear
solve in the model's free coordinates.

The cabling law: on numerical slopes the bijection is affine,

    nu'(phi(s)) = epsilon * q^2 * nu(s) + u,     INF |-> INF,

and under the standard surface framings epsilon = +1 and u = p*q, for
either orientation.  In other framings it is that map conjugated by
the two framing changes, s -> e*s + h with integer h, so u is an
integer for every model.  transfer_map() states the law in that closed
form, from (p, q) and the framings alone; it builds no model.
grid_check() is the law's one proof: for a given model it proves that
phi obeys a map on every slope, deciding from two 2x2 integer matrices
without visiting a slope, and builds values only for the one slope it
names on a failure.

Numerical values, u and the proportionality factors are
rational.Rationals; apply takes an int, a Fraction or a Rational.

This is all that a knot description or a diameter certificate needs of
a cable space's transfer, so pipeline imports this module and not
transfer, which holds the transfer certificate and its witness records.
"""

from .cablespace import STANDARD_INNER_FRAMING, STANDARD_OUTER_FRAMING, _cross
from .rational import Rational
from .record import Record, _store
from .report import Check
from .slopes import (
    INF,
    PrimitiveClass,
    _in_basis,
    canonical_slope,
    framing_change,
    numerical_slope,
    value_text,
)


class AffineSlopeMap(Record):
    """The map s -> epsilon * q^2 * s + u on numerical slopes, INF fixed."""

    def __init__(self, epsilon, q, u):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not isinstance(q, int) or q < 2:
            raise ValueError("q must be an integer >= 2")
        u = Rational(u)
        _store(self, locals())

    def apply(self, r):
        if r is INF:
            return INF
        return self.epsilon * self.q * self.q * r + self.u

    def unapply(self, r):
        """Exact inverse; unapply(apply(s)) == s for every s."""
        if r is INF:
            return INF
        return self.epsilon * (r - self.u) / (self.q * self.q)

    def compose(self, inner):
        """self after inner; quadratic coefficients multiply."""
        return AffineSlopeMap(
            self.epsilon * inner.epsilon,
            self.q * inner.q,
            self.epsilon * self.q * self.q * inner.u + self.u,
        )


def conjugate(smap, outer_change, inner_change):
    """The same transfer in new framings on both sides.

    If outer_change rewrites T1 values and inner_change rewrites T2
    values, the conjugated map sends new-outer values to new-inner
    values: inner_change o smap o outer_change^{-1}.
    """
    eps = inner_change.epsilon * smap.epsilon * outer_change.epsilon
    u = inner_change.apply(smap.apply(outer_change.inverse().apply(0)))
    return AffineSlopeMap(eps, smap.q, u)


def phi_matrix(model):
    """The integer matrix P with phi(<a*E1 + b*E2>) = <P (a, b)>.

    The inner image of a2*E1' + b2*E2' is parallel to an outer image w
    exactly when a2*c1 + b2*c2 = 0, where c1 and c2 are the cross
    products of the images of E1' and E2' with w; so (c2, -c1) spans the
    solutions, and it is linear in (a, b) because w is.
    """
    o1, o2, v1, v2 = model.basis_images
    return (
        (_cross(v2, o1), _cross(v2, o2)),
        (-_cross(v1, o1), -_cross(v1, o2)),
    )


def phi(model, s):
    """The slope on T2 whose inner image is parallel to s's outer image.

    Exact: the image class is P (a, b) for the integer matrix P of
    phi_matrix, built from the model's closed-form H1(N) coordinates.
    Independent of the representative sign of s.
    """
    (p11, p12), (p21, p22) = phi_matrix(model)
    x = p11 * s.a + p12 * s.b
    y = p21 * s.a + p22 * s.b
    if x == 0 and y == 0:
        raise ValueError("inconsistent cable space model")
    return canonical_slope(x, y)


def phi_with_factor(model, s):
    """phi plus the rational factor r with iota2(image rep) = r * iota1(s rep)."""
    image = phi(model, s)
    w = model.rational_outer(s.a, s.b)
    v = model.rational_inner(image.a, image.b)
    i = 0 if w[0] != 0 else 1
    # v == (x/y) * w, checked by cross products: no Rational but the factor.
    x, y = v[i], w[i]
    if any(a * y != x * b for a, b in zip(v, w)):
        raise ValueError("inconsistent cable space model")
    return image, Rational(x, y)


def _mul2(m, n):
    return tuple(
        tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)) for i in range(2)
    )


def law_matrix(smap, f_outer, f_inner):
    """The integer matrix A with <A (a, b)> = the slope the affine law
    assigns to <a*E1 + b*E2>, in reference classes on both tori.

    With u = n/d, the outer value -x/y (framing coordinates (x, y))
    goes to epsilon*q^2*(-x/y) + n/d = -X/Y for
    (X, Y) = (epsilon*q^2*d*x - n*y, d*y); INF (y = 0) goes to INF.
    A is: outer reference to outer framing coordinates, then
    (x, y) -> (X, Y), then inner framing to reference coordinates.
    """
    n, d = smap.u.numerator, smap.u.denominator
    # columns: the outer framing coordinates of E1 and E2
    x1, y1 = _in_basis(f_outer, PrimitiveClass(1, 0))
    x2, y2 = _in_basis(f_outer, PrimitiveClass(0, 1))
    to_outer = ((x1, x2), (y1, y2))
    law = ((smap.epsilon * smap.q * smap.q * d, -n), (0, d))
    from_inner = ((f_inner.mu.a, f_inner.lambda_.a), (f_inner.mu.b, f_inner.lambda_.b))
    return _mul2(from_inner, _mul2(law, to_outer))


def grid_check(model, smap):
    """Prove that phi matches the affine slope law on every slope, or name
    a slope where it does not; returns one named check.

    Both sides are integer matrices on classes (P = phi_matrix and
    A = law_matrix), so a slope (a, b) passes exactly when its two images
    P (a, b) and A (a, b) are parallel and P (a, b) is not zero.  Their
    cross product is a binary quadratic form in (a, b), so every slope
    passes exactly when its three coefficients are zero and P is
    invertible; no slope is visited.  A singular P fails as such.  A
    nonzero form is named at the first of the slopes (1, 0), (0, 1) and
    (1, 1) where it does not vanish, and values are built only for it.
    """
    (p11, p12), (p21, p22) = phi_matrix(model)
    (a11, a12), (a21, a22) = law_matrix(smap, model.f_outer, model.f_inner)
    if p11 * p22 == p12 * p21:
        return Check("grid-consistency", False, "phi's matrix P is singular: det P = 0")
    # x*Y - y*X = c20 a^2 + c11 ab + c02 b^2, which is c20, c02 and
    # c20 + c11 + c02 on the three slopes below: unless all three are zero,
    # the form is nonzero on one of them.
    c20 = p11 * a21 - p21 * a11
    c02 = p12 * a22 - p22 * a12
    c11 = p11 * a22 + p12 * a21 - p21 * a12 - p22 * a11
    for a, b, value in ((1, 0, c20), (0, 1, c02), (1, 1, c20 + c11 + c02)):
        if value:
            s = canonical_slope(a, b)
            expected = smap.apply(numerical_slope(model.f_outer, s))
            got = numerical_slope(model.f_inner, phi(model, s))
            return Check(
                "grid-consistency",
                False,
                "slope (%d, %d): affine law gives %s, phi gives %s"
                % (a, b, value_text(expected), value_text(got)),
            )
    return Check("grid-consistency", True, "phi matches the affine law on every slope")


def transfer_map(p, q, f_outer, f_inner):
    """The cabling law of the (p, q) cable space in the given framings:
    the standard map nu' = q^2 nu + p*q, conjugated by the changes from
    the standard framings to these.  The orientation does not enter.
    """
    return conjugate(
        AffineSlopeMap(1, q, p * q),
        framing_change(STANDARD_OUTER_FRAMING, f_outer),
        framing_change(STANDARD_INNER_FRAMING, f_inner),
    )
