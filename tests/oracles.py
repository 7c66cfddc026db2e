"""Reference implementations the tests compare the package against."""

from fractions import Fraction
from math import gcd

from slopecert import IntMatrix, PrimitiveClass, Slope, group_from_presentation
from slopecert.cablespace import _cross


def grid_slopes(bound):
    """All canonical primitive pairs (a, b) with |a|, |b| <= bound, in the
    order (1, 0), then b = 1, 2, ... with a increasing; made one at a time."""
    yield (1, 0)
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1:
                yield (a, b)


def phi_by_search(model, s, bound=20):
    """Brute-force oracle for phi: enumerate and test parallelism directly.

    Scans every canonical primitive pair (a2, b2) with coefficients up
    to the bound and keeps those whose inner image a2*iota2(E1') +
    b2*iota2(E2') is parallel to the outer image of s.  Returns the
    unique match as a Slope, or None when the true image lies outside
    the search box; two distinct matches would contradict bijectivity
    and raise.
    """
    w = model.rational_outer(s.a, s.b)
    v1 = model.rational_inner(1, 0)
    v2 = model.rational_inner(0, 1)
    c1 = _cross(v1, w)
    c2 = _cross(v2, w)
    found = None
    for a2, b2 in grid_slopes(bound):
        if a2 * c1 + b2 * c2 == 0:
            if found is not None:
                raise ValueError("inconsistent cable space model")
            found = (a2, b2)
    if found is None:
        return None
    return Slope(PrimitiveClass(*found))


def presented_h1(p, q):
    """H1 of the (p, q) cable space, Z<c, m, l> / (q*c - p*m - q*l), as the
    cokernel of its relation by Smith normal form."""
    return group_from_presentation(IntMatrix.from_rows([[q, -p, -q]]))


def iota_outer(a, b):
    """Generator coordinates (c, m, l) of the image of a*E1 + b*E2 from T1:
    E1 |-> m and E2 |-> l."""
    return (0, a, b)


def iota_inner(p, q, orientation, a, b):
    """Generator coordinates of the image of a*E1' + b*E2' from T2, times
    orientation: E2' |-> p*m + q*l, and E1' |-> the class x with q*x = m,
    which is (k, (1 - k*p)/q, -k) for k the inverse of p mod q."""
    k = pow(p, -1, q)
    return (
        orientation * a * k,
        orientation * (a * (1 - k * p) // q + b * p),
        orientation * (-a * k + b * q),
    )


def presented_basis_images(p, q, orientation):
    """The free coordinates, in presented_h1(p, q), of the images of E1,
    E2, E1' and E2'."""
    h1 = presented_h1(p, q)
    images = iota_outer(1, 0), iota_outer(0, 1)
    images += iota_inner(p, q, orientation, 1, 0), iota_inner(p, q, orientation, 0, 1)
    return [h1.rational_coords(x) for x in images]


def presented_change_of_basis(model):
    """The matrix M in GL2(Z) that takes each of the model's four basis
    images to the oracle's (presented_basis_images), or None when there is
    none.  With such an M, every identity read in one coordinate system
    holds in the other, over Z.  M is read off the first two images, a
    basis of Q^2, and then held against all four."""
    images = model.basis_images
    presented = presented_basis_images(model.p, model.q, model.orientation)
    (a, c), (b, d) = images[0], images[1]  # the columns of C; M = P C^-1
    det = a * d - b * c
    inverse = ((d, -b), (-c, a))
    m = [
        [Fraction(presented[0][i] * inverse[0][j] + presented[1][i] * inverse[1][j], det)
         for j in range(2)]
        for i in range(2)
    ]
    if any(x.denominator != 1 for row in m for x in row):
        return None
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] not in (1, -1):
        return None
    moved = [tuple(r[0] * v[0] + r[1] * v[1] for r in m) for v in images]
    return m if moved == presented else None
