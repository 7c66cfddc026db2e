"""Reference implementations the tests compare the package against."""

from math import gcd

from slopecert import PrimitiveClass, Slope
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
