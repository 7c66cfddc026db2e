"""The slope correspondence across a cable space, and its affine law.

A slope on the outer torus T1 and a slope on the inner torus T2 of a
cable space correspond exactly when their images in H1(N; Q) are
parallel (rational multiples of one another).  Since both boundary
inclusions are isomorphisms over Q, that rule is a bijection phi from
slopes on T1 to slopes on T2, computed here by an exact 2x2 linear
solve in the model's free coordinates.

On numerical slopes the bijection is affine:

    nu'(phi(s)) = epsilon * q^2 * nu(s) + u,     INF |-> INF,

with epsilon = -eta*theta in {+1, -1} and u = -zeta*q*t read from the
model's constants.  transfer_map() builds that map and replays the
equalities nu'(phi(.)) = map(.) on the framing classes before returning
it, so a map is never produced from a model it disagrees with.  With
the standard surface framings epsilon = +1 and u = p*q (an observation
of the model catalog, not an assumption anywhere in the code).

A TransferCertificate packages the model, the map, and enough witness
data (the planar boundary class, the meridian and longitude relations
with their constants, and sampled slope pairs with their rational
proportionality factors) for verify_certificate() to re-derive every
claim from the raw presentation alone: it runs the model's own checks
(cablespace.check_model), holds the stated constants against them,
checks the map and every slope record (slope_record), and compares phi
with the map on every slope of a bounded grid (grid_check).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cablespace import _cross, check_model, rank_skipped
from .report import Check, CheckReport
from .slopes import (
    DEFAULT_GRID,
    INF,
    PrimitiveClass,
    Record,
    _in_basis,
    _set,
    canonical_slope,
    numerical_slope,
    slope_from_numerical,
    value_text,
)


class AffineSlopeMap(Record):
    """The map s -> epsilon * q^2 * s + u on numerical slopes, INF fixed."""

    _fields = ("epsilon", "q", "u")

    def __init__(self, epsilon, q, u):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not isinstance(q, int) or q < 2:
            raise ValueError("q must be an integer >= 2")
        _set(self, "epsilon", epsilon)
        _set(self, "q", q)
        _set(self, "u", Fraction(u))

    def apply(self, r):
        if r is INF:
            return INF
        return self.epsilon * self.q * self.q * Fraction(r) + self.u

    def unapply(self, r):
        """Exact inverse; unapply(apply(s)) == s for every s."""
        if r is INF:
            return INF
        return self.epsilon * (Fraction(r) - self.u) / (self.q * self.q)

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
    u = inner_change.apply(smap.apply(outer_change.inverse().apply(Fraction(0))))
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
    phi_matrix, built from the model's free H1(N) coordinates.
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
    r = Fraction(v[i], w[i])
    if any(x != r * y for x, y in zip(v, w)):
        raise ValueError("inconsistent cable space model")
    return image, r


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


# Bounded: a grid holds about 1.2 * bound^2 pairs, and a run uses one bound.
@lru_cache(maxsize=2)
def grid_slopes(bound):
    """All canonical primitive pairs (a, b) with |a|, |b| <= bound."""
    pairs = [(1, 0)]
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1:
                pairs.append((a, b))
    return tuple(pairs)


def grid_check(model, smap, bound):
    """Compare phi against the affine slope law on every canonical slope
    with coefficients bounded by `bound`; returns one named check.

    Both sides are integer matrices on classes (phi_matrix and
    law_matrix), so a slope (a, b) passes exactly when its two images
    P (a, b) and A (a, b) are parallel and P (a, b) is not zero: one
    cross product per slope.  Values are built only for the first slope
    that fails, to name it (phi raises there when P (a, b) is zero).
    """
    (p11, p12), (p21, p22) = phi_matrix(model)
    (a11, a12), (a21, a22) = law_matrix(smap, model.f_outer, model.f_inner)
    for a, b in grid_slopes(bound):
        x, y = p11 * a + p12 * b, p21 * a + p22 * b
        if (x or y) and x * (a21 * a + a22 * b) == y * (a11 * a + a12 * b):
            continue
        s = canonical_slope(a, b)
        expected = smap.apply(numerical_slope(model.f_outer, s))
        got = numerical_slope(model.f_inner, phi(model, s))
        return Check(
            "grid-consistency",
            False,
            "slope (%d, %d): affine law gives %s, phi gives %s"
            % (a, b, value_text(expected), value_text(got)),
        )
    return Check(
        "grid-consistency",
        True,
        "phi matches the affine law on all slopes with |a|, |b| <= %d" % bound,
    )


def transfer_map(model, f_outer=None, f_inner=None):
    """The affine law of phi on numerical slopes, for the model's framings.

    epsilon = -eta*theta and u = -zeta*q*t; both are replayed against
    phi itself (via the slopes of values 0 and 1) before the map is
    returned, so the constants and the geometry cannot drift apart.
    """
    if f_outer is None:
        f_outer = model.f_outer
    if f_inner is None:
        f_inner = model.f_inner
    if f_outer != model.f_outer or f_inner != model.f_inner:
        raise ValueError("framing mismatch with model")
    eps = -model.eta * model.theta
    u = -model.zeta * model.q * model.t
    smap = AffineSlopeMap(eps, model.q, u)
    for value in (Fraction(0), Fraction(1)):
        s = slope_from_numerical(f_outer, value)
        got = numerical_slope(f_inner, phi(model, s))
        if got != smap.apply(value):
            raise ValueError("inconsistent cable space model")
    return smap


_DEFAULT_WITNESS_VALUES = (INF, Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 3))


class TransferCertificate(Record):
    """A transfer map with everything needed to re-derive it.

    ``model`` is a CableSpaceModel and ``map`` an AffineSlopeMap.
    ``witnesses`` maps:
      "boundary"  -> the planar-surface boundary class and zeta,
      "meridian"  -> the mu relation constants (zeta, q) and factor r,
      "longitude" -> the lambda' relation constants (t, coefficient),
      "slopes"    -> sampled (source, image, factor, values) records.
    """

    _fields = ("model", "map", "witnesses")

    def __init__(self, model, map, witnesses):
        _set(self, "model", model)
        _set(self, "map", map)
        _set(self, "witnesses", witnesses)


def slope_record(model, s):
    """The witness record of slope s: its source and image pairs, the
    proportionality factor, and its numerical values on both tori."""
    image, r = phi_with_factor(model, s)
    return {
        "source": (s.a, s.b),
        "image": (image.a, image.b),
        "factor": r,
        "value_outer": numerical_slope(model.f_outer, s),
        "value_inner": numerical_slope(model.f_inner, image),
    }


def _record_slope(rec):
    """The slope of a witness record's source, or None for the pair (0, 0)."""
    a, b = rec["source"]
    return canonical_slope(a, b) if a or b else None


def transfer_certificate(model, extra_slopes=()):
    """Build the certificate for a model: map, constants, slope witnesses."""
    smap = transfer_map(model)
    slopes = [slope_from_numerical(model.f_outer, v) for v in _DEFAULT_WITNESS_VALUES]
    slopes.append(canonical_slope(model.p, model.q))  # the cabling-curve slope
    slopes.extend(extra_slopes)
    seen = []
    records = []
    for s in slopes:
        if s in seen:
            continue
        seen.append(s)
        records.append(slope_record(model, s))
    _, r_mu = phi_with_factor(
        model, canonical_slope(model.f_outer.mu.a, model.f_outer.mu.b)
    )
    witnesses = {
        "boundary": {
            "outer": model.boundary_outer,
            "inner": model.boundary_inner,
            "zeta": model.zeta,
        },
        "meridian": {"zeta": model.zeta, "q": model.q, "factor": r_mu},
        "longitude": {
            "t": model.t,
            "coefficient": model.longitude_coefficient,
        },
        "slopes": tuple(records),
    }
    return TransferCertificate(model=model, map=smap, witnesses=witnesses)


def verify_certificate(cert, grid=DEFAULT_GRID):
    """Replay every claim in a TransferCertificate from raw data.

    Returns a CheckReport: the model's checks (check_model), each also
    holding the certificate's stated constants of that name against the
    model, then map-consistency, witness-slopes and the grid check with
    bound `grid`.  When H1 is not free of rank 2, the last three read
    coordinates it does not have and are skipped, failed.  Failures are
    report entries, never exceptions: a slope that a stored H1 sends to
    zero, so that phi has no image of it, fails witness-slopes or the
    grid check by name.
    """
    model = cert.model
    report = check_model(model)
    if not report.passed("h1-rank"):
        return CheckReport(
            checks=report.checks
            + tuple(
                map(rank_skipped, ("map-consistency", "witness-slopes", "grid-consistency"))
            )
        )

    # The stated constants are the model's; the stated meridian factor is
    # that of the meridian's slope record, which witness-slopes checks
    # against phi.
    w1 = cert.witnesses.get("boundary", {})
    w2 = cert.witnesses.get("meridian", {})
    w3 = cert.witnesses.get("longitude", {})
    slopes = cert.witnesses.get("slopes", ())
    meridian = canonical_slope(model.f_outer.mu.a, model.f_outer.mu.b)
    stated = {
        "eq-boundary": tuple(w1.get("outer", ())) == tuple(model.boundary_outer)
        and tuple(w1.get("inner", ())) == tuple(model.boundary_inner)
        and w1.get("zeta") == model.zeta,
        "eq-meridian": w2.get("zeta") == model.zeta
        and w2.get("q") == model.q
        and any(
            _record_slope(rec) == meridian and rec["factor"] == w2.get("factor")
            for rec in slopes
        ),
        "eq-longitude": w3.get("t") == model.t
        and w3.get("coefficient") == model.longitude_coefficient,
    }
    checks = [
        Check(c.name, c.ok and stated.get(c.name, True), c.detail) for c in report.checks
    ]

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # The map's constants against the model's: epsilon = -eta*theta,
    # u = -zeta*q*t, quadratic coefficient q^2.
    add(
        "map-consistency",
        cert.map.epsilon == -model.eta * model.theta
        and cert.map.q == model.q
        and cert.map.u == -model.zeta * model.q * model.t,
    )

    # Slope witnesses: each record is the one slope_record gives for the
    # slope of its source (so the source is that slope's canonical pair),
    # and obeys the affine law.  The meridian and the cabling curve must
    # be among them.
    ok = True
    detail = ""
    required = [meridian, canonical_slope(model.p, model.q)]
    for rec in slopes:
        s = _record_slope(rec)
        if s is None:
            ok = False
            detail = "slope (0, 0)"
            break
        if s in required:
            required.remove(s)
        try:
            expected = slope_record(model, s)
        except ValueError:  # phi sends s to the zero class of this H1
            expected = None
        if (
            expected is None
            or rec != expected
            or rec["value_inner"] != cert.map.apply(rec["value_outer"])
        ):
            ok = False
            detail = "slope (%d, %d)" % (s.a, s.b)
            break
    if ok and required:
        ok = False
        detail = "no record of slope (%d, %d)" % (required[0].a, required[0].b)
    add("witness-slopes", ok, detail)

    try:
        checks.append(grid_check(model, cert.map, grid))
    except ValueError:
        # grid_check raises when phi has no image of the first slope that
        # fails: the first grid slope that phi_matrix sends to zero.
        (p11, p12), (p21, p22) = phi_matrix(model)
        a, b = next(
            (a, b)
            for a, b in grid_slopes(grid)
            if p11 * a + p12 * b == 0 and p21 * a + p22 * b == 0
        )
        add("grid-consistency", False, "slope (%d, %d): phi sends it to zero" % (a, b))
    return CheckReport(checks=tuple(checks))
