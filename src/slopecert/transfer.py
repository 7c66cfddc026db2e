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

Numerical values, u and the proportionality factors are
rational.Rationals; apply takes an int, a Fraction or a Rational.

A TransferCertificate packages the model, the map, and sampled slope
pairs with their rational proportionality factors, enough for
verify_certificate() to re-derive every claim from the model's
parameters alone: it takes the model's own checks
(cablespace.check_model), which hold the model's constants against the
closed-form images of the boundary bases, checks the map and the list of
slope records (slope_record), and proves that phi obeys the map on every
slope (grid_check).  Each constant is stated once, in the model.

Nothing is computed twice for one model object: its check report and its
witness records are cached on it, and a certificate built from it states
those very records.  The grid check decides from two 2x2 integer
matrices, without visiting a slope; it builds values only for the one
slope it names on a failure.
"""

from types import MappingProxyType

from .cablespace import _cross
from .rational import Rational
from .record import Record, _store
from .report import Check, CheckReport
from .slopes import (
    INF,
    PrimitiveClass,
    _in_basis,
    canonical_slope,
    numerical_slope,
    slope_from_numerical,
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


def transfer_map(model):
    """The affine law of phi on numerical slopes, for the model's framings.

    epsilon = -eta*theta and u = -zeta*q*t; both are replayed against
    phi itself (via the slopes of values 0 and 1) before the map is
    returned, so the constants and the geometry cannot drift apart.
    """
    eps = -model.eta * model.theta
    u = -model.zeta * model.q * model.t
    smap = AffineSlopeMap(eps, model.q, u)
    for value in (0, 1):
        s = slope_from_numerical(model.f_outer, value)
        got = numerical_slope(model.f_inner, phi(model, s))
        if got != smap.apply(value):
            raise ValueError("inconsistent cable space model")
    return smap


_DEFAULT_WITNESS_VALUES = (INF, 0, 1, -1, Rational(5, 3))


class TransferCertificate(Record):
    """A transfer map with everything needed to re-derive it.

    ``model`` is a CableSpaceModel and ``map`` an AffineSlopeMap.
    ``witnesses`` maps "slopes" to the records (slope_record: source,
    image, factor and values) of the slopes witness_slopes names, in its
    order; a built certificate states its model's ``witness_records``
    tuple itself.  The model's constants zeta and t are stated only in
    the model; the meridian's factor is that of the meridian's record.
    """

    def __init__(self, model, map, witnesses):
        _store(self, locals())


def slope_record(model, s):
    """The witness record of slope s: its source and image pairs, the
    proportionality factor, and its numerical values on both tori.  It is
    read-only, since a model's records are shared by every certificate
    built from it."""
    image, r = phi_with_factor(model, s)
    return MappingProxyType({
        "source": (s.a, s.b),
        "image": (image.a, image.b),
        "factor": r,
        "value_outer": numerical_slope(model.f_outer, s),
        "value_inner": numerical_slope(model.f_inner, image),
    })


def witness_slopes(model):
    """The slopes a certificate states records of, in order: those of the
    default witness values (the meridian first), then the cabling curve's,
    each once."""
    slopes = [slope_from_numerical(model.f_outer, v) for v in _DEFAULT_WITNESS_VALUES]
    slopes.append(canonical_slope(model.p, model.q))
    return tuple(dict.fromkeys(slopes))


def transfer_certificate(model):
    """Build the certificate for a model: its map and slope witnesses."""
    smap = transfer_map(model)
    return TransferCertificate(
        model=model, map=smap, witnesses={"slopes": model.witness_records}
    )


def _witness_problem(model, smap, records):
    """Why `records` are not the records transfer_certificate writes for
    `model` (its ``witness_records``), each obeying `smap`, naming the
    first index that fails; "" when they are.  The lists are compared
    whole; records are compared one by one only when they differ, to
    name the index."""
    wanted = model.witness_records
    same = tuple(records) == wanted
    for i, expected in enumerate(wanted):
        where = (i,) + expected["source"]
        if not same:
            if i == len(records):
                return "slopes[%d]: no record of slope (%d, %d)" % where
            if records[i] != expected:
                return "slopes[%d]: not the record of slope (%d, %d)" % where
        if expected["value_inner"] != smap.apply(expected["value_outer"]):
            return "slopes[%d]: slope (%d, %d) breaks the affine law" % where
    if len(records) > len(wanted):
        return "slopes[%d]: a record past the last witness slope" % len(wanted)
    return ""


def verify_certificate(cert):
    """Replay every claim in a TransferCertificate from raw data.

    Returns a CheckReport: the model's checks (check_model, read from
    the model's cached ``report``), then map-consistency, witness-slopes
    and the grid check, always all six.  Like the model's identities,
    the last three read phi in the closed-form coordinates of H1(N),
    where both inclusions are isomorphisms over Q, so every slope has an
    image.  The model's report and witness records are computed once per
    model object, so a certificate holding a built model is checked
    against the build's own; a certificate read from input holds its own
    model object and gets its own.  Failures are report entries, never
    exceptions.
    """
    model = cert.model
    checks = list(model.report.checks)

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # The map's constants against the model's: epsilon = -eta*theta,
    # quadratic coefficient q^2, u = -zeta*q*t; the first that differs is
    # named with both sides.
    smap = cert.map
    mismatch = next(
        (
            "%s: map %s, model %s" % (name, value_text(stated), value_text(wanted))
            for name, stated, wanted in (
                ("epsilon", smap.epsilon, -model.eta * model.theta),
                ("q", smap.q, model.q),
                ("u", smap.u, -model.zeta * model.q * model.t),
            )
            if stated != wanted
        ),
        "",
    )
    add("map-consistency", not mismatch, mismatch)

    # Slope witnesses: exactly the records transfer_certificate writes,
    # in its order, each obeying the affine law.
    problem = _witness_problem(model, smap, cert.witnesses.get("slopes", ()))
    add("witness-slopes", not problem, problem)

    checks.append(grid_check(model, smap))
    return CheckReport(checks=tuple(checks))
