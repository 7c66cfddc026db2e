"""The slope correspondence across a cable space, and its affine law.

A slope on the outer torus T1 and a slope on the inner torus T2 of a
cable space correspond exactly when their images in H1(N; Q) are
parallel (rational multiples of one another).  Since both boundary
inclusions are isomorphisms over Q, that rule is a bijection phi from
slopes on T1 to slopes on T2, computed here by an exact 2x2 linear
solve in the model's free coordinates.  A brute-force enumeration of
candidate primitive pairs, checking the parallelism condition verbatim,
is kept alongside as a test oracle.

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
claim from the raw presentation alone.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cablespace import CableSpaceModel
from .linalg import group_from_presentation
from .report import Check, CheckReport
from .slopes import (
    INF,
    PrimitiveClass,
    Slope,
    _in_basis,
    canonical_slope,
    numerical_slope,
    slope_from_numerical,
)


@dataclass(frozen=True)
class AffineSlopeMap:
    """The map s -> epsilon * q^2 * s + u on numerical slopes, INF fixed."""

    epsilon: int
    q: int
    u: Fraction

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("q must be an integer >= 2")
        object.__setattr__(self, "u", Fraction(self.u))

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


def _cross(v, w):
    return v[0] * w[1] - v[1] * w[0]


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


@dataclass(frozen=True)
class TransferCertificate:
    """A transfer map with everything needed to re-derive it.

    ``witnesses`` maps:
      "boundary"  -> the planar-surface boundary class and zeta,
      "meridian"  -> the mu relation constants (zeta, q) and factor r,
      "longitude" -> the lambda' relation constants (t, coefficient),
      "slopes"    -> sampled (source, image, factor, values) records.
    """

    model: CableSpaceModel
    map: AffineSlopeMap
    witnesses: dict


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
        image, r = phi_with_factor(model, s)
        records.append(
            {
                "source": (s.a, s.b),
                "image": (image.a, image.b),
                "factor": r,
                "value_outer": numerical_slope(model.f_outer, s),
                "value_inner": numerical_slope(model.f_inner, image),
            }
        )
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
            "coefficient": model.zeta * model.theta * model.eta * model.q,
        },
        "slopes": tuple(records),
    }
    return TransferCertificate(model=model, map=smap, witnesses=witnesses)


def verify_certificate(cert):
    """Replay every claim in a TransferCertificate from raw data.

    Returns a CheckReport with one entry per equation/claim; failures
    are report entries, never exceptions.
    """
    checks = []
    model = cert.model

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # Presentation: the stored group really is the cokernel of the
    # stored relation matrix, and the matrix is the (p, q) one.
    try:
        regroup = group_from_presentation(model.relation)
        ok = (
            regroup == model.h1
            and model.relation.to_rows() == [[model.q, -model.p, -model.q]]
        )
        add("presentation", ok)
    except ValueError as e:
        add("presentation", False, str(e))

    rank_ok = model.h1.invariant_factors == (0, 0)
    add("h1-rank", rank_ok)
    if not rank_ok:
        # The remaining checks all read 2-dimensional free coordinates;
        # without rank 2 they are meaningless, not merely false.
        for name in (
            "iota-isomorphisms",
            "framing-signs",
            "eq-boundary",
            "eq-meridian",
            "eq-longitude",
            "map-consistency",
            "witness-slopes",
        ):
            add(name, False, "skipped: H1 is not free of rank 2")
        return CheckReport(checks=tuple(checks))

    mu_r = model.h1.rational_coords(model.img_mu)
    la_r = model.h1.rational_coords(model.img_lambda)
    mp_r = model.h1.rational_coords(model.img_mu_prime)
    lp_r = model.h1.rational_coords(model.img_lambda_prime)
    add(
        "iota-isomorphisms",
        _cross(mu_r, la_r) != 0 and _cross(mp_r, lp_r) != 0,
    )

    # Framing signs feed theta and eta; check both the wiring and the
    # orientation consistency the model promises.
    add(
        "framing-signs",
        model.theta == model.f_inner.sign
        and model.eta == model.f_outer.sign
        and model.f_outer.sign == -model.f_outer.mu.a * model.f_outer.lambda_.b
        and model.f_inner.sign == model.f_inner.mu.a * model.f_inner.lambda_.b,
    )

    # Eq (1): the planar boundary is mu on T1, zeta*q*mu' on T2, and the
    # total class dies in H1(N).
    w1 = cert.witnesses.get("boundary", {})
    expected_inner = (
        model.zeta * model.q * model.f_inner.mu.a,
        model.zeta * model.q * model.f_inner.mu.b,
    )
    total = tuple(
        x + y
        for x, y in zip(
            model.iota_outer(*model.boundary_outer),
            model.iota_inner(*model.boundary_inner),
        )
    )
    add(
        "eq-boundary",
        tuple(w1.get("outer", ())) == tuple(model.boundary_outer)
        and tuple(w1.get("inner", ())) == tuple(model.boundary_inner)
        and model.boundary_outer == (model.f_outer.mu.a, model.f_outer.mu.b)
        and model.boundary_inner == expected_inner
        and model.h1.is_zero(total)
        and w1.get("zeta") == model.zeta,
    )

    # Eq (2): mu-bar = -zeta*q*mu-bar'.  The stated constants are the
    # model's, and the stated factor is that of the meridian's slope
    # record, which witness-slopes checks against phi.
    slopes = cert.witnesses.get("slopes", ())
    meridian = canonical_slope(model.f_outer.mu.a, model.f_outer.mu.b)
    w2 = cert.witnesses.get("meridian", {})
    add(
        "eq-meridian",
        all(a == -model.zeta * model.q * b for a, b in zip(mu_r, mp_r))
        and w2.get("zeta") == model.zeta
        and w2.get("q") == model.q
        and any(
            canonical_slope(*rec["source"]) == meridian
            and rec["factor"] == w2.get("factor")
            for rec in slopes
        ),
    )

    # Eq (3): lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar.
    w3 = cert.witnesses.get("longitude", {})
    coeff = model.zeta * model.theta * model.eta * model.q
    add(
        "eq-longitude",
        all(c == model.t * a + coeff * b for c, a, b in zip(lp_r, mu_r, la_r))
        and w3.get("t") == model.t
        and w3.get("coefficient") == coeff,
    )

    # The map's constants against the model's: epsilon = -eta*theta,
    # u = -zeta*q*t, quadratic coefficient q^2.
    add(
        "map-consistency",
        cert.map.epsilon == -model.eta * model.theta
        and cert.map.q == model.q
        and cert.map.u == -model.zeta * model.q * model.t,
    )

    # Slope witnesses: recompute phi, the proportionality factor, and
    # both numerical values, and re-check the affine law on each.  The
    # meridian and the cabling curve must be among them.
    ok = True
    detail = ""
    required = [meridian, canonical_slope(model.p, model.q)]
    for rec in slopes:
        s = canonical_slope(*rec["source"])
        if s in required:
            required.remove(s)
        image, r = phi_with_factor(model, s)
        vo = numerical_slope(model.f_outer, s)
        vi = numerical_slope(model.f_inner, image)
        if (
            (image.a, image.b) != tuple(rec["image"])
            or r != rec["factor"]
            or vo != rec["value_outer"]
            or vi != rec["value_inner"]
            or vi != cert.map.apply(vo)
        ):
            ok = False
            detail = "slope (%d, %d)" % (s.a, s.b)
            break
    if ok and required:
        ok = False
        detail = "no record of slope (%d, %d)" % (required[0].a, required[0].b)
    add("witness-slopes", ok, detail)

    return CheckReport(checks=tuple(checks))
