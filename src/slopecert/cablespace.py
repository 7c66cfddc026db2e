"""First homology of cable spaces, from one explicit decomposition.

The cable space here is the compact 3-manifold N lying between a knot
and a cabling of it: take a solid torus V (a closed tubular neighborhood
of the inner knot), draw the cabling curve C on a concentric torus
inside V so that C represents q*[core of V] + p*[meridian of V] there
(q >= 2 strands, gcd(p, q) = 1), and remove an open tubular
neighborhood W of C.  Then N = V - int(W) has two boundary tori,

    T1 = boundary of V   (the outer torus, framing f_outer),
    T2 = boundary of W   (the torus around the cabling curve, f_inner),

and N is Seifert fibered over an annulus with one singular fiber.

Presentation used throughout.  Cut N along the part of the concentric
torus it contains: that splits N into an inner solid torus X (the
concentric solid torus minus its half of the groove left by W) and an
outer product piece Y = T^2 x I (minus the other half of the groove),
glued along an annulus A whose core is parallel to C.  Writing c for
the core class of X and (m, l) for the meridian/longitude classes that
Y transports from T1, the core of A reads q*c from the X side and
p*m + q*l from the Y side, so

    H1(N; Z)  =  Z<c, m, l> / (q*c - p*m - q*l),

which (c, m, l) |-> (p*c + q*m, c + l) maps isomorphically onto Z^2,
in closed form: the 2x2 minors -q, p and q of its rows have gcd 1, so it
is onto, and its kernel is spanned by their cross product (q, -p, -q),
the relation, which is primitive because gcd(p, q) = 1.  Every identity
below is read in these coordinates.  Reference bases:
on T1, E1 = meridian of V and E2 = a longitude (the curves behind m, l
above); on T2, E1' = meridian of W and E2' = the push-off of C inside
the concentric torus.  The inclusion-induced maps are then

    E1  |-> m,    E2  |-> l,
    E2' |-> p*m + q*l           (the push-off is parallel to C),
    E1' |-> the unique class x with q*x = m,

the last because a meridian disk D of V meets W in q disks, leaving a
planar surface P = D - (q disks) in N whose boundary runs once along
E1 and q times against E1'.  In the coordinates (p*c + q*m, c + l) the
four images are therefore

    E1  |-> (q, 0),    E2  |-> (0, 1),
    E1' |-> (1, 0),    E2' |-> (p*q, q),

the same small vectors for every (p, q), with orientation +1 (see
below): m has coordinates (q, 0), so x = (1, 0) is the unique class
with q*x = m (H1(N) is torsion-free).

Orientation conventions.  The ``orientation`` flag (+1 or -1) is the
traversal direction chosen for the cabling curve; flipping it negates
the geometric curves that E1' and E2' denote, hence both inner image
vectors, and reverses the boundary of P, but cannot change any
slope-level output.  The boundary orientations the two tori inherit
from N are opposite-handed (N lies inside T1 but outside T2), which
this model fixes as: intersection form +1 on the ordered reference
basis of T1 and -1 on that of T2.  A framing's ``sign`` field must be
consistent with those orientations; for the meridian-based framings
the model accepts, mu = (e, 0) and lambda = (h, d), that means
sign = -e*d on T1 and sign = +e*d on T2.  The standard surface
framings below have signs -1 and +1 accordingly.

The model states the parameters p, q, orientation and the two framings,
and two facts that a check can refute: zeta, read from the boundary of
the planar surface P (written as [dP] = mu + zeta*q*mu' after orienting
P so its T1 part is +mu), and t, found by solving

    lambda-bar' = t * mu-bar + w * lambda-bar

in H1(N; Q).  Everything else is read off the parameters when it is
used: eta and theta are the signs of the outer and inner framings, and
the framing classes' images are the maps above.  The model verifies
that w comes out as zeta*theta*eta*q rather than assuming it.

Every identity is read in the closed-form coordinates above, from the
four basis images; no Smith normal form runs.  The group H1 is not
stated: it is the same Z^2 for every valid (p, q).
"""

from functools import cached_property
from math import gcd

from .rational import Rational
from .record import Record, _store
from .report import Check, CheckReport
from .slopes import Framing, PrimitiveClass

STANDARD_OUTER_FRAMING = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), -1)
STANDARD_INNER_FRAMING = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), +1)


def with_standard_framings(f_outer, f_inner):
    """The two framings, with the standard one in place of each None."""
    return (
        STANDARD_OUTER_FRAMING if f_outer is None else f_outer,
        STANDARD_INNER_FRAMING if f_inner is None else f_inner,
    )


def check_parameters(p, q, orientation):
    """Raise ValueError unless (p, q, orientation) names a cable space:
    integers p and q with q >= 2 and gcd(p, q) = 1, and orientation +-1."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if q < 2:
        raise ValueError("not a cabling (q must be at least 2)")
    if gcd(p, q) != 1:
        raise ValueError("cabling curve not simple")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")


def framing_problem(f_outer, f_inner):
    """Why the framings do not fit the model (see the module docstring),
    or "" when they do: mu = (e, 0) and sign = -e*d on T1, +e*d on T2."""
    if f_outer.mu.b != 0:
        return "outer framing's mu is not the meridian slope of T1"
    if f_inner.mu.b != 0:
        return "inner framing's mu is not the meridian slope of T2"
    if f_outer.sign != -f_outer.mu.a * f_outer.lambda_.b:
        return "outer framing sign inconsistent with the model's T1 orientation"
    if f_inner.sign != f_inner.mu.a * f_inner.lambda_.b:
        return "inner framing sign inconsistent with the model's T2 orientation"
    return ""


def _cross(v, w):
    return v[0] * w[1] - v[1] * w[0]


class CableSpaceModel(Record):
    """H1 data of one cable space, with framings and transfer constants.

    ``zeta`` and ``t`` (a Rational) are the constants of the transfer
    law, each a claim that check_model refutes when it is false.  The
    rest is read off the parameters: ``theta`` and ``eta`` are the signs
    of the inner and outer framings, and ``boundary_outer``/
    ``boundary_inner`` the class of the planar surface's boundary on each
    torus (reference coordinates), mu and zeta*q*mu', so that
    [dP] = mu + zeta*q*mu', which dies in H1(N) exactly when eq-meridian
    holds.  Images in H1(N) = Z^2 are combinations of the four
    ``basis_images``.  The instance keeps a ``__dict__``, where
    ``basis_images`` and ``report`` are cached.
    """

    def __init__(self, p, q, orientation, f_outer, f_inner, zeta, t):
        check_parameters(p, q, orientation)
        _store(self, locals())

    @property
    def theta(self):
        return self.f_inner.sign

    @property
    def eta(self):
        return self.f_outer.sign

    @property
    def boundary_outer(self):
        return (self.f_outer.mu.a, self.f_outer.mu.b)

    @property
    def boundary_inner(self):
        zq = self.zeta * self.q
        return (zq * self.f_inner.mu.a, zq * self.f_inner.mu.b)

    @property
    def longitude_coefficient(self):
        """The coefficient zeta*theta*eta*q of lambda-bar in the lambda' relation."""
        return self.zeta * self.theta * self.eta * self.q

    @cached_property
    def basis_images(self):
        """Coordinates of the images of E1, E2 (from T1) and E1', E2'
        (from T2) in H1(N) = Z^2 (see _basis_images).

        Both inclusions are linear, so every other image is a
        combination of these four.
        """
        return _basis_images(self.p, self.q, self.orientation)

    @cached_property
    def report(self):
        """check_model's report on this model, computed once per model
        object: a model read from input, or made by ``replace``, is a
        separate object and gets its own."""
        return check_model(self)

    def rational_outer(self, a, b):
        """Coordinates of the image of a*E1 + b*E2 (rational a and b give
        its image in H1(N; Q))."""
        return _combine(*self.basis_images[:2], a, b)

    def rational_inner(self, a, b):
        return _combine(*self.basis_images[2:], a, b)


def _combine(e1, e2, a, b):
    return tuple(a * x + b * y for x, y in zip(e1, e2))


def _basis_images(p, q, orientation):
    """The coordinates (p*c + q*m, c + l) of the images of E1, E2, E1',
    E2' in H1(N) = Z^2, in closed form (see the module docstring): the
    build's solve for t and every check of a model read them here."""
    o = orientation
    return (q, 0), (0, 1), (o, 0), (o * p * q, o * q)


def cable_space_homology(p, q, f_outer=None, f_inner=None, orientation=1):
    """Build and verify the H1 model of the (p, q) cable space.

    Framings default to the standard surface framings; supplied ones
    must be meridian-based (mu = +-E1 on their torus) and carry signs
    consistent with the model's boundary orientations.  Every
    CableSpaceModel identity (check_model) is checked exactly before the
    model is returned.
    """
    check_parameters(p, q, orientation)
    f_outer, f_inner = with_standard_framings(f_outer, f_inner)
    problem = framing_problem(f_outer, f_inner)
    if problem:
        raise ValueError(problem)

    # The planar surface P has boundary E1 - orientation*q*E1' in
    # reference classes; orient P so its T1 part is +mu and read zeta
    # off the T2 part.
    zeta = -orientation * f_outer.mu.a * f_inner.mu.a

    # Solve lambda-bar' = t*mu-bar + w*lambda-bar over Q for t; that w
    # comes out as zeta*theta*eta*q is the model's eq-longitude check.
    o1, o2, i1, i2 = _basis_images(p, q, orientation)
    mu_r = _combine(o1, o2, f_outer.mu.a, f_outer.mu.b)
    la_r = _combine(o1, o2, f_outer.lambda_.a, f_outer.lambda_.b)
    lp_r = _combine(i1, i2, f_inner.lambda_.a, f_inner.lambda_.b)
    # With mu = (e, 0) and det(mu, lambda) = e*d = +-1, the denominator
    # is e*d*q = +-q, never zero.
    t = Rational(_cross(lp_r, la_r), _cross(mu_r, la_r))

    model = CableSpaceModel(
        p=p, q=q, orientation=orientation, f_outer=f_outer, f_inner=f_inner,
        zeta=zeta, t=t,
    )
    verify_model(model)
    return model


def check_model(model):
    """Exact re-check of every CableSpaceModel identity, one Check each:
    framing-signs, eq-meridian and eq-longitude.

    The single implementation of the model's identities, each a check
    that can fail: a framing pair's images are always a basis of H1(N; Q)
    (their cross product is q*det(framing) = +-q), and the planar
    boundary dies exactly when eq-meridian holds.  It trusts nothing: the
    stored zeta and t are each held against a check that refutes them,
    and the framings against the model's orientations.  Every identity is
    read in the closed-form coordinates of H1(N) (model.basis_images), and
    a failed equation names its first differing coordinate with both
    sides.  Callers read it through ``model.report``, so it runs once per
    model object: the constructor's postcondition (verify_model) and every
    later check of that very model share one report, while a model read
    from input is its own object and is checked on its own.  The
    parameters are checked when the model is constructed.
    """
    checks = []

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # The framings are meridian-based, with signs (theta and eta) that
    # fit the model's boundary orientations.
    f_outer, f_inner = model.f_outer, model.f_inner
    add("framing-signs", not framing_problem(f_outer, f_inner))

    # Eq (2): mu-bar = -zeta*q*mu-bar', which says that the planar
    # boundary mu + zeta*q*mu' dies in H1(N).
    mu_r = model.rational_outer(f_outer.mu.a, f_outer.mu.b)
    la_r = model.rational_outer(f_outer.lambda_.a, f_outer.lambda_.b)
    mp_r = model.rational_inner(f_inner.mu.a, f_inner.mu.b)
    lp_r = model.rational_inner(f_inner.lambda_.a, f_inner.lambda_.b)
    zq = model.zeta * model.q
    problem = _unequal_coordinate("mu-bar", mu_r, "-zeta*q*mu-bar'", [-zq * b for b in mp_r])
    add("eq-meridian", not problem, problem)

    # Eq (3): lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar.
    t, w = model.t, model.longitude_coefficient
    problem = _unequal_coordinate(
        "lambda-bar'", lp_r, "t*mu-bar + zeta*theta*eta*q*lambda-bar",
        [t * a + w * b for a, b in zip(mu_r, la_r)],
    )
    add("eq-longitude", not problem, problem)

    return CheckReport(checks=tuple(checks))


def _unequal_coordinate(left_name, left, right_name, right):
    """The first coordinate where two vectors differ, with both sides, or
    "" when they are equal."""
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            return "coordinate %d: %s %s, %s %s" % (i, left_name, x, right_name, y)
    return ""


def verify_model(model):
    """The raising form of check_model: ValueError unless every identity
    holds.  Reads the model's cached report."""
    if not model.report.ok:
        raise ValueError("inconsistent cable space model")

