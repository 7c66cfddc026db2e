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

which Smith normal form confirms is free of rank 2.  Reference bases:
on T1, E1 = meridian of V and E2 = a longitude (the curves behind m, l
above); on T2, E1' = meridian of W and E2' = the push-off of C inside
the concentric torus.  The inclusion-induced maps are then

    E1  |-> m,    E2  |-> l,
    E2' |-> p*m + q*l           (the push-off is parallel to C),
    E1' |-> the unique class x with q*x = m,

the last because a meridian disk D of V meets W in q disks, leaving a
planar surface P = D - (q disks) in N whose boundary runs once along
E1 and q times against E1'.  (Integrally x = (k, (1-k*p)/q, -k) where
k is the inverse of p mod q; x exists and is unique because H1(N) is
torsion-free.)

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

The constants of the transfer law are extracted here: zeta from the
boundary of the planar surface P (written as [dP] = mu + zeta*q*mu'
after orienting P so its T1 part is +mu), eta and theta as the signs
of the outer and inner framings, and t by solving

    lambda-bar' = t * mu-bar + w * lambda-bar

in H1(N; Q); the model verifies that w comes out as zeta*theta*eta*q
rather than assuming it.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from .linalg import IntMatrix, group_from_presentation
from .report import Check, CheckReport
from .slopes import Framing, PrimitiveClass, Record, _set

STANDARD_OUTER_FRAMING = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), -1)
STANDARD_INNER_FRAMING = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), +1)


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


def _iota_outer(a, b):
    """Generator coordinates of the image of a*E1 + b*E2 from T1."""
    return (0, a, b)


def _iota_inner(p, q, orientation, a, b):
    """Generator coordinates of the image of a*E1' + b*E2' from T2."""
    k = pow(p, -1, q)
    return (
        orientation * a * k,
        orientation * (a * (1 - k * p) // q + b * p),
        orientation * (-a * k + b * q),
    )


class CableSpaceModel(Record):
    """H1 data of one cable space, with framings and transfer constants.

    ``h1`` (an FPAbelianGroup) is the group on generators (c, m, l) with
    the single relation q*c - p*m - q*l, the IntMatrix ``relation``; the
    four ``img_*`` vectors are the framing classes' images under the two
    boundary inclusions, in generator coordinates.
    ``boundary_outer``/``boundary_inner`` hold the class of the planar
    surface's boundary on each torus (reference coordinates), oriented
    so the outer part is exactly mu; together they witness
    [dP] = mu + zeta*q*mu'.  ``t`` is a Fraction.  The instance keeps a
    ``__dict__``, where ``basis_images`` is cached.
    """

    _fields = (
        "p", "q", "orientation", "f_outer", "f_inner", "relation", "h1",
        "img_mu", "img_lambda", "img_mu_prime", "img_lambda_prime",
        "boundary_outer", "boundary_inner", "zeta", "t", "theta", "eta",
    )

    def __init__(
        self, p, q, orientation, f_outer, f_inner, relation, h1,
        img_mu, img_lambda, img_mu_prime, img_lambda_prime,
        boundary_outer, boundary_inner, zeta, t, theta, eta,
    ):
        check_parameters(p, q, orientation)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "orientation", orientation)
        _set(self, "f_outer", f_outer)
        _set(self, "f_inner", f_inner)
        _set(self, "relation", relation)
        _set(self, "h1", h1)
        _set(self, "img_mu", img_mu)
        _set(self, "img_lambda", img_lambda)
        _set(self, "img_mu_prime", img_mu_prime)
        _set(self, "img_lambda_prime", img_lambda_prime)
        _set(self, "boundary_outer", boundary_outer)
        _set(self, "boundary_inner", boundary_inner)
        _set(self, "zeta", zeta)
        _set(self, "t", t)
        _set(self, "theta", theta)
        _set(self, "eta", eta)

    @property
    def longitude_coefficient(self):
        """The coefficient zeta*theta*eta*q of lambda-bar in the lambda' relation."""
        return self.zeta * self.theta * self.eta * self.q

    def iota_outer(self, a, b):
        return _iota_outer(a, b)

    def iota_inner(self, a, b):
        return _iota_inner(self.p, self.q, self.orientation, a, b)

    @cached_property
    def basis_images(self):
        """Free coordinates of the images of E1, E2 (from T1) and E1', E2'
        (from T2), read from this model's own ``h1`` once per model.

        Both inclusions are linear, so every other image is a
        combination of these four.
        """
        return (
            self.h1.rational_coords(self.iota_outer(1, 0)),
            self.h1.rational_coords(self.iota_outer(0, 1)),
            self.h1.rational_coords(self.iota_inner(1, 0)),
            self.h1.rational_coords(self.iota_inner(0, 1)),
        )

    def rational_outer(self, a, b):
        """Free coordinates (a vector over Q) of the image of a*E1 + b*E2."""
        e1, e2 = self.basis_images[:2]
        return tuple(a * x + b * y for x, y in zip(e1, e2))

    def rational_inner(self, a, b):
        e1, e2 = self.basis_images[2:]
        return tuple(a * x + b * y for x, y in zip(e1, e2))


def cable_space_homology(p, q, f_outer=None, f_inner=None, orientation=1):
    """Build and verify the H1 model of the (p, q) cable space.

    Framings default to the standard surface framings; supplied ones
    must be meridian-based (mu = +-E1 on their torus) and carry signs
    consistent with the model's boundary orientations.  Every
    CableSpaceModel invariant (rank, rational isomorphisms, the mu and
    lambda' relations, the planar boundary witness) is checked exactly
    before the model is returned.
    """
    check_parameters(p, q, orientation)
    if f_outer is None:
        f_outer = STANDARD_OUTER_FRAMING
    if f_inner is None:
        f_inner = STANDARD_INNER_FRAMING
    problem = framing_problem(f_outer, f_inner)
    if problem:
        raise ValueError(problem)

    relation = IntMatrix.from_rows([[q, -p, -q]])
    h1 = group_from_presentation(relation)
    if h1.invariant_factors != (0, 0):
        raise ValueError("inconsistent cable space model")

    img_mu = _iota_outer(f_outer.mu.a, f_outer.mu.b)
    img_lambda = _iota_outer(f_outer.lambda_.a, f_outer.lambda_.b)
    img_mu_prime = _iota_inner(p, q, orientation, f_inner.mu.a, f_inner.mu.b)
    img_lambda_prime = _iota_inner(p, q, orientation, f_inner.lambda_.a, f_inner.lambda_.b)

    # The planar surface P has boundary E1 - orientation*q*E1' in
    # reference classes; orient P so its T1 part is +mu and read zeta
    # off the T2 part.
    e1 = f_outer.mu.a
    e2 = f_inner.mu.a
    boundary_outer = (e1, 0)
    boundary_inner = (-e1 * orientation * q, 0)
    zeta = -orientation * e1 * e2

    theta = f_inner.sign
    eta = f_outer.sign

    # Solve lambda-bar' = t*mu-bar + w*lambda-bar over Q for t; that w
    # comes out as zeta*theta*eta*q is the model's eq-longitude check.
    mu_r = h1.rational_coords(img_mu)
    la_r = h1.rational_coords(img_lambda)
    lp_r = h1.rational_coords(img_lambda_prime)
    den = _cross(mu_r, la_r)
    if den == 0:
        raise ValueError("inconsistent cable space model")
    t = Fraction(_cross(lp_r, la_r), den)

    model = CableSpaceModel(
        p=p,
        q=q,
        orientation=orientation,
        f_outer=f_outer,
        f_inner=f_inner,
        relation=relation,
        h1=h1,
        img_mu=img_mu,
        img_lambda=img_lambda,
        img_mu_prime=img_mu_prime,
        img_lambda_prime=img_lambda_prime,
        boundary_outer=boundary_outer,
        boundary_inner=boundary_inner,
        zeta=zeta,
        t=t,
        theta=theta,
        eta=eta,
    )
    verify_model(model)
    return model


def rank_skipped(name):
    """The failed check `name`, skipped because it reads the two free
    coordinates of an H1 that is not free of rank 2."""
    return Check(name, False, "skipped: H1 is not free of rank 2")


def check_model(model):
    """Exact re-check of every CableSpaceModel identity, one Check each.

    The single implementation of the model's identities, used both as the
    constructor's postcondition (through verify_model) and by certificate
    replay, so it trusts nothing: presentation, framings, images and
    constants are all re-derived or re-checked from the stored data.
    The parameters are checked when the model is constructed.  When H1 is
    not free of rank 2 the checks after h1-rank are skipped, failed.
    """
    checks = []

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # The stored group is the cokernel of the stored relation matrix, and
    # the matrix is the (p, q) one.
    try:
        regroup = group_from_presentation(model.relation)
        add(
            "presentation",
            regroup == model.h1
            and model.relation.to_rows() == [[model.q, -model.p, -model.q]],
        )
    except ValueError as e:
        add("presentation", False, str(e))

    h1 = model.h1
    rank_ok = h1.invariant_factors == (0, 0)
    add("h1-rank", rank_ok)
    if not rank_ok:
        for name in (
            "iota-isomorphisms",
            "framing-signs",
            "eq-boundary",
            "eq-meridian",
            "eq-longitude",
        ):
            checks.append(rank_skipped(name))
        return CheckReport(checks=tuple(checks))

    # The four images are those of the framing classes, and each pair
    # is a basis of H1(N; Q).
    f_outer, f_inner = model.f_outer, model.f_inner
    mu_r = h1.rational_coords(model.img_mu)
    la_r = h1.rational_coords(model.img_lambda)
    mp_r = h1.rational_coords(model.img_mu_prime)
    lp_r = h1.rational_coords(model.img_lambda_prime)
    add(
        "iota-isomorphisms",
        model.img_mu == model.iota_outer(f_outer.mu.a, f_outer.mu.b)
        and model.img_lambda == model.iota_outer(f_outer.lambda_.a, f_outer.lambda_.b)
        and model.img_mu_prime == model.iota_inner(f_inner.mu.a, f_inner.mu.b)
        and model.img_lambda_prime
        == model.iota_inner(f_inner.lambda_.a, f_inner.lambda_.b)
        and _cross(mu_r, la_r) != 0
        and _cross(mp_r, lp_r) != 0,
    )

    # Framing signs feed theta and eta; check both the wiring and the
    # orientation consistency of meridian-based framings.
    add(
        "framing-signs",
        model.theta == f_inner.sign
        and model.eta == f_outer.sign
        and not framing_problem(f_outer, f_inner),
    )

    # Eq (1): the planar boundary is mu on T1, zeta*q*mu' on T2, and the
    # total class dies in H1(N).
    total = tuple(
        x + y
        for x, y in zip(
            model.iota_outer(*model.boundary_outer),
            model.iota_inner(*model.boundary_inner),
        )
    )
    add(
        "eq-boundary",
        model.boundary_outer == (f_outer.mu.a, f_outer.mu.b)
        and model.boundary_inner
        == (model.zeta * model.q * f_inner.mu.a, model.zeta * model.q * f_inner.mu.b)
        and h1.is_zero(total),
    )

    # Eq (2): mu-bar = -zeta*q*mu-bar'.
    add("eq-meridian", all(a == -model.zeta * model.q * b for a, b in zip(mu_r, mp_r)))

    # Eq (3): lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar.
    w = model.longitude_coefficient
    add("eq-longitude", all(c == model.t * a + w * b for c, a, b in zip(lp_r, mu_r, la_r)))

    return CheckReport(checks=tuple(checks))


def verify_model(model):
    """The raising form of check_model: ValueError unless every identity holds."""
    if not check_model(model).ok:
        raise ValueError("inconsistent cable space model")


def glued_manifold_h1(f, complementary_meridian):
    """H1 of the closed manifold built from a round knot's gluing data.

    When a knot's exterior is a solid torus, the ambient manifold is a
    union of two solid tori along the reference torus: one filled along
    the framing's meridian mu, the other along the complementary
    meridian.  Its H1 is the cokernel of the 2x2 relation matrix whose
    rows are those two classes in the reference basis.
    """
    rows = [
        [f.mu.a, f.mu.b],
        [complementary_meridian.a, complementary_meridian.b],
    ]
    return group_from_presentation(IntMatrix.from_rows(rows))
