"""Tests for the homology model of cable spaces.

The model is built from the presentation H_1(N; Z) = Z<c, m, l> / (qc -
pm - ql), read in the closed-form coordinates (pc + qm, c + l), where the
four boundary basis images are (q, 0), (0, 1), o(1, 0) and o(pq, q), and
states the constants zeta and t; with the framings' signs theta and eta
they tie the images of the two boundary bases and the planar boundary
relation together.  Everything here is checked exactly over the full grid
2 <= q <= 7, |p| <= 7, gcd(p, q) = 1, both orientations, and the closed
form against the oracle in oracles.py (the boundary images in generator
coordinates, read in the Smith normal form of the presentation) on
random (p, q) as well.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from slopecert import (
    STANDARD_INNER_FRAMING,
    STANDARD_OUTER_FRAMING,
    Cabling,
    Framing,
    PrimitiveClass,
    cable_space_homology,
    check_model,
    verify_model,
)
from oracles import (
    iota_inner,
    iota_outer,
    presented_basis_images,
    presented_change_of_basis,
    presented_h1,
)

GRID = [
    (p, q)
    for q in range(2, 8)
    for p in range(-7, 8)
    if gcd(p, q) == 1
]


def grid_models():
    for p, q in GRID:
        for orientation in (1, -1):
            yield cable_space_homology(p, q, orientation=orientation)


def test_grid_size_is_as_documented():
    assert len(GRID) == 56


def test_basis_images_are_the_closed_form_vectors():
    for model in grid_models():
        p, q, o = model.p, model.q, model.orientation
        assert model.basis_images == ((q, 0), (0, 1), (o, 0), (o * p * q, o * q))


def test_h1_is_free_of_rank_two():
    # The oracle's group is Z^2, and the four boundary images generate it
    # in either coordinate system: their 2x2 minors have gcd 1.
    for model in grid_models():
        h1 = presented_h1(model.p, model.q)
        assert h1.invariant_factors == (0, 0) and h1.rank == 2
        for images in (model.basis_images,
                       presented_basis_images(model.p, model.q, model.orientation)):
            minors = [a[0] * b[1] - a[1] * b[0] for i, a in enumerate(images)
                      for b in images[i + 1:]]
            assert gcd(*minors) == 1


def test_relation_matrix_and_presentation_agree():
    # The model's four basis images and the oracle's differ by one matrix
    # in GL2(Z), on the grid and in both orientations.
    for model in grid_models():
        assert presented_change_of_basis(model) is not None


def test_closed_form_coordinates_agree_with_the_oracle_on_random_cable_spaces():
    # Random (p, q), both orientations: the basis images agree up to
    # GL2(Z), and a combination of the four boundary classes is zero in
    # H1(N) exactly when its closed-form image is (0, 0).
    rng = random.Random(20)
    for _ in range(200):
        q = rng.choice((rng.randint(2, 12), rng.randint(2, 10 ** 6)))
        p = rng.randint(-10 ** 6, 10 ** 6)
        if gcd(p, q) != 1:
            continue
        h1 = presented_h1(p, q)
        for o in (1, -1):
            model = cable_space_homology(p, q, orientation=o)
            assert presented_change_of_basis(model) is not None
            for _ in range(5):
                # The planar boundary E1 - o*q*E1' and E2' - o*p*E1 - o*q*E2
                # (E2' is parallel to the cabling curve) span the kernel.
                j, k = rng.randint(-50, 50), rng.randint(-50, 50)
                on = (j - k * o * p, -k * o * q, -j * o * q, k)
                off = tuple(x + rng.randint(-1, 1) for x in on)  # zero only if unmoved
                wide = tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(4))
                for a, b, c, d in (on, off, wide):
                    x = [s + t for s, t in zip(iota_outer(a, b), iota_inner(p, q, o, c, d))]
                    closed = [s + t for s, t in zip(
                        model.rational_outer(a, b), model.rational_inner(c, d))]
                    assert h1.is_zero(x) == (closed == [0, 0])
                assert h1.is_zero([s + t for s, t in zip(
                    iota_outer(*on[:2]), iota_inner(p, q, o, *on[2:]))])


def random_framing(rng):
    """A framing whose (mu, lambda) columns are a random matrix in GL2(Z)."""
    (a, b), (c, d) = rng.choice(((1, 0), (0, 1))), rng.choice(((0, 1), (1, 0)))
    if a * d - b * c == 0:
        c, d = d, c
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(-5, 5)
        if rng.random() < 0.5:
            c, d = c + k * a, d + k * b
        else:
            a, b = a + k * c, b + k * d
    if rng.random() < 0.5:
        a, b = -a, -b
    return Framing(PrimitiveClass(a, b), PrimitiveClass(c, d), rng.choice((1, -1)))


def random_model(rng):
    """A built model with random meridian-based framings, mu = (e, 0) and
    lambda = (h, d), on a random cable space."""
    while True:
        p, q = rng.randint(-40, 40), rng.randint(2, 12)
        if gcd(p, q) == 1:
            break
    framings = []
    for sign in (-1, 1):
        e, d = rng.choice((1, -1)), rng.choice((1, -1))
        mu, lam = PrimitiveClass(e, 0), PrimitiveClass(rng.randint(-9, 9), d)
        framings.append(Framing(mu, lam, sign * e * d))
    return cable_space_homology(p, q, *framings, orientation=rng.choice((1, -1)))


def test_iota_images_are_rational_bases():
    # Both boundary inclusions are isomorphisms onto H_1(N; Q): the images
    # of any framing pair have cross product q*det(framing) = +-q, so a
    # check that they are a basis could never fail.
    rng = random.Random(31)
    for model in grid_models():
        for framing in (STANDARD_OUTER_FRAMING, STANDARD_INNER_FRAMING) + tuple(
                random_framing(rng) for _ in range(3)):
            mu, lam = framing.mu, framing.lambda_
            for images in (model.rational_outer, model.rational_inner):
                (a, b), (c, d) = images(mu.a, mu.b), images(lam.a, lam.b)
                assert a * d - b * c == model.q * framing.det


def test_eq_meridian_fails_exactly_when_the_planar_boundary_survives():
    # eq-meridian, mu-bar = -zeta*q*mu-bar', decides whether the planar
    # boundary mu + zeta*q*mu' dies in H1(N), as the oracle's generator
    # coordinates read it: on random framings (valid, or any basis in
    # place of one), with zeta and t tampered.  So no separate check of
    # the boundary is needed.
    rng = random.Random(32)
    outcomes = set()
    for _ in range(300):
        model = random_model(rng)
        zeta = rng.choice((model.zeta, -model.zeta, rng.randint(-3, 3)))
        edits = {"zeta": zeta, "t": Fraction(rng.randint(-50, 50), rng.randint(1, 7))}
        for name in ("f_outer", "f_inner"):
            if rng.random() < 0.2:
                edits[name] = random_framing(rng)
        model = model.replace(**edits)
        p, q, o = model.p, model.q, model.orientation
        boundary = [x + y for x, y in zip(
            iota_outer(*model.boundary_outer), iota_inner(p, q, o, *model.boundary_inner))]
        dies = presented_h1(p, q).is_zero(boundary)
        meridian = next(c for c in check_model(model).checks if c.name == "eq-meridian")
        assert meridian.ok == dies
        outcomes.add(dies)
    assert outcomes == {True, False}


def test_boundary_identity():
    # the planar piece bounds: its outer part is mu, its inner part is
    # zeta*q*mu', and the total class dies in H_1(N; Z) integrally
    for model in grid_models():
        assert model.boundary_outer == (model.f_outer.mu.a, model.f_outer.mu.b)
        assert model.boundary_inner == (
            model.zeta * model.q * model.f_inner.mu.a,
            model.zeta * model.q * model.f_inner.mu.b,
        )
        outer = model.rational_outer(*model.boundary_outer)
        inner = model.rational_inner(*model.boundary_inner)
        assert [x + y for x, y in zip(outer, inner)] == [0, 0]
        total = [
            x + y
            for x, y in zip(
                iota_outer(*model.boundary_outer),
                iota_inner(model.p, model.q, model.orientation, *model.boundary_inner),
            )
        ]
        assert presented_h1(model.p, model.q).is_zero(total)
        # rational consequence, which is what the slope map consumes:
        mu_bar = model.rational_outer(1, 0)
        mu_bar_p = model.rational_inner(1, 0)
        assert all(
            mu_bar[i] == -model.zeta * model.q * mu_bar_p[i] for i in range(2)
        )


def test_longitude_identity():
    # lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar
    for model in grid_models():
        mu_bar = model.rational_outer(1, 0)
        la_bar = model.rational_outer(0, 1)
        lp_bar = model.rational_inner(0, 1)
        w = model.zeta * model.theta * model.eta * model.q
        assert all(
            lp_bar[i] == model.t * mu_bar[i] + w * la_bar[i] for i in range(2)
        )


def test_zeta_and_t_standard_values():
    # with the standard framings zeta = -orientation and t = orientation*p,
    # so the product -zeta*q*t (the slope map's constant u) is always pq
    for p, q in GRID:
        m = cable_space_homology(p, q)
        assert m.zeta == -1
        assert m.t == p
        assert m.theta == 1 and m.eta == -1
        m2 = cable_space_homology(p, q, orientation=-1)
        assert m2.zeta == 1
        assert m2.t == -p
        assert -m.zeta * q * m.t == -m2.zeta * q * m2.t == p * q


def test_verify_model_accepts_grid_and_rejects_mutations():
    model = cable_space_homology(3, 4)
    verify_model(model)
    assert [c.name for c in check_model(model).checks] == [
        "framing-signs", "eq-meridian", "eq-longitude",
    ]
    flipped = Framing(PrimitiveClass(-1, 0), PrimitiveClass(0, 1), +1)
    for field, value, failing in [
        ("zeta", -model.zeta, {"eq-meridian", "eq-longitude"}),
        ("t", model.t + 1, {"eq-longitude"}),
        ("f_outer", flipped, {"eq-meridian", "eq-longitude"}),
    ]:
        broken = model.replace(**{field: value})
        assert {c.name for c in check_model(broken).failed()} == failing, field
        with pytest.raises(ValueError, match="inconsistent cable space model"):
            verify_model(broken)


def test_a_failed_equation_names_its_first_differing_coordinate():
    # In the closed-form coordinates of (3, 4): mu-bar = (4, 0),
    # mu-bar' = (1, 0), lambda-bar = (0, 1) and lambda-bar' = (12, 4).
    model = cable_space_homology(3, 4)
    assert [c.detail for c in check_model(model).checks] == [""] * 3
    details = {c.name: c.detail for c in check_model(model.replace(zeta=1)).failed()}
    assert details["eq-meridian"] == "coordinate 0: mu-bar 4, -zeta*q*mu-bar' -4"
    assert details["eq-longitude"] == (
        "coordinate 1: lambda-bar' 4, t*mu-bar + zeta*theta*eta*q*lambda-bar -4")
    details = {c.name: c.detail for c in check_model(model.replace(t=Fraction(7, 2))).failed()}
    assert details == {"eq-longitude": (
        "coordinate 0: lambda-bar' 12, t*mu-bar + zeta*theta*eta*q*lambda-bar 14")}


def test_nonstandard_framings():
    # flipping the outer meridian sign flips zeta; shearing lambda is
    # absorbed into t; the model stays consistent throughout
    base = cable_space_homology(2, 3)
    flipped = Framing(PrimitiveClass(-1, 0), PrimitiveClass(0, 1), +1)
    m = cable_space_homology(2, 3, f_outer=flipped)
    assert m.zeta == -base.zeta
    verify_model(m)

    sheared = Framing(PrimitiveClass(1, 0), PrimitiveClass(3, 1), -1)
    m = cable_space_homology(2, 3, f_outer=sheared)
    verify_model(m)
    assert m.zeta == base.zeta

    # shearing the inner longitude by c*mu' shifts t by -c/(zeta*q)
    c = -2
    sheared_inner = Framing(PrimitiveClass(1, 0), PrimitiveClass(c, 1), +1)
    m = cable_space_homology(2, 3, f_inner=sheared_inner)
    verify_model(m)
    assert m.t == base.t - Fraction(c, base.zeta * base.q)


def test_framing_validation():
    # outer framing must keep mu on the outer meridian and carry the
    # orientation-consistent sign
    bad_meridian = Framing(PrimitiveClass(0, 1), PrimitiveClass(1, 0), +1)
    with pytest.raises(ValueError):
        cable_space_homology(1, 2, f_outer=bad_meridian)
    bad_sign = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), +1)
    with pytest.raises(ValueError):
        cable_space_homology(1, 2, f_outer=bad_sign)
    bad_inner_sign = Framing(PrimitiveClass(1, 0), PrimitiveClass(0, 1), -1)
    with pytest.raises(ValueError):
        cable_space_homology(1, 2, f_inner=bad_inner_sign)


def test_cabling_parameter_validation():
    with pytest.raises(ValueError, match="q must be at least 2"):
        cable_space_homology(1, 1)
    with pytest.raises(ValueError, match="q must be at least 2"):
        cable_space_homology(3, 0)
    with pytest.raises(ValueError, match="not simple"):
        cable_space_homology(2, 4)
    with pytest.raises(ValueError, match="not simple"):
        cable_space_homology(0, 2)
    with pytest.raises(ValueError):
        cable_space_homology(1, 2, orientation=0)
    # the same checks run whenever a cabling or a model is constructed
    with pytest.raises(ValueError, match="orientation must be"):
        Cabling(1, 2, orientation=0)
    model = cable_space_homology(1, 2)
    for field, value, message in [
        ("q", 1, "q must be at least 2"),
        ("p", 2, "not simple"),
        ("orientation", 2, "orientation must be"),
    ]:
        with pytest.raises(ValueError, match=message):
            model.replace(**{field: value})


def test_inner_framing_of_model_is_used_by_both_boundaries():
    # defaults are the standard framings; explicit ones are stored
    m = cable_space_homology(1, 2)
    assert m.f_outer == STANDARD_OUTER_FRAMING
    assert m.f_inner == STANDARD_INNER_FRAMING
