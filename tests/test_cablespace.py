"""Tests for the homology model of cable spaces.

The model is built from the presentation H_1(N; Z) = Z<c, m, l> / (qc -
pm - ql) and carries the images of both boundary bases, the planar
boundary relation, and the constants (zeta, t, theta, eta) tying the
two boundary tori together.  Everything here is checked exactly over
the full grid 2 <= q <= 7, |p| <= 7, gcd(p, q) = 1, both orientations.
"""

from fractions import Fraction
from math import gcd

import pytest

from slopecert import (
    STANDARD_INNER_FRAMING,
    STANDARD_OUTER_FRAMING,
    Cabling,
    Framing,
    IntMatrix,
    PrimitiveClass,
    cable_space_homology,
    canonical_slope,
    check_model,
    glued_manifold_h1,
    group_from_presentation,
    verify_model,
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


def test_h1_is_free_of_rank_two():
    for model in grid_models():
        assert model.h1.invariant_factors == (0, 0)
        assert model.h1.rank == 2


def test_relation_matrix_and_presentation_agree():
    for model in grid_models():
        assert model.relation.to_rows() == [[model.q, -model.p, -model.q]]
        regroup = group_from_presentation(model.relation)
        assert regroup == model.h1


def test_iota_images_are_rational_bases():
    # both boundary inclusions are isomorphisms onto H_1(N; Q)
    for model in grid_models():
        for pair in (
            (model.rational_outer(1, 0), model.rational_outer(0, 1)),
            (model.rational_inner(1, 0), model.rational_inner(0, 1)),
        ):
            (a, b), (c, d) = pair
            assert a * d - b * c != 0


def test_boundary_identity():
    # the planar piece bounds: its outer part is mu, its inner part is
    # zeta*q*mu', and the total class dies in H_1(N; Z) integrally
    for model in grid_models():
        assert model.boundary_outer == (model.f_outer.mu.a, model.f_outer.mu.b)
        assert model.boundary_inner == (
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
        assert model.h1.is_zero(total)
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
        "presentation", "h1-rank", "iota-isomorphisms", "framing-signs",
        "eq-boundary", "eq-meridian", "eq-longitude",
    ]
    flipped = Framing(PrimitiveClass(-1, 0), PrimitiveClass(0, 1), +1)
    for field, value, failing in [
        ("zeta", -model.zeta, "eq-boundary"),
        ("t", model.t + 1, "eq-longitude"),
        ("theta", -model.theta, "framing-signs"),
        ("eta", -model.eta, "framing-signs"),
        ("img_mu", (1, 2, 3), "iota-isomorphisms"),
        ("f_outer", flipped, "iota-isomorphisms"),
        ("relation", IntMatrix.from_rows([[4, -3, -3]]), "presentation"),
    ]:
        broken = model.replace(**{field: value})
        assert failing in [c.name for c in check_model(broken).failed()], field
        with pytest.raises(ValueError, match="inconsistent cable space model"):
            verify_model(broken)


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


def test_glued_manifold_h1_fillings():
    f = STANDARD_OUTER_FRAMING
    # filling along the longitude: trivial group
    g = glued_manifold_h1(f, canonical_slope(0, 1))
    assert g.invariant_factors == () and g.order() == 1
    # filling meridian against meridian: Z
    g = glued_manifold_h1(f, canonical_slope(1, 0))
    assert g.invariant_factors == (0,)
    # filling along <5 mu + 2 lambda>: Z/2
    g = glued_manifold_h1(f, canonical_slope(5, 2))
    assert g.invariant_factors == (2,)
    assert g.order() == 2
    # general pattern: <a mu + b lambda> gives Z/b
    for a, b in [(1, 1), (3, 2), (7, 3), (-4, 5)]:
        g = glued_manifold_h1(f, canonical_slope(a, b))
        assert g.is_cyclic
        assert g.order() == b


def test_inner_framing_of_model_is_used_by_both_boundaries():
    # defaults are the standard framings; explicit ones are stored
    m = cable_space_homology(1, 2)
    assert m.f_outer == STANDARD_OUTER_FRAMING
    assert m.f_inner == STANDARD_INNER_FRAMING
