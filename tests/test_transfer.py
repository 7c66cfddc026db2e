"""Tests for the slope bijection between the two boundary tori.

phi is the homology-induced correspondence; the affine law nu' =
epsilon*q^2*nu + u is its shadow on numerical slopes.  The two are
compared against each other throughout: phi is computed by an exact
2x2 solve, and phi_by_search re-derives it by brute-force enumeration.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from slopecert import (
    INF,
    AffineSlopeMap,
    FramingChange,
    Framing,
    IntMatrix,
    PrimitiveClass,
    cable_space_homology,
    canonical_slope,
    conjugate,
    framing_change,
    group_from_presentation,
    numerical_slope,
    phi,
    transfer_certificate,
    transfer_map,
    verify_certificate,
)
from slopecert.transfer import grid_slopes

from oracles import phi_by_search

GRID = [(p, q) for q in range(2, 8) for p in range(-7, 8) if gcd(p, q) == 1]


# --- the affine map by itself ----------------------------------------------


def test_affine_map_validation():
    with pytest.raises(ValueError, match="epsilon"):
        AffineSlopeMap(0, 2, Fraction(1))
    with pytest.raises(ValueError, match="q must be"):
        AffineSlopeMap(1, 1, Fraction(1))


def test_affine_map_apply_unapply():
    rng = random.Random(61)
    for _ in range(100):
        smap = AffineSlopeMap(
            rng.choice((1, -1)),
            rng.randrange(2, 9),
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)),
        )
        r = Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
        assert smap.unapply(smap.apply(r)) == r
        assert smap.apply(smap.unapply(r)) == r
    assert smap.apply(INF) is INF
    assert smap.unapply(INF) is INF


def test_affine_map_composition():
    outer = AffineSlopeMap(1, 2, Fraction(2))
    inner = AffineSlopeMap(-1, 3, Fraction(1, 2))
    composed = outer.compose(inner)
    assert composed.q == 6
    assert composed.epsilon == -1
    rng = random.Random(67)
    for _ in range(50):
        r = Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
        assert composed.apply(r) == outer.apply(inner.apply(r))


def test_conjugation_matches_composition_of_changes():
    smap = AffineSlopeMap(1, 2, Fraction(2))
    oc = FramingChange(-1, 3)
    ic = FramingChange(1, -5)
    conj = conjugate(smap, oc, ic)
    rng = random.Random(71)
    for _ in range(50):
        r = Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
        assert conj.apply(oc.apply(r)) == ic.apply(smap.apply(r))


# --- phi --------------------------------------------------------------------


def test_phi_fixes_the_meridian():
    for p, q in GRID:
        model = cable_space_homology(p, q)
        assert phi(model, canonical_slope(1, 0)) == canonical_slope(1, 0)


def test_phi_sends_cabling_curve_to_inner_longitude():
    # the cabling curve <p mu + q lambda> has value -p/q, which the
    # standard map sends to q^2*(-p/q) + pq = 0: the inner longitude
    for p, q in GRID:
        model = cable_space_homology(p, q)
        image = phi(model, canonical_slope(p, q))
        assert image == canonical_slope(0, 1)


def test_phi_matches_affine_law_on_grid():
    for p, q in GRID:
        model = cable_space_homology(p, q)
        smap = transfer_map(model)
        for a, b in grid_slopes(12):
            s = canonical_slope(a, b)
            expected = smap.apply(numerical_slope(model.f_outer, s))
            got = numerical_slope(model.f_inner, phi(model, s))
            assert got == expected, (p, q, a, b)


def test_phi_is_a_bijection_on_samples():
    rng = random.Random(73)
    for _ in range(20):
        p, q = GRID[rng.randrange(len(GRID))]
        model = cable_space_homology(p, q)
        seen = {}
        for a, b in grid_slopes(8):
            image = phi(model, canonical_slope(a, b))
            key = (image.a, image.b)
            assert key not in seen, "phi collided"
            seen[key] = (a, b)


def test_phi_by_search_agrees_or_abstains():
    for p, q in [(1, 2), (2, 3), (-3, 4), (5, 7)]:
        model = cable_space_homology(p, q)
        for a, b in grid_slopes(6):
            s = canonical_slope(a, b)
            exact = phi(model, s)
            searched = phi_by_search(model, s, bound=20)
            if searched is None:
                # the true image must genuinely lie outside the box
                assert max(abs(exact.a), abs(exact.b)) > 20
            else:
                assert searched == exact


def test_phi_by_search_out_of_box_case():
    model = cable_space_homology(2, 3)
    s = canonical_slope(7, 20)  # value -7/20 -> 57/20: image (-57, 20)
    exact = phi(model, s)
    assert max(abs(exact.a), abs(exact.b)) > 20
    assert phi_by_search(model, s, bound=20) is None
    assert phi_by_search(model, s, bound=60) == exact


# --- transfer_map ------------------------------------------------------------


def test_transfer_map_standard_constants():
    # standard framings: epsilon = +1 and u = pq, in both orientations
    for p, q in GRID:
        for orientation in (1, -1):
            model = cable_space_homology(p, q, orientation=orientation)
            smap = transfer_map(model)
            assert smap.epsilon == 1
            assert smap.q == q
            assert smap.u == p * q


def test_transfer_map_rejects_foreign_framings():
    model = cable_space_homology(1, 2)
    other = Framing(PrimitiveClass(1, 0), PrimitiveClass(1, 1), -1)
    with pytest.raises(ValueError, match="framing mismatch"):
        transfer_map(model, f_outer=other)


def test_inner_shear_shifts_u():
    # replacing lambda' by lambda' + h*mu' adds h to u
    base = transfer_map(cable_space_homology(1, 2))
    for h in (-3, -1, 1, 4):
        f_inner = Framing(PrimitiveClass(1, 0), PrimitiveClass(h, 1), +1)
        shifted = transfer_map(cable_space_homology(1, 2, f_inner=f_inner))
        assert shifted.epsilon == base.epsilon
        assert shifted.u == base.u + h


def test_outer_shear_conjugates_u():
    # replacing lambda by lambda + h*mu rewrites outer values by s -> s + h,
    # so the new map is the old one conjugated by that change
    base_model = cable_space_homology(2, 3)
    base = transfer_map(base_model)
    for h in (-2, 1, 3):
        f_outer = Framing(PrimitiveClass(1, 0), PrimitiveClass(h, 1), -1)
        model = cable_space_homology(2, 3, f_outer=f_outer)
        got = transfer_map(model)
        change = framing_change(base_model.f_outer, f_outer)
        assert change == FramingChange(1, h)
        expected = conjugate(base, change, FramingChange(1, 0))
        assert got == expected


def test_transfer_framing_covariance_random():
    # full covariance: for random meridian-preserving framings on both
    # sides, the computed map equals the standard map conjugated by the
    # corresponding framing changes
    rng = random.Random(79)
    for _ in range(40):
        p, q = GRID[rng.randrange(len(GRID))]
        std_model = cable_space_homology(p, q)
        e_out, c_out, w_out = rng.choice((1, -1)), rng.randrange(-4, 5), rng.choice((1, -1))
        e_in, c_in, w_in = rng.choice((1, -1)), rng.randrange(-4, 5), rng.choice((1, -1))
        f_outer = Framing(
            PrimitiveClass(e_out, 0), PrimitiveClass(c_out, w_out), -e_out * w_out
        )
        f_inner = Framing(
            PrimitiveClass(e_in, 0), PrimitiveClass(c_in, w_in), e_in * w_in
        )
        model = cable_space_homology(p, q, f_outer=f_outer, f_inner=f_inner)
        got = transfer_map(model)
        expected = conjugate(
            transfer_map(std_model),
            framing_change(std_model.f_outer, f_outer),
            framing_change(std_model.f_inner, f_inner),
        )
        assert got == expected, (p, q, f_outer, f_inner)


def test_orientation_flip_is_invisible_to_slopes():
    for p, q in GRID:
        plus = cable_space_homology(p, q, orientation=1)
        minus = cable_space_homology(p, q, orientation=-1)
        assert plus.zeta == -minus.zeta
        assert transfer_map(plus) == transfer_map(minus)
        for a, b in grid_slopes(6):
            s = canonical_slope(a, b)
            assert phi(plus, s) == phi(minus, s)


def test_composition_scales_by_product_of_squares():
    m1 = transfer_map(cable_space_homology(1, 2))
    m2 = transfer_map(cable_space_homology(2, 3))
    composed = m2.compose(m1)
    assert composed.q ** 2 == 36
    assert composed.apply(Fraction(1)) == 9 * (4 * 1 + 2) + 6


# --- certificates -------------------------------------------------------------


def test_certificate_verifies_on_grid():
    for p, q in GRID[::3]:
        cert = transfer_certificate(cable_space_homology(p, q))
        report = verify_certificate(cert)
        assert report.ok, [c.name for c in report.failed()]


def test_certificate_includes_cabling_curve_witness():
    cert = transfer_certificate(cable_space_homology(2, 3))
    sources = [rec["source"] for rec in cert.witnesses["slopes"]]
    assert (2, 3) in sources


def test_certificate_extra_slopes_deduplicated():
    model = cable_space_homology(2, 3)
    cert = transfer_certificate(
        model, extra_slopes=(canonical_slope(1, 0), canonical_slope(4, 5))
    )
    sources = [rec["source"] for rec in cert.witnesses["slopes"]]
    assert sources.count((1, 0)) == 1
    assert (4, 5) in sources
    assert verify_certificate(cert).ok


def _break(cert, **replacements):
    return cert.replace(**replacements)


def test_certificate_mutations_are_caught():
    cert = transfer_certificate(cable_space_homology(2, 3))

    wrong_map = _break(cert, map=AffineSlopeMap(cert.map.epsilon, cert.map.q, cert.map.u + 1))
    report = verify_certificate(wrong_map)
    assert not report.ok
    assert {c.name for c in report.failed()} >= {"map-consistency", "witness-slopes"}

    bad_model = cert.model.replace(zeta=-cert.model.zeta)
    report = verify_certificate(_break(cert, model=bad_model))
    assert not report.ok
    assert any(
        c.name in ("eq-boundary", "eq-meridian", "framing-signs") for c in report.failed()
    )

    bad_model2 = cert.model.replace(relation=IntMatrix.from_rows([[3, -2, -2]]))
    report = verify_certificate(_break(cert, model=bad_model2))
    assert not report.ok
    assert any(c.name == "presentation" for c in report.failed())


def test_certificate_with_wrong_rank_model_bails_cleanly():
    cert = transfer_certificate(cable_space_homology(2, 3))
    # torsion presentation: Z/2 + Z + Z instead of Z^2
    wrong = group_from_presentation(IntMatrix.from_rows([[2, 0, 0]]))
    bad_model = cert.model.replace(h1=wrong)
    report = verify_certificate(_break(cert, model=bad_model))
    assert not report.ok
    names = [c.name for c in report.checks]
    assert "h1-rank" in names
    failed = {c.name for c in report.failed()}
    assert "h1-rank" in failed


def test_witness_values_cover_the_meridian():
    cert = transfer_certificate(cable_space_homology(1, 2))
    values = [rec["value_outer"] for rec in cert.witnesses["slopes"]]
    assert any(v is INF for v in values)
