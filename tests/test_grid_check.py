"""The integer grid check against the per-slope check it replaced.

transfer.grid_check decides each sampled slope with one integer cross
product of two class images.  reference_grid_check below is the former
implementation, kept as the reference: it calls phi on every slope,
builds both numerical slopes and compares Fractions.  The two must
return the same Check (name, ok and detail) on passing models with
random framings and on tampered maps and models.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from slopecert import (
    AffineSlopeMap,
    Framing,
    PrimitiveClass,
    cable_space_homology,
    canonical_slope,
    numerical_slope,
    phi,
    transfer_certificate,
)
from slopecert.report import Check
from slopecert.slopes import value_text
from slopecert.transfer import grid_check, grid_slopes


def reference_grid_check(model, smap, bound):
    for a, b in grid_slopes(bound):
        s = canonical_slope(a, b)
        expected = smap.apply(numerical_slope(model.f_outer, s))
        got = numerical_slope(model.f_inner, phi(model, s))
        if expected != got:
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


def random_model(rng, qmax=40):
    q = rng.randrange(2, qmax + 1)
    p = rng.choice([p for p in range(-3 * q, 3 * q + 1) if gcd(p, q) == 1])
    e_out, c_out, w_out = rng.choice((1, -1)), rng.randrange(-6, 7), rng.choice((1, -1))
    e_in, c_in, w_in = rng.choice((1, -1)), rng.randrange(-6, 7), rng.choice((1, -1))
    f_outer = Framing(PrimitiveClass(e_out, 0), PrimitiveClass(c_out, w_out), -e_out * w_out)
    f_inner = Framing(PrimitiveClass(e_in, 0), PrimitiveClass(c_in, w_in), e_in * w_in)
    return cable_space_homology(
        p, q, f_outer=f_outer, f_inner=f_inner, orientation=rng.choice((1, -1))
    )


def assert_same(model, smap, bound):
    got = grid_check(model, smap, bound)
    assert got == reference_grid_check(model, smap, bound), (model.p, model.q, smap)
    return got


def test_grid_check_matches_reference_on_random_framings():
    rng = random.Random(2024)
    orientations = set()
    for _ in range(40):
        model = random_model(rng)
        orientations.add(model.orientation)
        check = assert_same(model, transfer_certificate(model).map, rng.choice((3, 8, 20)))
        assert check.ok
    assert orientations == {1, -1}


def test_grid_check_matches_reference_on_tampered_maps():
    rng = random.Random(2025)
    for _ in range(25):
        model = random_model(rng)
        smap = transfer_certificate(model).map
        for bad in (
            AffineSlopeMap(smap.epsilon, smap.q, smap.u + Fraction(1, rng.randrange(1, 5))),
            AffineSlopeMap(-smap.epsilon, smap.q, smap.u),
            AffineSlopeMap(smap.epsilon, smap.q + 1, smap.u),
        ):
            assert not assert_same(model, bad, 20).ok


def test_grid_check_matches_reference_on_tampered_models():
    rng = random.Random(2026)
    for _ in range(25):
        model = random_model(rng)
        smap = transfer_certificate(model).map
        # p moved by q: the inner images (from p) no longer match the
        # stored presentation of H1 (from the old p); the outer ones do.
        assert not assert_same(model.replace(p=model.p + model.q), smap, 20).ok
        # another cable space's H1 moves every image
        other = cable_space_homology(model.p + 2 * model.q, model.q)
        assert_same(model.replace(h1=other.h1), smap, 20)
        # an inner framing the map was not built for
        shear = model.f_inner.lambda_.a + rng.choice((-2, -1, 1, 2))
        f_inner = model.f_inner.replace(
            lambda_=PrimitiveClass(shear, model.f_inner.lambda_.b)
        )
        assert not assert_same(model.replace(f_inner=f_inner), smap, 20).ok


def test_grid_check_matches_reference_on_tampered_inner_images():
    model = cable_space_homology(3, 5)
    smap = transfer_certificate(model).map
    o1, o2, i1, i2 = model.basis_images
    bad = model.replace()
    bad.__dict__["basis_images"] = (o1, o2, i1, tuple(x + 1 for x in i2))
    assert not assert_same(bad, smap, 20).ok
    # degenerate inner images: phi has no image, and both checks say so
    zero = model.replace()
    zero.__dict__["basis_images"] = (o1, o2, (0, 0), (0, 0))
    for check in (grid_check, reference_grid_check):
        with pytest.raises(ValueError, match="inconsistent cable space model"):
            check(zero, smap, 20)
