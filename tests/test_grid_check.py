"""The grid check against the plain scans it is decided by.

transfer.grid_check decides a pass from the two integer matrices
P = phi_matrix and A = law_matrix: the cross product of P (a, b) and
A (a, b) is a binary quadratic form in (a, b), and when it is zero and P
is invertible every slope passes.  Otherwise it scans the grid to name
the first slope that fails.  Two scans are kept here as references:

- loop_grid_check, the scan alone (one integer cross product per slope),
  compared with grid_check on random integer P and A, singular and zero
  P among them, at every bound from 1 to 5 and at 20;
- reference_grid_check, the per-slope check the integer scan replaced: it
  calls phi on every slope, builds both numerical slopes and compares
  Fractions, on passing models with random framings and on tampered maps
  and models.

Each must return the same Check (name, ok and detail) as grid_check.
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
from slopecert import transfer
from slopecert.report import Check
from slopecert.slopes import value_text
from slopecert.transfer import grid_check, grid_slopes


def loop_grid_check(model, smap, bound):
    """grid_check without its closed form: the scan over every slope."""
    (p11, p12), (p21, p22) = transfer.phi_matrix(model)
    (a11, a12), (a21, a22) = transfer.law_matrix(smap, model.f_outer, model.f_inner)
    for a, b in grid_slopes(bound):
        x, y = p11 * a + p12 * b, p21 * a + p22 * b
        if not (x or y):
            return Check(
                "grid-consistency", False, "slope (%d, %d): phi sends it to zero" % (a, b)
            )
        if x * (a21 * a + a22 * b) == y * (a11 * a + a12 * b):
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
    # degenerate inner images: phi has no image of the first grid slope;
    # grid_check names it, the reference raises from phi
    zero = model.replace()
    zero.__dict__["basis_images"] = (o1, o2, (0, 0), (0, 0))
    a, b = next(iter(grid_slopes(20)))
    assert grid_check(zero, smap, 20) == Check(
        "grid-consistency", False, "slope (%d, %d): phi sends it to zero" % (a, b)
    )
    with pytest.raises(ValueError, match="inconsistent cable space model"):
        reference_grid_check(zero, smap, 20)


BOUNDS = (1, 2, 3, 4, 5, 20)


def scaled(k, m):
    return tuple(tuple(k * x for x in row) for row in m)


def random_pairs(rng):
    """(P, A, kind) pairs of integer 2x2 matrices, every kind of form."""
    def entry():
        return rng.randrange(-4, 5)

    def matrix():
        return ((entry(), entry()), (entry(), entry()))

    for _ in range(60):
        yield matrix(), matrix(), "random"
    for _ in range(30):
        # A parallel to P everywhere: the form is zero.
        b = matrix()
        yield scaled(rng.choice((1, -1, 2, 3)), b), scaled(entry(), b), "zero form"
    for _ in range(30):
        # Singular P = u v^T, zero at the slope (v2, -v1); with A a multiple
        # of P the form is zero, and the scan runs up to that slope.
        u = (rng.randrange(1, 4) * rng.choice((1, -1)), entry())
        v = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, -3), (4, 5), (7, 3), (-2, 25)))
        p = ((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1]))
        a = scaled(entry(), p) if rng.random() < 0.7 else matrix()
        yield p, a, "singular"
    for _ in range(10):
        yield ((0, 0), (0, 0)), matrix(), "zero"


def test_closed_form_matches_the_scan_on_random_integer_matrices(monkeypatch):
    model = cable_space_homology(2, 3)
    smap = transfer_certificate(model).map
    rng = random.Random(2027)
    outcomes = set()
    for p, a, kind in random_pairs(rng):
        monkeypatch.setattr(transfer, "phi_matrix", lambda m, p=p: p)
        monkeypatch.setattr(transfer, "law_matrix", lambda s, fo, fi, a=a: a)
        for bound in BOUNDS:
            got = grid_check(model, smap, bound)
            assert got == loop_grid_check(model, smap, bound), (p, a, bound)
            outcomes.add((kind, got.ok, "zero" in got.detail))
    # Passes and failures of each kind, a singular P whose kernel slope
    # lies outside a small grid passing, and P = 0 failing at once.
    assert {
        ("random", False, False), ("zero form", True, False),
        ("singular", True, False), ("singular", False, True),
        ("singular", False, False), ("zero", False, True),
    } <= outcomes
