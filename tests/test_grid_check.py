"""The grid check against the plain scans it replaced, kept as oracles.

law.grid_check proves phi = the affine law on every slope from the
two integer matrices P = phi_matrix and A = law_matrix: the cross product
of P (a, b) and A (a, b) is a binary quadratic form in (a, b), and every
slope passes exactly when that form is zero and P is invertible.  A
nonzero form is named at one of the slopes (1, 0), (0, 1) and (1, 1).
Two scans over the slopes of oracles.grid_slopes are the references:

- scan_passes, one integer cross product per slope, on random integer
  P and A: the check passes exactly when the scan passes at every bound
  of BOUNDS, and a failing check names a slope the scan rejects;
- law_breach, the per-slope check on a model: it calls phi, builds both
  numerical slopes and compares Fractions, on passing models with random
  framings and on tampered maps and models.

A singular P fails as such, whatever the form.
"""

import random
import re
from fractions import Fraction
from math import gcd

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
from slopecert import law
from slopecert.report import Check
from slopecert.slopes import value_text
from slopecert.law import grid_check

from oracles import grid_slopes

BOUNDS = (1, 2, 3, 4, 5, 20)
SINGULAR = Check("grid-consistency", False, "phi's matrix P is singular: det P = 0")


def named_slope(check):
    """The (a, b) a failing check's detail names."""
    a, b = re.fullmatch(r"slope \((-?\d+), (-?\d+)\): .*", check.detail).groups()
    return int(a), int(b)


def slope_passes(p, a, slope):
    """The scan's predicate: P (a, b) is nonzero and parallel to A (a, b)."""
    (p11, p12), (p21, p22) = p
    (a11, a12), (a21, a22) = a
    s, t = slope
    x, y = p11 * s + p12 * t, p21 * s + p22 * t
    return bool(x or y) and x * (a21 * s + a22 * t) == y * (a11 * s + a12 * t)


def scan_passes(p, a, bound):
    return all(slope_passes(p, a, slope) for slope in grid_slopes(bound))


def law_breach(model, smap, a, b):
    """The detail of slope (a, b) if phi breaks the affine law there, else ""."""
    s = canonical_slope(a, b)
    expected = smap.apply(numerical_slope(model.f_outer, s))
    got = numerical_slope(model.f_inner, phi(model, s))
    if expected == got:
        return ""
    return "slope (%d, %d): affine law gives %s, phi gives %s" % (
        a, b, value_text(expected), value_text(got))


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


def assert_agrees(model, smap):
    """grid_check against the reference law_breach: a pass breaks the law on no slope of
    any bound; a failure names a slope that breaks it, with its values."""
    check = grid_check(model, smap)
    if check.ok:
        assert check.detail == "phi matches the affine law on every slope"
        assert not any(law_breach(model, smap, *s) for s in grid_slopes(max(BOUNDS)))
    else:
        assert check.detail == law_breach(model, smap, *named_slope(check))
    return check


def test_grid_check_matches_reference_on_random_framings():
    rng = random.Random(2024)
    orientations = set()
    for _ in range(40):
        model = random_model(rng)
        orientations.add(model.orientation)
        assert assert_agrees(model, transfer_certificate(model).map).ok
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
            assert not assert_agrees(model, bad).ok


def test_grid_check_matches_reference_on_tampered_models():
    rng = random.Random(2026)
    for _ in range(25):
        model = random_model(rng)
        smap = transfer_certificate(model).map
        # p moved by q: another cable space, whose u = p*q the map does
        # not state
        assert not assert_agrees(model.replace(p=model.p + model.q), smap).ok
        # an inner framing the map was not built for
        shear = model.f_inner.lambda_.a + rng.choice((-2, -1, 1, 2))
        f_inner = model.f_inner.replace(
            lambda_=PrimitiveClass(shear, model.f_inner.lambda_.b)
        )
        assert not assert_agrees(model.replace(f_inner=f_inner), smap).ok


def test_grid_check_matches_reference_on_tampered_inner_images():
    model = cable_space_homology(3, 5)
    smap = transfer_certificate(model).map
    o1, o2, i1, i2 = model.basis_images
    bad = model.replace()
    bad.__dict__["basis_images"] = (o1, o2, i1, tuple(x + 1 for x in i2))
    assert not assert_agrees(bad, smap).ok
    # zeroed inner images: P = 0, and phi has no image of any slope
    zero = model.replace()
    zero.__dict__["basis_images"] = (o1, o2, (0, 0), (0, 0))
    assert grid_check(zero, smap) == SINGULAR


def scaled(k, m):
    return tuple(tuple(k * x for x in row) for row in m)


def random_pairs(rng):
    """(P, A) pairs of integer 2x2 matrices with det P != 0, zero and
    nonzero forms among them."""
    def entry():
        return rng.randrange(-4, 5)

    def matrix():
        return ((entry(), entry()), (entry(), entry()))

    pairs = []
    while len(pairs) < 120:
        p = matrix()
        if p[0][0] * p[1][1] == p[0][1] * p[1][0]:
            continue
        kind = len(pairs) % 3
        if kind == 0:
            # A parallel to P everywhere makes the form zero.
            a = scaled(entry(), p)
        elif kind == 1:
            # P's columns scaled apart: parallel at (1, 0) and (0, 1) only.
            k1, k2 = entry(), entry()
            a = ((k1 * p[0][0], k2 * p[0][1]), (k1 * p[1][0], k2 * p[1][1]))
        else:
            a = matrix()
        pairs.append((p, a))
    return pairs


def with_matrices(monkeypatch, p, a):
    monkeypatch.setattr(law, "phi_matrix", lambda m: p)
    monkeypatch.setattr(law, "law_matrix", lambda s, fo, fi: a)


def test_closed_form_matches_the_scan_on_random_integer_matrices(monkeypatch):
    model = cable_space_homology(2, 3)
    smap = transfer_certificate(model).map
    rng = random.Random(2027)
    named = []
    for p, a in random_pairs(rng):
        with_matrices(monkeypatch, p, a)
        check = grid_check(model, smap)
        assert check.ok == all(scan_passes(p, a, bound) for bound in BOUNDS), (p, a)
        if not check.ok:
            slope = named_slope(check)
            assert not slope_passes(p, a, slope), (p, a)
            # the first of the three fixed slopes the scan rejects
            probes = [(1, 0), (0, 1), (1, 1)]
            assert slope == next(s for s in probes if not slope_passes(p, a, s)), (p, a)
        named.append(check.ok or named_slope(check))
    assert set(named) == {True, (1, 0), (0, 1), (1, 1)}


def test_a_singular_phi_matrix_fails_as_such(monkeypatch):
    model = cable_space_homology(2, 3)
    smap = transfer_certificate(model).map
    law_a = law.law_matrix(smap, model.f_outer, model.f_inner)
    rng = random.Random(2028)
    for _ in range(40):
        # P = u v^T, zero at the slope (v2, -v1); the form may be zero
        # (A a multiple of P) or not.
        u = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        v = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, -3), (4, 5), (7, 3), (-2, 25)))
        p = ((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1]))
        a = scaled(rng.randrange(-4, 5), p) if rng.random() < 0.5 else law_a
        with_matrices(monkeypatch, p, a)
        assert grid_check(model, smap) == SINGULAR
