"""Acceptance suite: one printed pass/fail line per criterion.

Every check is exact rational arithmetic; there are no tolerances
anywhere.  Each test prints a single summary line to the real stdout so
the verdicts are visible even under pytest's capture.
"""

import random
import time
from fractions import Fraction
from math import gcd

from slopecert import (
    INF,
    NEG_INF,
    AffineSlopeMap,
    AtomKnot,
    Cabling,
    Framing,
    KnotDescription,
    PrimitiveClass,
    ambient_h1,
    cable_space_homology,
    canonical_slope,
    check_corollary_c,
    diameter,
    diameter_lower_bound,
    framing_change,
    numerical_slope,
    phi,
    recognize_gitk,
    slope_from_numerical,
    transfer_certificate,
    transfer_map,
    verify_certificate,
)

from oracles import (
    gluing_h1,
    grid_slopes,
    iota_inner,
    iota_outer,
    phi_by_search,
    presented_change_of_basis,
    presented_h1,
)


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print("ACCEPTANCE %d %s: %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def grid_pairs():
    return [
        (p, q)
        for q in range(2, 8)
        for p in range(-7, 8)
        if gcd(p, q) == 1
    ]


def random_framing(rng, meridian=None):
    if meridian is None:
        a = rng.choice((1, -1)) * rng.randrange(1, 6)
        b = rng.randrange(-5, 6)
        g = gcd(a, b)
        meridian = PrimitiveClass(a // g, b // g)
    # complete the meridian to a basis, then shear and maybe flip
    a, b = meridian.a, meridian.b
    x, y = _bezout(a, b)
    lam_a, lam_b = -y, x
    h = rng.randrange(-4, 5)
    lam_a, lam_b = lam_a + h * a, lam_b + h * b
    flip = rng.choice((1, -1))
    lam_a, lam_b = flip * lam_a, flip * lam_b
    sign = a * lam_b - b * lam_a
    return Framing(meridian, PrimitiveClass(lam_a, lam_b), sign)


def _bezout(a, b):
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def test_criterion_1_slope_bijection(capsys):
    start = time.perf_counter()
    rng = random.Random(1)
    rounds = 0
    for _ in range(1000):
        f = random_framing(rng)
        if rng.randrange(10) == 0:
            r = INF
        else:
            r = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 40))
        s = slope_from_numerical(f, r)
        assert numerical_slope(f, s) == r
        # covariance under a change of framing with the same meridian
        f2 = random_framing(rng, meridian=f.mu)
        change = framing_change(f, f2)
        assert numerical_slope(f2, s) == change.apply(r)
        rounds += 1
    elapsed = time.perf_counter() - start
    ok = rounds == 1000 and elapsed < 5.0
    report(
        capsys, 1, ok,
        "%d nu round-trips and covariance checks, exact, %.2fs" % (rounds, elapsed),
    )


def test_criterion_2_homology_oracle(capsys):
    start = time.perf_counter()
    checked = 0
    for p, q in grid_pairs():
        # The oracle: the presented group, diagonalized by Smith normal
        # form, with the boundary images in generator coordinates; the
        # model reads its closed-form coordinates instead.
        h1 = presented_h1(p, q)
        for orientation in (1, -1):
            m = cable_space_homology(p, q, orientation=orientation)
            # H1 is free of rank 2
            assert h1.invariant_factors == (0, 0)
            # the model's four basis images are the oracle's, up to GL2(Z)
            assert presented_change_of_basis(m) is not None
            # both boundary inclusions are rational isomorphisms
            for u, v in (
                (m.rational_outer(1, 0), m.rational_outer(0, 1)),
                (m.rational_inner(1, 0), m.rational_inner(0, 1)),
            ):
                assert u[0] * v[1] - u[1] * v[0] != 0
            # the three exact identities tying zeta, t, theta, eta together
            fo, fi = m.f_outer, m.f_inner
            mu_o = h1.rational_coords(iota_outer(fo.mu.a, fo.mu.b))
            lam_o = h1.rational_coords(iota_outer(fo.lambda_.a, fo.lambda_.b))
            mu_i = h1.rational_coords(iota_inner(p, q, orientation, fi.mu.a, fi.mu.b))
            lam_i = h1.rational_coords(
                iota_inner(p, q, orientation, fi.lambda_.a, fi.lambda_.b))
            assert mu_o == tuple(-m.zeta * q * c for c in mu_i)
            assert lam_i == tuple(
                m.t * a + m.zeta * m.theta * m.eta * q * b
                for a, b in zip(mu_o, lam_o)
            )
            total = tuple(
                x + y
                for x, y in zip(
                    iota_outer(*m.boundary_outer),
                    iota_inner(p, q, orientation, *m.boundary_inner),
                )
            )
            assert h1.is_zero(total)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 112 and elapsed < 30.0
    report(
        capsys, 2, ok,
        "%d cable models: H1 = Z^2, iota isomorphisms, identities exact, %.2fs"
        % (checked, elapsed),
    )


def test_criterion_3_transfer_law_equivalence(capsys):
    probes = [canonical_slope(1, 0)] + [
        canonical_slope(a, b)
        for b in (1, 2)
        for a in range(-3, 4)
        if gcd(a, b) == 1
    ]
    confirmed = 0
    abstained = 0
    for p, q in grid_pairs():
        m = cable_space_homology(p, q)
        smap = transfer_map(p, q, m.f_outer, m.f_inner)
        # the meridian maps to the inner meridian in every case
        assert phi_by_search(m, canonical_slope(1, 0), 20) == canonical_slope(1, 0)
        # the cabling curve maps to the inner longitude in every case
        assert phi_by_search(m, canonical_slope(p, q), 20) == canonical_slope(0, 1)
        for s in probes + [canonical_slope(p, q)]:
            image = phi(m, s)
            found = phi_by_search(m, s, 20)
            if found is None:
                # honesty check: the true image really is outside the box
                assert max(abs(image.rep.a), abs(image.rep.b)) > 20
                abstained += 1
                continue
            assert found == image
            r = numerical_slope(m.f_outer, s)
            r_image = numerical_slope(m.f_inner, image)
            assert r_image == smap.apply(r)
            confirmed += 1
    # non-vacuity: beyond the meridian and cabling curve asserted above,
    # the box must catch a solid share of the generic probes too
    ok = confirmed >= 3 * len(grid_pairs())
    report(
        capsys, 3, ok,
        "brute-force phi agrees with the affine law on %d slopes "
        "(%d abstentions verified out-of-box)" % (confirmed, abstained),
    )


def test_criterion_4_diameter_scaling(capsys):
    rng = random.Random(4)
    for _ in range(100):
        values = [
            Fraction(rng.randrange(-400, 401), rng.randrange(1, 30))
            for _ in range(rng.randrange(1, 12))
        ]
        q = rng.randrange(2, 10)
        smap = AffineSlopeMap(
            rng.choice((1, -1)), q, Fraction(rng.randrange(-50, 51), rng.randrange(1, 7))
        )
        image = [smap.apply(v) for v in values]
        assert diameter(image) == q ** 2 * diameter(values)
    report(capsys, 4, True, "100 random sets: diameter scales by exactly q^2")


def test_criterion_5_product_bound(capsys):
    base = AtomKnot(meridionally_small=True, ambient_pi1_cyclic=True)
    rng = random.Random(5)
    chains = 0
    for n in (1, 2, 3, 4):
        for _ in range(3 ** n if n < 4 else 40):
            qs = [rng.choice((2, 3, 5)) for _ in range(n)]
            cablings = tuple(
                (rng.choice([x for x in range(-6, 7) if gcd(x, q) == 1]), q)
                for q in qs
            )
            cert = diameter_lower_bound(
                KnotDescription(base=base, cablings=cablings)
            )
            expected = 2
            for q in qs:
                expected *= q * q
            assert cert.d_lower == expected
            assert cert.primary_route == "axiom-b"
            chains += 1
    # the single-cable dichotomy certifies d >= 2 q^2 in every case
    singles = 0
    for q in (2, 3, 5):
        for p in (x for x in range(-6, 7) if gcd(x, q) == 1):
            d = KnotDescription(base=base, cablings=((p, q),))
            assert check_corollary_c(d).ok
            singles += 1
    report(
        capsys, 5, True,
        "%d chains hit 2*prod(q_i^2) exactly; dichotomy holds for %d single cables"
        % (chains, singles),
    )


def test_criterion_6_gitk_and_ambient(capsys):
    rng = random.Random(6)
    for comp, factors in [
        (canonical_slope(0, 1), ()),
        (canonical_slope(1, 0), (0,)),
        (canonical_slope(5, 2), (2,)),
    ]:
        base = AtomKnot(is_round=True, complementary_meridian=comp)
        for _ in range(10):
            chain = tuple(
                (rng.choice([x for x in range(-5, 6) if gcd(x, q) == 1]), q)
                for q in rng.choices((2, 3, 4, 5), k=rng.randrange(0, 4))
            )
            d = KnotDescription(base=base, cablings=chain)
            assert recognize_gitk(d)
            assert ambient_h1(d) == factors
        # independent oracle: Smith form of the gluing matrix
        assert gluing_h1(comp.a, comp.b).invariant_factors == factors
    report(
        capsys, 6, True,
        "round bases recognized as GITK; ambient H1 trivial / Z / Z-2 (SNF oracle)",
    )


def test_criterion_7_orientation_robustness(capsys):
    values = [INF] + [
        Fraction(a, b) for a, b in grid_slopes(6) if b
    ]
    for p, q in grid_pairs():
        plus = cable_space_homology(p, q, orientation=1)
        minus = cable_space_homology(p, q, orientation=-1)
        assert minus.zeta == -plus.zeta
        # The law does not depend on the orientation: each model's constants
        # state it, and phi obeys it in both.
        smap = transfer_map(p, q, plus.f_outer, plus.f_inner)
        for model in (plus, minus):
            assert AffineSlopeMap(-model.eta * model.theta, q, -model.zeta * q * model.t) == smap
        for r in values:
            s = slope_from_numerical(plus.f_outer, r)
            image = phi(plus, s)
            assert image == phi(minus, s)
            assert numerical_slope(plus.f_inner, image) == smap.apply(r)
    # a flipped zeta smuggled into a certificate must be caught
    cert = transfer_certificate(cable_space_homology(2, 3))
    bad_model = cert.model.replace(zeta=-cert.model.zeta)
    bad = cert.replace(model=bad_model)
    assert not verify_certificate(bad).ok
    report(
        capsys, 7, True,
        "orientation flip negates zeta, transfer map unchanged; mutation caught",
    )


def test_criterion_8_degenerate_inputs(capsys):
    cert = diameter_lower_bound(
        KnotDescription(base=AtomKnot(meridionally_small=True))
    )
    assert cert.d_lower is NEG_INF

    round_with_slopes = None
    try:
        AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(1)}),
            is_round=True,
            complementary_meridian=canonical_slope(0, 1),
        )
    except ValueError as e:
        round_with_slopes = str(e)
    assert round_with_slopes is not None

    q_one = None
    try:
        Cabling(3, 1)
    except ValueError as e:
        q_one = str(e)
    assert q_one is not None and "at least 2" in q_one

    report(
        capsys, 8, True,
        "empty set gives -inf; round base with slopes and q = 1 both rejected",
    )
