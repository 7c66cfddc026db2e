"""Tests for the cabling pipeline: propagation, routes, certificates."""

import random
from fractions import Fraction
from math import gcd

import pytest

from slopecert import (
    INF,
    NEG_INF,
    AtomKnot,
    Cabling,
    Framing,
    InvariantError,
    KnotDescription,
    PrimitiveClass,
    ambient_h1,
    canonical_slope,
    check_corollary_c,
    diameter,
    diameter_lower_bound,
    pipeline,
    propagate,
    recognize_gitk,
)
from slopecert.rational import Rational


def small_base(values=(), **flags):
    return AtomKnot(
        strict_numerical_slopes=frozenset(values),
        meridionally_small=True,
        **flags,
    )


# --- diameter ----------------------------------------------------------------


def test_diameter_basics():
    assert diameter([Fraction(0), Fraction(6)]) == 6
    assert diameter([Fraction(-1, 2), Fraction(1, 3)]) == Fraction(5, 6)
    assert diameter([Fraction(7)]) == 0
    assert diameter([]) is NEG_INF


def test_diameter_rejects_meridian():
    with pytest.raises(ValueError, match="meridian"):
        diameter([Fraction(1), INF])


# --- atoms and descriptions ----------------------------------------------------


def test_atom_flag_consistency():
    with pytest.raises(ValueError, match="meridionally small"):
        AtomKnot(strict_numerical_slopes=frozenset({INF}), meridionally_small=True)
    with pytest.raises(ValueError, match="round knot has no strict"):
        AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(1)}),
            is_round=True,
            complementary_meridian=canonical_slope(1, 0),
        )
    with pytest.raises(ValueError, match="requires its complementary meridian"):
        AtomKnot(is_round=True)
    with pytest.raises(ValueError, match="gluing data of a round base"):
        AtomKnot(complementary_meridian=canonical_slope(1, 0))


def test_atom_normalizes_values():
    a = AtomKnot(strict_numerical_slopes=[0, Fraction(2, 2), Fraction(1)])
    assert a.strict_numerical_slopes == frozenset({Fraction(0), Fraction(1)})


def test_non_small_atom_may_declare_meridian():
    a = AtomKnot(strict_numerical_slopes=frozenset({INF, Fraction(3)}))
    assert INF in a.strict_numerical_slopes


def test_cabling_validation():
    with pytest.raises(ValueError, match="at least 2"):
        Cabling(1, 1)
    with pytest.raises(ValueError, match="not simple"):
        Cabling(2, 4)
    d = KnotDescription(base=small_base(), cablings=((1, 2), (2, 3)))
    assert all(isinstance(c, Cabling) for c in d.cablings)


# --- propagation ----------------------------------------------------------------


def test_propagate_direct_image():
    # a map with epsilon = 1, q = 2, u = 0: shear the inner longitude so
    # the standard u = pq is cancelled
    f_inner = Framing(PrimitiveClass(1, 0), PrimitiveClass(-2, 1), +1)
    d = KnotDescription(
        base=small_base({Fraction(-1), Fraction(1)}),
        cablings=(Cabling(1, 2, f_inner=f_inner),),
    )
    levels = propagate(d)
    assert levels[1] == (Fraction(-4), Fraction(4))


def test_propagate_empty_base():
    d = KnotDescription(base=small_base(), cablings=((1, 2), (1, 3)))
    assert propagate(d) == [(), (), ()]


def test_propagate_spec_chain():
    d = KnotDescription(
        base=small_base({Fraction(0), Fraction(6)}), cablings=((1, 2),)
    )
    levels = propagate(d)
    assert levels[0] == (Fraction(0), Fraction(6))
    assert diameter(levels[1]) == 24


def test_propagate_requires_small_base():
    d = KnotDescription(base=AtomKnot(), cablings=((1, 2),))
    with pytest.raises(ValueError, match="meridionally small"):
        propagate(d)


def test_propagation_scaling_and_meridian_exclusion():
    rng = random.Random(83)
    for _ in range(30):
        values = frozenset(
            Fraction(rng.randrange(-60, 61), rng.randrange(1, 9))
            for _ in range(rng.randrange(0, 6))
        )
        chain = []
        for _ in range(rng.randrange(1, 4)):
            q = rng.randrange(2, 6)
            p = rng.choice([x for x in range(-6, 7) if gcd(x, q) == 1])
            chain.append((p, q))
        d = KnotDescription(base=small_base(values), cablings=tuple(chain))
        levels = propagate(d)
        for i, cabling in enumerate(d.cablings):
            assert len(levels[i + 1]) == len(levels[i])
            assert not any(v is INF for v in levels[i + 1])
            if levels[i]:
                assert diameter(levels[i + 1]) == cabling.q ** 2 * diameter(levels[i])


# --- recognition and ambient homology -------------------------------------------


def test_recognize_gitk():
    round_base = AtomKnot(is_round=True, complementary_meridian=canonical_slope(0, 1))
    assert recognize_gitk(KnotDescription(base=round_base))
    assert recognize_gitk(KnotDescription(base=round_base, cablings=((2, 3), (3, 5))))
    assert not recognize_gitk(KnotDescription(base=small_base()))


def test_ambient_h1_round_fillings():
    for comp, factors in [
        (canonical_slope(0, 1), ()),
        (canonical_slope(1, 0), (0,)),
        (canonical_slope(5, 2), (2,)),
    ]:
        d = KnotDescription(
            base=AtomKnot(is_round=True, complementary_meridian=comp)
        )
        assert ambient_h1(d).invariant_factors == factors


def test_ambient_h1_unknown_for_non_round():
    assert ambient_h1(KnotDescription(base=small_base())) is None


# --- diameter_lower_bound routes -------------------------------------------------


def test_gitk_route():
    d = KnotDescription(
        base=AtomKnot(is_round=True, complementary_meridian=canonical_slope(0, 1)),
        cablings=((2, 3),),
    )
    cert = diameter_lower_bound(d)
    assert cert.gitk
    assert cert.primary_route == "gitk"
    assert cert.d_lower is None
    assert cert.routes == {}
    assert ("B-ii", None) in cert.tags
    assert cert.ambient.order() == 1


def test_axiom_route_product_bound():
    d = KnotDescription(
        base=small_base(ambient_pi1_cyclic=True),
        cablings=((1, 2), (1, 3)),
    )
    cert = diameter_lower_bound(d)
    assert cert.primary_route == "axiom-b"
    assert cert.d_lower == 72
    assert cert.routes == {"axiom-b": Fraction(72)}
    assert ("B-axiom", Fraction(2)) in cert.tags
    assert ("A", Fraction(4)) in cert.tags and ("A", Fraction(9)) in cert.tags


def test_declared_set_route():
    d = KnotDescription(
        base=small_base({Fraction(0), Fraction(2)}), cablings=((1, 2),)
    )
    cert = diameter_lower_bound(d)
    assert cert.routes == {"declared-set": Fraction(8)}
    assert cert.primary_route == "declared-set"
    assert cert.d_lower == 8
    assert cert.levels[0].slopes == (Fraction(2), Fraction(10))


def test_route_maximum_and_tie_break():
    # declared diameter 6 beats the axiom's 2
    d = KnotDescription(
        base=small_base({Fraction(0), Fraction(6)}, ambient_pi1_cyclic=True),
        cablings=((1, 2),),
    )
    cert = diameter_lower_bound(d)
    assert cert.routes == {"axiom-b": Fraction(8), "declared-set": Fraction(24)}
    assert cert.primary_route == "declared-set"
    assert cert.d_lower == 24

    # equal routes resolve to the axiom
    d = KnotDescription(
        base=small_base({Fraction(0), Fraction(2)}, ambient_pi1_cyclic=True),
        cablings=((1, 2),),
    )
    cert = diameter_lower_bound(d)
    assert cert.routes["axiom-b"] == cert.routes["declared-set"] == 8
    assert cert.primary_route == "axiom-b"
    assert cert.d_lower == 8


def test_no_route_reasons():
    cert = diameter_lower_bound(KnotDescription(base=AtomKnot()))
    assert cert.d_lower is NEG_INF
    assert cert.primary_route == "none"
    assert "not declared meridionally small" in cert.reason

    cert = diameter_lower_bound(KnotDescription(base=small_base()))
    assert cert.d_lower is NEG_INF
    assert "strict slope set is empty" in cert.reason

    # flags present but the base is itself a cable: the axiom does not apply
    cert = diameter_lower_bound(
        KnotDescription(base=small_base(is_cable=True, ambient_pi1_cyclic=True))
    )
    assert cert.d_lower is NEG_INF


def test_exactly_one_primary_route():
    rng = random.Random(89)
    for _ in range(60):
        is_round = rng.randrange(4) == 0
        base = AtomKnot(
            strict_numerical_slopes=frozenset(
                Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(0, 4))
            )
            if not is_round
            else frozenset(),
            meridionally_small=bool(rng.randrange(2)) or is_round,
            is_round=is_round,
            is_cable=not is_round and rng.randrange(2) == 0,
            ambient_pi1_cyclic=bool(rng.randrange(2)),
            complementary_meridian=canonical_slope(1, 0) if is_round else None,
        )
        chain = tuple(
            (rng.choice([x for x in range(-5, 6) if gcd(x, q) == 1]), q)
            for q in rng.choices((2, 3, 5), k=rng.randrange(0, 3))
        )
        cert = diameter_lower_bound(KnotDescription(base=base, cablings=chain))
        kinds = [
            cert.primary_route == "gitk" and cert.d_lower is None,
            cert.primary_route in ("axiom-b", "declared-set")
            and type(cert.d_lower) is Rational
            and cert.d_lower == Fraction(str(cert.d_lower)),
            cert.primary_route == "none"
            and cert.d_lower is NEG_INF
            and bool(cert.reason),
        ]
        assert sum(kinds) == 1


def test_framing_independence_of_d_lower():
    # custom framings shift and flip every level's values, but |eps| = 1
    # keeps all diameters intact, so the certified bound cannot move
    base = small_base({Fraction(-1, 3), Fraction(2)}, ambient_pi1_cyclic=True)
    plain = KnotDescription(base=base, cablings=((2, 3), (1, 2)))
    f_outer = Framing(PrimitiveClass(-1, 0), PrimitiveClass(4, 1), 1)
    f_inner = Framing(PrimitiveClass(1, 0), PrimitiveClass(-5, 1), 1)
    dressed = KnotDescription(
        base=base,
        cablings=(
            Cabling(2, 3, orientation=-1, f_inner=f_inner),
            Cabling(1, 2, f_outer=f_outer),
        ),
    )
    c1 = diameter_lower_bound(plain)
    c2 = diameter_lower_bound(dressed)
    assert c1.d_lower == c2.d_lower
    assert c1.routes == c2.routes
    # the per-level sets differ, but their diameters agree
    for l1, l2 in zip(c1.levels, c2.levels):
        assert diameter(l1.slopes) == diameter(l2.slopes)


# --- the outermost-cable dichotomy ---------------------------------------------


def test_corollary_c_single_cable_grid():
    for q in (2, 3, 5):
        d = KnotDescription(
            base=small_base(ambient_pi1_cyclic=True),
            cablings=((1, q),),
        )
        report = check_corollary_c(d)
        assert report.ok
        detail = dict((c.name, c.detail) for c in report.checks)
        assert "branch (i)" in detail["dichotomy"]


def test_corollary_c_gitk_branch():
    d = KnotDescription(
        base=AtomKnot(
            is_round=True,
            meridionally_small=True,
            ambient_pi1_cyclic=True,
            complementary_meridian=canonical_slope(0, 1),
        ),
        cablings=((2, 3),),
    )
    report = check_corollary_c(d)
    assert report.ok
    assert any("branch (ii)" in c.detail for c in report.checks)


def test_corollary_c_chain_outermost_threshold():
    d = KnotDescription(
        base=small_base(ambient_pi1_cyclic=True),
        cablings=((1, 2), (1, 2)),
    )
    report = check_corollary_c(d)
    assert report.ok  # 2*4*4 = 32 >= 2*4 = 8


def test_corollary_c_preconditions():
    with pytest.raises(ValueError, match="not a cable description"):
        check_corollary_c(KnotDescription(base=small_base(ambient_pi1_cyclic=True)))
    with pytest.raises(ValueError, match="not a cable description"):
        check_corollary_c(
            KnotDescription(base=AtomKnot(), cablings=((1, 2),))
        )


def test_corollary_c_flags_dichotomy_violation():
    # a cable base kills the axiom route; a declared diameter of 1 then
    # certifies only q^2 < 2q^2, which the dichotomy check must flag
    d = KnotDescription(
        base=small_base(
            {Fraction(0), Fraction(1)}, is_cable=True, ambient_pi1_cyclic=True
        ),
        cablings=((1, 2),),
    )
    report = check_corollary_c(d)
    assert not report.ok
    bad = report.failed()
    assert len(bad) == 1 and bad[0].name == "dichotomy"
    assert "logic error" in bad[0].detail


def test_declared_set_route_checks_the_propagated_sets(monkeypatch):
    # an explicit check, not an assert, so it also runs under python -O
    d = KnotDescription(base=small_base({0, 6}), cablings=((1, 2), (3, 2)))
    real = pipeline.propagate
    monkeypatch.setattr(
        pipeline, "propagate", lambda *args: real(*args)[:-1] + [(Fraction(0), Fraction(1))]
    )
    with pytest.raises(InvariantError, match="propagated outermost diameter 1 is not"):
        diameter_lower_bound(d)


def test_primary_route_on_a_three_route_tie():
    top, low = Fraction(5), Fraction(1)
    assert pipeline.primary_route({"zeta": top, "beta": top, "alpha": low}) == "beta"
    assert pipeline.primary_route({"c": top, "axiom-b": top, "alpha": top}) == "axiom-b"
    assert pipeline.primary_route({"c": top, "axiom-b": low, "b": top}) == "b"
