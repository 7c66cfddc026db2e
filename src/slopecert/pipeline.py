"""Cabling chains, slope propagation, and certified diameter bounds.

A knot is described by a base atom plus an ordered chain of cablings
applied innermost-first: entry i of the chain produces knot i from knot
i-1 (knot 0 being the base), so the last entry is the outermost cable.
The base atom carries declared invariants that this package cannot
compute from first principles — its finite set of strict numerical
boundary slopes under a declared framing, and boolean flags
(meridionally small; round, i.e. the exterior is a solid torus; itself
a cable; cyclic ambient fundamental group) — plus, for a round base,
the complementary meridian that pins down the ambient manifold.

The pipeline then derives what does follow exactly:

  * a chain over a round base is a generalized iterated torus knot,
    and its ambient manifold's H1 is read off the gluing data;
  * a declared strict slope set propagates outward level by level
    through each cable space's affine transfer map (values stay
    finite: the meridian value is excluded at the base and the maps
    fix INF);
  * the slope-set diameter scales by exactly q^2 per level, so two
    routes certify a lower bound d_lower on the outermost diameter:
    the small-base axiom route (a meridionally small, non-round,
    non-cable base with cyclic ambient fundamental group has diameter
    at least 2, giving 2 * prod q_i^2) and the declared-set route
    (prod q_i^2 times the declared set's diameter).  The reported
    d_lower is the largest certified bound, NEG_INF when no route
    applies, and absent for generalized iterated torus knots (no
    numeric claim is made for those).

Certificates carry rule tags: "A" for each q^2 scaling step, "B-axiom"
for the small-base bound, "B-ii" for the generalized-iterated-torus-
knot branch; the dichotomy check (rule "C": outermost diameter at
least 2*q^2 unless the knot is a generalized iterated torus knot) is
check_corollary_c().
"""

from .cablespace import (
    cable_space_homology,
    check_parameters,
    framing_problem,
    with_standard_framings,
)
from .law import grid_check, transfer_map
from .rational import Rational
from .record import InvariantError, Record, _store
from .report import Check, CheckReport
from .slopes import INF, NEG_INF, _sorted_values, value_text


def diameter(values):
    """Exact diameter (max - min) of a finite set of rationals; empty -> NEG_INF."""
    vals = list(values)
    if any(v is INF for v in vals):
        raise ValueError("diameter is undefined when the meridian value is present")
    if not vals:
        return NEG_INF
    vals = [Rational(v) for v in vals]
    return max(vals) - min(vals)


def _normalized_values(values):
    """Declared slope values as a frozenset of Rationals and possibly INF."""
    out = set()
    for v in values:
        out.add(v if v is INF else Rational(v))
    return frozenset(out)


class AtomKnot(Record):
    """A base knot's declared invariants.

    ``strict_numerical_slopes`` is the (possibly empty) finite set of
    strict numerical boundary slopes under the declared framing.  The
    flags are trusted inputs; only their mutual consistency is checked:
    a meridionally small knot cannot list INF among its boundary
    slopes, and a round knot has no strict surfaces at all, so its set
    must be empty and it must instead supply the complementary meridian
    (in reference coordinates, a Slope) that determines the ambient
    manifold.
    """

    def __init__(
        self,
        strict_numerical_slopes=frozenset(),
        meridionally_small=False,
        is_round=False,
        is_cable=False,
        ambient_pi1_cyclic=False,
        complementary_meridian=None,
    ):
        strict_numerical_slopes = _normalized_values(strict_numerical_slopes)
        if meridionally_small and INF in strict_numerical_slopes:
            raise ValueError(
                "meridian slope declared as a boundary slope of a meridionally small knot"
            )
        if is_round and strict_numerical_slopes:
            raise ValueError("a round knot has no strict boundary slopes")
        if is_round and complementary_meridian is None:
            raise ValueError("a round base requires its complementary meridian")
        if not is_round and complementary_meridian is not None:
            raise ValueError("complementary meridian is gluing data of a round base only")
        _store(self, locals())


class Cabling(Record):
    """One cabling level: q strands, homology winding p, optional overrides
    of the framings (Framing, or None for the standard ones), which must
    fit the model (cablespace.framing_problem)."""

    def __init__(self, p, q, orientation=1, f_outer=None, f_inner=None):
        check_parameters(p, q, orientation)
        problem = framing_problem(*with_standard_framings(f_outer, f_inner))
        if problem:
            raise ValueError(problem)
        _store(self, locals())

    def model(self):
        return cable_space_homology(
            self.p, self.q, self.f_outer, self.f_inner, self.orientation
        )


class KnotDescription(Record):
    """A base atom plus cablings applied innermost-first."""

    kind = "knot_description"

    def __init__(self, base, cablings=()):
        cablings = tuple(c if isinstance(c, Cabling) else Cabling(*c) for c in cablings)
        _store(self, locals())


def recognize_gitk(d):
    """A chain of cablings over a round base, of any length (even zero)."""
    return d.base.is_round


def ambient_h1(d):
    """H1 of the ambient manifold as its invariant factors, or None when
    not determinable.

    Cablings happen inside a solid torus, so they never change the
    ambient manifold; it is pinned down exactly when the base is round.
    It is then two solid tori glued along the reference torus, filled
    along the standard meridian (1, 0) and along the complementary
    meridian (a, b), b >= 0 as in every canonical slope, so H1 is
    Z^2 / <(1, 0), (a, b)> = Z/b, always cyclic: () when b = 1, (0,)
    (the group Z) for (1, 0), else (b,).
    """
    if not d.base.is_round:
        return None
    b = d.base.complementary_meridian.b
    return () if b == 1 else (b,)


class LevelCache:
    """The transfer map built here for each set of cabling parameters, and
    the level's check report: the model's checks, then the grid check.

    The key is (p, q, orientation, f_outer, f_inner) with the standard
    framings filled in, so each level's model, map and report are built
    once however often the level recurs, and a recurring cabling reuses
    its report.  No transfer certificate is built, as its replay would
    only compare the build with itself.  A model or certificate parsed
    from input never enters, so replaying a stored certificate still
    compares it against a fresh computation.  Maps and reports are
    frozen, so sharing one between levels is safe.
    """

    def __init__(self):
        self._levels = {}

    def _level(self, cabling):
        key = (
            cabling.p,
            cabling.q,
            cabling.orientation,
            *with_standard_framings(cabling.f_outer, cabling.f_inner),
        )
        level = self._levels.get(key)
        if level is None:
            model = cabling.model()
            smap = transfer_map(model)
            report = CheckReport(checks=model.report.checks + (grid_check(model, smap),))
            level = self._levels[key] = (smap, report)
        return level

    def map(self, cabling):
        """The transfer map of the cabling's model, built on first use."""
        return self._level(cabling)[0]

    def report(self, cabling):
        """The level's check report, computed on first use."""
        return self._level(cabling)[1]


def propagate(d, cache=None):
    """Per-level strict slope value sets, base first.

    Entry 0 is the declared base set; entry i+1 is the image of entry i
    under level i's transfer map, taken from ``cache`` (a fresh
    LevelCache when None).  Requires a meridionally small base (which
    also guarantees every declared and propagated value is finite).
    Returns a list of sorted tuples of Rationals.
    """
    if not d.base.meridionally_small:
        raise ValueError("propagation requires a meridionally small base")
    if cache is None:
        cache = LevelCache()
    levels = [tuple(sorted(d.base.strict_numerical_slopes))]
    for cabling in d.cablings:
        smap = cache.map(cabling)
        levels.append(tuple(sorted(smap.apply(v) for v in levels[-1])))
    return levels


class LevelRecord(Record):
    """One cabling level inside a DiameterCertificate.

    ``slopes`` is the propagated value set after this level, or None when
    propagation was not licensed (base not meridionally small).  The
    level's cabling is the description's; its transfer map and checks are
    functions of that cabling, so the certificate does not state them.
    """

    def __init__(self, slopes=None):
        _store(self, locals())


class DiameterCertificate(Record):
    """A certified lower bound on the outermost strict slope diameter.

    ``routes`` maps each certified route name to its exact bound;
    ``primary_route`` names the route backing ``d_lower`` ("gitk",
    "axiom-b", "declared-set", or "none").  ``d_lower`` is a Rational,
    NEG_INF when no route applies, or None on the gitk route (no
    numeric claim).  ``tags`` lists (rule, value) pairs: one "A" per
    scaling step, "B-axiom" for the small-base bound, "B-ii" for the
    generalized-iterated-torus-knot branch.  ``ambient`` is the ambient
    H1's invariant factors (ambient_h1) or None.
    """

    kind = "diameter_certificate"

    def __init__(
        self, description, gitk, ambient, base_slopes, levels, routes,
        primary_route, d_lower, reason="", tags=(),
    ):
        _store(self, locals())


def primary_route(routes):
    """The route that backs the bound: among the routes of largest value,
    "axiom-b" if it is one of them, else the smallest name."""
    best = max(routes.values())
    tied = [name for name, value in routes.items() if value == best]
    return "axiom-b" if "axiom-b" in tied else min(tied)


def diameter_lower_bound(d, cache=None):
    """Evaluate every certified route for d and assemble the certificate.

    Propagation takes the level transfer maps from ``cache`` (a fresh
    LevelCache when None), so a run that replays its own output builds
    each level once.
    """
    base = d.base
    gitk = recognize_gitk(d)
    ambient = ambient_h1(d)

    level_sets = propagate(d, cache) if base.meridionally_small else None
    slopes = [None] * len(d.cablings) if level_sets is None else level_sets[1:]
    levels = tuple(LevelRecord(s) for s in slopes)
    base_slopes = _sorted_values(base.strict_numerical_slopes)

    scale = 1
    for c in d.cablings:
        scale *= c.q * c.q

    routes = {}
    tags = []
    reason = ""
    if gitk:
        primary = "gitk"
        d_lower = None
        tags.append(("B-ii", None))
    else:
        if (
            base.meridionally_small
            and not base.is_round
            and not base.is_cable
            and base.ambient_pi1_cyclic
        ):
            routes["axiom-b"] = Rational(2 * scale)
            tags.append(("B-axiom", Rational(2)))
        if base.meridionally_small and base.strict_numerical_slopes:
            base_diam = diameter(base.strict_numerical_slopes)
            routes["declared-set"] = scale * base_diam
            # Exact consistency with the actual propagated sets.
            if level_sets is None:
                raise InvariantError("declared-set route without propagated slope sets")
            outermost = diameter(level_sets[-1])
            if outermost != routes["declared-set"]:
                raise InvariantError(
                    "declared-set route: the propagated outermost diameter %s is not "
                    "prod q^2 * base diameter = %s" % (outermost, routes["declared-set"])
                )
        if routes:
            for c in d.cablings:
                tags.append(("A", Rational(c.q * c.q)))
            d_lower = max(routes.values())
            primary = primary_route(routes)
        else:
            d_lower = NEG_INF
            primary = "none"
            if not base.meridionally_small:
                reason = "no certified route: the base is not declared meridionally small"
            else:
                reason = (
                    "no certified route: the strict slope set is empty and the "
                    "small-base axiom's hypotheses are not all declared"
                )

    return DiameterCertificate(
        description=d,
        gitk=gitk,
        ambient=ambient,
        base_slopes=base_slopes,
        levels=levels,
        routes=routes,
        primary_route=primary,
        d_lower=d_lower,
        reason=reason,
        tags=tuple(tags),
    )


def is_cable_description(d):
    """Whether rule C applies to d: at least one cabling, over a base that
    declares meridional smallness and cyclic ambient fundamental group."""
    return bool(d.cablings) and d.base.meridionally_small and d.base.ambient_pi1_cyclic


def check_corollary_c(d, cert=None):
    """The outermost-cable dichotomy: d_lower >= 2*q^2, or the knot is
    a generalized iterated torus knot (rule "C").

    Requires a cable description (is_cable_description); returns a
    CheckReport whose "dichotomy" entry fails only on inputs that certify
    neither branch (a logic error in the inputs, since the hypotheses
    were declared).  ``cert`` is d's DiameterCertificate when the caller
    already holds one; it is computed here otherwise.
    """
    if not is_cable_description(d):
        raise ValueError(
            "not a cable description (requires a cabling, declared meridional "
            "smallness and cyclic ambient fundamental group)"
        )
    if cert is None:
        cert = diameter_lower_bound(d)
    q = d.cablings[-1].q
    threshold = Rational(2 * q * q)
    checks = [Check("cable-description", True, "outermost strand count q = %d" % q)]
    if cert.gitk:
        checks.append(
            Check(
                "dichotomy",
                True,
                "branch (ii): generalized iterated torus knot",
            )
        )
    elif cert.d_lower is not NEG_INF and cert.d_lower >= threshold:
        checks.append(
            Check(
                "dichotomy",
                True,
                "branch (i): certified d_lower = %s >= 2*q^2 = %s"
                % (cert.d_lower, threshold),
            )
        )
    else:
        checks.append(
            Check(
                "dichotomy",
                False,
                "logic error in inputs: neither branch certified "
                "(certified d_lower = %s < 2*q^2 = %s and the base is not round)"
                % (value_text(cert.d_lower), threshold),
            )
        )
    return CheckReport(checks=tuple(checks))
