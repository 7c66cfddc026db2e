"""What verifying a document means, for each kind of document.

A transfer certificate gets transfer.verify_certificate.  A diameter
certificate gets "replay" (report.replay_check against its
recomputation), "route-logic", as "level i: ..." the model's checks and
the grid check of the model and transfer map built for its description's
cabling i, and rule C's checks as "rule C: ..." when
pipeline.is_cable_description holds.  A knot description gets the checks
of the diameter certificate built from it.  Both certificate kinds are
replayed by the one replay_check, which compares records with ``==``, so
this module sits above pipeline.

Each check runs once per object in a run.  A level's checks are the
report the LevelCache keeps for its cabling, so a recurring cabling
reuses its level report, and still lists a full "level i: ..." block at
every level; a built model's own checks are those its construction
already ran (``model.report``).  A document read from input is a
separate object and is checked on its own.

verify_document dispatches on the document's ``kind``, a class attribute
of each document class, without importing the module of a kind it is not
checking: a transfer certificate loads no pipeline, and a description or
a diameter certificate loads no transfer-certificate code.  So this
module imports pipeline and transfer only inside the functions that use
them.
"""

from .record import Record, _store
from .report import Check, CheckReport, replay_check
from .slopes import NEG_INF, value_text


class Verification(Record):
    """What verify_document found for a document of the given kind.

    ``certificate`` is the document, or the diameter certificate built
    from a description; ``report`` is a CheckReport.
    """

    def __init__(self, kind, certificate, report):
        _store(self, locals())


def verify_document(doc, cache=None):
    """Check a knot description, transfer certificate or diameter
    certificate.  ``cache`` (a fresh LevelCache when None) holds the level
    maps and reports built here; documents read from input never enter it.
    A transfer certificate needs no cache.  Failures are report entries,
    never exceptions."""
    kind = doc.kind
    if kind == "transfer_certificate":
        from .transfer import verify_certificate

        return Verification(kind, doc, verify_certificate(doc))
    from .pipeline import LevelCache, diameter_lower_bound

    if cache is None:
        cache = LevelCache()
    cert = diameter_lower_bound(doc, cache) if kind == "knot_description" else doc
    checks = _verify_diameter_certificate(cert, cache)
    return Verification(kind, cert, CheckReport(checks=tuple(checks)))


def _verify_diameter_certificate(cert, cache):
    """Replay and check a diameter certificate; returns its checks.

    The replay is replay_check against a fresh recomputation.  `cache`
    never holds parsed objects, so identity never decides the replay of a
    stored certificate.
    """
    from .pipeline import check_corollary_c, diameter_lower_bound, is_cable_description

    recomputed = diameter_lower_bound(cert.description, cache)
    checks = [replay_check("DIAMETER_CERTIFICATE", cert, recomputed), _route_check(cert)]
    for i, c in enumerate(cert.description.cablings, start=1):
        checks.extend(_prefixed("level %d: " % i, cache.report(c)))
    if is_cable_description(cert.description):
        checks.extend(_prefixed("rule C: ", check_corollary_c(cert.description, recomputed)))
    return checks


def _prefixed(prefix, report):
    return (Check(prefix + c.name, c.ok, c.detail) for c in report.checks)


def _route_check(cert):
    """The named invariant of the route logic of a diameter certificate.
    A failure names the stated fields that break it, with what each should
    be, or the stated bound and route with the certified ones."""
    if cert.gitk:
        rule = "gitk certificate must assert no bound"
        fields = (("primary_route", "gitk"), ("d_lower", None), ("routes", {}))
    elif cert.routes:
        from .pipeline import primary_route

        best, route = max(cert.routes.values()), primary_route(cert.routes)
        ok = cert.d_lower == best and cert.primary_route == route
        return Check("route-logic", ok, "" if ok else (
            "d_lower must be the maximum certified route: stated %s by %s, certified %s by %s"
            % (_stated(cert.d_lower), _stated(cert.primary_route), best, route)))
    else:
        rule = "no route requires d_lower = -inf and a reason"
        fields = (("primary_route", "none"), ("d_lower", NEG_INF))
    wrong = ["%s: stated %s, must be %s" % (name, _stated(getattr(cert, name)), _stated(must))
             for name, must in fields if getattr(cert, name) != must]
    if not (cert.gitk or cert.reason):
        wrong.append('reason: stated "", must say why')
    ok = not wrong
    return Check("route-logic", ok, "" if ok else "%s: %s" % (rule, "; ".join(wrong)))


def _stated(value):
    """A field's value as route-logic names it."""
    if value is None:
        return "null"
    if isinstance(value, dict):
        return "{%s}" % ", ".join("%s: %s" % (k, value[k]) for k in sorted(value))
    return value_text(value) or '""'
