"""What verifying a document means, for each kind of document.

A transfer certificate gets transfer.verify_certificate.  A diameter
certificate gets "replay" (its recomputation is byte-identical),
"route-logic", as "level i: ..." the model's checks and the grid check
of the model and transfer map built for its description's cabling i, and
rule C's checks as "rule C: ..." when pipeline.is_cable_description
holds.  A knot description gets the checks of the diameter certificate
built from it.  The replay compares records with ``==``, so this module
sits above pipeline; only a failed replay loads jsonio, whose tables name
the first field that differs by its JSON path.

Each check runs once per object in a run.  A level's checks are the
report the LevelCache keeps for its cabling, so a recurring cabling
reuses its level report, and still lists a full "level i: ..." block at
every level; a built model's own checks are those its construction
already ran (``model.report``).  A document read from input is a
separate object and is checked on its own.
"""

from .pipeline import KnotDescription, LevelCache, check_corollary_c, diameter_lower_bound
from .pipeline import is_cable_description, primary_route
from .record import Record, _store
from .report import Check, CheckReport
from .slopes import NEG_INF, value_text
from .transfer import TransferCertificate, verify_certificate


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
    Failures are report entries, never exceptions."""
    if isinstance(doc, TransferCertificate):
        return Verification("transfer_certificate", doc, verify_certificate(doc))
    if cache is None:
        cache = LevelCache()
    if isinstance(doc, KnotDescription):
        kind, cert = "knot_description", diameter_lower_bound(doc, cache)
    else:
        kind, cert = "diameter_certificate", doc
    checks = _verify_diameter_certificate(cert, cache)
    return Verification(kind, cert, CheckReport(checks=tuple(checks)))


def _verify_diameter_certificate(cert, cache):
    """Replay and check a diameter certificate; returns its checks.

    The replay is ``==`` against a fresh recomputation.  The reader types
    every field as the builder does, so two certificates are equal exactly
    when their canonical JSON is.  `cache` never holds parsed objects, so
    identity never decides the replay of a stored certificate.  Only a
    failed replay walks the two along jsonio's tables, to name the first
    field that differs.
    """
    recomputed = diameter_lower_bound(cert.description, cache)
    if recomputed == cert:
        replay = Check("replay", True, "recomputed certificate is byte-identical")
    else:
        from . import jsonio

        path, stored, fresh = jsonio.first_difference(
            jsonio.DIAMETER_CERTIFICATE, cert, recomputed)
        replay = Check("replay", False, "stored certificate differs from recomputation"
                       " at %s: stored %s, recomputed %s" % (path, stored, fresh))
    checks = [replay, _route_check(cert)]
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
