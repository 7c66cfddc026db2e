"""What verifying a document means, for each kind of document.

A transfer certificate gets transfer.verify_certificate.  A diameter
certificate gets "replay" (its recomputation is byte-identical),
"route-logic", each level's transfer-certificate checks as "level i: ...",
and rule C's checks as "rule C: ..." when pipeline.is_cable_description
holds.  A knot description gets the checks of the diameter certificate
built from it.  The replay compares JSON documents, so this module sits
above both pipeline and jsonio.
"""

from . import jsonio
from .pipeline import KnotDescription, LevelCache, check_corollary_c, diameter_lower_bound
from .pipeline import is_cable_description, primary_route
from .report import Check, CheckReport
from .slopes import DEFAULT_GRID, NEG_INF, Record, _store
from .transfer import TransferCertificate, verify_certificate


class Verification(Record):
    """What verify_document found for a document of the given kind.

    ``certificate`` is the document, or the diameter certificate built
    from a description; ``report`` is a CheckReport; ``document`` is a
    diameter certificate's JSON, which the replay builds, and None for a
    transfer certificate.
    """

    def __init__(self, kind, certificate, report, document=None):
        _store(self, locals())


def verify_document(doc, grid=DEFAULT_GRID, cache=None):
    """Check a knot description, transfer certificate or diameter
    certificate; `grid` bounds the grid check of every transfer
    certificate.  ``cache`` (a fresh LevelCache when None) holds the level
    certificates built here; documents read from input never enter it.
    Failures are report entries, never exceptions."""
    if isinstance(doc, TransferCertificate):
        return Verification("transfer_certificate", doc, verify_certificate(doc, grid))
    if cache is None:
        cache = LevelCache()
    if isinstance(doc, KnotDescription):
        kind, cert = "knot_description", diameter_lower_bound(doc, cache)
    else:
        kind, cert = "diameter_certificate", doc
    checks, document = _verify_diameter_certificate(cert, grid, cache)
    return Verification(kind, cert, CheckReport(checks=tuple(checks)), document)


def _verify_diameter_certificate(cert, grid, cache):
    """Replay and check a diameter certificate; returns (checks, JSON document).

    The replay compares the JSON documents of `cert` and of a fresh
    recomputation by their canonical text, so it is a byte-identity check;
    `cert`'s document is returned for the report and for --emit.
    """
    recomputed = diameter_lower_bound(cert.description, cache)
    doc = jsonio.diameter_certificate_to_json(cert)
    same = jsonio.same_canonical(jsonio.diameter_certificate_to_json(recomputed), doc)
    checks = [
        Check(
            "replay",
            same,
            "recomputed certificate is byte-identical"
            if same
            else "stored certificate differs from recomputation",
        ),
        _route_check(cert),
    ]
    for i, level in enumerate(cert.levels, start=1):
        checks.extend(_prefixed("level %d: " % i, verify_certificate(level.certificate, grid)))
    if is_cable_description(cert.description):
        checks.extend(_prefixed("rule C: ", check_corollary_c(cert.description, recomputed)))
    return checks, doc


def _prefixed(prefix, report):
    return (Check(prefix + c.name, c.ok, c.detail) for c in report.checks)


def _route_check(cert):
    """The named invariant of the route logic of a diameter certificate."""
    if cert.gitk:
        ok = cert.primary_route == "gitk" and cert.d_lower is None and not cert.routes
        return Check("route-logic", ok, "" if ok else "gitk certificate must assert no bound")
    if cert.routes:
        best = max(cert.routes.values())
        ok = cert.d_lower == best and cert.primary_route == primary_route(cert.routes)
        return Check(
            "route-logic",
            ok,
            "" if ok else "d_lower must be the maximum certified route (%s)" % best,
        )
    ok = cert.d_lower is NEG_INF and bool(cert.reason) and cert.primary_route == "none"
    return Check(
        "route-logic", ok, "" if ok else "no route requires d_lower = -inf and a reason"
    )
