"""The ``verify`` subcommand: replay any emitted document.

It loads what the documents it reads need, and no more: the reader loads
the modules of the records it builds, verify.verify_document loads
pipeline only for a knot description or a diameter certificate, and this
runner makes the run's one LevelCache at the first document that needs
it.  So a transfer certificate, or a document that fails before any
description record is built, compiles no pipeline, and a description
compiles no transfer-certificate code.
"""

from . import jsonio
from .report import _check_lines, _checks_json, _law_line, _result_line
from .slopes import value_text
from .textio import _read_text, _write_text, canonical_dumps, digit_limit_text
from .verify import verify_document


def _route_lines(cert):
    lines = []
    if cert.gitk:
        lines.append(
            "rule B, branch (ii): the description is a generalized iterated torus knot;"
            " no lower bound is asserted"
        )
    for rule, value in cert.tags:
        if rule == "B-axiom":
            lines.append(
                "rule B axiom: base diameter >= %s (meridionally small, not round,"
                " not a cable, cyclic ambient fundamental group)" % value
            )
        elif rule == "A":
            lines.append("rule A scaling: factor %s per cabling level" % value)
    for name in sorted(cert.routes):
        lines.append("route %-12s d_lower = %s" % (name + ":", cert.routes[name]))
    lines.append(
        "primary route: %s   d_lower = %s"
        % (cert.primary_route, value_text(cert.d_lower) if cert.d_lower is not None else "(none)")
    )
    if cert.reason:
        lines.append("reason: %s" % cert.reason)
    return lines


def _verify_lines(path, verification):
    """The text report of one verified document."""
    cert = verification.certificate
    lines = ["input: %s (%s)" % (path, verification.kind.replace("_", " "))]
    if verification.kind == "transfer_certificate":
        lines.append("  " + _law_line(cert.map))
    else:
        from .pipeline import recognize_gitk

        if recognize_gitk(cert.description):
            lines.append("  recognized: generalized iterated torus knot")
        lines.extend("  " + line for line in _route_lines(cert))
    lines.append("  checks:")
    lines.extend(_check_lines(verification.report.checks, indent="    "))
    lines.append("  " + _result_line(verification.report))
    return lines


def run(config):
    """(exit code, report) of a verify invocation; writes --emit's file."""
    if config.emit and len(config.inputs) > 1:
        raise ValueError("--emit requires a single input document")
    as_json = config.format == "json"
    out = []  # one JSON result per input, or the text lines
    codes = [0]
    cache = None  # the run's LevelCache, shared by every input that needs one
    for path in config.inputs:
        try:
            doc = jsonio.load_document(_read_text(path), path)
            if cache is None and doc.kind != "transfer_certificate":
                from .pipeline import LevelCache

                cache = LevelCache()
            verification = verify_document(doc, cache)
        except ValueError as e:
            codes.append(2)
            error = str(digit_limit_text(e) or e)
            if as_json:
                out.append({"input": path, "error": error, "ok": False})
            else:
                out += ["input: %s" % path, "  input error: %s" % error]
            continue
        report = verification.report
        codes.append(0 if report.ok else 1)
        if as_json or config.emit:
            to_json = jsonio.diameter_certificate_to_json
            if verification.kind == "transfer_certificate":
                to_json = jsonio.transfer_certificate_to_json
            cert_json = to_json(verification.certificate)
        if as_json:
            out.append({"input": path, "kind": verification.kind, "ok": report.ok,
                        "checks": _checks_json(report.checks), "certificate": cert_json})
        else:
            out += _verify_lines(path, verification)
        if config.emit:
            _write_text(config.emit, canonical_dumps(cert_json))
            if not as_json:
                out.append("  certificate written to %s" % config.emit)
    code = max(codes)
    if as_json:
        return code, {"kind": "verify_report", "ok": code == 0, "results": out}
    out.append("overall: %s" % ("PASS" if code == 0 else "FAIL"))
    return code, out
