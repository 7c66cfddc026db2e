"""The ``transfer`` subcommand: build and check a slope-transfer certificate.

The document schema (jsonio) is loaded only to write the certificate: a
JSON report, or --emit.
"""

from .cablespace import cable_space_homology
from .report import _check_lines, _checks_json, _law_line, _result_line
from .slopes import INF, value_text
from .textio import _write_text, canonical_dumps
from .transfer import transfer_certificate, verify_certificate


def _transfer_text(cert, checks):
    model, slopes = cert.model, cert.witnesses["slopes"]
    meridian = next(rec for rec in slopes if rec["value_outer"] is INF)
    lines = [
        "cable space (p, q) = (%d, %d), orientation %+d"
        % (model.p, model.q, model.orientation),
        _law_line(cert.map),
        "witnesses:",
        "  boundary:  mu-bar + zeta*q*mu-bar' = 0 in H1  (outer %s, inner %s, zeta %+d)"
        % (model.boundary_outer, model.boundary_inner, model.zeta),
        "  meridian:  mu-bar = -zeta*q * mu-bar'  (factor %s)" % meridian["factor"],
        "  longitude: lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar  (t = %s, coefficient %+d)"
        % (model.t, model.longitude_coefficient),
        "  slopes:",
    ]
    for rec in slopes:
        (a, b), (c, d) = rec["source"], rec["image"]
        lines.append(
            "    <%d mu + %d lambda> -> <%d mu' + %d lambda'>   nu %s -> nu' %s"
            % (a, b, c, d, value_text(rec["value_outer"]), value_text(rec["value_inner"]))
        )
    lines.append("checks:")
    lines.extend(_check_lines(checks))
    return lines


def run(config):
    """(exit code, report) of a transfer invocation; writes --emit's file."""
    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    cert = transfer_certificate(model)
    report = verify_certificate(cert)
    code = 0 if report.ok else 1
    as_json = config.format == "json"
    if as_json or config.emit:
        from .jsonio import transfer_certificate_to_json

        doc = transfer_certificate_to_json(cert)
    if config.emit:
        _write_text(config.emit, canonical_dumps(doc))
    if as_json:
        return code, {
            "kind": "transfer_report",
            "ok": report.ok,
            "certificate": doc,
            "checks": _checks_json(report.checks),
        }
    lines = _transfer_text(cert, report.checks)
    lines.append(_result_line(report))
    if config.emit:
        lines.append("certificate written to %s" % config.emit)
    return code, lines
