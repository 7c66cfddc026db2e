"""Command-line front end.

Five subcommands: ``snf`` (Smith normal form of a matrix file),
``cable-homology`` (print the homology model of a cable space),
``transfer`` (build and check a slope-transfer certificate),
``propagate`` (push a declared slope set along a cabling chain), and
``verify`` (replay any emitted document: a knot description, a transfer
certificate, or a diameter certificate).

This module parses arguments, reads and writes files, and renders
reports.  The checks themselves are the library's:
transfer.verify_certificate for a transfer certificate and
verify.verify_document for any document.  Each run renders only the
format asked for: text lines, or one JSON object.  Each subcommand
imports the modules it runs when it runs, so that, say, ``snf`` never
loads the cable-space modules.

Exit codes: 0 means every check passed; 1 means a certified check
failed, i.e. the input is mathematically inconsistent; 2 means the
input could not be read or violates a structural invariant.  Reports
are deterministic: the same inputs produce byte-identical output.
"""

import argparse
import sys

from . import jsonio
from .slopes import DEFAULT_GRID, Record, _set, value_text

# Largest --grid bound: the grid check visits about 1.2 * N^2 slopes per level.
MAX_GRID = 1000


def __getattr__(name):
    # bench/launcher.py traces the grid check under the name _grid_check; it
    # rebinds every module's name for the function, so the calls
    # verify_certificate makes are traced too.  Resolved on use, so that
    # importing this module does not load transfer.
    if name == "_grid_check":
        from .transfer import grid_check

        return grid_check
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class RunConfig(Record):
    """A fully parsed invocation; `run` consumes one of these."""

    _fields = ("command", "inputs", "p", "q", "orientation", "grid", "format", "emit")

    def __init__(
        self, command, inputs=(), p=None, q=None, orientation=1, grid=DEFAULT_GRID,
        format="text", emit=None,
    ):
        _set(self, "command", command)
        _set(self, "inputs", inputs)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "orientation", orientation)
        _set(self, "grid", grid)
        _set(self, "format", format)
        _set(self, "emit", emit)


def _fmt_matrix_lines(m, indent="  "):
    if m.rows == 0 or m.cols == 0:
        return [indent + "(empty %dx%d)" % (m.rows, m.cols)]
    width = max(len(str(e)) for e in m.entries)
    return [
        indent + " ".join(str(m.entry(i, j)).rjust(width) for j in range(m.cols))
        for i in range(m.rows)
    ]


def _check_lines(checks, indent="  "):
    lines = []
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        line = "%s%-4s %s" % (indent, status, c.name)
        if c.detail:
            line += " -- " + c.detail
        lines.append(line)
    return lines


def _checks_json(checks):
    return [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]


def _result_line(report):
    return "result: %s (%d checks)" % ("PASS" if report.ok else "FAIL", len(report.checks))


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e.strerror or e)) from None


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError("cannot write %s: %s" % (path, e.strerror or e)) from None


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report), the report being a JSON
# object when config.format is "json" and a list of text lines otherwise.


def _run_snf(config):
    from .linalg import smith_normal_form

    path = config.inputs[0]
    matrix = jsonio.parse_matrix_text(_read_text(path))
    result = smith_normal_form(matrix)
    if config.format == "json":
        return 0, {
            "kind": "snf_report",
            "input": path,
            "U": jsonio.matrix_to_json(result.U),
            "D": jsonio.matrix_to_json(result.D),
            "V": jsonio.matrix_to_json(result.V),
            "diagonal": list(result.diagonal()),
        }
    return 0, [
        "smith normal form of %s (%dx%d)" % (path, matrix.rows, matrix.cols),
        "D =",
        *_fmt_matrix_lines(result.D),
        "diagonal: %s" % (" ".join(str(d) for d in result.diagonal()) or "(empty)"),
        "U =",
        *_fmt_matrix_lines(result.U),
        "V =",
        *_fmt_matrix_lines(result.V),
    ]


def _group_text(g):
    parts = ["Z/%d" % d for d in g.invariant_factors if d != 0]
    parts.extend(["Z"] * g.rank)
    return " + ".join(parts) if parts else "trivial"


def _run_cable_homology(config):
    from .cablespace import cable_space_homology

    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    if config.format == "json":
        return 0, {"kind": "cable_homology_report", "model": jsonio.model_to_json(model)}
    return 0, [
        "cable space (p, q) = (%d, %d), orientation %+d"
        % (model.p, model.q, model.orientation),
        "presentation: H1 = Z<c, m, l> / (%dc - %dm - %dl)" % (model.q, model.p, model.q),
        "H1 = %s" % _group_text(model.h1),
        "boundary images (coordinates of the free part):",
        "  mu-bar       = %s" % (model.rational_outer(1, 0),),
        "  lambda-bar   = %s" % (model.rational_outer(0, 1),),
        "  mu-bar'      = %s" % (model.rational_inner(1, 0),),
        "  lambda-bar'  = %s" % (model.rational_inner(0, 1),),
        "constants: zeta = %+d, t = %s, theta = %+d, eta = %+d"
        % (model.zeta, model.t, model.theta, model.eta),
    ]


def _transfer_text(cert, checks):
    model, smap, w = cert.model, cert.map, cert.witnesses
    lines = [
        "cable space (p, q) = (%d, %d), orientation %+d"
        % (model.p, model.q, model.orientation),
        "slope transfer: nu' = epsilon * q^2 * nu + u with epsilon = %+d, q^2 = %d, u = %s"
        % (smap.epsilon, smap.q ** 2, smap.u),
        "witnesses:",
        "  boundary:  mu-bar + zeta*q*mu-bar' = 0 in H1  (outer %s, inner %s, zeta %+d)"
        % (w["boundary"]["outer"], w["boundary"]["inner"], w["boundary"]["zeta"]),
        "  meridian:  mu-bar = -zeta*q * mu-bar'  (factor %s)" % w["meridian"]["factor"],
        "  longitude: lambda-bar' = t*mu-bar + zeta*theta*eta*q*lambda-bar  (t = %s, coefficient %+d)"
        % (w["longitude"]["t"], w["longitude"]["coefficient"]),
        "  slopes:",
    ]
    for rec in w["slopes"]:
        (a, b), (c, d) = rec["source"], rec["image"]
        lines.append(
            "    <%d mu + %d lambda> -> <%d mu' + %d lambda'>   nu %s -> nu' %s"
            % (a, b, c, d, value_text(rec["value_outer"]), value_text(rec["value_inner"]))
        )
    lines.append("checks:")
    lines.extend(_check_lines(checks))
    return lines


def _run_transfer(config):
    from .cablespace import cable_space_homology
    from .transfer import transfer_certificate, verify_certificate

    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    cert = transfer_certificate(model)
    report = verify_certificate(cert, config.grid)
    code = 0 if report.ok else 1
    as_json = config.format == "json"
    doc = jsonio.transfer_certificate_to_json(cert) if as_json or config.emit else None
    if config.emit:
        _write_text(config.emit, jsonio.canonical_dumps(doc))
    if as_json:
        return code, {
            "kind": "transfer_report",
            "grid": config.grid,
            "ok": report.ok,
            "certificate": doc,
            "checks": _checks_json(report.checks),
        }
    lines = _transfer_text(cert, report.checks)
    lines.append(_result_line(report))
    if config.emit:
        lines.append("certificate written to %s" % config.emit)
    return code, lines


def _run_propagate(config):
    from .pipeline import KnotDescription, diameter, propagate

    path = config.inputs[0]
    doc = jsonio.load_document(_read_text(path), path)
    if not isinstance(doc, KnotDescription):
        raise ValueError("%s: propagate expects a knot_description document" % path)
    levels = propagate(doc)
    diameters = [diameter(level) for level in levels]
    if config.format == "json":
        return 0, {
            "kind": "propagation_report",
            "input": path,
            "levels": [
                {
                    "slopes": [jsonio.frac_to_json(v) for v in level],
                    "diameter": jsonio.dlower_to_json(diameters[i]),
                }
                for i, level in enumerate(levels)
            ],
        }
    lines = ["propagation of %s (%d cabling(s))" % (path, len(doc.cablings))]
    for i, level in enumerate(levels):
        label = "base " if i == 0 else "level %d" % i
        values = ", ".join(value_text(v) for v in level) or "(empty)"
        note = "" if i == 0 else "   [x %d = q^2, rule A]" % doc.cablings[i - 1].q ** 2
        lines.append("  %-7s {%s}   diameter %s%s" % (label, values, value_text(diameters[i]), note))
    return 0, lines


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
    from .pipeline import recognize_gitk

    cert = verification.certificate
    lines = ["input: %s (%s)" % (path, verification.kind.replace("_", " "))]
    if verification.kind == "transfer_certificate":
        lines.append(
            "  slope transfer: epsilon = %+d, q^2 = %d, u = %s"
            % (cert.map.epsilon, cert.map.q ** 2, cert.map.u)
        )
    else:
        if recognize_gitk(cert.description):
            lines.append("  recognized: generalized iterated torus knot")
        lines.extend("  " + line for line in _route_lines(cert))
    lines.append("  checks:")
    lines.extend(_check_lines(verification.report.checks, indent="    "))
    lines.append("  " + _result_line(verification.report))
    return lines


def _run_verify(config):
    from .pipeline import LevelCache
    from .verify import verify_document

    if config.emit and len(config.inputs) > 1:
        raise ValueError("--emit requires a single input document")
    as_json = config.format == "json"
    out = []  # one JSON result per input, or the text lines
    codes = [0]
    cache = LevelCache()
    for path in config.inputs:
        try:
            doc = jsonio.load_document(_read_text(path), path)
            verification = verify_document(doc, config.grid, cache)
        except ValueError as e:
            codes.append(2)
            if as_json:
                out.append({"input": path, "error": str(e), "ok": False})
            else:
                out += ["input: %s" % path, "  input error: %s" % e]
            continue
        report = verification.report
        codes.append(0 if report.ok else 1)
        cert_json = verification.document
        if cert_json is None and (as_json or config.emit):
            cert_json = jsonio.transfer_certificate_to_json(verification.certificate)
        if as_json:
            out.append({"input": path, "kind": verification.kind, "ok": report.ok,
                        "checks": _checks_json(report.checks), "certificate": cert_json})
        else:
            out += _verify_lines(path, verification)
        if config.emit:
            _write_text(config.emit, jsonio.canonical_dumps(cert_json))
            if not as_json:
                out.append("  certificate written to %s" % config.emit)
    code = max(codes)
    if as_json:
        return code, {"kind": "verify_report", "ok": code == 0, "results": out}
    out.append("overall: %s" % ("PASS" if code == 0 else "FAIL"))
    return code, out


_RUNNERS = {
    "snf": _run_snf,
    "cable-homology": _run_cable_homology,
    "transfer": _run_transfer,
    "propagate": _run_propagate,
    "verify": _run_verify,
}


def run(config):
    """Execute a parsed invocation; returns (exit_code, report_text)."""
    if config.command not in _RUNNERS:
        return 2, "input error: unknown command %r\n" % config.command
    if config.grid < 1:
        return 2, "input error: grid bound must be at least 1\n"
    if config.grid > MAX_GRID:
        return 2, "input error: grid bound must be at most %d\n" % MAX_GRID
    try:
        code, report = _RUNNERS[config.command](config)
    except ValueError as e:
        return 2, "input error: %s\n" % e
    if config.format == "json":
        return code, jsonio.canonical_dumps(report)
    return code, "\n".join(report) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Exact slope calculus on knot-exterior boundary tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cable_space(p):
        p.add_argument("--p", type=int, required=True, help="winding count p (coprime to q)")
        p.add_argument("--q", type=int, required=True, help="strand count q >= 2")
        p.add_argument(
            "--orientation", type=int, choices=(1, -1), default=1,
            help="orientation flag of the model (default: 1)",
        )

    def common(p, emit=False, grid=False):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default: text)",
        )
        if grid:
            p.add_argument(
                "--grid", type=int, default=DEFAULT_GRID, metavar="N",
                help="bound on slope coefficients for sampled verification"
                " (default: %d, at most %d)" % (DEFAULT_GRID, MAX_GRID),
            )
        if emit:
            p.add_argument(
                "--emit", metavar="PATH", default=None,
                help="write the certificate as canonical JSON to PATH",
            )

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix file")
    p_snf.add_argument(
        "inputs", nargs=1, metavar="input",
        help='matrix file: "rows cols" then row-major integers',
    )
    common(p_snf)

    p_cable = sub.add_parser(
        "cable-homology", help="homology model of the (p, q) cable space"
    )
    cable_space(p_cable)
    common(p_cable)

    p_transfer = sub.add_parser(
        "transfer", help="slope-transfer certificate for the (p, q) cable space"
    )
    cable_space(p_transfer)
    common(p_transfer, emit=True, grid=True)

    p_prop = sub.add_parser(
        "propagate", help="propagate a declared slope set along a cabling chain"
    )
    p_prop.add_argument("inputs", nargs=1, metavar="input", help="knot description JSON file")
    common(p_prop)

    p_verify = sub.add_parser(
        "verify", help="replay and check descriptions and certificates"
    )
    p_verify.add_argument("inputs", nargs="+", metavar="input", help="JSON document(s)")
    common(p_verify, emit=True, grid=True)

    return parser


def main(argv=None):
    # Every option's name is a RunConfig field; options a command lacks
    # keep their defaults.
    args = vars(_build_parser().parse_args(argv))
    args["inputs"] = tuple(args.get("inputs", ()))
    code, report = run(RunConfig(**args))
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
