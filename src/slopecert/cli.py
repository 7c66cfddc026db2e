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
format asked for: text lines, or one JSON object.  This module imports
the leaves record and textio; each subcommand imports what it runs when
it runs, jsonio and slopes only to read or write a document, so ``snf``
loads no cable-space module, json, fractions or document schema.

A plain command line is read without argparse: a subcommand, then its
options, each once and by its exact name, as ``--name value`` or
``--name=value``, and one unbroken run of its inputs, every value valid.
So a plain run loads none of argparse, gettext, locale or shutil.
argparse reads every other line (help, errors, abbreviations, ``--``, a
repeated option), and it alone writes usage, help and error text.  Both
readers read one table of the grammar, ``_COMMANDS``.

Exit codes: 0 means every check passed; 1 means a certified check
failed, i.e. the input is mathematically inconsistent; 2 means the
input could not be read or violates a structural invariant.  Reports
are deterministic: the same inputs produce byte-identical output.
"""

import sys

from .record import Record, _store
from .textio import canonical_dumps, digit_limit_text, matrix_to_json, parse_matrix_text


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

    def __init__(
        self, command, inputs=(), p=None, q=None, orientation=1, format="text", emit=None,
    ):
        _store(self, locals())


def _fmt_matrix_lines(m):
    if m.rows == 0 or m.cols == 0:
        return ["  (empty %dx%d)" % (m.rows, m.cols)]
    texts = [str(e) for e in m.entries]
    width = max(map(len, texts))
    return [
        "  " + " ".join(t.rjust(width) for t in texts[i:i + m.cols])
        for i in range(0, len(texts), m.cols)
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
    except UnicodeDecodeError:
        raise ValueError("cannot read %s: not UTF-8 text" % path) from None


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
    matrix = parse_matrix_text(_read_text(path))
    result = smith_normal_form(matrix)
    if config.format == "json":
        return 0, {
            "kind": "snf_report",
            "input": path,
            "U": matrix_to_json(result.U),
            "D": matrix_to_json(result.D),
            "V": matrix_to_json(result.V),
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


def _run_cable_homology(config):
    from .cablespace import cable_space_homology

    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    if config.format == "json":
        from .jsonio import model_to_json

        return 0, {"kind": "cable_homology_report", "model": model_to_json(model)}
    return 0, [
        "cable space (p, q) = (%d, %d), orientation %+d"
        % (model.p, model.q, model.orientation),
        "presentation: H1 = Z<c, m, l> / (%dc %s %dm - %dl)"
        % (model.q, "-" if model.p > 0 else "+", abs(model.p), model.q),
        "H1 = Z + Z",
        "boundary images in Z + Z, by (c, m, l) -> (%dc + %dm, c + l):" % (model.p, model.q),
        "  mu-bar       = %s" % (model.rational_outer(1, 0),),
        "  lambda-bar   = %s" % (model.rational_outer(0, 1),),
        "  mu-bar'      = %s" % (model.rational_inner(1, 0),),
        "  lambda-bar'  = %s" % (model.rational_inner(0, 1),),
        "constants: zeta = %+d, t = %s, theta = %+d, eta = %+d"
        % (model.zeta, model.t, model.theta, model.eta),
    ]


def _law_line(smap):
    """The transfer map's summary line."""
    return (
        "slope transfer: nu' = epsilon * q^2 * nu + u with epsilon = %+d, q^2 = %d, u = %s"
        % (smap.epsilon, smap.q ** 2, smap.u)
    )


def _transfer_text(cert, checks):
    from .slopes import INF, value_text

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


def _run_transfer(config):
    from .cablespace import cable_space_homology
    from .transfer import transfer_certificate, verify_certificate

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


def _run_propagate(config):
    from . import jsonio
    from .pipeline import KnotDescription, diameter, propagate
    from .slopes import value_text

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
    from .slopes import value_text

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
        lines.append("  " + _law_line(cert.map))
    else:
        if recognize_gitk(cert.description):
            lines.append("  recognized: generalized iterated torus knot")
        lines.extend("  " + line for line in _route_lines(cert))
    lines.append("  checks:")
    lines.extend(_check_lines(verification.report.checks, indent="    "))
    lines.append("  " + _result_line(verification.report))
    return lines


def _run_verify(config):
    from . import jsonio
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
    try:
        if config.emit == "":  # both readers take --emit "" and --emit=
            raise ValueError("--emit needs a file path, not an empty one")
        code, report = _RUNNERS[config.command](config)
        # Rendering can fail too: an int past the interpreter's digit limit.
        if config.format == "json":
            return code, canonical_dumps(report)
        return code, "\n".join(report) + "\n"
    except ValueError as e:
        return 2, "input error: %s\n" % (digit_limit_text(e) or e)


# ---------------------------------------------------------------------------
# the command line: one table states the grammar, and both readers read it.

# An option is its name and the keyword arguments of argparse's add_argument;
# a type of int converts as int does (_build_parser passes _int_option).
_CABLE_SPACE = (
    ("--p", {"type": int, "required": True, "help": "winding count p (coprime to q)"}),
    ("--q", {"type": int, "required": True, "help": "strand count q >= 2"}),
    ("--orientation", {"type": int, "choices": (1, -1), "default": 1,
                       "help": "orientation flag of the model (default: 1)"}),
)
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text",
                        "help": "report format (default: text)"})
_EMIT = ("--emit", {"metavar": "PATH", "default": None,
                    "help": "write the certificate as canonical JSON to PATH"})

# subcommand: (help, (nargs, help) of its inputs or None, options)
_COMMANDS = {
    "snf": ("Smith normal form of an integer matrix file",
            (1, 'matrix file: "rows cols" then row-major integers'), (_FORMAT,)),
    "cable-homology": ("homology model of the (p, q) cable space", None,
                       _CABLE_SPACE + (_FORMAT,)),
    "transfer": ("slope-transfer certificate for the (p, q) cable space", None,
                 _CABLE_SPACE + (_FORMAT, _EMIT)),
    "propagate": ("propagate a declared slope set along a cabling chain",
                  (1, "knot description JSON file"), (_FORMAT,)),
    "verify": ("replay and check descriptions and certificates",
               ("+", "JSON document(s)"), (_FORMAT, _EMIT)),
}


def _parse_plain(argv):
    """The RunConfig arguments of a plain command line, or None.

    A plain line is a subcommand, then its options, each once and by its
    exact name, as ``--name value`` or ``--name=value``, and one unbroken
    run of its inputs, none starting with "-".  A separate value may start
    with "-" only as a negative integer, as argparse reads it.  Every value
    converts and is among its choices, and every required option is given.
    argparse parses such a line to the same arguments, so this reader
    prints nothing and raises nothing: it returns None for any other line,
    help and errors included, and leaves it to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, inputs_spec, options = _COMMANDS[argv[0]]
    specs = dict(options)
    given, inputs, positions = {}, [], []
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            inputs.append(token)
            positions.append(i)
            continue
        name, eq, value = token.partition("=")
        if token in specs and i < len(argv) and (
                not argv[i].startswith("-") or argv[i][1:].isdecimal()):
            name, value = token, argv[i]
            i += 1
        elif not (eq and value and name in specs):
            return None
        if name in given:
            return None
        given[name] = value
    nargs = inputs_spec[0] if inputs_spec else 0
    if not (len(inputs) == nargs or nargs == "+" and inputs):
        return None
    if inputs and positions[-1] - positions[0] >= len(inputs):
        return None
    args = {"command": argv[0], "inputs": tuple(inputs)}
    for name, spec in options:
        if name not in given:
            if spec.get("required"):
                return None
            args[name[2:]] = spec["default"]
            continue
        value = given[name]
        if spec.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if value not in spec.get("choices", (value,)):
            return None
        args[name[2:]] = value
    return args


def _int_option(text):
    """The type of the integer options: argparse's own message for text that
    is not an integer, and one that does not echo an over-long one."""
    try:
        return int(text)
    except ValueError as e:
        import argparse

        raise argparse.ArgumentTypeError(
            digit_limit_text(e) or "invalid int value: %r" % text
        ) from None


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Exact slope calculus on knot-exterior boundary tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, inputs_spec, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if inputs_spec:
            nargs, text = inputs_spec
            p.add_argument("inputs", nargs=nargs, metavar="input", help=text)
        for name, spec in options:
            if spec.get("type") is int:
                spec = dict(spec, type=_int_option)
            p.add_argument(name, **spec)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        # Help, errors and every other form: argparse writes the text and
        # exits.  Every option's name is a RunConfig field; options a
        # command lacks keep their defaults.
        args = vars(_build_parser().parse_args(argv))
        args["inputs"] = tuple(args.get("inputs", ()))
    code, report = run(RunConfig(**args))
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
