"""Command-line front end.

Five subcommands: ``snf`` (Smith normal form of a matrix file),
``cable-homology`` (print the homology model of a cable space),
``transfer`` (build and check a slope-transfer certificate),
``propagate`` (push a declared slope set along a cabling chain), and
``verify`` (replay any emitted document: a knot description, a transfer
certificate, or a diameter certificate).

Exit codes: 0 means every check passed; 1 means a certified check
failed, i.e. the input is mathematically inconsistent; 2 means the
input could not be read or violates a structural invariant.  Reports
are deterministic: the same inputs produce byte-identical output.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import jsonio
from .cablespace import cable_space_homology, rank_skipped
from .linalg import smith_normal_form
from .pipeline import (
    KnotDescription,
    LevelCache,
    check_corollary_c,
    diameter,
    diameter_lower_bound,
    primary_route,
    propagate,
    recognize_gitk,
)
from .report import Check
from .slopes import INF, NEG_INF, canonical_slope, numerical_slope
from .transfer import (
    TransferCertificate,
    grid_slopes,
    law_matrix,
    phi,
    phi_matrix,
    transfer_certificate,
    verify_certificate,
)


# Largest --grid bound: the grid check visits about 1.2 * N^2 slopes per level.
MAX_GRID = 1000


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed invocation; `run` consumes one of these."""

    command: str
    inputs: tuple = ()
    p: int = None
    q: int = None
    orientation: int = 1
    grid: int = 20
    format: str = "text"
    emit: str = None


def _fmt_value(v):
    if v is INF:
        return "inf"
    if v is NEG_INF:
        return "-inf"
    return str(v)


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


def _grid_check(model, smap, bound):
    """Compare phi against the affine slope law on every canonical slope
    with coefficients bounded by `bound`; returns one named check.

    Both sides are integer matrices on classes (phi_matrix and
    law_matrix), so a slope (a, b) passes exactly when its two images
    P (a, b) and A (a, b) are parallel and P (a, b) is not zero: one
    cross product per slope.  Values are built only for the first slope
    that fails, to name it (phi raises there when P (a, b) is zero).
    """
    (p11, p12), (p21, p22) = phi_matrix(model)
    (a11, a12), (a21, a22) = law_matrix(smap, model.f_outer, model.f_inner)
    for a, b in grid_slopes(bound):
        x, y = p11 * a + p12 * b, p21 * a + p22 * b
        if (x or y) and x * (a21 * a + a22 * b) == y * (a11 * a + a12 * b):
            continue
        s = canonical_slope(a, b)
        expected = smap.apply(numerical_slope(model.f_outer, s))
        got = numerical_slope(model.f_inner, phi(model, s))
        return Check(
            "grid-consistency",
            False,
            "slope (%d, %d): affine law gives %s, phi gives %s"
            % (a, b, _fmt_value(expected), _fmt_value(got)),
        )
    return Check(
        "grid-consistency",
        True,
        "phi matches the affine law on all slopes with |a|, |b| <= %d" % bound,
    )


def _certificate_checks(cert, bound):
    """verify_certificate's checks of a transfer certificate, then its grid check.

    The grid check reads the same two free coordinates as the checks that
    verify_certificate skips when H1 is not free of rank 2, so it is
    skipped with them.
    """
    report = verify_certificate(cert)
    if report.passed("h1-rank"):
        grid = _grid_check(cert.model, cert.map, bound)
    else:
        grid = rank_skipped("grid-consistency")
    return [*report.checks, grid]


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
# subcommands


def _run_snf(config):
    matrix = jsonio.parse_matrix_text(_read_text(config.inputs[0]))
    result = smith_normal_form(matrix)
    obj = {
        "kind": "snf_report",
        "input": config.inputs[0],
        "U": jsonio.matrix_to_json(result.U),
        "D": jsonio.matrix_to_json(result.D),
        "V": jsonio.matrix_to_json(result.V),
        "diagonal": list(result.diagonal()),
    }
    lines = ["smith normal form of %s (%dx%d)" % (config.inputs[0], matrix.rows, matrix.cols)]
    lines.append("D =")
    lines.extend(_fmt_matrix_lines(result.D))
    lines.append("diagonal: %s" % (" ".join(str(d) for d in result.diagonal()) or "(empty)"))
    lines.append("U =")
    lines.extend(_fmt_matrix_lines(result.U))
    lines.append("V =")
    lines.extend(_fmt_matrix_lines(result.V))
    return 0, obj, lines


def _group_text(g):
    parts = ["Z/%d" % d for d in g.invariant_factors if d != 0]
    parts.extend(["Z"] * g.rank)
    return " + ".join(parts) if parts else "trivial"


def _run_cable_homology(config):
    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    obj = {"kind": "cable_homology_report", "model": jsonio.model_to_json(model)}
    lines = [
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
    return 0, obj, lines


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
        lines.append(
            "    <%d mu + %d lambda> -> <%d mu' + %d lambda'>   nu %s -> nu' %s"
            % (
                rec["source"][0],
                rec["source"][1],
                rec["image"][0],
                rec["image"][1],
                _fmt_value(rec["value_outer"]),
                _fmt_value(rec["value_inner"]),
            )
        )
    lines.append("checks:")
    lines.extend(_check_lines(checks))
    return lines


def _run_transfer(config):
    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    cert = transfer_certificate(model)
    checks = _certificate_checks(cert, config.grid)
    ok = all(c.ok for c in checks)
    doc = jsonio.transfer_certificate_to_json(cert)
    obj = {
        "kind": "transfer_report",
        "grid": config.grid,
        "ok": ok,
        "certificate": doc,
        "checks": _checks_json(checks),
    }
    lines = _transfer_text(cert, checks)
    lines.append("result: %s (%d checks)" % ("PASS" if ok else "FAIL", len(checks)))
    if config.emit:
        _write_text(config.emit, jsonio.canonical_dumps(doc))
        lines.append("certificate written to %s" % config.emit)
    return (0 if ok else 1), obj, lines


def _run_propagate(config):
    doc = jsonio.load_document(_read_text(config.inputs[0]), config.inputs[0])
    if not isinstance(doc, KnotDescription):
        raise ValueError("%s: propagate expects a knot_description document" % config.inputs[0])
    levels = propagate(doc)
    diameters = [diameter(level) for level in levels]
    obj = {
        "kind": "propagation_report",
        "input": config.inputs[0],
        "levels": [
            {
                "slopes": [jsonio.frac_to_json(v) for v in level],
                "diameter": jsonio.dlower_to_json(diameters[i]),
            }
            for i, level in enumerate(levels)
        ],
    }
    lines = ["propagation of %s (%d cabling(s))" % (config.inputs[0], len(doc.cablings))]
    for i, level in enumerate(levels):
        label = "base " if i == 0 else "level %d" % i
        values = ", ".join(_fmt_value(v) for v in level) or "(empty)"
        note = "" if i == 0 else "   [x %d = q^2, rule A]" % doc.cablings[i - 1].q ** 2
        lines.append("  %-7s {%s}   diameter %s%s" % (label, values, _fmt_value(diameters[i]), note))
    return 0, obj, lines


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
        % (cert.primary_route, _fmt_value(cert.d_lower) if cert.d_lower is not None else "(none)")
    )
    if cert.reason:
        lines.append("reason: %s" % cert.reason)
    return lines


def _route_checks(cert):
    """Named invariants of the route logic of a diameter certificate."""
    checks = []
    if cert.gitk:
        ok = cert.primary_route == "gitk" and cert.d_lower is None and not cert.routes
        checks.append(
            Check("route-logic", ok, "" if ok else "gitk certificate must assert no bound")
        )
    elif cert.routes:
        best = max(cert.routes.values())
        ok = cert.d_lower == best and cert.primary_route == primary_route(cert.routes)
        checks.append(
            Check(
                "route-logic",
                ok,
                "" if ok else "d_lower must be the maximum certified route (%s)" % best,
            )
        )
    else:
        ok = cert.d_lower is NEG_INF and bool(cert.reason) and cert.primary_route == "none"
        checks.append(
            Check("route-logic", ok, "" if ok else "no route requires d_lower = -inf and a reason")
        )
    return checks


def _verify_diameter_certificate(cert, grid, cache):
    """Replay and check a diameter certificate; returns (checks, JSON document).

    The replay compares the JSON documents of `cert` and of a fresh
    recomputation by their canonical text, so it is a byte-identity check;
    `cert`'s document is returned for the report and for --emit.
    """
    checks = []
    recomputed = diameter_lower_bound(cert.description, cache)
    doc = jsonio.diameter_certificate_to_json(cert)
    same = jsonio.same_canonical(jsonio.diameter_certificate_to_json(recomputed), doc)
    checks.append(
        Check(
            "replay",
            same,
            "recomputed certificate is byte-identical"
            if same
            else "stored certificate differs from recomputation",
        )
    )
    checks.extend(_route_checks(cert))
    for i, level in enumerate(cert.levels, start=1):
        checks.extend(
            _prefix_check("level %d: " % i, c)
            for c in _certificate_checks(level.certificate, grid)
        )
    d = cert.description
    if d.cablings and d.base.meridionally_small and d.base.ambient_pi1_cyclic:
        rule_c = check_corollary_c(d, recomputed)
        for c in rule_c.checks:
            checks.append(Check("rule C: %s" % c.name, c.ok, c.detail))
    return checks, doc


def _prefix_check(prefix, check):
    return Check(prefix + check.name, check.ok, check.detail)


def _verify_one(path, grid, cache):
    """Verify a single document; returns (kind, ok, checks, certificate JSON, lines).

    ``cache`` holds the level certificates this run has built; documents
    read from ``path`` are never put into it.
    """
    doc = jsonio.load_document(_read_text(path), path)
    if isinstance(doc, KnotDescription):
        cert = diameter_lower_bound(doc, cache)
        checks, cert_json = _verify_diameter_certificate(cert, grid, cache)
        kind = "knot_description"
    elif isinstance(doc, TransferCertificate):
        cert = doc
        checks = _certificate_checks(cert, grid)
        cert_json = jsonio.transfer_certificate_to_json(cert)
        kind = "transfer_certificate"
    else:
        cert = doc
        checks, cert_json = _verify_diameter_certificate(cert, grid, cache)
        kind = "diameter_certificate"
    ok = all(c.ok for c in checks)
    lines = ["input: %s (%s)" % (path, kind.replace("_", " "))]
    if isinstance(cert, TransferCertificate):
        lines.append(
            "  slope transfer: epsilon = %+d, q^2 = %d, u = %s"
            % (cert.map.epsilon, cert.map.q ** 2, cert.map.u)
        )
    else:
        if recognize_gitk(cert.description):
            lines.append("  recognized: generalized iterated torus knot")
        lines.extend("  " + line for line in _route_lines(cert))
    lines.append("  checks:")
    lines.extend(_check_lines(checks, indent="    "))
    lines.append("  result: %s (%d checks)" % ("PASS" if ok else "FAIL", len(checks)))
    return kind, ok, checks, cert_json, lines


def _run_verify(config):
    if config.emit and len(config.inputs) > 1:
        raise ValueError("--emit requires a single input document")
    results = []
    lines = []
    codes = [0]
    cache = LevelCache()
    for path in config.inputs:
        try:
            kind, ok, checks, cert_json, file_lines = _verify_one(path, config.grid, cache)
        except ValueError as e:
            results.append({"input": path, "error": str(e), "ok": False})
            lines.append("input: %s" % path)
            lines.append("  input error: %s" % e)
            codes.append(2)
            continue
        results.append(
            {
                "input": path,
                "kind": kind,
                "ok": ok,
                "checks": _checks_json(checks),
                "certificate": cert_json,
            }
        )
        lines.extend(file_lines)
        codes.append(0 if ok else 1)
        if config.emit:
            _write_text(config.emit, jsonio.canonical_dumps(cert_json))
            lines.append("  certificate written to %s" % config.emit)
    ok_all = all(r.get("ok") for r in results)
    obj = {"kind": "verify_report", "ok": ok_all, "results": results}
    lines.append("overall: %s" % ("PASS" if ok_all else "FAIL"))
    return max(codes), obj, lines


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
        code, obj, lines = _RUNNERS[config.command](config)
    except ValueError as e:
        return 2, "input error: %s\n" % e
    if config.format == "json":
        return code, jsonio.canonical_dumps(obj)
    return code, "\n".join(lines) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Exact slope calculus on knot-exterior boundary tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, emit=False, grid=False):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default: text)",
        )
        if grid:
            p.add_argument(
                "--grid", type=int, default=20, metavar="N",
                help="bound on slope coefficients for sampled verification"
                " (default: 20, at most %d)" % MAX_GRID,
            )
        if emit:
            p.add_argument(
                "--emit", metavar="PATH", default=None,
                help="write the certificate as canonical JSON to PATH",
            )

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix file")
    p_snf.add_argument("input", help='matrix file: "rows cols" then row-major integers')
    common(p_snf)

    p_cable = sub.add_parser(
        "cable-homology", help="homology model of the (p, q) cable space"
    )
    p_cable.add_argument("--p", type=int, required=True, help="winding count p (coprime to q)")
    p_cable.add_argument("--q", type=int, required=True, help="strand count q >= 2")
    p_cable.add_argument(
        "--orientation", type=int, choices=(1, -1), default=1,
        help="orientation flag of the model (default: 1)",
    )
    common(p_cable)

    p_transfer = sub.add_parser(
        "transfer", help="slope-transfer certificate for the (p, q) cable space"
    )
    p_transfer.add_argument("--p", type=int, required=True, help="winding count p (coprime to q)")
    p_transfer.add_argument("--q", type=int, required=True, help="strand count q >= 2")
    p_transfer.add_argument(
        "--orientation", type=int, choices=(1, -1), default=1,
        help="orientation flag of the model (default: 1)",
    )
    common(p_transfer, emit=True, grid=True)

    p_prop = sub.add_parser(
        "propagate", help="propagate a declared slope set along a cabling chain"
    )
    p_prop.add_argument("input", help="knot description JSON file")
    common(p_prop)

    p_verify = sub.add_parser(
        "verify", help="replay and check descriptions and certificates"
    )
    p_verify.add_argument("inputs", nargs="+", metavar="input", help="JSON document(s)")
    common(p_verify, emit=True, grid=True)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        inputs=tuple(getattr(args, "inputs", ())) or (
            (args.input,) if hasattr(args, "input") else ()
        ),
        p=getattr(args, "p", None),
        q=getattr(args, "q", None),
        orientation=getattr(args, "orientation", 1),
        grid=getattr(args, "grid", 20),
        format=args.format,
        emit=getattr(args, "emit", None),
    )
    code, report = run(config)
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
