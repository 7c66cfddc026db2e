"""Output checks for the benchmark's jobs.

They share no code with slopecert: expected values come from the rules in
closed form (computed by workloads.py from the generated inputs), and the
Smith normal form check uses its own matrix product and Bareiss determinant.
Each check takes a job's stdout text and returns a list of problems; an empty
list means the output is right.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Expected:
    """What the rules predict for a knot description.

    ``d_lower`` is prod(q_i^2) * max(2 if the axiom route applies, declared
    diameter), or None for a round base (no bound is claimed); ``base`` is the
    declared value set and ``levels`` the propagated sets, nu -> q^2 nu + p q.
    """

    d_lower: object
    base: list
    levels: list


def _pairs(values):
    return [[v.numerator, v.denominator] for v in values]


def _json(out):
    try:
        return json.loads(out), []
    except ValueError as e:
        return None, ["report is not JSON: %s" % e]


def _value(text):
    return None if text == "(empty)" else Fraction(text)


# ---------------------------------------------------------------------------
# descriptions and diameter certificates

_ROUTE = re.compile(r"primary route: (\S+)\s+d_lower = (\S+)")


def verify_text(out, expect):
    problems = []
    if not out.rstrip().endswith("overall: PASS"):
        problems.append("verify did not pass")
    m = _ROUTE.search(out)
    if m is None:
        return problems + ["no primary route line"]
    route, value = m.groups()
    if expect.d_lower is None:
        if (route, value) != ("gitk", "(none)"):
            problems.append("round base: expected no bound, got %s %s" % (route, value))
    elif value in ("(none)", "-inf") or Fraction(value) != expect.d_lower:
        problems.append("d_lower %s, expected %s" % (value, expect.d_lower))
    return problems


def verify_json(out, expect):
    report, problems = _json(out)
    if report is None:
        return problems
    if report.get("ok") is not True or len(report.get("results", ())) != 1:
        return ["verify report is not a single passing result"]
    result = report["results"][0]
    cert = result.get("certificate", {})
    if result.get("kind") != "diameter_certificate":
        problems.append("input kind %r" % result.get("kind"))
    want = None if expect.d_lower is None else _pairs([expect.d_lower])[0]
    if cert.get("d_lower") != want:
        problems.append("d_lower %r, expected %r" % (cert.get("d_lower"), want))
    if cert.get("base_slopes") != _pairs(expect.base):
        problems.append("base slopes differ from the declared set")
    levels = cert.get("levels", [])
    if [rec.get("slopes") for rec in levels] != [_pairs(v) for v in expect.levels]:
        problems.append("propagated sets differ from nu' = q^2 nu + p q")
    return problems


# ---------------------------------------------------------------------------
# propagation


_LEVEL = re.compile(r"^\s+(base|level \d+)\s+\{(.*)\}\s+diameter (\S+)", re.M)


def _diameter(values):
    return "-inf" if not values else values[-1] - values[0]


def propagate_text(out, expect):
    rows = _LEVEL.findall(out)
    sets = [expect.base] + expect.levels
    if len(rows) != len(sets):
        return ["%d levels printed, expected %d" % (len(rows), len(sets))]
    problems = []
    for i, ((_, values, diam), want) in enumerate(zip(rows, sets)):
        got = [v for v in map(_value, values.split(", ")) if v is not None]
        got_diam = diam if diam == "-inf" else Fraction(diam)
        if got != want or got_diam != _diameter(want):
            problems.append("level %d: {%s} diameter %s" % (i, values, diam))
    return problems


def propagate_json(out, expect):
    report, problems = _json(out)
    if report is None:
        return problems
    sets = [expect.base] + expect.levels
    want = [
        {"slopes": _pairs(v), "diameter": "-inf" if not v else _pairs([_diameter(v)])[0]}
        for v in sets
    ]
    if report.get("levels") != want:
        problems.append("propagated sets or diameters differ from nu' = q^2 nu + p q")
    return problems


# ---------------------------------------------------------------------------
# transfer certificates


_MAP = re.compile(r"epsilon = ([+-]\d+), q\^2 = (\d+), u = (\S+)")


def _map_line(out, p, q, done):
    problems = [] if done in out else ["checks did not pass"]
    m = _MAP.search(out)
    if m is None:
        return problems + ["no transfer law line"]
    eps, q2, u = m.groups()
    if (eps, int(q2), Fraction(u)) != ("+1", q * q, Fraction(p * q)):
        problems.append("law eps %s q^2 %s u %s, expected +1, %d, %d" % (eps, q2, u, q * q, p * q))
    return problems


def transfer_text(out, p, q):
    return _map_line(out, p, q, "result: PASS")


def verify_transfer_text(out, p, q):
    return _map_line(out, p, q, "overall: PASS")


def transfer_json(out, p, q):
    report, problems = _json(out)
    if report is None:
        return problems
    if report.get("ok") is not True:
        problems.append("transfer checks did not pass")
    law = report.get("certificate", {}).get("map")
    if law != {"epsilon": 1, "q": q, "u": [p * q, 1]}:
        problems.append("law %r, expected epsilon +1, u = pq = %d" % (law, p * q))
    return problems


# ---------------------------------------------------------------------------
# rejected documents


def tampered(out):
    return [] if out.rstrip().endswith("overall: FAIL") else ["tampered certificate not failed"]


def malformed(out):
    return [] if "input error:" in out else ["no input error message"]


# ---------------------------------------------------------------------------
# Smith normal form


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def bareiss_det(m):
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def snf_problems(a, u, d, v, diagonal):
    """U A V = D, D a divisibility-chain diagonal, U and V unimodular."""
    problems = []
    rows, cols = len(a), len(a[0]) if a else 0
    if len(u) != rows or len(v) != cols or len(d) != rows:
        return ["transform shapes do not match the input"]
    if matmul(matmul(u, a), v) != d:
        problems.append("U * A * V != D")
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        problems.append("D is not diagonal")
    if diag != diagonal:
        problems.append("printed diagonal differs from D")
    if any(x < 0 for x in diag) or any(y % x if x else y for x, y in zip(diag, diag[1:])):
        problems.append("diagonal %s is not a divisibility chain" % diag)
    if abs(bareiss_det(u)) != 1 or abs(bareiss_det(v)) != 1:
        problems.append("U or V is not unimodular")
    return problems


def _text_block(lines, start, count):
    return [[int(x) for x in line.split()] for line in lines[start:start + count]]


def snf_text(out, a):
    lines = out.splitlines()
    m = re.match(r"smith normal form of \S+ \((\d+)x(\d+)\)$", lines[0]) if lines else None
    if m is None:
        return ["no snf header"]
    rows, cols = int(m.group(1)), int(m.group(2))
    try:
        d = _text_block(lines, lines.index("D =") + 1, rows)
        diagonal = [int(x) for x in lines[lines.index("D =") + 1 + rows].split(":")[1].split()]
        u = _text_block(lines, lines.index("U =") + 1, rows)
        v = _text_block(lines, lines.index("V =") + 1, cols)
    except (ValueError, IndexError) as e:
        return ["snf report unreadable: %s" % e]
    return snf_problems(a, u, d, v, diagonal)


def _rows(m):
    n = m["cols"]
    return [m["entries"][i * n:(i + 1) * n] for i in range(m["rows"])]


def snf_json(out, a):
    report, problems = _json(out)
    if report is None:
        return problems
    try:
        u, d, v = (_rows(report[k]) for k in "UDV")
    except (KeyError, TypeError) as e:
        return ["snf report unreadable: %s" % e]
    return snf_problems(a, u, d, v, report.get("diagonal"))
