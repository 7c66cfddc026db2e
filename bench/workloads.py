"""Seeded job lists for the three benchmark workloads.

A workload is one *pass*: a fixed list of CLI jobs generated from the seed,
with the input files they read.  The benchmark runs the pass once in full and
then again until the run's time is up.  Input sizes are fixed strata: every
pass has the same chain lengths, block shapes or matrix sizes, in the same
interleaved order (long and short jobs alternate), so that the work in a pass
does not change with the seed, while the seed picks the rest (cabling
parameters, slope sets, matrix entries, the order of jobs within a stratum,
tampered and mutated fields).

Each job carries its expected exit code and a check of its output (see
checks.py).  Some jobs read documents derived from an earlier job's emitted
certificate (tampered or malformed copies); the derivation runs once, right
after the first execution of the job that emits the source.
"""

import copy
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, prod

import checks

WORKLOADS = ("verify-chain", "cert-lifecycle", "snf-matrices")


@dataclass
class Job:
    """One CLI invocation: ``python -m slopecert.cli *argv`` in the work directory."""

    name: str
    argv: list
    expect: int
    check: object  # callable(stdout_text) -> list of problems
    kind: str
    derive: list = field(default_factory=list)  # callables(workdir), run after the first execution
    mutated: tuple = None  # malformed jobs: the path of the broken field, set when derived


def build(workload, seed, workdir):
    """Write the inputs of one pass into workdir and return its job list."""
    make_jobs = {
        "verify-chain": _verify_chain,
        "cert-lifecycle": _cert_lifecycle,
        "snf-matrices": _snf_matrices,
    }[workload]
    return make_jobs(random.Random("%s:%d" % (workload, seed)), workdir)


def _write(workdir, name, text):
    (workdir / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# knot descriptions


def _cabling(rng, qmax, pmax):
    q = rng.randint(2, qmax)
    while True:
        p = rng.randint(-pmax, pmax)
        if gcd(p, q) == 1:
            return p, q


def _base(rng, kind):
    """A base atom of one of three kinds, as (json object, declared values)."""
    if kind == "declared":
        size = rng.randint(2, 4)
        values = set()
        while len(values) < size:
            values.add(Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        # A cable base only without a cyclic ambient group: otherwise rule C
        # would need the declared diameter alone to reach 2 * q^2.
        cyclic = rng.random() < 0.5
        base = {
            "strict_slopes": [[v.numerator, v.denominator] for v in sorted(values)],
            "meridionally_small": True,
            "ambient_pi1_cyclic": cyclic,
            "is_cable": not cyclic and rng.random() < 0.5,
        }
        return base, sorted(values)
    if kind == "axiom-b":
        values = [Fraction(rng.randint(-9, 9))] if rng.random() < 0.5 else []
        base = {
            "strict_slopes": [[v.numerator, v.denominator] for v in values],
            "meridionally_small": True,
            "ambient_pi1_cyclic": True,
        }
        return base, values
    # gitk: a round base; the chain is a generalized iterated torus knot.
    b = rng.randint(1, 7)
    while True:
        a = rng.randint(-7, 7)
        if gcd(a, b) == 1:
            break
    base = {
        "is_round": True,
        "meridionally_small": True,
        "ambient_pi1_cyclic": True,
        "complementary_meridian": [a, b],
    }
    return base, []


BASE_KINDS = ("declared", "axiom-b", "gitk")


def _description(rng, kind, levels, qmax, pmax):
    """A description document plus the results the rules predict for it.

    Rule A scales every diameter by q^2 per level; rule B's axiom route gives
    2 * prod(q_i^2) when it applies; a round base claims no bound.  Under the
    standard framings each level maps a value nu to q^2 * nu + p * q.
    """
    base, values = _base(rng, kind)
    cablings = [_cabling(rng, qmax, pmax) for _ in range(levels)]
    doc = {
        "kind": "knot_description",
        "base": base,
        "cablings": [{"p": p, "q": q} for p, q in cablings],
    }
    scale = prod(q * q for _, q in cablings)
    if base.get("is_round"):
        d_lower = None
    else:
        routes = []
        if base["ambient_pi1_cyclic"] and not base.get("is_cable"):
            routes.append(Fraction(2) * scale)
        if values:
            routes.append(scale * (values[-1] - values[0]))
        d_lower = max(routes)
    levels_out = []
    current = list(values)
    for p, q in cablings:
        current = sorted(q * q * v + p * q for v in current)
        levels_out.append(current)
    expect = checks.Expected(d_lower=d_lower, base=list(values), levels=levels_out)
    return doc, expect


# ---------------------------------------------------------------------------
# verify-chain: long chains, where per-level work dominates

# Chain lengths, one chain of each base kind (in the order of BASE_KINDS), so
# that a pass is short enough to repeat several times in a run.  An odd count
# puts the median job inside one stratum (35 levels) rather than in the gap
# between two.
CHAIN_LENGTHS = (50, 20, 35)


def _verify_chain(rng, workdir):
    jobs = []
    for i, (levels, kind) in enumerate(zip(CHAIN_LENGTHS, BASE_KINDS)):
        doc, expect = _description(rng, kind, levels, qmax=5, pmax=15)
        src, cert = "chain%d.json" % i, "chain%d.cert.json" % i
        _write(workdir, src, json.dumps(doc))
        jobs.append(Job(
            "chain%d-emit" % i, ["verify", src, "--emit", cert], 0,
            partial(checks.verify_text, expect=expect), "verify-emit",
        ))
        jobs.append(Job(
            "chain%d-recheck" % i, ["verify", cert, "--format", "json"], 0,
            partial(checks.verify_json, expect=expect), "verify-cert",
        ))
    return jobs


# ---------------------------------------------------------------------------
# cert-lifecycle: many short jobs that emit, read, tamper with and break documents

# Cabling levels of each block's description, one block of each base kind (in
# the order of BASE_KINDS).
LIFECYCLE_LEVELS = (1, 2, 3)


def _cert_lifecycle(rng, workdir):
    jobs = []
    for k, (levels, kind) in enumerate(zip(LIFECYCLE_LEVELS, BASE_KINDS)):
        p1, q1 = _cabling(rng, qmax=40, pmax=40)
        p2, q2 = _cabling(rng, qmax=40, pmax=40)
        orientation = rng.choice(("1", "-1"))
        doc, expect = _description(rng, kind, levels, qmax=40, pmax=40)
        desc, dcert, tcert, tjson = "d%d.json" % k, "d%d.cert.json" % k, "t%d.json" % k, "tj%d.json" % k
        _write(workdir, desc, json.dumps(doc))
        bad_t = Job("b%d-malformed-t" % k, ["verify", "t%d.bad.json" % k], 2,
                    checks.malformed, "malformed")
        bad_d = Job("b%d-malformed-d" % k, ["verify", "d%d.bad.json" % k], 2,
                    checks.malformed, "malformed")
        prop_args = ["propagate", desc]
        prop_check = checks.propagate_text
        if rng.random() < 0.5:
            prop_args += ["--format", "json"]
            prop_check = checks.propagate_json
        jobs += [
            Job(
                "b%d-transfer" % k,
                ["transfer", "--p", str(p1), "--q", str(q1), "--orientation", orientation,
                 "--emit", tcert],
                0, partial(checks.transfer_text, p=p1, q=q1), "transfer",
                derive=[partial(_malformed, tcert, bad_t, rng.random())],
            ),
            Job(
                "b%d-transfer-json" % k,
                ["transfer", "--p", str(p2), "--q", str(q2), "--format", "json", "--emit", tjson],
                0, partial(checks.transfer_json, p=p2, q=q2), "transfer",
                derive=[partial(_tamper_witness, tjson, "tj%d.tampered.json" % k, rng.random())],
            ),
            Job(
                "b%d-verify-transfer" % k, ["verify", tcert], 0,
                partial(checks.verify_transfer_text, p=p1, q=q1), "verify-cert",
            ),
            Job(
                "b%d-propagate" % k, prop_args, 0,
                partial(prop_check, expect=expect), "propagate",
            ),
            Job(
                "b%d-verify-emit" % k, ["verify", desc, "--emit", dcert], 0,
                partial(checks.verify_text, expect=expect), "verify-emit",
                derive=[
                    partial(_tamper_d_lower, dcert, "d%d.tampered.json" % k),
                    partial(_malformed, dcert, bad_d, rng.random()),
                ],
            ),
            Job(
                "b%d-recheck" % k, ["verify", dcert, "--format", "json"], 0,
                partial(checks.verify_json, expect=expect), "verify-cert",
            ),
            Job(
                "b%d-tampered-d" % k, ["verify", "d%d.tampered.json" % k], 1,
                checks.tampered, "tampered",
            ),
            Job(
                "b%d-tampered-t" % k, ["verify", "tj%d.tampered.json" % k], 1,
                checks.tampered, "tampered",
            ),
            bad_t,
            bad_d,
        ]
    return jobs


def _load(workdir, name):
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def _dump(workdir, name, doc):
    _write(workdir, name, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _tamper_d_lower(src, dst, workdir):
    """Edit the certified bound of a diameter certificate: replay must fail (exit 1)."""
    doc = _load(workdir, src)
    d = doc["d_lower"]
    doc["d_lower"] = [d[0] + d[1], d[1]] if isinstance(d, list) else [2, 1]
    _dump(workdir, dst, doc)


def _tamper_witness(src, dst, pick, workdir):
    """Edit one witness slope's image in a transfer certificate: verify must fail (exit 1)."""
    doc = _load(workdir, src)
    records = doc["witnesses"]["slopes"]
    rec = records[int(pick * len(records))]
    rec["image"] = [rec["image"][0] + 1, rec["image"][1]]
    _dump(workdir, dst, doc)


# Types a field's schema admits besides the type of the value it was emitted
# with: nullable fields, and rationals that may be written as "inf" / "-inf".
_EXTRA_TYPES = {
    "d_lower": {"null", "str", "list"},
    "ambient_h1": {"null", "dict"},
    "slopes": {"null", "list"},
    "value": {"null", "list"},
    "complementary_meridian": {"null", "list"},
    "invariant_factors": {"null", "list"},
    "value_outer": {"str", "list"},
    "value_inner": {"str", "list"},
}
_ITEM_EXTRA_TYPES = {"base_slopes": {"str", "list"}, "strict_slopes": {"str", "list"}}
_REPLACEMENTS = {
    "bool": True, "int": 7, "float": 1.5, "str": "x", "null": None, "list": [], "dict": {},
}


def _json_type(v):
    if isinstance(v, bool):
        return "bool"
    return {int: "int", float: "float", str: "str", list: "list", dict: "dict"}.get(
        type(v), "null"
    )


def _fields(x, path=()):
    """Every (path, allowed types) of a document, depth first, in file order."""
    out = []
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        here = path + (key,)
        if isinstance(key, str):
            extra = _EXTRA_TYPES.get(key, set())
        else:
            extra = _ITEM_EXTRA_TYPES.get(path[-1] if path else "", set())
        out.append((here, {_json_type(value)} | extra))
        out.extend(_fields(value, here))
    return out


def _malformed(src, job, pick, workdir):
    """Write the document a malformed job reads: an emitted document with one
    field replaced by a value of a type its schema does not allow.  Fields and
    replacement types are drawn from the seed with no regard to how the parser
    handles them, so its gaps show.  The job records the field's path."""
    doc = _load(workdir, src)
    rng = random.Random(pick)
    path, allowed = rng.choice(_fields(doc))
    job.mutated = path
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    choices = sorted(t for t in _REPLACEMENTS if t not in allowed)
    parent[path[-1]] = copy.deepcopy(_REPLACEMENTS[rng.choice(choices)])
    _dump(workdir, job.argv[1], doc)


# ---------------------------------------------------------------------------
# snf-matrices: exact linear algebra only

# Matrix sizes, interleaved like CHAIN_LENGTHS; each holds one matrix of each
# kind.  Size 45, where elimination outweighs interpreter start-up, comes
# twice and has as many jobs below it as above, so that the median job falls
# among its six matrices rather than on the edge between two sizes, where it
# would turn on the one matrix the seed made cheapest or dearest.
MATRIX_SIZES = (60, 10, 45, 24, 52, 45)
MATRIX_KINDS = ("dense", "low-rank", "torsion")


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _matrix(rng, kind, n):
    if kind == "dense":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "low-rank":
        k = n // 2
        b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        return checks.matmul(b, c)
    # torsion: L * diag(d) * R with unimodular L, R
    d = [rng.choice((1, 1, 2, 3, 4, 6, 12)) for _ in range(n)]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return checks.matmul(checks.matmul(_unimodular(rng, n), diag), _unimodular(rng, n))


def _snf_matrices(rng, workdir):
    jobs = []
    for s, n in enumerate(MATRIX_SIZES):
        kinds = list(MATRIX_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            a = _matrix(rng, kind, n)
            i = len(jobs)
            name = "m%d.txt" % i
            _write(workdir, name, "%d %d\n" % (n, n) + "\n".join(" ".join(map(str, r)) for r in a) + "\n")
            # Half the jobs print JSON.  The format follows the size stratum
            # and kind, not the seed: a dense 60x60 report is several MB as
            # padded text and about 1 MB as JSON, and sets the peak RSS.
            json_format = (s + MATRIX_KINDS.index(kind)) % 2 == 1
            argv = ["snf", name] + (["--format", "json"] if json_format else [])
            check = checks.snf_json if json_format else checks.snf_text
            jobs.append(Job("m%d-%s-%d" % (i, kind, n), argv, 0, partial(check, a=a), "snf-" + kind))
    return jobs
