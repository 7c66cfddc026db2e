"""Golden outputs: the command line's bytes stay fixed.

A fixed corpus of invocations runs in process through cli.main, in order,
inside a temporary directory and with relative file names, so that no
report holds an absolute path.  For each case tests/fixtures/golden.json
holds the sha256 of the exit code plus stdout, and the sha256 of every
file the run wrote.  Argument errors, and messages whose wording differs
between Python versions, are left out, so the bytes are the same on every
supported Python.  Regenerate the fixture only on purpose, with
`python tests/test_golden.py`, and name each changed case and the reason.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from slopecert.cli import main

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "golden.json"
STORED = sorted(p.name for p in (HERE / "fixtures").glob("*.json")
                if p.name.startswith(("transfer_", "diameter_")))
README_MATRIX = "2 2\n4 6\n2 8\n"

DESC3 = {
    "kind": "knot_description",
    "base": {"strict_slopes": [[0, 1], [6, 1]], "meridionally_small": True,
             "ambient_pi1_cyclic": True},
    "cablings": [{"p": 1, "q": 2}, {"p": 3, "q": 2, "orientation": -1}, {"p": 5, "q": 3}],
}
DESC1 = {
    "kind": "knot_description",
    "base": {"strict_slopes": [[-1, 2], [3, 1]], "meridionally_small": False},
    "cablings": [{"p": 7, "q": 4}],
}
ROUND2 = {
    "kind": "knot_description",
    "base": {"strict_slopes": [], "is_round": True, "complementary_meridian": [5, 3]},
    "cablings": [{"p": 1, "q": 2}, {"p": -3, "q": 2}],
}


def matrix_text(rows):
    return "%d %d\n" % (len(rows), len(rows[0])) + "".join(
        " ".join(str(x) for x in row) + "\n" for row in rows)


def seeded_matrix(seed, rows, cols, rank=None):
    """Entries in [-9, 9] from random(), whose sequence every Python keeps."""
    rng = random.Random(seed)

    def draw(r, c):
        return [[int(rng.random() * 19) - 9 for _ in range(c)] for _ in range(r)]

    if rank is None:
        return draw(rows, cols)
    left, right = draw(rows, rank), draw(rank, cols)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def edit(path, change, out):
    doc = json.loads(Path(path).read_text())
    change(doc)
    Path(out).write_text(json.dumps(doc))


def tamper_image(doc):
    doc["witnesses"]["slopes"][0]["image"][0] += 1


def tamper_d_lower(doc):
    doc["d_lower"][0] += 1


def wrong_type(doc):
    doc["cablings"][0]["q"] = "2"


def corpus():
    """(name, argv) for each case, in order; the files the cases read are
    written just before the first case that needs them."""
    Path("m.txt").write_text(README_MATRIX)
    yield "snf-readme-text", ["snf", "m.txt"]
    yield "snf-readme-json", ["snf", "--format", "json", "m.txt"]
    matrices = [
        ("dense6", seeded_matrix(1, 6, 6)),
        ("lowrank12x9", seeded_matrix(2, 12, 9, rank=4)),
        ("torsion16", [[x * (2 + (i % 3)) for x in row]
                       for i, row in enumerate(seeded_matrix(3, 16, 16, rank=13))]),
        ("dense24", seeded_matrix(4, 24, 24)),
    ]
    for name, rows in matrices:
        Path(name + ".txt").write_text(matrix_text(rows))
        yield "snf-%s-json" % name, ["snf", "--format", "json", name + ".txt"]
    yield "snf-dense6-text", ["snf", "dense6.txt"]
    yield "cable-homology-text", ["cable-homology", "--p", "2", "--q", "3"]
    yield "cable-homology-json", [
        "cable-homology", "--p", "7", "--q", "5", "--orientation", "-1", "--format", "json"]
    yield "transfer-text", ["transfer", "--p", "2", "--q", "3"]
    yield "transfer-json", ["transfer", "--p", "-59", "--q", "2", "--format", "json"]
    yield "transfer-emit", ["transfer", "--p", "3", "--q", "2", "--emit", "t.json"]
    yield "transfer-p5-q3", ["transfer", "--p", "5", "--q", "3"]
    yield "transfer-emit-json", [
        "transfer", "--p", "7", "--q", "5", "--orientation", "-1", "--format", "json",
        "--emit", "t2.json"]
    Path("desc3.json").write_text(json.dumps(DESC3))
    Path("desc1.json").write_text(json.dumps(DESC1))
    Path("round2.json").write_text(json.dumps(ROUND2))
    yield "propagate-text", ["propagate", "desc3.json"]
    yield "propagate-json", ["propagate", "--format", "json", "desc3.json"]
    yield "propagate-not-small", ["propagate", "desc1.json"]
    yield "verify-description-emit", ["verify", "desc3.json", "--emit", "d.json"]
    yield "reverify-emitted-text", ["verify", "d.json"]
    yield "reverify-emitted-json", ["verify", "--format", "json", "d.json"]
    yield "verify-description-json", ["verify", "--format", "json", "desc1.json"]
    yield "verify-round-emit-json", [
        "verify", "--format", "json", "round2.json", "--emit", "r.json"]
    yield "verify-transfer-text", ["verify", "t.json"]
    yield "verify-transfer-json", ["verify", "--format", "json", "t2.json"]
    for name in STORED:
        Path(name).write_text((HERE / "fixtures" / name).read_text())
        yield "verify-stored-" + name[:-5], ["verify", name]
    yield "verify-stored-json", ["verify", "--format", "json", STORED[0]]
    edit("t.json", tamper_image, "bad_image.json")
    edit("d.json", tamper_d_lower, "bad_d_lower.json")
    edit("desc3.json", wrong_type, "wrong_type.json")
    Path("malformed.json").write_text('{"kind": "knot_description", "base": ')
    yield "tampered-image-text", ["verify", "bad_image.json"]
    yield "tampered-image-json", ["verify", "--format", "json", "bad_image.json"]
    yield "tampered-d-lower-text", ["verify", "bad_d_lower.json"]
    yield "malformed-json-text", ["verify", "malformed.json"]
    yield "wrong-type-json", ["verify", "--format", "json", "wrong_type.json"]
    yield "wrong-type-propagate", ["propagate", "wrong_type.json"]
    yield "verify-many-text", [
        "verify", "desc1.json", "bad_image.json", "malformed.json", "t.json"]


def sha(data):
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def snapshot():
    return {p.name: p.read_bytes() for p in Path(".").iterdir() if p.is_file()}


def run_corpus():
    """{case name: {"argv", "exit", "out", "files"}} from a fresh directory."""
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv in corpus():
                before = snapshot()
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                written = {f: sha(data) for f, data in sorted(snapshot().items())
                           if before.get(f) != data}
                results[name] = {"argv": argv, "exit": code,
                                 "out": sha("%d\n%s" % (code, buf.getvalue())),
                                 "files": written}
        finally:
            os.chdir(cwd)
    return results


def test_cli_outputs_match_golden():
    stored = json.loads(FIXTURE.read_text())
    now = run_corpus()
    assert list(now) == list(stored)
    changed = [name for name in stored if now[name] != stored[name]]
    assert not changed, "outputs changed for %s" % changed


def dump(results):
    """One case per line, so a changed case shows as one changed line."""
    lines = ",\n".join("%s: %s" % (json.dumps(name), json.dumps(case, sort_keys=True))
                       for name, case in results.items())
    return "{\n" + lines + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(dump(run_corpus()))
