"""The Smith normal form transforms that documents and reports show stay fixed.

A diameter certificate of a round base states its ambient H1, and the
replay compares it with a fresh group_from_presentation, so the
coordinate map (the U of the transposed relation's Smith form) of every
gluing relation [[1, 0], [a, b]] under the standard framing must not
change.  The maps of the cable-space relations [[q, -p, -q]] are what
`snf` prints as U for those rows transposed; no certificate stores them.
tests/fixtures/snf_transforms.json holds those maps, and U and V of the
README's `snf` matrix, as an earlier Smith normal form computed them;
regenerate it only on purpose, with `python tests/test_snf_transforms.py`.
"""

import json
from math import gcd
from pathlib import Path

from slopecert.linalg import IntMatrix, group_from_presentation, smith_normal_form

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "snf_transforms.json"
README_MATRIX = [[4, 6], [2, 8]]


def cable_relations():
    """(p, q, relation rows) for 2 <= q <= 12, |p| <= 40, gcd(p, q) = 1."""
    return [
        (p, q, [[q, -p, -q]])
        for q in range(2, 13)
        for p in range(-40, 41)
        if gcd(p, q) == 1
    ]


def gluing_relations():
    """(a, b, relation rows) for canonical meridians (a, b), |a| <= 12, 0 <= b <= 12."""
    return [
        (a, b, [[1, 0], [a, b]])
        for b in range(0, 13)
        for a in range(-12, 13)
        if gcd(a, b) == 1 and (b > 0 or a == 1)
    ]


def coordinate_map(rows):
    return group_from_presentation(IntMatrix.from_rows(rows)).coordinate_map.to_rows()


def current():
    snf = smith_normal_form(IntMatrix.from_rows(README_MATRIX))
    return {
        "cable": [[p, q, coordinate_map(rows)] for p, q, rows in cable_relations()],
        "gluing": [[a, b, coordinate_map(rows)] for a, b, rows in gluing_relations()],
        "readme": {"A": README_MATRIX, "U": snf.U.to_rows(), "V": snf.V.to_rows()},
    }


def dump(doc):
    """One relation per line, so a changed map shows as one changed line."""
    lines = ["{"]
    for key in ("cable", "gluing"):
        lines.append('"%s": [' % key)
        lines.append(",\n".join(json.dumps(entry) for entry in doc[key]))
        lines.append("],")
    lines.append('"readme": %s' % json.dumps(doc["readme"], sort_keys=True))
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_fixture_covers_every_relation():
    stored = json.loads(FIXTURE.read_text())
    assert [e[:2] for e in stored["cable"]] == [[p, q] for p, q, _ in cable_relations()]
    assert [e[:2] for e in stored["gluing"]] == [[a, b] for a, b, _ in gluing_relations()]
    assert len(stored["cable"]) == 520 and len(stored["gluing"]) == 184


def test_stored_transforms_are_computed_again():
    stored = json.loads(FIXTURE.read_text())
    now = current()
    for key in ("cable", "gluing"):
        changed = [old[:2] for old, new in zip(stored[key], now[key]) if old != new]
        assert not changed, "%s coordinate maps changed for %s" % (key, changed[:10])
    assert now["readme"] == stored["readme"]


if __name__ == "__main__":
    FIXTURE.write_text(dump(current()))
