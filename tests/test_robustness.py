"""Mutated stand-alone documents end in an exit code, never a traceback.

Knot descriptions and one emitted transfer certificate are mutated at
random: fields dropped, values replaced by values of other JSON types,
huge, zero or negative p and q, and framings that break the model's
conditions.  `verify`, and `propagate` for a description, must exit 0, 1
or 2 and raise nothing.  A mutated document may still verify (exit 0):
dropping an optional field, or a new p coprime to q, gives another valid
description.  Most runs go through cli.main in process; a few go through
fresh ``python -S -m slopecert.cli`` processes, where the CLI runs as
__main__ and each module is imported only when a document needs it, so
the lazy import order of a real job runs too.
"""

import json
import subprocess
import sys

import pytest

from slopecert import cli
from slopecert.cli import RunConfig, run

from test_imports import fresh_env

DESCRIPTIONS = {
    "small": {
        "kind": "knot_description",
        "base": {"strict_slopes": [[-1, 3], [0, 1], [6, 1]], "meridionally_small": True,
                 "ambient_pi1_cyclic": True},
        "cablings": [
            {"p": 1, "q": 2},
            {"p": 3, "q": 2, "f_inner": {"mu": [1, 0], "lambda": [-5, 1], "sign": 1}},
            {"p": -5, "q": 3, "orientation": -1},
        ],
    },
    "round": {
        "kind": "knot_description",
        "base": {"is_round": True, "complementary_meridian": [2, 3]},
        "cablings": [{"p": 7, "q": 2}],
    },
    "bare": {"kind": "knot_description", "base": {}},
}

# Values of every JSON type, for a field whose type is replaced.
VALUES = (None, True, False, 0, 7, -1, 1.5, "", "x", "inf", [], [1], [1, 2], {}, {"p": 1})

# Integers for p and q: zero, units, and ones past any machine word.
EXTREME_INTS = (0, 1, -1, 2, 2 ** 64 + 1, -(2 ** 80) - 1, 10 ** 300, -(10 ** 300) + 7)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The descriptions, and an emitted `transfer --p 2 --q 3` certificate."""
    tcert = tmp_path_factory.mktemp("robust") / "t.json"
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(tcert)))[0] == 0
    return dict(DESCRIPTIONS, transfer=json.loads(tcert.read_text()))


def paths(x, path=()):
    """The path of every object entry and list item, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from paths(v, path + (k,))


def places(doc):
    """The objects that hold p and q (cablings, or a certificate's model
    and map) and those that may hold framings."""
    if doc.get("kind") == "transfer_certificate":
        return [("model",), ("map",)], [("model",)]
    cablings = doc.get("cablings")
    cablings = [("cablings", i) for i in range(len(cablings))] if type(cablings) is list else []
    return cablings, cablings


def at(doc, path):
    """The value at `path`, or None when a mutation removed it."""
    for k in path:
        try:
            doc = doc[k]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def mutations(st, documents):
    """A strategy of (name, mutated copy of documents[name])."""

    @st.composite
    def mutation(draw):
        name = draw(st.sampled_from(sorted(documents)))
        doc = json.loads(json.dumps(documents[name]))
        for _ in range(draw(st.integers(1, 3))):
            holders, framed = places(doc)
            how = draw(st.sampled_from(["drop", "retype", "p-q", "framing"]))
            if how in ("drop", "retype"):
                # The kind stays: a document of no kind fails before it is read.
                targets = [path for path in paths(doc) if path != ("kind",)]
                if not targets:
                    continue
                path = draw(st.sampled_from(targets))
                parent = at(doc, path[:-1])
                if how == "drop":
                    del parent[path[-1]]
                else:
                    # A copy: a later mutation may edit inside it.
                    parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(VALUES))))
            elif how == "p-q" and holders:
                holder = at(doc, draw(st.sampled_from(holders)))
                if type(holder) is dict:
                    key = draw(st.sampled_from(["p", "q"]))
                    holder[key] = draw(st.sampled_from(EXTREME_INTS) | st.integers())
            elif how == "framing" and framed:
                holder = at(doc, draw(st.sampled_from(framed)))
                small = st.integers(-3, 3)
                if type(holder) is dict:
                    holder[draw(st.sampled_from(["f_outer", "f_inner"]))] = {
                        "mu": [draw(small), draw(small)],
                        "lambda": [draw(small), draw(small)],
                        "sign": draw(small),
                    }
        return name, doc

    return mutation()


def commands(doc):
    """The runs a document gets: verify, and propagate for a description."""
    if doc.get("kind") == "knot_description":
        return ("verify", "propagate")
    return ("verify",)


def test_mutated_documents_exit_0_1_or_2_in_process(documents, tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "doc.json"

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(mutations(hypothesis.strategies, documents))
    def check(mutation):
        name, doc = mutation
        path.write_text(json.dumps(doc))
        for command in commands(doc):
            code = cli.main([command, str(path)])
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (name, command, doc, out)

    check()


def test_mutated_documents_exit_0_1_or_2_as_fresh_processes(documents, tmp_path):
    # Fewer runs: each is a new interpreter.
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "doc.json"

    @hypothesis.settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @hypothesis.given(mutations(hypothesis.strategies, documents))
    def check(mutation):
        name, doc = mutation
        path.write_text(json.dumps(doc))
        for command in commands(doc):
            proc = subprocess.run(
                [sys.executable, "-S", "-m", "slopecert.cli", command, "doc.json"],
                cwd=tmp_path, env=fresh_env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode in (0, 1, 2), (name, command, doc, proc.stderr)
            assert "Traceback" not in proc.stderr, (name, command, doc, proc.stderr)

    check()
