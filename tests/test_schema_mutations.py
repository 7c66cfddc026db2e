"""Every field of three emitted documents, broken one at a time.

Each field is replaced by a value of every JSON type it does not admit,
and each required field is deleted.  Through the CLI, every such document
is an input error (exit 2) that names the field's path, never a traceback.
Deleting a field that may be omitted is not an input error.  Every
integer of a stored cable-space model is also edited in value: each edit
fails a check (exit 1) or breaks an invariant of a stored type (exit 2,
with the path of the value that breaks it).

The nullable, token and omittable fields are listed here, apart from the
reader's tables, as the document format in the README states them.  Paths
are dotted, with list indices written as "#"; a leading "*" matches any
prefix.
"""

import json
from fnmatch import fnmatchcase
from fractions import Fraction

import pytest

from slopecert import AtomKnot, Cabling, Framing, KnotDescription, PrimitiveClass
from slopecert.cli import RunConfig, run
from slopecert.jsonio import canonical_dumps, description_to_json

# JSON types a field admits besides the type of its emitted value.
EXTRA_TYPES = {
    "ambient_h1": {"null", "object"},
    "d_lower": {"null", "str", "list"},
    "levels.#.slopes": {"null", "list"},
    "tags.#.value": {"null", "list"},
    "*invariant_factors": {"null", "list"},
    "*base.complementary_meridian": {"null", "list"},
    "*cablings.#.f_outer": {"null", "object"},
    "*cablings.#.f_inner": {"null", "object"},
    "levels.#.cabling.f_outer": {"null", "object"},
    "levels.#.cabling.f_inner": {"null", "object"},
    "*value_outer": {"str", "list"},
    "*value_inner": {"str", "list"},
    "base_slopes.#": {"str", "list"},
    "*strict_slopes.#": {"str", "list"},
}

# Fields that may be omitted.
OPTIONAL = (
    "*invariant_factors",
    "*base.strict_slopes",
    "*base.meridionally_small",
    "*base.is_round",
    "*base.is_cable",
    "*base.ambient_pi1_cyclic",
    "*base.complementary_meridian",
    "*cablings",
    "*cablings.#.orientation",
    "*cablings.#.f_outer",
    "*cablings.#.f_inner",
    "levels.#.cabling.orientation",
    "levels.#.cabling.f_outer",
    "levels.#.cabling.f_inner",
    "ambient_h1",
    "base_slopes",
    "levels",
    "levels.#.slopes",
    "routes",
    "primary_route",
    "d_lower",
    "reason",
    "tags",
    "tags.#.value",
)

# Objects whose entries are named values, not fields.
MAPS = ("routes",)

REPLACEMENTS = {
    "null": None, "bool": True, "int": 7, "float": 1.5, "str": "x", "list": [], "object": {},
}


def json_type(v):
    if isinstance(v, bool):
        return "bool"
    return {type(None): "null", int: "int", float: "float", str: "str", list: "list",
            dict: "object"}[type(v)]


def pattern(path):
    return ".".join("#" if isinstance(k, int) else k for k in path)


def matches(path, patterns):
    return any(fnmatchcase(pattern(path), p) for p in patterns)


def path_text(path):
    """The path as input errors write it: .key, [index], ["name"] in a map."""
    out = ""
    for i, k in enumerate(path):
        if isinstance(k, int):
            out += "[%d]" % k
        elif i and matches(path[:i], MAPS):
            out += "[%s]" % json.dumps(k)
        else:
            out += "." + k
    return out


def fields(x, path=()):
    """(path, value) of every object entry and list item, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from fields(v, path + (k,))


def edited(doc, path, value=None, delete=False):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """An emitted transfer certificate, a 2-level description and its certificate."""
    tmp = tmp_path_factory.mktemp("docs")
    desc = tmp / "desc.json"
    desc.write_text(canonical_dumps(description_to_json(KnotDescription(
        base=AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
            meridionally_small=True,
            ambient_pi1_cyclic=True,
        ),
        cablings=(
            Cabling(1, 2),
            Cabling(3, 2, f_inner=Framing(PrimitiveClass(1, 0), PrimitiveClass(-5, 1), 1)),
        ),
    ))))
    tcert, dcert = tmp / "t.json", tmp / "d.json"
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(tcert)))[0] == 0
    assert run(RunConfig(command="verify", inputs=(str(desc),), emit=str(dcert)))[0] == 0
    return {name: json.loads(path.read_text())
            for name, path in (("transfer", tcert), ("description", desc), ("diameter", dcert))}


def verify(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return (*run(RunConfig(command="verify", inputs=(str(path),), grid=1)), str(path))


@pytest.mark.parametrize("name", ["transfer", "description", "diameter"])
def test_every_field_of_a_wrong_type_is_an_input_error(documents, tmp_path, name):
    doc = documents[name]
    tried = 0
    for path, value in fields(doc):
        admitted = {json_type(value)}
        for p, extra in EXTRA_TYPES.items():
            if fnmatchcase(pattern(path), p):
                admitted |= extra
        for t, replacement in REPLACEMENTS.items():
            if t in admitted:
                continue
            code, report, where = verify(tmp_path, edited(doc, path, replacement))
            assert code == 2, (path, replacement, report)
            assert "input error: %s%s: expected " % (where, path_text(path)) in report, (
                path, replacement, report)
            tried += 1
    assert tried > 100


@pytest.mark.parametrize("name", ["transfer", "description", "diameter"])
def test_every_missing_required_field_is_an_input_error(documents, tmp_path, name):
    doc = documents[name]
    optional = 0
    for path, _ in fields(doc):
        if isinstance(path[-1], int) or matches(path[:-1], MAPS):
            continue
        code, report, where = verify(tmp_path, edited(doc, path, delete=True))
        if matches(path, OPTIONAL):
            assert code in (0, 1), (path, report)
            assert "input error" not in report
            optional += 1
        else:
            assert code == 2, (path, report)
            assert "input error: %s%s: expected " % (where, path_text(path)) in report, (
                path, report)
    assert optional > 0


# The input errors a model edit may give: the parameter checks, and the
# invariants of the types a model is built from, checked as they are built.
MODEL_INPUT_ERRORS = (
    "not a cabling (q must be at least 2)",
    "cabling curve not simple",
    "orientation must be +1 or -1",
    "not a primitive class: ",
    "not a basis: ",
    "sign must be +1 or -1, ",
    "matrix dimensions must be nonnegative",
    "entry count does not match dimensions",
    "diagonal length must equal generator count",
    "coordinate map must be square of generator size",
    "coordinate map must be unimodular",
    "invariant factors must be nonnegative",
    "free factors must come last",
    "invariant factors must form a divisibility chain",
)


def integers(x, path=()):
    """(path, value) of every integer in a JSON document."""
    for p, v in fields(x, path):
        if type(v) is int:
            yield p, v


@pytest.mark.parametrize("name, model", [
    ("transfer", ("model",)),
    ("diameter", ("levels", 0, "certificate", "model")),
])
def test_every_integer_edit_of_a_model_fails_a_check_or_is_an_input_error(
        documents, tmp_path, name, model):
    doc = documents[name]
    sub = doc
    for k in model:
        sub = sub[k]
    outcomes = {}
    for path, value in integers(sub, model):
        for new in {value + 1, value - 1, -value, 0} - {value}:
            code, report, where = verify(tmp_path, edited(doc, path, new))
            if code == 1:
                assert "    FAIL " in report, (path, new, report)
            else:
                assert code == 2, (path, new, report)
                error = report.split("  input error: ", 1)[1].splitlines()[0]
                at, _, message = error.partition(": ")
                assert at.startswith(where + path_text(model)) and message.startswith(
                    MODEL_INPUT_ERRORS + ("expected ",)), (path, new, report)
            outcomes[path[len(model):], new] = report
    assert len(outcomes) > 150
    if name == "transfer":
        # an edited framing no longer matches the stored images
        assert "    FAIL iota-isomorphisms\n" in outcomes[("f_inner", "lambda", 0), 1]
        assert "  input error: %s.model: not a cabling (q must be at least 2)\n" % where in (
            outcomes[("q",), 0])
