"""Every field of four emitted documents, broken one at a time.

Each field is replaced by a value of every JSON type it does not admit,
and each required field is deleted.  Through the CLI, every such document
is an input error (exit 2) that names the field's path, never a traceback.
Deleting a field that may be omitted is not an input error, but for the
two a round base needs.  Every integer of the three emitted certificates
is also edited in value: each edit fails a check (exit 1) or is an input
error (exit 2), or is the certificate the writer writes for the edited
document's own description.  An edit of a stored cable-space model that
is an input error breaks an invariant of a stored type, and names the
path of the value that breaks it.  A property test also edits values of
the three certificates at random, keeping their types, and reorders
their lists, with the same outcomes.

The nullable, token and omittable fields are listed here, apart from the
reader's tables, as the document format in the README states them.  Paths
are dotted, with list indices written as "#"; a leading "*" matches any
prefix.
"""

import json
from fnmatch import fnmatchcase
from fractions import Fraction

import pytest

from slopecert import AtomKnot, Cabling, Framing, KnotDescription, PrimitiveClass, canonical_slope
from slopecert.cli import RunConfig, run
from slopecert.jsonio import canonical_dumps, description_to_json

# JSON types a field admits besides the type of its emitted value.
EXTRA_TYPES = {
    "ambient_h1": {"null", "object"},
    "d_lower": {"null", "str", "list"},
    "levels.#.slopes": {"null", "list"},
    "tags.#.value": {"null", "list"},
    "*base.complementary_meridian": {"null", "list"},
    "*cablings.#.f_outer": {"null", "object"},
    "*cablings.#.f_inner": {"null", "object"},
    "*value_outer": {"str", "list"},
    "*value_inner": {"str", "list"},
    "base_slopes.#": {"str", "list"},
    "*strict_slopes.#": {"str", "list"},
}

# Fields that may be omitted.
OPTIONAL = (
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

# Optional fields a round base needs: without one of them, the base breaks
# its invariant, an input error at the base with the constructor's message.
ROUND_BASE = ("*base.is_round", "*base.complementary_meridian")

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
    """An emitted transfer certificate, a 2-level description and its
    certificate, and the certificate of a 2-level description over a round
    base, which states its ambient H1."""
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
    round_desc = tmp / "round_desc.json"
    round_desc.write_text(canonical_dumps(description_to_json(KnotDescription(
        base=AtomKnot(is_round=True, complementary_meridian=canonical_slope(5, 3)),
        cablings=(Cabling(1, 2), Cabling(-3, 2)),
    ))))
    tcert, dcert, rcert = tmp / "t.json", tmp / "d.json", tmp / "r.json"
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(tcert)))[0] == 0
    assert run(RunConfig(command="verify", inputs=(str(desc),), emit=str(dcert)))[0] == 0
    assert run(RunConfig(command="verify", inputs=(str(round_desc),), emit=str(rcert)))[0] == 0
    return {name: json.loads(path.read_text())
            for name, path in (("transfer", tcert), ("description", desc), ("diameter", dcert),
                               ("round", rcert))}


def verify(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return (*run(RunConfig(command="verify", inputs=(str(path),))), str(path))


@pytest.mark.parametrize("name", ["transfer", "description", "diameter", "round"])
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


@pytest.mark.parametrize("name", ["transfer", "description", "diameter", "round"])
def test_every_missing_required_field_is_an_input_error(documents, tmp_path, name):
    doc = documents[name]
    optional = 0
    for path, _ in fields(doc):
        if isinstance(path[-1], int) or matches(path[:-1], MAPS):
            continue
        code, report, where = verify(tmp_path, edited(doc, path, delete=True))
        if name == "round" and matches(path, ROUND_BASE):
            assert code == 2, (path, report)
            assert "input error: %s.description.base: " % where in report, (path, report)
        elif matches(path, OPTIONAL):
            assert code in (0, 1), (path, report)
            assert "input error" not in report
            optional += 1
        else:
            assert code == 2, (path, report)
            assert "input error: %s%s: expected " % (where, path_text(path)) in report, (
                path, report)
    # A transfer certificate has no optional field.
    assert optional == {"transfer": 0, "description": 9, "diameter": 22, "round": 18}[name]


# The input errors a model edit may give: the parameter checks, and the
# invariants of the types a model is built from, checked as they are built.
MODEL_INPUT_ERRORS = (
    "not a cabling (q must be at least 2)",
    "cabling curve not simple",
    "orientation must be +1 or -1",
    "not a primitive class: ",
    "not a basis: ",
    "sign must be +1 or -1, ",
)


def integers(x, path=()):
    """(path, value) of every integer in a JSON document."""
    for p, v in fields(x, path):
        if type(v) is int:
            yield p, v


def written_for_its_description(tmp_path, doc):
    """Whether a diameter certificate is, byte for byte, what `verify
    --emit` writes for its own description."""
    desc, out = tmp_path / "own.json", tmp_path / "own_cert.json"
    desc.write_text(json.dumps(dict(doc["description"], kind="knot_description")))
    code, _ = run(RunConfig(command="verify", inputs=(str(desc),), emit=str(out)))
    return code == 0 and out.read_text() == canonical_dumps(doc)


def integer_edits(tmp_path, doc, paths):
    """(path, new value, exit code, report, file) for every edit of an
    integer at one of `paths`: +1, -1, negation and 0, each that changes it."""
    for path, value in paths:
        for new in {value + 1, value - 1, -value, 0} - {value}:
            yield (path, new, *verify(tmp_path, edited(doc, path, new)))


# The emitted documents whose integers are edited, and the path of the model
# whose integers get the model's own input errors; a diameter certificate
# states no model.
MODELS = [("transfer", ("model",))]


@pytest.mark.parametrize("name, model", MODELS)
def test_every_integer_edit_of_a_model_fails_a_check_or_is_an_input_error(
        documents, tmp_path, name, model):
    doc = documents[name]
    sub = doc
    for k in model:
        sub = sub[k]
    outcomes = {}
    for path, new, code, report, where in integer_edits(tmp_path, doc, integers(sub, model)):
        if code == 1:
            assert "    FAIL " in report, (path, new, report)
        else:
            assert code == 2, (path, new, report)
            error = report.split("  input error: ", 1)[1].splitlines()[0]
            at, _, message = error.partition(": ")
            assert at.startswith(where + path_text(model)) and message.startswith(
                MODEL_INPUT_ERRORS + ("expected ",)), (path, new, report)
        outcomes[path[len(model):], new] = report
    assert len(outcomes) == 47
    # an edited framing no longer matches the stored t
    assert "    FAIL eq-longitude -- coordinate 0: " in outcomes[("f_inner", "lambda", 0), 1]
    assert "  input error: %s.model: not a cabling (q must be at least 2)\n" % where in (
        outcomes[("q",), 0])


@pytest.mark.parametrize("name, model", MODELS + [("diameter", ()), ("round", ())])
def test_every_other_integer_edit_fails_a_check_or_is_an_input_error(
        documents, tmp_path, name, model):
    # With the test above, every integer of the emitted documents is edited:
    # each is checked, the document no longer reads, or it is the writer's
    # certificate for the edited description.  A cabling's orientation
    # changes no slope, so flipping it gives exactly that certificate.
    doc = documents[name]
    others = [(path, v) for path, v in integers(doc)
              if not model or path[:len(model)] != model]
    edits, written = 0, []
    for path, new, code, report, where in integer_edits(tmp_path, doc, others):
        if code == 0:
            assert name != "transfer" and written_for_its_description(
                tmp_path, edited(doc, path, new)), (path, new, report)
            written.append((path, new))
        elif code == 1:
            assert "    FAIL " in report, (path, new, report)
        else:
            assert code == 2 and "  input error: %s" % where in report, (path, new, report)
        edits += 1
    assert edits > (30 if name == "round" else 100)
    orientations = [(("description", "cablings", i, "orientation"), -1) for i in (0, 1)]
    assert sorted(written) == {
        "transfer": [],
        "diameter": orientations,
        # A round base's certificate claims no bound and states no level
        # slopes, so it depends on a cabling only through its validity, and
        # on the complementary meridian (a, 3) only through H1 = Z/3.
        "round": [
            (("description", "base", "complementary_meridian", 0), -5),
            (("description", "base", "complementary_meridian", 0), 4),
            orientations[0],
            (("description", "cablings", 0, "p"), -1),
            (("description", "cablings", 0, "q"), 3),
            orientations[1],
            (("description", "cablings", 1, "p"), 3),
        ],
    }[name]


def test_same_type_value_mutations_fail_a_check_or_are_input_errors(
        documents, tmp_path_factory):
    # An integer becomes another integer, a string another string, and a
    # list loses an item, gains a copy of one or has two swapped: every
    # such document exits 1 or 2, or is the writer's certificate for its
    # own description, and the run raises nothing.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tmp = tmp_path_factory.mktemp("mutations")
    targets = [(name, path, value) for name in ("transfer", "diameter", "round")
               for path, value in fields(documents[name])
               if type(value) in (int, str) or (type(value) is list and value)]

    @st.composite
    def mutations(draw):
        name, path, value = draw(st.sampled_from(targets))
        if type(value) is int:
            new = draw(st.integers().filter(lambda n: n != value))
        elif type(value) is str:
            new = draw(st.text().filter(lambda s: s != value))
        else:
            how = draw(st.sampled_from(["delete", "copy", "swap"]))
            i = draw(st.integers(0, len(value) - 1))
            if how == "delete":
                new = value[:i] + value[i + 1:]
            elif how == "copy":
                j = draw(st.integers(0, len(value)))
                new = value[:j] + [value[i]] + value[j:]
            else:
                j = draw(st.integers(0, len(value) - 1).filter(lambda j: value[j] != value[i]))
                new = list(value)
                new[i], new[j] = value[j], value[i]
        return name, path, new

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(mutations())
    def check(mutation):
        name, path, new = mutation
        doc = edited(documents[name], path, new)
        code, report, _ = verify(tmp, doc)
        assert code in (1, 2) or (
            name != "transfer" and written_for_its_description(tmp, doc)), (
            name, path, new, report)

    check()
