"""Round-trip and validation tests for the JSON document formats."""

import enum
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from slopecert import (
    INF,
    AtomKnot,
    Cabling,
    Framing,
    KnotDescription,
    PrimitiveClass,
    cable_space_homology,
    canonical_slope,
    cli,
    cmd_transfer,
    cmd_verify,
    diameter_lower_bound,
    jsonio,
    transfer_certificate,
)
from slopecert.jsonio import (
    canonical_dumps,
    description_from_json,
    description_to_json,
    diameter_certificate_from_json,
    diameter_certificate_to_json,
    frac_from_json,
    frac_to_json,
    framing_from_json,
    framing_to_json,
    load_document,
    parse_matrix_text,
    slope_from_json,
    slope_to_json,
    transfer_certificate_from_json,
    transfer_certificate_to_json,
    value_from_json,
    value_to_json,
)
from slopecert.linalg import IntMatrix
from slopecert.pipeline import LevelCache
from test_golden import ROUND2


SAMPLE_DESCRIPTION = KnotDescription(
    base=AtomKnot(
        strict_numerical_slopes=frozenset({Fraction(-1, 3), Fraction(2), INF}),
    ),
    cablings=((2, 3), (1, 2)),
)

ROUND_DESCRIPTION = KnotDescription(
    base=AtomKnot(
        is_round=True,
        meridionally_small=True,
        ambient_pi1_cyclic=True,
        complementary_meridian=canonical_slope(0, 1),
    ),
    cablings=((2, 3),),
)


# --- scalars -------------------------------------------------------------------


def test_fraction_round_trip():
    for v in (Fraction(0), Fraction(-7, 3), Fraction(22, 4)):
        assert frac_from_json(frac_to_json(v)) == v
    assert frac_to_json(Fraction(22, 4)) == [11, 2]


def test_fraction_rejects_junk():
    for bad in ("1/2", [1], [1, 2, 3], [1.5, 2], [1, 0], [True, 2], [2, 4], [0, 2], [1, -2]):
        with pytest.raises(ValueError):
            frac_from_json(bad)


def test_value_round_trip():
    assert value_to_json(INF) == "inf"
    assert value_from_json("inf") is INF
    assert value_from_json(value_to_json(Fraction(3, 7))) == Fraction(3, 7)
    with pytest.raises(ValueError):
        value_from_json("infinity")


def test_slope_round_trip():
    for a, b in ((1, 0), (0, 1), (-3, 7), (5, 2)):
        s = canonical_slope(a, b)
        assert slope_from_json(slope_to_json(s)) == s
    for bad in ([0, 0], [2], [0, -1], [-1, 0], [2, 0], [2, 4]):
        with pytest.raises(ValueError, match="expected"):
            slope_from_json(bad)


def test_framing_round_trip():
    f = Framing(PrimitiveClass(-1, 0), PrimitiveClass(4, 1), 1)
    assert framing_from_json(framing_to_json(f)) == f
    with pytest.raises(ValueError, match="framing"):
        framing_from_json({"mu": [1, 0], "lambda": [0, 1]})


# --- documents ------------------------------------------------------------------


def test_transfer_certificate_round_trip():
    for p, q, orient in ((1, 2, 1), (2, 3, 1), (-3, 5, -1)):
        cert = transfer_certificate(cable_space_homology(p, q, orientation=orient))
        text = canonical_dumps(transfer_certificate_to_json(cert))
        back = transfer_certificate_from_json(json.loads(text))
        assert back == cert
        assert canonical_dumps(transfer_certificate_to_json(back)) == text


def test_description_round_trip():
    for d in (SAMPLE_DESCRIPTION, ROUND_DESCRIPTION):
        text = canonical_dumps(description_to_json(d))
        back = description_from_json(json.loads(text))
        assert back == d
        assert canonical_dumps(description_to_json(back)) == text


def test_description_is_written_with_its_fields_only():
    # no complementary meridian or framings: those keys are left out, not null
    assert description_to_json(SAMPLE_DESCRIPTION) == {
        "kind": "knot_description",
        "base": {
            "strict_slopes": [[-1, 3], [2, 1], "inf"],
            "meridionally_small": False,
            "is_round": False,
            "is_cable": False,
            "ambient_pi1_cyclic": False,
        },
        "cablings": [
            {"p": 2, "q": 3, "orientation": 1},
            {"p": 1, "q": 2, "orientation": 1},
        ],
    }


def test_description_with_custom_framings_round_trips():
    d = KnotDescription(
        base=AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(1)}),
            meridionally_small=True,
        ),
        cablings=(
            Cabling(
                2,
                3,
                orientation=-1,
                f_inner=Framing(PrimitiveClass(1, 0), PrimitiveClass(-5, 1), 1),
            ),
        ),
    )
    text = canonical_dumps(description_to_json(d))
    back = description_from_json(json.loads(text))
    assert back == d


def test_diameter_certificate_round_trip():
    for d in (
        SAMPLE_DESCRIPTION,
        ROUND_DESCRIPTION,
        KnotDescription(base=AtomKnot()),
    ):
        cert = diameter_lower_bound(d)
        doc = diameter_certificate_to_json(cert)
        # A level states only its slopes; its cabling's transfer certificate
        # is rebuilt by verify.
        assert [sorted(level) for level in doc["levels"]] == [["slopes"]] * len(d.cablings)
        text = canonical_dumps(doc)
        back = diameter_certificate_from_json(json.loads(text))
        assert back == cert
        assert canonical_dumps(diameter_certificate_to_json(back)) == text


def test_load_document_dispatch():
    d = SAMPLE_DESCRIPTION
    doc = load_document(canonical_dumps(description_to_json(d)))
    assert doc == d
    cert = diameter_lower_bound(d)
    doc = load_document(canonical_dumps(diameter_certificate_to_json(cert)))
    assert doc == cert
    tc = transfer_certificate(cable_space_homology(2, 3))
    doc = load_document(canonical_dumps(transfer_certificate_to_json(tc)))
    assert doc == tc


def test_load_document_errors():
    with pytest.raises(ValueError, match="malformed JSON"):
        load_document("{not json", where="x.json")
    with pytest.raises(ValueError, match="kind"):
        load_document('{"kind": "mystery"}')
    with pytest.raises(ValueError, match="JSON object"):
        load_document('[1, 2]')


def test_booleans_are_not_integers():
    with pytest.raises(ValueError):
        slope_from_json([True, 0])
    with pytest.raises(ValueError):
        frac_from_json([1, True])


def test_a_set_of_slopes_may_not_repeat_a_value():
    # Slopes are a set, read only in the writer's order: a repeated or
    # reordered one would read as the same description, so one description
    # would have several documents.  The error names the first value that
    # is not after the one before it.
    doc = description_to_json(SAMPLE_DESCRIPTION)
    assert doc["base"]["strict_slopes"] == [[-1, 3], [2, 1], "inf"]
    for slopes, at in (
        ([[-1, 3], [-1, 3], [2, 1], "inf"], 1),
        (["inf", [2, 1], [-1, 3]], 1),
        ([[-1, 3], "inf", [2, 1]], 2),
        ([[-1, 3], [2, 1], "inf", "inf"], 3),
    ):
        doc["base"]["strict_slopes"] = slopes
        with pytest.raises(ValueError, match=r"^description\.base\.strict_slopes\[%d\]: "
                           'expected a value after the one before it: ascending, "inf" last,'
                           " none repeated$" % at):
            description_from_json(doc)


def test_canonical_dumps_is_stable():
    doc = description_to_json(SAMPLE_DESCRIPTION)
    a = canonical_dumps(doc)
    b = canonical_dumps(json.loads(a))
    assert a == b
    assert a.endswith("\n")


# --- the canonical emitter ----------------------------------------------------


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def outcome(dumps, obj):
    """The text `dumps` writes for `obj`, or the type and message of its error."""
    try:
        return dumps(obj)
    except (TypeError, ValueError, RecursionError) as e:
        return type(e), str(e)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


class Real(float):
    pass


EMITTER_CASES = (
    None, True, False, 0, -7, 10 ** 400, -(10 ** 400), 2 ** 64,
    1.5, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan"),
    "", "plain", "quote \" backslash \\ newline \n tab \t", "café   \U0001f600",
    "lone \ud800 surrogate",
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
    [1, 2, 3], (1, 2), [1, True], [True, 1, 1.0], [1, 2 ** 100, -3], [0, None],
    [Level.LOW, 2], Level.LOW, Name("key"), Real(2.5), {Name("k"): Real(0.5)},
    {"b": 1, "a": [1, [2, [3, {"z": None, "y": "s"}]]]},
    {1: "a", 10: "b", 2: "c"}, {1.5: 0, -2.5: 1}, {True: 0, False: 1},
    {None: 0}, {float("nan"): 1}, {Level.LOW: "one"},
)

UNSERIALIZABLE_CASES = (
    object(), {1, 2}, b"bytes", Fraction(1, 2), 1j, [1, object()], (1, {2}),
    {"a": {"b": b"x"}}, {(1, 2): 3}, {1: 2, "a": 3}, {frozenset(): 1},
)


def test_canonical_dumps_matches_the_stdlib_on_fixed_cases():
    for obj in EMITTER_CASES:
        assert canonical_dumps(obj) == stdlib_dumps(obj), obj


def test_canonical_dumps_raises_what_the_stdlib_raises():
    for obj in UNSERIALIZABLE_CASES:
        expected = outcome(stdlib_dumps, obj)
        assert isinstance(expected, tuple), obj
        assert outcome(canonical_dumps, obj) == expected
    cycle = []
    cycle.append(cycle)
    assert outcome(canonical_dumps, cycle) == (ValueError, "Circular reference detected")


def test_canonical_dumps_matches_the_stdlib_on_every_cli_document(tmp_path, monkeypatch):
    """Every document and report the CLI writes, in both formats, and all
    of them on the emitter's own path: none is left to the stdlib."""
    real = jsonio.canonical_dumps
    real_dumps = json.dumps
    kinds = []

    def no_fallback(obj, **options):
        if "indent" in options:
            raise AssertionError("canonical_dumps left a value to the stdlib")
        return real_dumps(obj, **options)

    def checked(obj):
        text = real(obj)
        assert text == real_dumps(obj, sort_keys=True, indent=2) + "\n"
        kinds.append(obj.get("kind"))
        return text

    # The emitter, where cli calls it for JSON reports and the transfer and
    # verify runners for --emit.
    for module in (cli, cmd_transfer, cmd_verify):
        monkeypatch.setattr(module, "canonical_dumps", checked)
    monkeypatch.setattr(json, "dumps", no_fallback)  # the fallback, where textio imports it
    matrix = tmp_path / "m.txt"
    matrix.write_text("3 3\n2 4 4\n-6 6 12\n10 4 16\n")
    desc = tmp_path / "desc.json"
    desc.write_text(real(description_to_json(KnotDescription(
        base=AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
            meridionally_small=True,
            ambient_pi1_cyclic=True,
        ),
        cablings=((1, 2), (-3, 5)),
    ))))
    tcert, dcert = tmp_path / "t.json", tmp_path / "d.json"
    runs = [
        ["snf", str(matrix)],
        ["cable-homology", "--p", "2", "--q", "3"],
        ["transfer", "--p", "2", "--q", "3", "--emit", str(tcert)],
        ["propagate", str(desc)],
        ["verify", str(desc), "--emit", str(dcert)],
        ["verify", str(dcert), str(tcert)],
    ]
    for argv in runs:
        for fmt in ("text", "json"):
            assert cli.main(argv + ["--format", fmt]) == 0
    # A stored certificate with a field of the wrong type is an input error.
    for value in (1.5, {}, [], None, True):
        doc = json.loads(dcert.read_text())
        doc["primary_route"] = value
        doc["reason"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(real_dumps(doc))
        assert cli.main(["verify", str(bad), "--format", "json"]) == 2
    assert set(kinds) == {
        "snf_report", "cable_homology_report", "transfer_report",
        "transfer_certificate", "propagation_report", "verify_report",
        "diameter_certificate",
    }


def json_trees(st, keys):
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
        | st.floats()
        | st.text()
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(keys, children),
        max_leaves=20,
    )


def test_canonical_dumps_matches_the_stdlib_on_random_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(json_trees(st, keys))
    def check(obj):
        assert outcome(canonical_dumps, obj) == outcome(stdlib_dumps, obj)

    check()


def leaves(x, path=()):
    """(container, key) of every scalar in a JSON document."""
    items = x.items() if isinstance(x, dict) else enumerate(x)
    for k, v in items:
        if isinstance(v, (dict, list)) and v:
            yield from leaves(v, path + (k,))
        else:
            yield x, k


def edits(v):
    """A changed value of `v`, and values of other types, near it where possible."""
    out = [True, False, 0, 1, 0.0, 1.0, None, "1", "inf", [], {}, [v]]
    if isinstance(v, bool):
        out += [not v, int(v), float(v)]
    elif isinstance(v, int):
        out += [v + 1, -v, float(v), v == 1]
    elif isinstance(v, str):
        out += [v + "x", v.upper()]
    return out


def test_replay_comparison_equals_canonical_text_comparison():
    """Single-field edits of emitted certificates that load: the replay's
    verdict (record ==) equals the verdict of comparing canonical text."""
    one_level = diameter_lower_bound(KnotDescription(
        base=AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
            meridionally_small=True,
            ambient_pi1_cyclic=True,
        ),
        cablings=((1, 2),),
    ))
    round2 = diameter_lower_bound(description_from_json(ROUND2))
    cache = LevelCache()  # holds built level certificates only, never parsed ones
    replays = {}  # description -> its recomputed certificate and that one's text
    verdicts = Counter()

    def emit(cert):
        return canonical_dumps(diameter_certificate_to_json(cert))

    for cert in (one_level, round2):
        edited = diameter_certificate_to_json(cert)
        for container, key in leaves(edited):
            original = container[key]
            for value in edits(original):
                container[key] = value
                try:
                    loaded = load_document(json.dumps(edited))
                except ValueError:
                    continue
                if loaded.description not in replays:
                    recomputed = diameter_lower_bound(loaded.description, cache)
                    replays[loaded.description] = recomputed, emit(recomputed)
                recomputed, text = replays[loaded.description]
                verdict = recomputed == loaded
                assert verdict == (emit(loaded) == text), (key, original, value)
                verdicts[verdict] += 1
            container[key] = original
    # The ambient H1's leaves give 1 and 4 of these: the null of one_level
    # edited to null, and round2's invariant factor 3 edited to 0, 1, 4, -3.
    assert verdicts == {True: 54, False: 85}


# --- the reader: json.loads through the C scanner ---------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DOCUMENTS = [p.read_text() for p in sorted(FIXTURES.glob("*.json"))
             if p.name.startswith(("transfer_", "diameter_"))]

# Empty and whitespace-only text, a BOM, the constants json reads, a repeated
# key (the last wins), floats past the double range, an integer past the
# digit limit, nesting past the recursion limit, trailing data, and other
# text json refuses.
FIXED_TEXTS = [
    "", " \t\n\r ", "\ufeff", "\ufeff{}", " \ufeff{}", "\x0c{}", "\xa0{}",
    "NaN", "[NaN, Infinity, -Infinity]", '{"a": 1, "b": 2, "a": 3}',
    "1e400", "-1e400", "[1, 1.0, true, 1e2, -0, -0.0]", "1" * 5000, "-" + "9" * 4301,
    "[" * 100000 + "]" * 100000, '{"a": ' * 100000,
    '{"a": 1} x', '{"a": 1}{}', "1 2", "[1, 2] \n", '"\x01"', '"\\ud800"', '"é\\u00e9"',
    "[1,]", '{"a": 1,}', "nul", "-", "01", "1.", ".5", "[1e]", "'a'",
]


def parsed(loads, text):
    """What `loads` makes of `text`: ["value", the repr of its value, which
    tells 1, 1.0 and true apart] or ["error", its error].  load_document words
    every RecursionError alike, so its text is left out."""
    try:
        return ["value", repr(loads(text))]
    except ValueError as e:
        return ["error", "%s: %s" % (type(e).__name__, e)]
    except RecursionError:
        return ["error", "RecursionError"]


def test_the_reader_reads_fixed_texts_as_json_loads_does():
    for text in FIXED_TEXTS:
        assert parsed(jsonio._loads, text) == parsed(json.loads, text), text[:40]
    assert jsonio._loads('{"a": 1, "a": 2.5}') == {"a": 2.5}


def test_the_reader_reads_random_trees_as_json_loads_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    trees = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
        lambda children: st.lists(children) | st.dictionaries(st.text(), children),
        max_leaves=20,
    )
    space = st.text(alphabet=" \t\n\r", max_size=3)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(trees, st.sampled_from([None, 0, 2, "\t"]), st.booleans(),
                      space, space, space, space)
    def check(tree, indent, ascii, before, after, item, key):
        text = before + json.dumps(tree, indent=indent, ensure_ascii=ascii,
                                   separators=("," + item, ":" + key)) + after
        assert parsed(jsonio._loads, text) == parsed(json.loads, text)

    check()


def test_the_reader_reads_truncated_and_edited_documents_as_json_loads_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(DOCUMENTS), st.floats(0, 1, exclude_max=True),
                      st.sampled_from('"{}[],:0123456789-+.eEtfnul \\\t\n\x00\ufeffé') | st.none())
    def check(text, where, byte):
        # The text up to a point, or one character replaced there.
        i = int(where * len(text))
        edited = text[:i] if byte is None else text[:i] + byte + text[i + 1:]
        assert parsed(jsonio._loads, edited) == parsed(json.loads, edited)

    check()


# --- matrix text files -----------------------------------------------------------


def test_parse_matrix_text():
    m = parse_matrix_text("2 3\n1 2 3\n4 5 6\n")
    assert m == IntMatrix(2, 3, (1, 2, 3, 4, 5, 6))
    # whitespace layout is free-form
    assert parse_matrix_text("2 2 1 0 0 1") == IntMatrix(2, 2, (1, 0, 0, 1))
    assert parse_matrix_text("0 4\n") == IntMatrix(0, 4, ())


def test_parse_matrix_text_errors():
    with pytest.raises(ValueError, match="rows cols"):
        parse_matrix_text("")
    with pytest.raises(ValueError, match="rows cols"):
        parse_matrix_text("3")
    with pytest.raises(ValueError, match="integers"):
        parse_matrix_text("2 2\n1 2 3 x")
    with pytest.raises(ValueError, match="nonnegative"):
        parse_matrix_text("-1 2\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        parse_matrix_text("2 2\n1 2 3")
