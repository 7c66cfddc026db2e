"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from slopecert import (
    AtomKnot,
    KnotDescription,
    cable_space_homology,
    diameter_lower_bound,
    transfer_certificate,
)
from slopecert.argparser import _build_parser
from slopecert.cli import _COMMANDS, WRITE_CHUNK, RunConfig, _parse_plain, main, run
from slopecert.jsonio import (
    canonical_dumps,
    description_to_json,
    diameter_certificate_to_json,
    load_document,
    transfer_certificate_to_json,
)
from slopecert.cmd_snf import _fmt_matrix_lines
from slopecert.linalg import IntMatrix
from slopecert.textio import MAX_MATRIX_DIM


def run_text(config):
    """(exit code, report text) of `run`: its pieces joined."""
    code, pieces = run(config)
    return code, "".join(pieces)


def write_description(tmp_path, name="desc.json", **kwargs):
    kwargs.setdefault(
        "base",
        AtomKnot(
            strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
            meridionally_small=True,
            ambient_pi1_cyclic=True,
        ),
    )
    kwargs.setdefault("cablings", ((1, 2),))
    d = KnotDescription(**kwargs)
    path = tmp_path / name
    path.write_text(canonical_dumps(description_to_json(d)))
    return d, str(path)


# --- snf --------------------------------------------------------------------


def test_snf_identity(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    assert main(["snf", str(path)]) == 0
    out = capsys.readouterr().out
    assert "diagonal: 1 1" in out


def test_snf_classic_example(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 0\n0 3\n")
    assert main(["snf", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagonal"] == [1, 6]
    # the transforms are included and square
    assert doc["U"]["rows"] == doc["U"]["cols"] == 2


def readme_snf_example():
    """The matrix file and the output of the README's `snf` example."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### `snf`", 1)[1]
    block = section.split("```\n", 2)[1]
    cat, run = block.split("$ slopecert snf m.txt\n")
    return cat.split("$ cat m.txt\n")[1], run


def test_snf_readme_example(tmp_path, monkeypatch, capsys):
    # U and V are not unique, so the README can drift from the code.
    matrix, expected = readme_snf_example()
    (tmp_path / "m.txt").write_text(matrix)
    monkeypatch.chdir(tmp_path)
    assert main(["snf", "m.txt"]) == 0
    assert capsys.readouterr().out == expected


def test_snf_bad_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2 3\n")
    assert main(["snf", str(path)]) == 2
    assert "input error" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("x 2\n", "matrix row and column counts must be integers"),
    ("2 1.5\n1 2\n", "matrix row and column counts must be integers"),
    ("1 2\n1 x\n", "matrix entries must be integers"),
])
def test_snf_names_what_is_not_an_integer(text, message, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert main(["snf", str(path)]) == 2
    assert capsys.readouterr().out == "input error: %s\n" % message


@pytest.mark.parametrize("counts", ["%d 0" % (MAX_MATRIX_DIM + 1), "0 1200", "1200 1200"])
def test_snf_rejects_a_matrix_over_the_size_limit(counts, tmp_path, capsys):
    # The counts alone are an input error, before any matrix is built: a
    # 1200x0 matrix would send a 1200x1200 identity U through the exact
    # determinant check for over a minute.
    path = tmp_path / "m.txt"
    path.write_text(counts + "\n")
    assert main(["snf", str(path)]) == 2
    assert capsys.readouterr().out == (
        "input error: a %sx%s matrix is too large: rows and cols must be at most %d\n"
        % (*counts.split(), MAX_MATRIX_DIM)
    )


@pytest.mark.parametrize("text, message", [
    ("1200 1200\n" + "x " * 100, "a 1200x1200 matrix is too large: rows and cols must be at"
                                  " most %d" % MAX_MATRIX_DIM),
    ("-1 2\nx y\n", "matrix dimensions must be nonnegative"),
    ("2 2\nx y z\n", "expected 4 entries for a 2x2 matrix, got 3"),
])
def test_snf_checks_the_counts_before_it_converts_an_entry(text, message, tmp_path, capsys):
    # Entries that are not integers are never read when the counts already
    # reject the file.
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert main(["snf", str(path)]) == 2
    assert capsys.readouterr().out == "input error: %s\n" % message


def test_snf_accepts_a_matrix_at_the_size_limit(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("%d 0\n" % MAX_MATRIX_DIM)
    assert main(["snf", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagonal"] == []


def per_entry_lines(m):
    """snf's matrix lines by the rule of the width of every entry's text."""
    if m.rows == 0 or m.cols == 0:
        return ["  (empty %dx%d)" % (m.rows, m.cols)]
    texts = [str(e) for e in m.entries]
    width = max(map(len, texts))
    return ["  " + " ".join(t.rjust(width) for t in texts[i:i + m.cols])
            for i in range(0, len(texts), m.cols)]


@pytest.mark.parametrize("m", [
    IntMatrix(1, 2, (-100, 99)),
    IntMatrix(1, 2, (100, -99)),
    IntMatrix(2, 2, (-100, 99, 7, -5)),
    IntMatrix(2, 3, (0,) * 6),
    IntMatrix(1, 1, (-7,)),
    IntMatrix(0, 0, ()),
    IntMatrix(0, 3, ()),
    IntMatrix(3, 0, ()),
], ids=repr)
def test_snf_width_is_that_of_the_largest_or_smallest_entry(m):
    assert _fmt_matrix_lines(m) == per_entry_lines(m)


def test_snf_text_pieces_are_lines_and_newlines(tmp_path):
    # run renders the whole report and hands main its lines and their
    # newlines in order, never joined.
    path = tmp_path / "m.txt"
    path.write_text("2 2\n4 6\n2 8\n")
    code, pieces = run(RunConfig(command="snf", inputs=(str(path),)))
    assert code == 0
    assert pieces[1::2] == ["\n"] * (len(pieces) // 2) and len(pieces) % 2 == 0
    assert pieces[:8:2] == ["smith normal form of %s (2x2)" % path, "D =", "   2  0", "   0 10"]
    code, pieces = run(RunConfig(command="snf", inputs=(str(path),), format="json"))
    assert code == 0 and len(pieces) == 1 and json.loads(pieces[0])["diagonal"] == [2, 10]


def test_snf_peak_memory_holds_the_text_report_about_once(tmp_path):
    # The dense 60x60 text report is written in the pieces it was rendered
    # in: no joined copy, and no text of every entry at once.
    rng = random.Random(60)
    path = tmp_path / "m.txt"
    path.write_text("60 60\n" + " ".join(str(rng.randint(-9, 9)) for _ in range(3600)))
    size = len("".join(run(RunConfig(command="snf", inputs=(str(path),)))[1]))
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["snf", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert size > 500_000
    assert peak < 2 * size, (peak, size)


def test_main_writes_a_report_in_batches_of_about_write_chunk(tmp_path, monkeypatch):
    # The dense 60x60 text report's lines are gathered into writes of at
    # least WRITE_CHUNK characters, but for the last, each less than
    # WRITE_CHUNK more than its last piece, and in order they are the report.
    rng = random.Random(60)
    path = tmp_path / "m.txt"
    path.write_text("60 60\n" + " ".join(str(rng.randint(-9, 9)) for _ in range(3600)))
    pieces = run(RunConfig(command="snf", inputs=(str(path),)))[1]
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": lambda _, s: writes.append(s)})())
    assert main(["snf", str(path)]) == 0
    assert "".join(writes) == "".join(pieces)
    longest = max(map(len, pieces))
    assert len(writes) > 2
    assert all(WRITE_CHUNK <= len(w) < WRITE_CHUNK + longest for w in writes[:-1])
    assert len(writes[-1]) < WRITE_CHUNK + longest


# --- cable-homology -----------------------------------------------------------


def test_cable_homology_text(capsys):
    assert main(["cable-homology", "--p", "2", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "H1 = Z<c, m, l> / (3c - 2m - 3l)" in out
    assert "Z + Z" in out


def test_cable_homology_writes_each_term_with_its_sign(capsys):
    # The relation is qc - pm - ql, so a negative p adds its m term.
    assert main(["cable-homology", "--p", "-5", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "presentation: H1 = Z<c, m, l> / (3c + 5m - 3l)\n" in out
    assert "  lambda-bar'  = (-15, 3)\n" in out


def test_cable_homology_rejects_non_coprime(capsys):
    assert main(["cable-homology", "--p", "2", "--q", "4"]) == 2
    assert "not simple" in capsys.readouterr().out


# --- transfer -------------------------------------------------------------------


def test_transfer_standard_map(capsys):
    assert main(["transfer", "--p", "2", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "r' = q^2 r + u" in out or "epsilon" in out
    assert "u = 6" in out
    assert "FAIL" not in out


def test_transfer_json_and_emit(tmp_path, capsys):
    emitted = tmp_path / "cert.json"
    code = main(
        ["transfer", "--p", "-3", "--q", "5", "--orientation", "-1",
         "--format", "json", "--emit", str(emitted)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["map"] == {"epsilon": 1, "q": 5, "u": [-15, 1]}
    # the emitted file is the same certificate and verifies cleanly
    cert = load_document(emitted.read_text(), str(emitted))
    assert cert.map.u == -15
    assert main(["verify", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_transfer_rejects_q_one(capsys):
    assert main(["transfer", "--p", "5", "--q", "1"]) == 2
    assert "at least 2" in capsys.readouterr().out


# The most digits the interpreter converts between an int and text; 0
# where there is no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int digit limit")


# What slopecert says of an int past that limit, in place of the
# interpreter's advice to call sys.set_int_max_str_digits.
DIGIT_LIMIT_WORDS = (
    "an integer has more than %d digits, the most slopecert converts between text and integers"
)
DIGIT_LIMIT_TEXT = DIGIT_LIMIT_WORDS % INT_DIGITS


@needs_int_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_past_the_int_digit_limit_is_an_input_error(fmt, capsys):
    # --p itself converts, but the report's larger numbers do not.
    p = "1" * INT_DIGITS
    assert main(["transfer", "--p", p, "--q", "13", "--format", fmt]) == 2
    assert capsys.readouterr().out == "input error: %s\n" % DIGIT_LIMIT_TEXT


@needs_int_digit_limit
def test_an_option_past_the_int_digit_limit_is_not_echoed(capsys):
    p = "1" * (INT_DIGITS + 1)
    with pytest.raises(SystemExit) as exit_:
        main(["transfer", "--p", p, "--q", "13"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --p: %s\n" % DIGIT_LIMIT_TEXT)
    assert "1111" not in err and "sys." not in err
    # Other text that is not an integer keeps argparse's own message.
    with pytest.raises(SystemExit):
        main(["transfer", "--p", "x", "--q", "13"])
    assert capsys.readouterr().err.endswith("error: argument --p: invalid int value: 'x'\n")


@needs_int_digit_limit
def test_a_matrix_entry_past_the_int_digit_limit_is_named_so(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("1 1\n%s\n" % ("1" * (INT_DIGITS + 1)))
    assert main(["snf", str(path)]) == 2
    assert capsys.readouterr().out == "input error: %s\n" % DIGIT_LIMIT_TEXT


@needs_int_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_snf_report_past_the_int_digit_limit_writes_only_the_error(fmt, tmp_path, capsys):
    # The ~400-digit entries read, but the ~800-digit determinant, an
    # invariant factor, does not render: nothing but the error is written.
    a, b = 3 ** 838, 2 ** 1329
    path = tmp_path / "m.txt"
    path.write_text("2 2\n%d 0\n0 %d\n" % (a, b))
    sys.set_int_max_str_digits(640)
    try:
        assert main(["snf", "--format", fmt, str(path)]) == 2
    finally:
        sys.set_int_max_str_digits(INT_DIGITS)
    assert capsys.readouterr().out == "input error: %s\n" % (DIGIT_LIMIT_WORDS % 640)


@needs_int_digit_limit
def test_int_past_the_digit_limit_is_malformed_json(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(
        '{"kind": "knot_description", "base": {}, "cablings": [{"p": %s, "q": 2}]}'
        % ("1" * (INT_DIGITS + 1))
    )
    assert main(["propagate", str(path)]) == 2
    assert capsys.readouterr().out == "input error: %s: malformed JSON (%s)\n" % (
        path, DIGIT_LIMIT_TEXT)


@needs_int_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_past_the_int_digit_limit_says_so_in_slopecert_words(tmp_path, fmt, capsys):
    # Every integer of the description converts, but the bound rule C
    # states does not: verify's per-input error takes the wording that
    # propagate's reaches too.
    path = tmp_path / "long.json"
    path.write_text(
        '{"kind": "knot_description", "base": {"strict_slopes": [[0, 1], [%s, 1]],'
        ' "meridionally_small": true, "ambient_pi1_cyclic": true},'
        ' "cablings": [{"p": 1, "q": 1%s1}]}' % ("9" * 2500, "0" * 999)
    )
    assert main(["verify", "--format", fmt, str(path)]) == 2
    out = capsys.readouterr().out
    assert "sys.set_int_max_str_digits" not in out
    if fmt == "json":
        result = json.loads(out)["results"][0]
        assert result == {"input": str(path), "error": DIGIT_LIMIT_TEXT, "ok": False}
    else:
        assert out == "input: %s\n  input error: %s\noverall: FAIL\n" % (path, DIGIT_LIMIT_TEXT)


# --- propagate -------------------------------------------------------------------


def test_propagate_text(tmp_path, capsys):
    _, path = write_description(tmp_path)
    assert main(["propagate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "level 1" in out
    assert "diameter 24" in out


def test_propagate_json(tmp_path, capsys):
    _, path = write_description(tmp_path)
    assert main(["propagate", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["levels"][1]["slopes"] == [[2, 1], [26, 1]]
    assert doc["levels"][1]["diameter"] == [24, 1]


def test_propagate_requires_small_base(tmp_path, capsys):
    _, path = write_description(tmp_path, base=AtomKnot(), cablings=((1, 2),))
    assert main(["propagate", str(path)]) == 2
    assert "meridionally small" in capsys.readouterr().out


# --- verify ---------------------------------------------------------------------


def test_verify_description_pass(tmp_path, capsys):
    _, path = write_description(tmp_path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "rule C" in out


def test_verify_emitted_certificate_round_trip(tmp_path, capsys):
    _, path = write_description(tmp_path)
    emitted = tmp_path / "cert.json"
    assert main(["verify", "--emit", str(emitted), str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(emitted)]) == 0
    out = capsys.readouterr().out
    assert "diameter certificate" in out
    assert "overall: PASS" in out


def test_verify_detects_tampering(tmp_path, capsys):
    d, _ = write_description(tmp_path)
    doc = diameter_certificate_to_json(diameter_lower_bound(d))
    doc["d_lower"] = [25, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL replay" in out
    assert "overall: FAIL" in out


def test_verify_names_first_grid_counterexample(tmp_path, capsys):
    emitted = tmp_path / "cert.json"
    assert main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    capsys.readouterr()
    doc = json.loads(emitted.read_text())
    assert doc["map"]["u"] == [6, 1]
    doc["map"]["u"] = [7, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    # (1, 0) is the meridian, fixed by every map; (0, 1) has value 0
    assert "    FAIL grid-consistency -- slope (0, 1): affine law gives 7, phi gives 6\n" in out
    assert "    FAIL replay -- stored certificate differs from recomputation" \
        " at map.u: stored 7, recomputed 6\n" in out


def drop_slope_record(source):
    def edit(w):
        w["slopes"] = [rec for rec in w["slopes"] if rec["source"] != source]
    return edit


REPLAY_FAILS = "    FAIL replay -- stored certificate differs from recomputation at "


@pytest.mark.parametrize("edit, where", [
    (lambda w: w.update(slopes=[]), "witnesses.slopes[0]: stored length 0, recomputed length 6"),
    # the meridian
    (drop_slope_record([1, 0]), "witnesses.slopes[0].source[0]: stored 0, recomputed 1"),
    # the cabling curve
    (drop_slope_record([2, 3]), "witnesses.slopes[5]: stored length 5, recomputed length 6"),
    # not canonical
    (lambda w: w["slopes"][0].update(source=[2, 0]),
     "witnesses.slopes[0].source[0]: stored 2, recomputed 1"),
    # (0, 0) is no slope: the meridian's record is gone
    (lambda w: w["slopes"][0].update(source=[0, 0]),
     "witnesses.slopes[0].source[0]: stored 0, recomputed 1"),
], ids=["no-slopes", "no-meridian-slope", "no-cabling-slope", "non-canonical-source",
        "zero-source"])
def test_verify_checks_every_meridian_and_slope_witness(tmp_path, capsys, edit, where):
    emitted = tmp_path / "cert.json"
    assert main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    capsys.readouterr()
    doc = json.loads(emitted.read_text())
    edit(doc["witnesses"])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert REPLAY_FAILS + where + "\n" in out
    # The witnesses are examples of the law: only the replay reads them.
    assert out.count("    FAIL ") == 1
    assert "overall: FAIL" in out


def transfer_certificate_edit(tmp_path, emitted):
    """A transfer certificate with a witness value_outer [0, 1] written as [0, 3]."""
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(emitted)))[0] == 0
    doc = json.loads(emitted.read_text())
    records = doc["witnesses"]["slopes"]
    i = next(i for i, rec in enumerate(records) if rec["value_outer"] == [0, 1])
    records[i]["value_outer"] = [0, 3]
    return doc, ".witnesses.slopes[%d].value_outer" % i


def diameter_certificate_edit(tmp_path, emitted):
    """A 1-level diameter certificate with base_slopes[0] [0, 1] written as [0, -1]."""
    _, path = write_description(tmp_path)
    assert run(RunConfig(command="verify", inputs=(path,), emit=str(emitted)))[0] == 0
    doc = json.loads(emitted.read_text())
    assert doc["base_slopes"][0] == [0, 1]
    doc["base_slopes"][0] = [0, -1]
    return doc, ".base_slopes[0]"


@pytest.mark.parametrize("make", [transfer_certificate_edit, diameter_certificate_edit])
def test_non_canonical_rationals_are_input_errors(tmp_path, make):
    doc, where = make(tmp_path, tmp_path / "cert.json")
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    code, report = run_text(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 2
    assert "  input error: %s%s: expected a reduced fraction [n, d] with d > 0\n" % (
        bad, where) in report


def edit_map_epsilon(tmp_path, emitted):
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(emitted)))[0] == 0
    doc = json.loads(emitted.read_text())
    doc["map"]["epsilon"] = 0
    return doc, ".map: epsilon must be +1 or -1"


@pytest.mark.parametrize("make", [edit_map_epsilon])
def test_broken_invariants_are_input_errors_with_a_path(tmp_path, make):
    doc, message = make(tmp_path, tmp_path / "cert.json")
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    code, report = run_text(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 2
    assert "  input error: %s%s\n" % (bad, message) in report


BAD_OUTER_FRAMING = {"mu": [1, 0], "lambda": [0, 1], "sign": 1}
FRAMING_MESSAGE = "outer framing sign inconsistent with the model's T1 orientation"


def test_a_cabling_framing_that_does_not_fit_the_model_names_its_path(tmp_path):
    _, path = write_description(tmp_path)
    doc = json.loads(Path(path).read_text())
    doc["cablings"][0]["f_outer"] = BAD_OUTER_FRAMING
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    code, report = run_text(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 2
    assert "  input error: %s.cablings[0]: %s\n" % (bad, FRAMING_MESSAGE) in report


@pytest.mark.parametrize("command", ["snf", "verify"])
def test_input_that_is_not_utf8_is_an_input_error_naming_the_file(command, tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, report = run_text(RunConfig(command=command, inputs=(str(path),)))
    assert code == 2
    assert "input error: cannot read %s: not UTF-8 text\n" % path in report


def test_deeply_nested_input_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    depth = 5000
    path.write_text(
        '{"kind": "knot_description", "base": {}, "cablings": '
        + "[" * depth + "]" * depth + "}"
    )
    code, report = run_text(RunConfig(command="verify", inputs=(str(path),)))
    assert code == 2
    assert "  input error: %s: " % path in report


FIXTURES = Path(__file__).resolve().parent / "fixtures"

TRANSFER_CHECKS = ["replay", "framing-signs", "eq-meridian", "eq-longitude", "grid-consistency"]


def earlier_certificate(name="transfer_p2_q3_o1.json"):
    """A transfer certificate written by an earlier version: its model states h1."""
    return json.loads((FIXTURES / name).read_text())


def test_transfer_certificate_without_rank_two_still_runs_the_grid_check(tmp_path, capsys):
    # An earlier certificate whose stored H1 is the group Z: the reader
    # ignores model.h1, and every check runs and passes.
    doc = earlier_certificate()
    doc["model"]["h1"]["diag"] = [1, 1, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 0
    out = capsys.readouterr().out
    assert "  checks:\n    PASS replay -- recomputed certificate is byte-identical\n" in out
    assert "    PASS grid-consistency -- phi matches the affine law" in out
    assert "presentation" not in out and "h1-rank" not in out
    assert "overall: PASS" in out


def _swap_free_rows(h1):
    e = h1["coordinate_map"]["entries"]
    e[3:6], e[6:9] = e[6:9], e[3:6]


def _another_cable_spaces_h1(h1):
    h1.update(earlier_certificate("transfer_p7_q5_o-1.json")["model"]["h1"])


H1_EDITS = {
    "rank one": lambda h1: h1.update(diag=[1, 1, 0]),
    "two generators": lambda h1: h1.update(
        n_generators=2, diag=[0, 0],
        coordinate_map={"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}),
    "permuted map": lambda h1: h1["coordinate_map"].update(
        entries=[0, 1, 0, 1, 0, 0, 0, 0, 1]),
    "swapped rows": _swap_free_rows,
    "another cable space": _another_cable_spaces_h1,
    "torsion": lambda h1: h1.update(diag=[1, 2, 0]),
}


@pytest.mark.parametrize("edit", sorted(H1_EDITS))
def test_an_edited_stored_h1_fails_only_the_checks_that_read_it(tmp_path, capsys, edit):
    # No check reads a stored H1 any more: every identity is read in the
    # closed-form coordinates of H1(N), and the reader ignores the model.h1
    # of an earlier certificate as an unknown key.  So an edited one fails
    # no check, and the certificate reads as the one transfer writes.
    doc = earlier_certificate()
    H1_EDITS[edit](doc["model"]["h1"])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", "--format", "json", str(bad)]) == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert [c["name"] for c in result["checks"]] == TRANSFER_CHECKS
    assert all(c["ok"] for c in result["checks"])
    assert result["certificate"] == transfer_certificate_to_json(
        transfer_certificate(cable_space_homology(2, 3)))


def test_tampered_certificate_fails_the_same_under_python_O(tmp_path):
    d, _ = write_description(tmp_path)
    doc = diameter_certificate_to_json(diameter_lower_bound(d))
    doc["d_lower"] = [25, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    codes = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "slopecert.cli", "verify", str(bad)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        codes.append(proc.returncode)
    assert codes == [1, 1]


def test_verify_multiple_inputs_and_errors(tmp_path, capsys):
    _, path = write_description(tmp_path)
    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    code = main(["verify", str(path), str(junk)])
    assert code == 2
    out = capsys.readouterr().out
    assert "result: PASS" in out  # the good file is still reported
    assert "malformed JSON" in out
    assert "overall: FAIL" in out


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    assert "input error" in capsys.readouterr().out


def test_verify_emit_needs_single_input(tmp_path, capsys):
    _, p1 = write_description(tmp_path, name="a.json")
    _, p2 = write_description(tmp_path, name="b.json")
    code = main(["verify", "--emit", str(tmp_path / "c.json"), p1, p2])
    assert code == 2
    assert "single input" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["transfer", "verify"])
@pytest.mark.parametrize("emit", [["--emit", ""], ["--emit="]], ids=["separate", "equals"])
def test_an_empty_emit_path_is_an_input_error(command, emit, tmp_path, capsys, monkeypatch):
    # The plain reader takes the first spelling, argparse the second; the
    # empty value names no file to write.
    monkeypatch.chdir(tmp_path)
    _, path = write_description(tmp_path)
    args = ["--p", "2", "--q", "3"] if command == "transfer" else [str(path)]
    assert main([command, *args, *emit]) == 2
    assert capsys.readouterr().out == "input error: --emit needs a file path, not an empty one\n"
    assert sorted(os.listdir(tmp_path)) == ["desc.json"]


def test_verify_json_report(tmp_path, capsys):
    _, path = write_description(tmp_path)
    assert main(["verify", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "verify_report"
    assert doc["ok"] is True
    assert doc["results"][0]["certificate"]["d_lower"] == [24, 1]


# --- run() plumbing ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["transfer", "--p", "2", "--q", "3", "--grid", "5"],
    ["verify", "--grid", "5", "cert.json"],
])
def test_grid_is_not_an_option(argv, capsys):
    # grid-consistency is a proof on every slope, so there is no bound to set.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


def test_unknown_command_is_input_error():
    code, report = run_text(RunConfig(command="frobnicate"))
    assert code == 2
    assert "unknown command" in report


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- reading the command line ------------------------------------------------------


def argparse_config(argv):
    """The RunConfig argparse parses `argv` to; AssertionError if it rejects it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            args = vars(_build_parser(_COMMANDS).parse_args(argv))
    except SystemExit:
        raise AssertionError("argparse rejects %r: %s" % (argv, err.getvalue())) from None
    args["inputs"] = tuple(args.get("inputs", ()))
    return RunConfig(**args)


# The forms of the benchmark's jobs, which must all take the plain reader.
WORKLOAD_FORMS = [
    ["verify", "chain0.json", "--emit", "chain0.cert.json"],
    ["verify", "chain0.cert.json", "--format", "json"],
    ["transfer", "--p", "-32", "--q", "13", "--orientation", "1", "--emit", "t0.json"],
    ["transfer", "--p", "7", "--q", "2", "--format", "json", "--emit", "tj0.json"],
    ["verify", "t0.json"],
    ["propagate", "d0.json", "--format", "json"],
    ["snf", "m0.txt", "--format", "json"],
    ["cable-homology", "--p=-5", "--q=3", "--orientation=-1"],
]


@pytest.mark.parametrize("argv", WORKLOAD_FORMS, ids=" ".join)
def test_the_plain_reader_reads_the_workloads_as_argparse_does(argv):
    args = _parse_plain(argv)
    assert args is not None
    assert RunConfig(**args) == argparse_config(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["verify", "-h"],
    ["verify", "--form", "json", "a.json"],  # an abbreviation
    ["verify", "--", "a.json"],
    ["verify", "a.json", "--format", "json", "b.json"],  # a split run of inputs
    ["snf", "a.txt", "b.txt"],
    ["transfer", "--p", "2"],
    ["transfer", "--p", "2", "--p", "3", "--q", "3"],
    ["transfer", "--p=", "--q", "3"],
    ["transfer", "--p", "-1.5", "--q", "3"],
    ["transfer", "--p", "2", "--q", "3", "--orientation", "2"],
    ["transfer", "--p", "2", "--q", "3", "--emit", "-x"],  # argparse reads -x as an option
    ["verify", "--emit", "-", "a.json"],  # argparse reads - as a value
], ids=" ".join)
def test_the_plain_reader_leaves_every_other_line_to_argparse(argv):
    assert _parse_plain(argv) is None


# Values an option takes; ODD_VALUES also holds ones argparse refuses or
# reads its own way.
INT_VALUES = ["2", "3", "-5", "-32", "13", "01", "+3", " 4", "1_000", "\u0663", "-\u0661\u0662"]
PATHS = ["a.json", "b.json", "m.txt", "a b", "a=b", ""]
ODD_VALUES = [
    "1", "-1", "-01", "-\u0661", "-1.5", "1e3", "\u00b2", "-\u00b2", "-", "--", "-h", "-x",
    "--p", "xml", "JSON", "", "-5\n",
]
STRAY_TOKENS = [
    "--", "-", "-h", "--help", "--form", "--form=json", "--p=", "--emit=", "--grid", "-5",
    "-1.5", "--P", "snf", "verify",
]


def command_lines(st):
    """Argument vectors built as plain lines, each value drawn from good ones
    most of the time, in any order, then given a few defects: a stray token,
    an option again with another value, one more input anywhere, a dropped
    piece, or another subcommand's name."""

    def value(draw, spec):
        if draw(st.integers(0, 2)):
            return draw(st.sampled_from(
                [str(c) for c in spec["choices"]] if "choices" in spec
                else INT_VALUES if spec.get("type") is int else PATHS))
        return draw(st.sampled_from(ODD_VALUES) | st.text(max_size=3))

    def written(draw, name, spec):
        v = value(draw, spec)
        return [name, v] if draw(st.booleans()) else ["%s=%s" % (name, v)]

    @st.composite
    def lines(draw):
        command = draw(st.sampled_from(list(_COMMANDS)))
        _, inputs_spec, options = _COMMANDS[command]
        pieces = [written(draw, name, spec) for name, spec in options
                  if spec.get("required") or draw(st.booleans())]
        count = {None: 0, 1: 1, "+": draw(st.integers(1, 3))}[inputs_spec and inputs_spec[0]]
        pieces.append(draw(st.lists(st.sampled_from(PATHS), min_size=count, max_size=count)))
        pieces = draw(st.permutations(pieces))
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            at = draw(st.integers(0, len(pieces)))
            defect = draw(st.sampled_from(["stray", "again", "input", "drop", "command"]))
            if defect == "stray":
                pieces.insert(at, [draw(st.sampled_from(STRAY_TOKENS))])
            elif defect == "again":
                pieces.insert(at, written(draw, *draw(st.sampled_from(options))))
            elif defect == "input":
                pieces.insert(at, [draw(st.sampled_from(PATHS))])
            elif defect == "drop" and at < len(pieces):
                del pieces[at]
            elif defect == "command":
                command = draw(st.sampled_from(list(_COMMANDS) + ["frobnicate", "--help"]))
        return [command] + [token for piece in pieces for token in piece]

    return lines()


def test_the_plain_reader_agrees_with_argparse_wherever_it_reads():
    hypothesis = pytest.importorskip("hypothesis")
    read = []

    @hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @hypothesis.given(command_lines(hypothesis.strategies))
    def check(argv):
        args = _parse_plain(argv)
        if args is not None:
            read.append(argv)
            assert RunConfig(**args) == argparse_config(argv)

    check()
    # The property says something only where the plain reader reads.
    assert len(read) >= 100


def test_reports_are_deterministic(tmp_path):
    _, path = write_description(tmp_path)
    for fmt in ("text", "json"):
        config = RunConfig(command="verify", inputs=(path,), format=fmt)
        assert run(config) == run(config)
    config = RunConfig(command="transfer", p=4, q=7, format="json")
    assert run(config) == run(config)
