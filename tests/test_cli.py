"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slopecert import AtomKnot, KnotDescription, diameter_lower_bound
from slopecert.cli import RunConfig, main, run
from slopecert.jsonio import (
    canonical_dumps,
    description_to_json,
    diameter_certificate_to_json,
    load_document,
)


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


def test_snf_bad_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2 3\n")
    assert main(["snf", str(path)]) == 2
    assert "input error" in capsys.readouterr().out


# --- cable-homology -----------------------------------------------------------


def test_cable_homology_text(capsys):
    assert main(["cable-homology", "--p", "2", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "H1 = Z<c, m, l> / (3c - 2m - 3l)" in out
    assert "Z + Z" in out


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
    # (1, 0) is the meridian, fixed by every map; (-20, 1) has value 20
    assert (
        "    FAIL grid-consistency -- slope (-20, 1): affine law gives 187, phi gives 186\n"
        in out
    )


def drop_slope_record(source):
    def edit(w):
        w["slopes"] = [rec for rec in w["slopes"] if rec["source"] != source]
    return edit


@pytest.mark.parametrize("edit, failing", [
    (lambda w: w["meridian"].update(zeta=-w["meridian"]["zeta"]), "eq-meridian"),
    (lambda w: w["meridian"].update(q=w["meridian"]["q"] + 1), "eq-meridian"),
    (lambda w: w["meridian"].update(factor=[99, 1]), "eq-meridian"),
    (lambda w: w.update(slopes=[]), "witness-slopes"),
    (drop_slope_record([1, 0]), "witness-slopes"),  # the meridian
    (drop_slope_record([2, 3]), "witness-slopes"),  # the cabling curve
    (lambda w: w["slopes"][0].update(source=[2, 0]), "witness-slopes"),  # not canonical
    # (0, 0) is no slope: the meridian's record is gone
    (lambda w: w["slopes"][0].update(source=[0, 0]), "witness-slopes -- slope (0, 0)"),
    (lambda w: w["slopes"][0].update(source=[0, 0]), "eq-meridian"),
], ids=["meridian-zeta", "meridian-q", "meridian-factor", "no-slopes",
        "no-meridian-slope", "no-cabling-slope", "non-canonical-source", "zero-source",
        "zero-source-meridian"])
def test_verify_checks_every_meridian_and_slope_witness(tmp_path, capsys, edit, failing):
    emitted = tmp_path / "cert.json"
    assert main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    capsys.readouterr()
    doc = json.loads(emitted.read_text())
    edit(doc["witnesses"])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "    FAIL %s" % failing in out
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
    code, report = run(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 2
    assert "  input error: %s%s: expected a reduced fraction [n, d] with d > 0\n" % (
        bad, where) in report


def edit_map_epsilon(tmp_path, emitted):
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(emitted)))[0] == 0
    doc = json.loads(emitted.read_text())
    doc["map"]["epsilon"] = 0
    return doc, ".map: epsilon must be +1 or -1"


def edit_level_model_q(tmp_path, emitted):
    _, path = write_description(tmp_path, cablings=((1, 2), (3, 2)))
    assert run(RunConfig(command="verify", inputs=(path,), emit=str(emitted)))[0] == 0
    doc = json.loads(emitted.read_text())
    doc["levels"][1]["certificate"]["model"]["q"] = 0
    return doc, ".levels[1].certificate.model: not a cabling (q must be at least 2)"


@pytest.mark.parametrize("make", [edit_map_epsilon, edit_level_model_q])
def test_broken_invariants_are_input_errors_with_a_path(tmp_path, make):
    doc, message = make(tmp_path, tmp_path / "cert.json")
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    code, report = run(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 2
    assert "  input error: %s%s\n" % (bad, message) in report


def test_deeply_nested_input_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    depth = 5000
    path.write_text(
        '{"kind": "knot_description", "base": {}, "cablings": '
        + "[" * depth + "]" * depth + "}"
    )
    code, report = run(RunConfig(command="verify", inputs=(str(path),)))
    assert code == 2
    assert "  input error: %s: " % path in report


def break_h1_rank(model):
    """Make a model's stored H1 the group Z instead of Z^2."""
    model["h1"]["diag"] = [1, 1, 0]
    model["h1"]["invariant_factors"] = [0]


GRID_SKIPPED = "grid-consistency -- skipped: H1 is not free of rank 2\n"


def test_transfer_certificate_without_rank_two_skips_the_grid_check(tmp_path, capsys):
    emitted = tmp_path / "cert.json"
    assert main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    capsys.readouterr()
    doc = json.loads(emitted.read_text())
    break_h1_rank(doc["model"])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "    FAIL h1-rank\n" in out
    assert "    FAIL " + GRID_SKIPPED in out
    assert "overall: FAIL" in out


def test_diameter_level_without_rank_two_skips_the_grid_check(tmp_path, capsys):
    _, path = write_description(tmp_path, cablings=((1, 2), (3, 2)))
    emitted = tmp_path / "cert.json"
    assert main(["verify", "--emit", str(emitted), path]) == 0
    capsys.readouterr()
    doc = json.loads(emitted.read_text())
    break_h1_rank(doc["levels"][1]["certificate"]["model"])
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "    FAIL level 2: h1-rank\n" in out
    assert "    FAIL level 2: " + GRID_SKIPPED in out
    assert "    PASS level 1: grid-consistency" in out
    assert "overall: FAIL" in out


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


def test_verify_json_report(tmp_path, capsys):
    _, path = write_description(tmp_path)
    assert main(["verify", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "verify_report"
    assert doc["ok"] is True
    assert doc["results"][0]["certificate"]["d_lower"] == [24, 1]


# --- run() plumbing ---------------------------------------------------------------


def test_grid_must_be_positive(tmp_path):
    _, path = write_description(tmp_path)
    code, report = run(RunConfig(command="verify", inputs=(path,), grid=0))
    assert code == 2
    assert "grid bound" in report


def test_grid_bound_has_a_maximum(tmp_path, capsys):
    _, path = write_description(tmp_path)
    code, report = run(RunConfig(command="verify", inputs=(path,), grid=1001))
    assert code == 2
    assert report == "input error: grid bound must be at most 1000\n"
    assert main(["transfer", "--p", "2", "--q", "3", "--grid", str(10 ** 6)]) == 2
    assert "at most 1000" in capsys.readouterr().out


def test_unknown_command_is_input_error():
    code, report = run(RunConfig(command="frobnicate"))
    assert code == 2
    assert "unknown command" in report


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_reports_are_deterministic(tmp_path):
    _, path = write_description(tmp_path)
    for fmt in ("text", "json"):
        config = RunConfig(command="verify", inputs=(path,), format=fmt)
        assert run(config) == run(config)
    config = RunConfig(command="transfer", p=4, q=7, format="json")
    assert run(config) == run(config)
