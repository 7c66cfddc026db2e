"""The library verifiers: verify.verify_document for every document kind,
and transfer.verify_certificate, the complete check of a transfer
certificate, grid check included."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from slopecert import (
    AtomKnot,
    KnotDescription,
    cable_space_homology,
    canonical_slope,
    diameter_lower_bound,
    transfer_certificate,
    verify_certificate,
)
from slopecert.cli import RunConfig, run
from slopecert.jsonio import (
    canonical_dumps,
    diameter_certificate_to_json,
    load_document,
    transfer_certificate_to_json,
)
from slopecert.report import Check
from slopecert.verify import verify_document

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DESCRIPTION = KnotDescription(
    base=AtomKnot(
        strict_numerical_slopes=frozenset({0, 6}),
        meridionally_small=True,
        ambient_pi1_cyclic=True,
    ),
    cablings=((1, 2), (3, 2)),
)


def run_text(config):
    """(exit code, report text) of `run`: its pieces joined."""
    code, pieces = run(config)
    return code, "".join(pieces)


def test_verify_certificate_ends_with_the_grid_check():
    cert = transfer_certificate(cable_space_homology(2, 3))
    report = verify_certificate(cert)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "replay", "framing-signs", "eq-meridian", "eq-longitude", "grid-consistency"]
    assert report.checks[0].detail == "recomputed certificate is byte-identical"
    assert report.checks[-1].detail == "phi matches the affine law on every slope"


def test_verify_certificate_runs_the_grid_check_without_rank_two():
    # A certificate written by an earlier version, its stored H1 edited to
    # Z/2 + Z: the reader ignores model.h1, and all five checks run and
    # pass, as on the certificate transfer builds.
    doc = json.loads((FIXTURES / "transfer_p2_q3_o1.json").read_text())
    doc["model"]["h1"]["diag"] = [1, 2, 0]
    report = verify_certificate(load_document(json.dumps(doc)))
    assert report.ok
    assert report == verify_certificate(transfer_certificate(cable_space_homology(2, 3)))
    assert report.checks[-1].name == "grid-consistency"


def test_verify_document_passes_a_description_and_its_certificate():
    built = verify_document(DESCRIPTION)
    assert built.kind == "knot_description"
    assert built.report.ok
    assert built.certificate.d_lower == 96
    doc = load_document(canonical_dumps(diameter_certificate_to_json(built.certificate)))
    stored = verify_document(doc)
    assert stored.kind == "diameter_certificate"
    assert stored.report.ok
    assert stored.report.checks == built.report.checks
    names = [c.name for c in stored.report.checks]
    assert names[:2] == ["replay", "route-logic"]
    assert names[-1] == "rule C: dichotomy"
    assert "level 2: grid-consistency" in names


def test_verify_document_of_a_transfer_certificate_is_verify_certificate():
    cert = transfer_certificate(cable_space_homology(-5, 7))
    result = verify_document(cert)
    assert result.kind == "transfer_certificate"
    assert result.report == verify_certificate(cert)


def test_verify_document_gives_the_checks_of_the_cli_report(tmp_path):
    doc = diameter_certificate_to_json(diameter_lower_bound(DESCRIPTION))
    doc["d_lower"] = [97, 1]
    path = tmp_path / "bad.json"
    path.write_text(canonical_dumps(doc))
    result = verify_document(load_document(path.read_text(), str(path)))
    assert not result.report.ok
    assert [c.name for c in result.report.failed()] == ["replay", "route-logic"]
    code, report = run_text(RunConfig(command="verify", inputs=(str(path),), format="json"))
    assert code == 1
    assert json.loads(report)["results"][0]["checks"] == [
        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in result.report.checks]


def route_logic(cert):
    return verify_document(cert).report.checks[1]


def test_route_logic_names_both_sides_of_a_failure():
    # DESCRIPTION certifies axiom-b 32 and declared-set 96.
    built = diameter_lower_bound(DESCRIPTION)
    assert route_logic(built) == Check("route-logic", True, "")
    rule = "d_lower must be the maximum certified route: "
    for change, detail in (
        ({"d_lower": Fraction(97)}, "stated 97 by declared-set, certified 96 by declared-set"),
        ({"primary_route": "axiom-b"}, "stated 96 by axiom-b, certified 96 by declared-set"),
        ({"d_lower": None, "primary_route": ""}, 'stated null by "", certified 96 by declared-set'),
    ):
        assert route_logic(built.replace(**change)) == Check("route-logic", False, rule + detail)


def test_route_logic_names_each_stated_field_that_is_wrong():
    gitk = diameter_lower_bound(KnotDescription(
        base=AtomKnot(is_round=True, complementary_meridian=canonical_slope(0, 1)),
        cablings=((2, 3),)))
    none = diameter_lower_bound(KnotDescription(base=AtomKnot()))
    built = diameter_lower_bound(DESCRIPTION)
    for cert in (gitk, none):
        assert route_logic(cert) == Check("route-logic", True, "")
    gitk_rule = "gitk certificate must assert no bound: "
    none_rule = "no route requires d_lower = -inf and a reason: "
    for cert, detail in (
        (gitk.replace(d_lower=Fraction(2)), gitk_rule + "d_lower: stated 2, must be null"),
        (gitk.replace(primary_route="none"), gitk_rule + "primary_route: stated none, must be gitk"),
        (built.replace(gitk=True), gitk_rule + "primary_route: stated declared-set, must be gitk;"
         " d_lower: stated 96, must be null; routes: stated {axiom-b: 32, declared-set: 96},"
         " must be {}"),
        (none.replace(reason=""), none_rule + 'reason: stated "", must say why'),
        (none.replace(d_lower=None), none_rule + "d_lower: stated null, must be -inf"),
        (built.replace(routes={}), none_rule + "primary_route: stated declared-set, must be none;"
         ' d_lower: stated 96, must be -inf; reason: stated "", must say why'),
    ):
        assert route_logic(cert) == Check("route-logic", False, detail)


AMBIENT_Z = {"invariant_factors": [0]}
# The same chain over a round base, whose ambient H1 is Z/3.
ROUND = DESCRIPTION.replace(
    base=AtomKnot(is_round=True, complementary_meridian=canonical_slope(5, 3)))


def test_a_failed_replay_names_the_first_field_that_differs():
    # Edits no other check reads: only the replay fails, and it says where.
    built = diameter_lower_bound(DESCRIPTION)
    first = built.levels[1].slopes[0]
    long = diameter_lower_bound(DESCRIPTION.replace(cablings=DESCRIPTION.cablings * 25))
    round_ = diameter_lower_bound(ROUND)

    def edited(cert, change):
        doc = diameter_certificate_to_json(cert)
        change(doc)
        return verify_document(load_document(canonical_dumps(doc)))

    for cert, change, detail in (
        (built, lambda doc: doc["levels"][1]["slopes"].__setitem__(0, [7, 2]),
         "at levels[1].slopes[0]: stored 7/2, recomputed %s" % first),
        # The description states each cabling, and the levels' slopes follow
        # from it: nu -> 4 nu + 2 p at q = 2, so p 3 -> 5 moves 14 to 18.
        (built, lambda doc: doc["description"]["cablings"][1].__setitem__("p", 5),
         "at levels[1].slopes[0]: stored 14, recomputed 18"),
        (built, lambda doc: doc["tags"][0].__setitem__("value", [3, 1]),
         "at tags[0].value: stored 3, recomputed 2"),
        # A value other than a rational is written as one line of JSON.
        (built, lambda doc: doc.__setitem__("ambient_h1", AMBIENT_Z),
         'at ambient_h1: stored {"invariant_factors": [0]}, recomputed null'),
        (round_, lambda doc: doc.__setitem__("ambient_h1", AMBIENT_Z),
         "at ambient_h1.invariant_factors[0]: stored 0, recomputed 3"),
        (round_, lambda doc: doc.__setitem__("ambient_h1", {"invariant_factors": []}),
         "at ambient_h1.invariant_factors[0]: stored length 0, recomputed length 1"),
        (round_, lambda doc: doc.__setitem__("ambient_h1", None),
         'at ambient_h1: stored null, recomputed {"invariant_factors": [3]}'),
        (built, lambda doc: doc.__setitem__("reason", "edited"),
         'at reason: stored "edited", recomputed ""'),
        # Lists that agree up to the end of the shorter: the index past it
        # and both lengths, not both lists.
        (long, lambda doc: doc["levels"].pop(),
         "at levels[49]: stored length 49, recomputed length 50"),
    ):
        report = edited(cert, change).report
        assert [c.name for c in report.failed()] == ["replay"]
        assert report.checks[0].detail == (
            "stored certificate differs from recomputation " + detail)


def test_a_failed_replay_writes_a_value_that_is_not_a_rational_as_json_dumps_does():
    # Key order, non-ASCII text and escapes included: exactly the text of
    # json.dumps(value, sort_keys=True) for the stored and recomputed values.
    doc = diameter_certificate_to_json(diameter_lower_bound(DESCRIPTION))
    for key, stored in (
        ("ambient_h1", AMBIENT_Z),
        ("reason", 'r\u00e9sum\u00e9 "quoted"\n\t\x01'),
        ("routes", {"zz-route": [1, 2], "axiom-b": [32, 1]}),
        ("primary_route", "axiom-b"),
    ):
        report = verify_document(load_document(canonical_dumps(dict(doc, **{key: stored})))).report
        assert report.checks[0] == Check("replay", False, (
            "stored certificate differs from recomputation at %s: stored %s, recomputed %s"
            % (key, json.dumps(stored, sort_keys=True), json.dumps(doc[key], sort_keys=True))))


def test_no_cached_pass_carries_over_to_another_object(tmp_path):
    # In one process: the emitted certificate passes, which caches its
    # model's report.  Copies with an edited model are other objects, so
    # each is checked on its own and fails.
    emitted = tmp_path / "t.json"
    assert run(RunConfig(command="transfer", p=2, q=3, emit=str(emitted)))[0] == 0
    assert run(RunConfig(command="verify", inputs=(str(emitted),)))[0] == 0
    zeta, t = json.loads(emitted.read_text()), json.loads(emitted.read_text())
    zeta["model"]["zeta"] *= -1
    t["model"]["t"] = [3, 1]
    for name, edited, failing in (
        ("zeta.json", zeta, "    FAIL eq-meridian -- coordinate 0: mu-bar 3, "),
        ("t_edited.json", t, "    FAIL eq-longitude -- coordinate 0: lambda-bar' 6, "),
    ):
        path = tmp_path / name
        path.write_text(canonical_dumps(edited))
        code, report = run_text(RunConfig(command="verify", inputs=(str(path),)))
        assert code == 1, name
        assert failing in report, name
    assert run(RunConfig(command="verify", inputs=(str(emitted),)))[0] == 0


def test_a_stored_certificate_with_an_edited_factor_fails_the_replay_by_path():
    # In one process: the built certificate passes, then a parsed copy with
    # one record's factor edited fails the replay, which names the field.
    cert = transfer_certificate(cable_space_homology(2, 3))
    doc = json.loads(canonical_dumps(transfer_certificate_to_json(cert)))
    doc["witnesses"]["slopes"][2]["factor"] = [5, 1]
    parsed = load_document(canonical_dumps(doc))
    report = verify_certificate(parsed)
    assert report.failed() == (Check(
        "replay", False, "stored certificate differs from recomputation"
        " at witnesses.slopes[2].factor: stored 5, recomputed 3"),)
    assert verify_certificate(cert).ok


def test_the_replay_names_the_first_map_constant_that_differs():
    cert = transfer_certificate(cable_space_homology(2, 3))
    smap = cert.map
    for bad, where in (
        (smap.replace(u=smap.u + 1), "map.u: stored 7, recomputed 6"),
        (smap.replace(u=smap.u / 4), "map.u: stored 3/2, recomputed 6"),
        (smap.replace(epsilon=-1, q=5), "map.epsilon: stored -1, recomputed 1"),
        (smap.replace(q=5), "map.q: stored 5, recomputed 3"),
    ):
        check = verify_certificate(cert.replace(map=bad)).checks[0]
        assert check == Check(
            "replay", False, "stored certificate differs from recomputation at " + where)
    assert verify_certificate(cert).checks[0] == Check(
        "replay", True, "recomputed certificate is byte-identical")


def test_a_built_certificate_of_a_shape_no_document_has_fails_the_replay_without_raising():
    # The reader requires witnesses.slopes; a certificate built in a program
    # need not have it, and its replay fails without naming a path.
    cert = transfer_certificate(cable_space_homology(2, 3))
    report = verify_certificate(cert.replace(witnesses={}))
    assert report.failed() == (Check(
        "replay", False, "stored certificate differs from recomputation"
        " in a field of a shape no document reads as"),)


def test_framings_that_do_not_fit_the_model_fail_the_replay_without_raising(tmp_path):
    # model.f_inner is a basis of T2 whose mu is not the meridian slope, so
    # the model cannot be rebuilt from it: the replay fails and names why,
    # and so does framing-signs.  No exception escapes.
    doc = json.loads((FIXTURES / "transfer_p2_q3_o1.json").read_text())
    doc["model"]["f_inner"] = {"mu": [1, 1], "lambda": [0, 1], "sign": 1}
    report = verify_certificate(load_document(json.dumps(doc)))
    assert [c.name for c in report.checks] == [
        "replay", "framing-signs", "eq-meridian", "eq-longitude", "grid-consistency"]
    assert report.checks[0] == Check(
        "replay", False, "the stated model cannot be rebuilt:"
        " inner framing's mu is not the meridian slope of T2")
    assert report.checks[1] == Check("framing-signs", False, "")
    path = tmp_path / "framing.json"
    path.write_text(canonical_dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "slopecert.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "    FAIL replay -- the stated model cannot be rebuilt: " in proc.stdout
    assert "    FAIL framing-signs\n" in proc.stdout
    assert proc.stderr == ""


def test_a_recurring_cabling_lists_a_full_level_block_at_each_level():
    repeated = DESCRIPTION.replace(cablings=((1, 2), (3, 2), (1, 2)))
    checks = verify_document(repeated).report.checks
    blocks = {}
    for c in checks:
        if c.name.startswith("level "):
            level, name = c.name.split(": ", 1)
            blocks.setdefault(level, []).append((name, c.ok, c.detail))
    assert list(blocks) == ["level 1", "level 2", "level 3"]
    assert blocks["level 1"] == blocks["level 3"]
    # The model's checks and the grid check; a built level states no
    # witness records or map, so nothing compares the build with itself.
    for block in blocks.values():
        assert [n for n, _, _ in block] == [
            "framing-signs", "eq-meridian", "eq-longitude", "grid-consistency"]
    assert all(ok for block in blocks.values() for _, ok, _ in block)
