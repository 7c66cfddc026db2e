"""The library verifiers: verify.verify_document for every document kind,
and transfer.verify_certificate, the complete check of a transfer
certificate, grid check included."""

import json

from slopecert import (
    AtomKnot,
    IntMatrix,
    KnotDescription,
    cable_space_homology,
    diameter_lower_bound,
    group_from_presentation,
    transfer_certificate,
    verify_certificate,
)
from slopecert.cli import RunConfig, run
from slopecert.jsonio import canonical_dumps, diameter_certificate_to_json, load_document
from slopecert.report import Check
from slopecert.transfer import DEFAULT_GRID
from slopecert.verify import verify_document

DESCRIPTION = KnotDescription(
    base=AtomKnot(
        strict_numerical_slopes=frozenset({0, 6}),
        meridionally_small=True,
        ambient_pi1_cyclic=True,
    ),
    cablings=((1, 2), (3, 2)),
)


def test_verify_certificate_ends_with_the_grid_check():
    cert = transfer_certificate(cable_space_homology(2, 3))
    report = verify_certificate(cert)
    assert report.ok
    assert [c.name for c in report.checks][-3:] == [
        "map-consistency", "witness-slopes", "grid-consistency"]
    assert report.checks[-1].detail == (
        "phi matches the affine law on all slopes with |a|, |b| <= %d" % DEFAULT_GRID)
    assert verify_certificate(cert, 3).checks[-1].detail.endswith("<= 3")


def test_verify_certificate_skips_the_grid_check_without_rank_two():
    cert = transfer_certificate(cable_space_homology(2, 3))
    torsion = group_from_presentation(IntMatrix.from_rows([[2, 0, 0]]))
    bad = cert.replace(model=cert.model.replace(h1=torsion))
    last = verify_certificate(bad).checks[-1]
    assert (last.name, last.ok, last.detail) == (
        "grid-consistency", False, "skipped: H1 is not free of rank 2")


def test_verify_document_passes_a_description_and_its_certificate():
    built = verify_document(DESCRIPTION)
    assert built.kind == "knot_description"
    assert built.report.ok
    assert built.certificate.d_lower == 96
    doc = load_document(canonical_dumps(built.document))
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
    result = verify_document(cert, grid=5)
    assert result.kind == "transfer_certificate"
    assert result.document is None
    assert result.report == verify_certificate(cert, 5)


def test_verify_document_gives_the_checks_of_the_cli_report(tmp_path):
    doc = diameter_certificate_to_json(diameter_lower_bound(DESCRIPTION))
    doc["d_lower"] = [97, 1]
    path = tmp_path / "bad.json"
    path.write_text(canonical_dumps(doc))
    result = verify_document(load_document(path.read_text(), str(path)))
    assert not result.report.ok
    assert [c.name for c in result.report.failed()] == ["replay", "route-logic"]
    code, report = run(RunConfig(command="verify", inputs=(str(path),), format="json"))
    assert code == 1
    assert json.loads(report)["results"][0]["checks"] == [
        {"name": c.name, "ok": c.ok, "detail": c.detail} for c in result.report.checks]


def test_a_stored_h1_without_an_image_of_a_slope_fails_by_name(tmp_path):
    # The emitted H1 with its coordinate map replaced by a permutation: it
    # keeps rank 2, but phi sends the meridian (1, 0) to zero, so phi has no
    # image of it.  That is a failed check naming the slope, not an input
    # error.
    emitted = tmp_path / "t.json"
    code, _ = run(RunConfig(command="transfer", p=2, q=3, emit=str(emitted)))
    assert code == 0
    doc = json.loads(emitted.read_text())
    doc["model"]["h1"]["coordinate_map"]["entries"] = [0, 1, 0, 1, 0, 0, 0, 0, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    code, report = run(RunConfig(command="verify", inputs=(str(bad),)))
    assert code == 1
    assert "input error" not in report
    assert "    FAIL witness-slopes -- slope (1, 0)\n" in report
    assert "    FAIL grid-consistency -- slope (1, 0): phi sends it to zero\n" in report
    checks = verify_certificate(load_document(bad.read_text()), 3).checks
    assert checks[-1] == Check("grid-consistency", False, "slope (1, 0): phi sends it to zero")
