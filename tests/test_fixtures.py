"""Certificates emitted by earlier versions stay valid.

The fixtures under tests/fixtures were written by `slopecert transfer
--emit` and `slopecert verify --emit` before Smith normal form computed
its transforms in two phases, when a round base's ambient H1 was stated
as a whole diagonalized group.

They carry what certificates no longer state: a transfer certificate's
witnesses.boundary, witnesses.meridian and witnesses.longitude, its
model's h1 (the same Z^2 for every cable space) and nine keys that
restate the model's parameters, each diameter level's cabling and
transfer certificate, which the level's cabling in the description
determines, and the n_generators, diag and coordinate_map of the ambient
H1, which is stated by its invariant_factors alone.  The reader ignores
them, and an emitted certificate is the stored one without exactly those
keys.
"""

import json
from pathlib import Path

import pytest

from slopecert.cli import main
from slopecert.jsonio import canonical_dumps

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The witness and model keys certificates no longer write.
OLD_WITNESSES = ("boundary", "meridian", "longitude")
OLD_MODEL_KEYS = (
    "h1", "relation", "img_mu", "img_lambda", "img_mu_prime", "img_lambda_prime",
    "boundary_outer", "boundary_inner", "theta", "eta",
)


def without_copies(transfer):
    """A stored transfer certificate without the copies."""
    for key in OLD_WITNESSES:
        del transfer["witnesses"][key]
    for key in OLD_MODEL_KEYS:
        del transfer["model"][key]
    return transfer


TRANSFER = {
    "transfer_p2_q3_o1.json": (2, 3, 1),
    "transfer_p-59_q2_o1.json": (-59, 2, 1),
    "transfer_p7_q5_o-1.json": (7, 5, -1),
    "transfer_p12345_q7_o1.json": (12345, 7, 1),
}
DIAMETER = "diameter_round_5_3.json"


@pytest.mark.parametrize("name", sorted(TRANSFER) + [DIAMETER])
def test_fixture_verifies(name, capsys):
    assert main(["verify", str(FIXTURES / name)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TRANSFER))
def test_transfer_fixture_is_emitted_again(name, tmp_path, capsys):
    p, q, orientation = TRANSFER[name]
    out = tmp_path / name
    argv = ["transfer", "--p=%d" % p, "--q=%d" % q, "--orientation=%d" % orientation]
    assert main(argv + ["--emit", str(out)]) == 0
    stored = json.loads((FIXTURES / name).read_text())
    assert out.read_text() == canonical_dumps(without_copies(stored))


def test_diameter_fixture_is_emitted_again(tmp_path, capsys):
    stored = json.loads((FIXTURES / DIAMETER).read_text())
    description = dict(stored["description"], kind="knot_description")
    assert description["base"]["is_round"]  # it states an ambient_h1
    path = tmp_path / "description.json"
    path.write_text(canonical_dumps(description))
    out = tmp_path / DIAMETER
    assert main(["verify", "--emit", str(out), str(path)]) == 0
    for key in ("n_generators", "diag", "coordinate_map"):
        del stored["ambient_h1"][key]
    for level in stored["levels"]:
        del level["cabling"], level["certificate"]
    assert out.read_text() == canonical_dumps(stored)


def test_a_round_base_certificate_stating_a_whole_group_is_an_input_error(tmp_path, capsys):
    # What versions before the ambient H1 was stated by its invariant
    # factors wrote: the group's n_generators, diag and coordinate_map, and
    # no invariant_factors.
    stored = json.loads((FIXTURES / DIAMETER).read_text())
    del stored["ambient_h1"]["invariant_factors"]
    for level in stored["levels"]:
        del level["cabling"], level["certificate"]
    path = tmp_path / "whole_group.json"
    path.write_text(canonical_dumps(stored))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out == (
        "input: %s\n  input error: %s.ambient_h1.invariant_factors: expected a list of"
        " integers\noverall: FAIL\n" % (path, path))
