"""Certificates emitted before the two-phase Smith normal form stay valid.

The fixtures under tests/fixtures were written by `slopecert transfer
--emit` and `slopecert verify --emit` before Smith normal form computed
its transforms in two phases.  A stored H1 is compared with a fresh
group_from_presentation, so any change to the transforms computed for a
cable-space relation or a round base's gluing would fail these
certificates' `presentation` check and their replay.
"""

import json
from pathlib import Path

import pytest

from slopecert.cli import main
from slopecert.jsonio import canonical_dumps

FIXTURES = Path(__file__).resolve().parent / "fixtures"

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
    assert out.read_bytes() == (FIXTURES / name).read_bytes()


def test_diameter_fixture_is_emitted_again(tmp_path, capsys):
    stored = (FIXTURES / DIAMETER).read_bytes()
    description = dict(json.loads(stored)["description"], kind="knot_description")
    assert description["base"]["is_round"]  # its ambient_h1 is an SNF transform
    path = tmp_path / "description.json"
    path.write_text(canonical_dumps(description))
    out = tmp_path / DIAMETER
    assert main(["verify", "--emit", str(out), str(path)]) == 0
    assert out.read_bytes() == stored
