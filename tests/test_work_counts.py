"""Exact work counts of `verify` and `snf`, so that redundant work fails a test.

One fixed 50-level description is verified with --emit, then the
emitted certificate is verified again, each as one CLI run.  Counting
wrappers record what each run builds, recomputes and serializes.  An
`snf` run formats its matrices as text only for a text report.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from slopecert import (
    STANDARD_OUTER_FRAMING,
    AtomKnot,
    Cabling,
    KnotDescription,
    cli,
    jsonio,
    pipeline,
    transfer,
    verify,
)
from slopecert.jsonio import canonical_dumps, description_to_json

# 50 levels over 11 distinct cable spaces: (p, q) cycles with period 10,
# one level flips the orientation, and one states the standard outer
# framing that the other levels leave implicit (the same model).
CHAIN = tuple(
    Cabling((1, -1, 5, 7, -5)[i % 5], 2 + i % 2, orientation=-1 if i == 17 else 1)
    for i in range(49)
) + (Cabling(1, 2, f_outer=STANDARD_OUTER_FRAMING),)
DISTINCT_MODELS = 11
GRID_SLOPES_AT_20 = 512


@pytest.fixture
def counts(monkeypatch):
    """Install the counting wrappers; returns the live counters."""
    c = {
        "builds": Counter(),
        "diameter": 0,
        "corollary": 0,
        "corollary_recomputed": 0,
        "grid": [],
        "to_json": 0,
        "dumps": 0,
        "dumps_in_replay": 0,
        "in_replay": False,
    }

    real_build = pipeline.cable_space_homology

    def build(*args, **kwargs):
        model = real_build(*args, **kwargs)
        key = (model.p, model.q, model.orientation, model.f_outer, model.f_inner)
        c["builds"][key] += 1
        return model

    real_bound = pipeline.diameter_lower_bound

    def bound(*args, **kwargs):
        c["diameter"] += 1
        return real_bound(*args, **kwargs)

    real_corollary = verify.check_corollary_c

    def corollary(*args, **kwargs):
        before = c["diameter"]
        report = real_corollary(*args, **kwargs)
        c["corollary"] += 1
        c["corollary_recomputed"] += c["diameter"] - before
        return report

    real_slopes = transfer.grid_slopes

    def slopes(n):
        c["grid"].append(0)
        for pair in real_slopes(n):
            c["grid"][-1] += 1
            yield pair

    real_to_json = jsonio.diameter_certificate_to_json

    def to_json(cert):
        c["to_json"] += 1
        return real_to_json(cert)

    real_dumps = jsonio.canonical_dumps

    def dumps(obj):
        c["dumps"] += 1
        c["dumps_in_replay"] += c["in_replay"]
        return real_dumps(obj)

    real_replay = verify._verify_diameter_certificate

    def replay(*args, **kwargs):
        c["in_replay"] = True
        try:
            return real_replay(*args, **kwargs)
        finally:
            c["in_replay"] = False

    monkeypatch.setattr(jsonio, "diameter_certificate_to_json", to_json)
    monkeypatch.setattr(jsonio, "canonical_dumps", dumps)
    monkeypatch.setattr(verify, "_verify_diameter_certificate", replay)
    monkeypatch.setattr(pipeline, "cable_space_homology", build)
    monkeypatch.setattr(pipeline, "diameter_lower_bound", bound)
    monkeypatch.setattr(verify, "diameter_lower_bound", bound)
    monkeypatch.setattr(verify, "check_corollary_c", corollary)
    monkeypatch.setattr(transfer, "grid_slopes", slopes)
    return c


def reset(c):
    c["builds"].clear()
    c["diameter"] = c["corollary"] = c["corollary_recomputed"] = 0
    c["grid"].clear()
    c["to_json"] = c["dumps"] = c["dumps_in_replay"] = 0


def test_verify_builds_each_model_once_per_run(tmp_path, capsys, counts):
    base = AtomKnot(
        strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
        meridionally_small=True,
        ambient_pi1_cyclic=True,
    )
    desc = tmp_path / "desc.json"
    desc.write_text(canonical_dumps(description_to_json(KnotDescription(base, CHAIN))))
    emitted = tmp_path / "cert.json"

    assert cli.main(["verify", "--emit", str(emitted), str(desc)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert len(counts["builds"]) == DISTINCT_MODELS
    assert set(counts["builds"].values()) == {1}
    assert counts["diameter"] == 2  # the build and its replay
    assert (counts["corollary"], counts["corollary_recomputed"]) == (1, 0)
    assert counts["grid"] == [GRID_SLOPES_AT_20] * len(CHAIN)
    # the built certificate and its replay; the report and --emit reuse the first
    assert counts["to_json"] == 2
    assert (counts["dumps"], counts["dumps_in_replay"]) == (1, 0)  # the emitted file

    reset(counts)
    assert cli.main(["verify", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert len(counts["builds"]) == DISTINCT_MODELS
    assert set(counts["builds"].values()) == {1}
    assert counts["diameter"] == 1  # the replay only
    assert (counts["corollary"], counts["corollary_recomputed"]) == (1, 0)
    assert counts["grid"] == [GRID_SLOPES_AT_20] * len(CHAIN)
    assert counts["to_json"] == 2  # the stored certificate and its replay
    assert (counts["dumps"], counts["dumps_in_replay"]) == (0, 0)  # a text report


def test_snf_formats_matrix_text_only_for_a_text_report(tmp_path, capsys, monkeypatch):
    calls = []
    real_lines = cli._fmt_matrix_lines

    def lines(*args, **kwargs):
        calls.append(1)
        return real_lines(*args, **kwargs)

    monkeypatch.setattr(cli, "_fmt_matrix_lines", lines)
    path = tmp_path / "m.txt"
    path.write_text("3 3\n2 4 4\n-6 6 12\n10 -4 -16\n")
    assert cli.main(["snf", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagonal"] == [2, 6, 12]
    assert calls == []
    assert cli.main(["snf", str(path)]) == 0
    assert "diagonal: 2 6 12" in capsys.readouterr().out
    assert len(calls) == 3  # D, U and V
