"""Exact work counts of `verify` and `snf`, so that redundant work fails a test.

One fixed 50-level description is verified with --emit, then the
emitted certificate is verified again, each as one CLI run.  Counting
wrappers record what each run builds, recomputes and serializes; a run of
several inputs builds each model once, in the one cache it shares.  A level
is checked from its model and transfer map, without a transfer
certificate or witness records.  A passing grid check calls phi on no
slope, and a failing one on the one slope it names.  A round base's
ambient H1 is read in closed form, with no Smith normal form.  An `snf`
run formats its matrices as text only for a text report, and a Smith
normal form computes determinants only for an input that is not square
or whose D has a zero.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from slopecert import (
    STANDARD_OUTER_FRAMING,
    AtomKnot,
    Cabling,
    KnotDescription,
    cablespace,
    canonical_slope,
    cli,
    cmd_snf,
    cmd_transfer,
    cmd_verify,
    jsonio,
    law,
    linalg,
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


@pytest.fixture
def counts(monkeypatch):
    """Install the counting wrappers; returns the live counters."""
    c = {
        "builds": Counter(),
        "diameter": 0,
        "corollary": 0,
        "corollary_recomputed": 0,
        "grid": [],
        "in_grid": False,
        "slope_record": 0,
        "witness_slopes": 0,
        "check_model": 0,
        "transfer_map": 0,
        "verify_certificate": 0,
        "presentations": 0,
        "rational_coords": 0,
        "snf": 0,
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

    real_corollary = pipeline.check_corollary_c

    def corollary(*args, **kwargs):
        before = c["diameter"]
        report = real_corollary(*args, **kwargs)
        c["corollary"] += 1
        c["corollary_recomputed"] += c["diameter"] - before
        return report

    # One entry per grid check: the phi calls made inside it.
    real_grid_check = transfer.grid_check

    def grid_check(*args, **kwargs):
        c["grid"].append(0)
        c["in_grid"] = True
        try:
            return real_grid_check(*args, **kwargs)
        finally:
            c["in_grid"] = False

    real_phi = law.phi

    def phi(*args, **kwargs):
        if c["in_grid"]:
            c["grid"][-1] += 1
        return real_phi(*args, **kwargs)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            c[name] += 1
            return real(*args, **kwargs)

        return wrapper

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
    # The emitter, where cli calls it for JSON reports and the transfer and
    # verify runners for --emit.
    for module in (cli, cmd_transfer, cmd_verify):
        monkeypatch.setattr(module, "canonical_dumps", dumps)
    monkeypatch.setattr(verify, "_verify_diameter_certificate", replay)
    monkeypatch.setattr(pipeline, "cable_space_homology", build)
    # verify imports these from pipeline when it runs them.
    monkeypatch.setattr(pipeline, "diameter_lower_bound", bound)
    monkeypatch.setattr(pipeline, "check_corollary_c", corollary)
    # The level reports pipeline's LevelCache makes, the grid checks of
    # transfer certificates, and phi, which the grid check calls in law.
    monkeypatch.setattr(pipeline, "grid_check", grid_check)
    monkeypatch.setattr(transfer, "grid_check", grid_check)
    monkeypatch.setattr(
        pipeline, "transfer_map", counted("transfer_map", transfer.transfer_map))
    monkeypatch.setattr(law, "phi", phi)
    monkeypatch.setattr(
        transfer, "slope_record", counted("slope_record", transfer.slope_record))
    monkeypatch.setattr(
        transfer, "witness_slopes", counted("witness_slopes", transfer.witness_slopes))
    monkeypatch.setattr(
        cablespace, "check_model", counted("check_model", cablespace.check_model))
    # verify imports it from transfer when it runs it; the transfer runner
    # binds it.
    certificate_check = counted("verify_certificate", transfer.verify_certificate)
    monkeypatch.setattr(transfer, "verify_certificate", certificate_check)
    monkeypatch.setattr(cmd_transfer, "verify_certificate", certificate_check)
    monkeypatch.setattr(linalg, "group_from_presentation",
                        counted("presentations", linalg.group_from_presentation))
    monkeypatch.setattr(linalg, "smith_normal_form",
                        counted("snf", linalg.smith_normal_form))
    monkeypatch.setattr(linalg.FPAbelianGroup, "rational_coords",
                        counted("rational_coords", linalg.FPAbelianGroup.rational_coords))
    return c


def reset(c):
    c["builds"].clear()
    c["diameter"] = c["corollary"] = c["corollary_recomputed"] = 0
    c["grid"].clear()
    c["to_json"] = c["dumps"] = c["dumps_in_replay"] = 0
    c["check_model"] = c["transfer_map"] = c["verify_certificate"] = 0
    c["presentations"] = c["snf"] = 0
    c["rational_coords"] = c["slope_record"] = c["witness_slopes"] = 0


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
    # Each model and its map are checked once: a recurring cabling reuses
    # its level report, a built model its self-check.  Each grid check
    # passes without calling phi.
    assert counts["grid"] == [0] * DISTINCT_MODELS
    assert counts["check_model"] == counts["transfer_map"] == DISTINCT_MODELS
    # Cable-space homology is read in closed form: no Smith normal form,
    # and no group.
    assert (counts["presentations"], counts["rational_coords"], counts["snf"]) == (0, 0, 0)
    # No level builds a transfer certificate, so none has witness records
    # to state or check.
    assert counts["verify_certificate"] == 0
    assert (counts["witness_slopes"], counts["slope_record"]) == (0, 0)
    assert counts["to_json"] == 1  # --emit only: the replay compares records
    assert (counts["dumps"], counts["dumps_in_replay"]) == (1, 0)  # the emitted file

    reset(counts)
    assert cli.main(["verify", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert len(counts["builds"]) == DISTINCT_MODELS
    assert set(counts["builds"].values()) == {1}
    assert counts["diameter"] == 1  # the replay only
    assert (counts["corollary"], counts["corollary_recomputed"]) == (1, 0)
    assert counts["grid"] == [0] * DISTINCT_MODELS
    assert counts["check_model"] == counts["transfer_map"] == DISTINCT_MODELS
    assert (counts["presentations"], counts["rational_coords"], counts["snf"]) == (0, 0, 0)
    assert counts["verify_certificate"] == 0
    assert (counts["witness_slopes"], counts["slope_record"]) == (0, 0)
    assert counts["to_json"] == 0  # a text report writes no JSON
    assert (counts["dumps"], counts["dumps_in_replay"]) == (0, 0)  # a text report


def test_a_round_base_runs_no_smith_normal_form(tmp_path, capsys, counts):
    # Its ambient H1 is read off the complementary meridian, in the build,
    # in its replay and in the replay of the emitted certificate.
    base = AtomKnot(is_round=True, complementary_meridian=canonical_slope(5, 3))
    desc = tmp_path / "round.json"
    desc.write_text(canonical_dumps(description_to_json(KnotDescription(base, CHAIN[:10]))))
    emitted = tmp_path / "cert.json"
    assert cli.main(["verify", "--emit", str(emitted), str(desc)]) == 0
    assert cli.main(["verify", "--format", "json", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert counts["diameter"] == 3
    assert (counts["presentations"], counts["rational_coords"], counts["snf"]) == (0, 0, 0)


def test_one_level_cache_serves_every_input_of_a_run(tmp_path, capsys, counts):
    # verify makes its run's LevelCache at the first input that needs one,
    # here after a transfer certificate, and shares it: a description and
    # its certificate build each model once between them.
    base = AtomKnot(
        strict_numerical_slopes=frozenset({Fraction(0), Fraction(6)}),
        meridionally_small=True,
        ambient_pi1_cyclic=True,
    )
    desc = tmp_path / "desc.json"
    desc.write_text(canonical_dumps(description_to_json(KnotDescription(base, CHAIN))))
    emitted, tcert = tmp_path / "cert.json", tmp_path / "t.json"
    assert cli.main(["transfer", "--p", "2", "--q", "3", "--emit", str(tcert)]) == 0
    assert cli.main(["verify", "--emit", str(emitted), str(desc)]) == 0
    capsys.readouterr()
    reset(counts)
    assert cli.main(["verify", str(tcert), str(desc), str(emitted)]) == 0
    assert capsys.readouterr().out.count("result: PASS") == 3
    assert len(counts["builds"]) == DISTINCT_MODELS
    assert set(counts["builds"].values()) == {1}
    assert counts["transfer_map"] == DISTINCT_MODELS
    assert counts["check_model"] == DISTINCT_MODELS + 1  # and the stored certificate's model


def test_a_transfer_certificate_is_checked_with_its_witness_records(tmp_path, capsys, counts):
    # Where a transfer certificate is built or read, it is checked whole:
    # once by transfer, which builds its model's records, and once by
    # verify, whose parsed model is another object with its own records.
    emitted = tmp_path / "t.json"
    assert cli.main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    assert cli.main(["verify", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert counts["verify_certificate"] == 2
    assert (counts["witness_slopes"], counts["slope_record"]) == (2, 12)
    assert counts["grid"] == [0, 0]
    assert counts["transfer_map"] == 0  # no level is built


def test_a_failing_grid_check_stops_within_three_slopes(counts):
    # A map that breaks the law makes the cross product a nonzero quadratic
    # form, which vanishes on at most two slopes: the check names the first
    # of three fixed slopes where it does not, and calls phi only for that
    # slope's value.
    model = cablespace.cable_space_homology(3, 5)
    smap = transfer.transfer_map(model)
    for bad in (
        law.AffineSlopeMap(smap.epsilon, smap.q, smap.u + 1),
        law.AffineSlopeMap(-smap.epsilon, smap.q, smap.u),
        law.AffineSlopeMap(smap.epsilon, smap.q + 1, smap.u),
    ):
        check = transfer.grid_check(model, bad)
        assert not check.ok
        assert check.detail.startswith("slope (")
    assert counts["grid"] == [1, 1, 1]
    assert transfer.grid_check(model, smap).ok
    assert counts["grid"][-1] == 0


def test_snf_formats_matrix_text_only_for_a_text_report(tmp_path, capsys, monkeypatch):
    calls = []
    real_lines = cmd_snf._fmt_matrix_lines

    def lines(*args, **kwargs):
        calls.append(1)
        return real_lines(*args, **kwargs)

    monkeypatch.setattr(cmd_snf, "_fmt_matrix_lines", lines)
    path = tmp_path / "m.txt"
    path.write_text("3 3\n2 4 4\n-6 6 12\n10 -4 -16\n")
    assert cli.main(["snf", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagonal"] == [2, 6, 12]
    assert calls == []
    assert cli.main(["snf", str(path)]) == 0
    assert "diagonal: 2 6 12" in capsys.readouterr().out
    assert len(calls) == 3  # D, U and V


_rng = random.Random(1)
DENSE_60 = [[_rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]


@pytest.mark.parametrize(
    "rows, dets",
    [
        # Square, no zero on the diagonal of D: the inverse test, no det.
        ([[4, 6], [2, 8]], 0),
        (DENSE_60, 0),
        # Rank 4 of 5: det(U) and det(V).
        (
            [[25, 0, 1, 60, -1], [100, -2, 4, 236, -4], [0, 0, 6, 0, 0],
             [74, -2, 2, 176, -2], [50, -2, 2, 116, -2]],
            2,
        ),
        # A cable space's relation (q, -p, -q), transposed as H1 presents it.
        ([[3], [-2], [-3]], 2),
    ],
)
def test_snf_computes_a_determinant_only_without_an_inverse(rows, dets, monkeypatch):
    calls = []
    real_det = linalg.det

    def det(m):
        calls.append(1)
        return real_det(m)

    monkeypatch.setattr(linalg, "det", det)
    linalg.smith_normal_form(linalg.IntMatrix.from_rows(rows))
    assert len(calls) == dets
