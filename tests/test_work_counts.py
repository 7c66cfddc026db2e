"""Exact work counts of `verify` and `snf`, so that redundant work fails a test.

One fixed 50-level description is verified with --emit, then the
emitted certificate is verified again, each as one CLI run.  Counting
wrappers record what each run builds, recomputes and serializes; a run of
several inputs builds each model once, in the one cache it shares.  A level
is checked from its model and transfer map, without a transfer
certificate or witness records; a stored transfer certificate is
replayed against one fresh model and certificate.  A transfer map is read
off (p, q) and the framings, with no model and no phi.  A passing grid check
calls phi on no slope, and a failing one on the one slope it names.  A
round base's ambient H1 is read in closed form, with no Smith normal
form.  An `snf` run formats its matrices as text only for a text report,
and a Smith normal form computes determinants only for an input that is
not square or whose D has a zero.  Its elimination replays its row
operations on packed transform rows in every phase with at least
PACK_MIN_OPS operations per row: of full row rank, at the tried width
where that has under half the Hadamard bound's bits; rank-deficient, in
stretches, with the reduction above the pivots on lists.  Every shorter
phase replays on lists.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from slopecert import (
    STANDARD_INNER_FRAMING,
    STANDARD_OUTER_FRAMING,
    AtomKnot,
    Cabling,
    Framing,
    KnotDescription,
    PrimitiveClass,
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
        "transfer_certificate": 0,
        "replay_builds": 0,
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
    # The certificate builder, where the transfer runner binds it too, and
    # the model the replay of a transfer certificate rebuilds.
    certificate_build = counted("transfer_certificate", transfer.transfer_certificate)
    monkeypatch.setattr(transfer, "transfer_certificate", certificate_build)
    monkeypatch.setattr(cmd_transfer, "transfer_certificate", certificate_build)
    monkeypatch.setattr(transfer, "cable_space_homology",
                        counted("replay_builds", transfer.cable_space_homology))
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
    c["transfer_certificate"] = c["replay_builds"] = 0


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
    assert counts["verify_certificate"] == counts["transfer_certificate"] == 0
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
    assert counts["verify_certificate"] == counts["transfer_certificate"] == 0
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
    # And the transfer certificate's two models: the stored one, and the one
    # its replay rebuilds from the stated parameters and framings.
    assert counts["check_model"] == DISTINCT_MODELS + 2
    assert (counts["replay_builds"], counts["transfer_certificate"]) == (1, 1)


def test_a_stored_transfer_certificate_is_replayed_from_one_fresh_build(tmp_path, capsys,
                                                                        counts):
    # verify rebuilds one model and one certificate from the stated
    # parameters and framings, compares them with ==, and checks the stored
    # model once; no level is built.  transfer replays the certificate it
    # has just built the same way, so it builds two models and two
    # certificates.
    emitted = tmp_path / "t.json"
    assert cli.main(["transfer", "--p", "2", "--q", "3", "--emit", str(emitted)]) == 0
    witnesses = len(json.loads(emitted.read_text())["witnesses"]["slopes"])
    assert counts["verify_certificate"] == 1
    assert (counts["replay_builds"], counts["transfer_certificate"]) == (1, 2)
    assert (counts["witness_slopes"], counts["slope_record"]) == (2, 2 * witnesses)
    assert counts["check_model"] == 2  # the built model and the rebuilt one
    assert counts["grid"] == [0]
    assert counts["builds"] == Counter()
    assert counts["transfer_map"] == 0
    capsys.readouterr()
    reset(counts)
    assert cli.main(["verify", str(emitted)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert counts["verify_certificate"] == 1
    assert (counts["replay_builds"], counts["transfer_certificate"]) == (1, 1)
    assert (counts["witness_slopes"], counts["slope_record"]) == (1, witnesses)
    assert counts["check_model"] == 2  # the stored model and the rebuilt one
    assert counts["grid"] == [0]
    assert counts["builds"] == Counter()  # no level is built
    assert counts["transfer_map"] == 0


def test_a_failing_grid_check_stops_within_three_slopes(counts):
    # A map that breaks the law makes the cross product a nonzero quadratic
    # form, which vanishes on at most two slopes: the check names the first
    # of three fixed slopes where it does not, and calls phi only for that
    # slope's value.
    model = cablespace.cable_space_homology(3, 5)
    smap = transfer.transfer_map(3, 5, model.f_outer, model.f_inner)
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


def test_transfer_map_builds_no_model_and_calls_no_phi(monkeypatch):
    # The law is read off (p, q) and the framings: grid_check is its proof,
    # so the map replays nothing.
    calls = []
    monkeypatch.setattr(law, "phi", lambda *args: calls.append("phi"))
    monkeypatch.setattr(cablespace.CableSpaceModel, "__init__",
                        lambda *args, **kwargs: calls.append("model"))
    f_outer = Framing(PrimitiveClass(-1, 0), PrimitiveClass(4, 1), 1)
    f_inner = Framing(PrimitiveClass(-1, 0), PrimitiveClass(7, 1), -1)
    maps = [law.transfer_map(3, 2, STANDARD_OUTER_FRAMING, STANDARD_INNER_FRAMING),
            law.transfer_map(-5, 3, f_outer, f_inner)]
    assert calls == []
    assert [(m.epsilon, m.q, m.u) for m in maps] == [(1, 2, 6), (1, 3, 44)]


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


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _product(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


_rng = random.Random(2)
# L * diag(d) * R with unimodular L and R and no zero d_i: full rank.
TORSION_40 = _product(
    _product(
        _unimodular(_rng, 40),
        [[_rng.choice((1, 1, 2, 3, 4, 6, 12)) if i == j else 0 for j in range(40)]
         for i in range(40)],
    ),
    _unimodular(_rng, 40),
)
# B * C of rank 30.
LOW_RANK_60 = _product(
    [[_rng.randint(-3, 3) for _ in range(30)] for _ in range(60)],
    [[_rng.randint(-3, 3) for _ in range(60)] for _ in range(30)],
)


@pytest.mark.parametrize(
    "rows, replays",
    [
        # Every phase has full row rank, and a packed replay is named by the
        # bits of the bound its digits hold.  The first phase makes 266
        # operations per row and packs under the Hadamard bound: its Hermite
        # form reaches 282 bits, so m * max|H| has more than half the bound's
        # 332 and is not tried.  The second makes 1.8, fewer than
        # PACK_MIN_OPS, and replays on lists.
        (DENSE_60, [332, "lists"]),
        # The first phase makes 43 per row and packs at the tried width,
        # m * max|H| (9 bits), against a Hadamard bound of 254; the others
        # make 5.0 and 0.5 and replay on lists.
        (TORSION_40, [9, "lists", "lists"]),
        # Rank 30 of 60: each phase replays its sweeps packed, in stretches
        # of 4 * PACK_MIN_OPS operations per row, each named by the bits of
        # the bound it proved at its start, and its reduction above the
        # pivots on lists.  The row phase sweeps with 136 operations per row
        # (five stretches), the column phase with 21 (one).
        (LOW_RANK_60, ["stretches", 150, 227, 278, 306, 143, "lists",
                       "stretches", 144, "lists"]),
    ],
)
def test_snf_replays_each_long_full_rank_phase_packed_at_its_width(rows, replays,
                                                                   monkeypatch):
    calls = []
    real_packed, real_stretches = linalg._replay_packed, linalg._replay_stretches
    real_rows = linalg._replay_rows

    def packed(ops, ids, t, bound):
        calls.append(bound.bit_length())
        return real_packed(ops, ids, t, bound)

    def stretches(*args):
        calls.append("stretches")
        return real_stretches(*args)

    def on_lists(*args):
        calls.append("lists")
        return real_rows(*args)

    monkeypatch.setattr(linalg, "_replay_packed", packed)
    monkeypatch.setattr(linalg, "_replay_stretches", stretches)
    monkeypatch.setattr(linalg, "_replay_rows", on_lists)
    linalg.smith_normal_form(linalg.IntMatrix.from_rows(rows))
    assert calls == replays
