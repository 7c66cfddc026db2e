"""Which modules a start-up loads, pinned in fresh `python -S` processes.

Start-up is most of a short slopecert run, so the CLI module loads only
the package and its leaves (no dataclasses, inspect, typing, json or
fractions), a subcommand loads only the modules it runs, its own runner
module among them, a plain command line loads neither argparse nor the
module that reads other lines with it, and a run that reads or writes
documents loads neither json nor fractions.  verify loads pipeline only
for a description or a diameter certificate, a description loads no
transfer-certificate code, and only snf loads linalg.  Runs made as
`python -m slopecert.cli` makes them, as __main__ through runpy, never
load slopecert.cli, which would compile and run the CLI a second time.
Module sets are deterministic, where start-up times are not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopecert
from slopecert.cli import RunConfig, run

SRC = str(Path(slopecert.__file__).resolve().parents[1])

# The names `from slopecert import *` binds.
PUBLIC = [
    "AffineSlopeMap", "AtomKnot", "CableSpaceModel", "Cabling", "Check", "CheckReport",
    "DiameterCertificate", "FPAbelianGroup", "Framing", "FramingChange", "INF",
    "IntMatrix", "InvariantError", "KnotDescription", "LevelCache", "LevelRecord",
    "NEG_INF", "PrimitiveClass", "SNFResult", "STANDARD_INNER_FRAMING",
    "STANDARD_OUTER_FRAMING", "Slope", "TransferCertificate", "ambient_h1",
    "cable_space_homology", "canonical_slope", "check_corollary_c", "check_model",
    "conjugate", "diameter", "diameter_lower_bound", "framing_change",
    "geometric_intersection", "group_from_presentation",
    "numerical_slope", "phi", "propagate", "recognize_gitk", "slope_from_numerical",
    "smith_normal_form", "transfer_certificate", "transfer_map", "verify_certificate",
    "verify_model",
]


def fresh_env():
    """The environment of a new process: this slopecert, and help text that
    wraps at 80 columns."""
    return dict(os.environ, COLUMNS="80",
                PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run_fresh(code, cwd):
    """Run `code` in a new `python -S` process; returns its stderr, which
    `code` uses for its JSON answer (stdout is the CLI's)."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd, env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr)


# Writes the modules loaded so far, before it loads json itself.
MODULES = "import sys; _m = sorted(sys.modules); import json; sys.stderr.write(json.dumps(_m))"

# Writes the modules that `code` loads, leaving out those loaded at start-up.
NEW_MODULES = (
    "import sys; _before = set(sys.modules)\n%s\n"
    "_m = sorted(set(sys.modules) - _before); import json; sys.stderr.write(json.dumps(_m))"
)

# What snf loaded before it ran on integers alone: json and re, fractions
# with decimal and numbers, enum, and the document modules.
NOT_FOR_SNF = {
    "_decimal", "_sre", "collections.abc", "copyreg", "decimal", "enum", "fractions",
    "json", "json.decoder", "json.encoder", "json.scanner", "numbers", "re", "re._casefix",
    "re._compiler", "re._constants", "re._parser", "slopecert.jsonio", "slopecert.slopes",
}


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing(tmp_path):
    loaded = run_fresh(NEW_MODULES % "import slopecert.cli", tmp_path)
    assert not {"dataclasses", "inspect", "typing", "json", "fractions"} & set(loaded)
    # The package, the CLI and the two leaves, which import nothing heavier
    # than sys, operator and _json.
    assert [m for m in loaded if m.startswith("slopecert")] == [
        "slopecert", "slopecert.cli", "slopecert.record", "slopecert.textio"]
    assert set(loaded) <= {"slopecert", "slopecert.cli", "slopecert.record",
                           "slopecert.textio", "operator", "_operator", "_json"}


def test_the_cable_path_loads_no_linalg(tmp_path):
    # Cable-space homology is read in closed form, and a round base's
    # ambient H1 too, so only Smith normal form needs linalg.
    (tmp_path / "d.json").write_text(json.dumps({
        "kind": "knot_description",
        "base": {"strict_slopes": [[0, 1], [6, 1]], "meridionally_small": True},
        "cablings": [{"p": 1, "q": 2}, {"p": 3, "q": 2}]}))
    for run in ("pass", "cli.main(['transfer', '--p', '2', '--q', '3'])",
                "cli.main(['verify', 'd.json'])"):
        loaded = run_fresh("from slopecert import cli; %s; %s" % (run, MODULES), tmp_path)
        assert "slopecert.linalg" not in loaded, run
    assert "slopecert.pipeline" in loaded


def test_a_text_report_that_writes_no_document_loads_no_json(tmp_path):
    # transfer and cable-homology load the document schema only to write
    # JSON: a report as JSON, or transfer's --emit.  Neither loads json.
    for command in ("transfer", "cable-homology"):
        for extra, documents in (((), False), (("--format", "json"), True)):
            argv = [command, "--p", "2", "--q", "3", *extra]
            loaded = set(run_fresh(NEW_MODULES % (
                "from slopecert import cli; code = cli.main(%r)" % argv), tmp_path))
            assert "slopecert.cablespace" in loaded
            assert ("slopecert.jsonio" in loaded) == documents, argv
            assert "json" not in loaded, argv


# argparse, what it loads while a parser is built (gettext loads locale),
# and what each HelpFormatter loads to read the terminal width.
PARSER_MODULES = {"argparse", "gettext", "locale", "shutil"}

# Writes the module set to modules.txt at exit, one name a line, after the
# CLI has written its own stdout and stderr and set the exit code, argparse's
# included.  It loads no module of its own.
RUN_CLI = (
    "import atexit, sys\n"
    "atexit.register(lambda: open('modules.txt', 'w').write('\\n'.join(sys.modules)))\n"
    "from slopecert import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


# Runs the CLI as `python -S -m slopecert.cli` does: as __main__, through
# runpy, which imports the package and not slopecert.cli.  Writes the modules
# loaded after runpy, at exit.
RUN_MAIN = (
    "import atexit, runpy, sys\n"
    "_before = set(sys.modules)\n"
    "atexit.register(lambda: open('modules.txt', 'w').write(\n"
    "    '\\n'.join(sorted(set(sys.modules) - _before))))\n"
    "runpy.run_module('slopecert.cli', run_name='__main__', alter_sys=True)\n"
)


def run_cli_fresh(argv, cwd, script=RUN_CLI):
    """(exit code, stdout, stderr, loaded modules) of `argv` in a new
    `python -S` process that runs `script`."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        cwd=cwd, env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    loaded = (Path(cwd) / "modules.txt").read_text().splitlines()
    return proc.returncode, proc.stdout, proc.stderr, set(loaded)


def write_inputs(tmp_path):
    (tmp_path / "m.txt").write_text("2 2\n4 6\n2 8\n")
    (tmp_path / "d.json").write_text(json.dumps({
        "kind": "knot_description",
        "base": {"strict_slopes": [[0, 1], [6, 1]], "meridionally_small": True},
        "cablings": [{"p": 1, "q": 2}]}))


@pytest.mark.parametrize("argv", [
    ["verify", "d.json", "--emit", "e.json"],
    ["verify", "--format", "json", "d.json"],
    ["transfer", "--p=-5", "--q=3"],
    ["snf", "m.txt"],
    ["propagate", "d.json"],
    ["cable-homology", "--p", "2", "--q", "3"],
], ids=" ".join)
def test_a_plain_run_loads_no_argparse(argv, tmp_path):
    write_inputs(tmp_path)
    code, out, err, loaded = run_cli_fresh(argv, tmp_path)
    assert (code, err) == (0, "")
    assert out
    assert not PARSER_MODULES & loaded


# What a document run loaded before it ran on integers alone, with what they
# load: json and re, fractions with decimal and numbers, and enum.
NOT_FOR_DOCUMENTS = ("json", "re", "enum", "fractions", "decimal", "numbers")


def write_documents(tmp_path):
    """A description, a diameter certificate and a transfer certificate,
    one certificate with d_lower edited and one with a field of the wrong type."""
    write_inputs(tmp_path)
    for config in (RunConfig("verify", (str(tmp_path / "d.json"),), emit=str(tmp_path / "c.json")),
                   RunConfig("transfer", p=2, q=3, emit=str(tmp_path / "t.json"))):
        assert run(config)[0] == 0
    cert = json.loads((tmp_path / "c.json").read_text())
    cert["d_lower"][0] += 1
    (tmp_path / "tampered.json").write_text(json.dumps(cert))
    cert["description"]["cablings"][0]["p"] = "1"
    (tmp_path / "wrong_type.json").write_text(json.dumps(cert))


@pytest.mark.parametrize("argv, code", [
    (["verify", "d.json"], 0),
    (["verify", "d.json", "--emit", "e.json"], 0),
    (["verify", "--format", "json", "c.json"], 0),
    (["verify", "t.json"], 0),
    (["verify", "tampered.json"], 1),
    (["verify", "wrong_type.json"], 2),
    (["transfer", "--p", "2", "--q", "3", "--emit", "e.json"], 0),
    (["transfer", "--p", "2", "--q", "3", "--format", "json"], 0),
    (["propagate", "d.json"], 0),
    (["propagate", "--format", "json", "d.json"], 0),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_a_document_run_loads_no_json_or_fractions(argv, code, tmp_path):
    # Documents are read by the C scanner and computed in rational.Rational.
    write_documents(tmp_path)
    got, out, err, loaded = run_cli_fresh(argv, tmp_path)
    assert (got, err) == (code, "")
    assert out and "slopecert.jsonio" in loaded
    assert not {m for m in loaded if m.split(".")[0] in NOT_FOR_DOCUMENTS}


# Runs of each subcommand, each with the runner module it must load.
SUBCOMMAND_RUNS = [
    (["snf", "m.txt"], "cmd_snf"),
    (["snf", "--format", "json", "m.txt"], "cmd_snf"),
    (["cable-homology", "--p", "2", "--q", "3"], "cmd_cable_homology"),
    (["transfer", "--p", "2", "--q", "3", "--emit", "e.json"], "cmd_transfer"),
    (["transfer", "--p=-5", "--q=3", "--format=json"], "cmd_transfer"),
    (["propagate", "d.json"], "cmd_propagate"),
    (["verify", "d.json", "--emit", "e.json"], "cmd_verify"),
    (["verify", "--format", "json", "t.json", "c.json"], "cmd_verify"),
]


@pytest.mark.parametrize("argv, runner", SUBCOMMAND_RUNS,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_each_subcommand_loads_exactly_its_own_runner(argv, runner, tmp_path):
    # As __main__, and with no argparse: a plain line is the plain reader's.
    write_documents(tmp_path)
    code, out, err, loaded = run_cli_fresh(argv, tmp_path, RUN_MAIN)
    assert (code, err) == (0, "") and out
    assert {m for m in loaded if m.startswith("slopecert.cmd_")} == {"slopecert." + runner}
    assert "slopecert.cli" not in loaded
    assert not ({"slopecert.argparser"} | PARSER_MODULES) & loaded


def test_snf_loads_no_cable_space_module(tmp_path):
    # Only its runner, linalg and the leaves: nor json, fractions or the
    # document schema, in either format.
    (tmp_path / "m.txt").write_text("2 2\n1 2\n3 4\n")
    for fmt in ("text", "json"):
        code, out, err, loaded = run_cli_fresh(["snf", "--format", fmt, "m.txt"], tmp_path, RUN_MAIN)
        assert (code, err) == (0, "")
        assert {m for m in loaded if m.startswith("slopecert")} == {
            "slopecert", "slopecert.cmd_snf", "slopecert.linalg", "slopecert.record",
            "slopecert.textio"}, fmt
        assert not NOT_FOR_SNF & loaded, fmt


def test_a_round_base_loads_no_linalg(tmp_path):
    # Its ambient H1 is Z/|b|, read off the complementary meridian (a, b):
    # neither the description's verify --emit nor the JSON recheck of the
    # certificate it writes runs a Smith normal form.
    (tmp_path / "round.json").write_text(json.dumps({
        "kind": "knot_description",
        "base": {"is_round": True, "complementary_meridian": [5, 3]},
        "cablings": [{"p": 1, "q": 2}, {"p": -3, "q": 2}]}))
    for argv in (["verify", "round.json", "--emit", "r.json"],
                 ["verify", "--format", "json", "r.json"]):
        code, out, err, loaded = run_cli_fresh(argv, tmp_path, RUN_MAIN)
        assert (code, err) == (0, "") and out, argv
        assert "slopecert.pipeline" in loaded, argv
        assert "slopecert.linalg" not in loaded, argv
    assert json.loads((tmp_path / "r.json").read_text())["ambient_h1"] == {
        "invariant_factors": [3]}
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv, code", [
    (["verify", "t.json"], 0),
    (["verify", "--format", "json", "t.json"], 0),
    (["verify", "tj.json"], 1),
    (["verify", "no_kind.json"], 2),
    (["verify", "other_kind.json"], 2),
    (["verify", "array.json"], 2),
    (["verify", "not_json.json"], 2),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_verify_loads_pipeline_only_for_a_description_or_diameter_certificate(
        argv, code, tmp_path):
    # A transfer certificate, and a document that fails at its kind or its
    # top-level type, build no description record.
    write_documents(tmp_path)
    cert = json.loads((tmp_path / "t.json").read_text())
    cert["map"]["u"][0] += 1
    for name, doc in (("tj.json", cert), ("no_kind.json", {}),
                      ("other_kind.json", {"kind": "knot"}), ("array.json", [cert])):
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "not_json.json").write_text('{"kind": ')
    got, out, err, loaded = run_cli_fresh(argv, tmp_path, RUN_MAIN)
    assert (got, err) == (code, "") and out
    assert "slopecert.pipeline" not in loaded
    assert "slopecert.cli" not in loaded


@pytest.mark.parametrize("argv", [
    ["verify", "d.json"],
    ["verify", "d.json", "--emit", "e.json"],
    ["verify", "c.json", "tampered.json"],
    ["verify", "wrong_type.json"],
    ["propagate", "d.json"],
    ["propagate", "--format", "json", "d.json"],
], ids=" ".join)
def test_a_description_loads_no_transfer_certificate_module(argv, tmp_path):
    # Only the affine law, which pipeline imports.
    write_documents(tmp_path)
    code, out, err, loaded = run_cli_fresh(argv, tmp_path, RUN_MAIN)
    assert code in (0, 1, 2) and err == "" and out
    assert "slopecert.law" in loaded
    assert "slopecert.transfer" not in loaded
    assert "slopecert.cli" not in loaded


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["transfer", "--p", "2"], 2),
    (["verify", "--form", "json", "d.json"], 0),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_only_a_line_the_plain_reader_refuses_loads_the_argparse_fallback(
        argv, code, tmp_path):
    write_inputs(tmp_path)
    got, out, err, loaded = run_cli_fresh(argv, tmp_path, RUN_MAIN)
    assert got == code
    assert {"slopecert.argparser", "argparse"} <= loaded
    assert "slopecert.cli" not in loaded


def test_a_file_that_is_not_json_is_worded_by_json(tmp_path):
    (tmp_path / "bad.json").write_text('{"kind": ')
    with pytest.raises(ValueError) as error:
        json.loads('{"kind": ')
    got, out, err, loaded = run_cli_fresh(["verify", "bad.json"], tmp_path)
    assert (got, out, err) == (2, "input: bad.json\n  input error: bad.json: malformed JSON"
                               " (%s)\noverall: FAIL\n" % error.value, "")
    assert "json" in loaded and "fractions" not in loaded


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "out", "usage: slopecert [-h] {snf,cable-homology,transfer,"),
    (["verify", "--help"], 0, "out", "usage: slopecert verify [-h]"),
    (["transfer", "--p", "2"], 2, "err",
     "slopecert transfer: error: the following arguments are required: --q\n"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_help_and_errors_are_argparse_s(argv, code, stream, text, tmp_path):
    got_code, out, err, loaded = run_cli_fresh(argv, tmp_path)
    assert got_code == code
    assert text in {"out": out, "err": err}[stream]
    assert "argparse" in loaded


def test_an_abbreviated_option_runs_as_the_plain_line_does(tmp_path):
    write_inputs(tmp_path)
    plain = run_cli_fresh(["verify", "--format", "json", "d.json"], tmp_path)
    abbreviated = run_cli_fresh(["verify", "--form", "json", "d.json"], tmp_path)
    assert abbreviated[:3] == plain[:3]
    assert json.loads(plain[1])["ok"] is True
    assert "argparse" in abbreviated[3] and "argparse" not in plain[3]


def test_star_import_binds_the_public_names(tmp_path):
    names = run_fresh(
        "from slopecert import *; import json, sys; "
        "sys.stderr.write(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))",
        tmp_path,
    )
    assert names == sorted(PUBLIC + ["json", "sys"])
    assert slopecert.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 44


def test_package_names_resolve_to_their_modules():
    from slopecert import law, linalg, transfer

    assert slopecert.verify_certificate is transfer.verify_certificate
    # The law's names are bound in transfer too, where earlier callers and
    # bench/launcher.py look them up.
    assert slopecert.phi is transfer.phi is law.phi
    assert slopecert.transfer_map is transfer.transfer_map is law.transfer_map
    assert slopecert.IntMatrix is linalg.IntMatrix
    assert set(PUBLIC) <= set(dir(slopecert))
    try:
        slopecert.no_such_name
    except AttributeError as e:
        assert str(e) == "module 'slopecert' has no attribute 'no_such_name'"
    else:
        raise AssertionError("slopecert.no_such_name resolved")
