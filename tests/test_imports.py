"""Which modules a start-up loads, pinned in fresh `python -S` processes.

Start-up is most of a short slopecert run, so the CLI module must not pull
in dataclasses, inspect or typing, and a subcommand loads only the modules
it runs.  Module sets are deterministic, where start-up times are not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import slopecert

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
    "geometric_intersection", "glued_manifold_h1", "group_from_presentation",
    "numerical_slope", "phi", "propagate", "recognize_gitk", "slope_from_numerical",
    "smith_normal_form", "transfer_certificate", "transfer_map", "verify_certificate",
    "verify_model",
]


def run_fresh(code, cwd):
    """Run `code` in a new `python -S` process; returns its stderr, which
    `code` uses for its JSON answer (stdout is the CLI's)."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr)


MODULES = "import json, sys; sys.stderr.write(json.dumps(sorted(sys.modules)))"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing(tmp_path):
    loaded = run_fresh("import slopecert.cli; " + MODULES, tmp_path)
    assert "slopecert.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)
    assert not [m for m in loaded if m.startswith("slopecert.") and m not in (
        "slopecert.cli", "slopecert.jsonio", "slopecert.linalg", "slopecert.slopes")]


def test_snf_loads_no_cable_space_module(tmp_path):
    (tmp_path / "m.txt").write_text("2 2\n1 2\n3 4\n")
    loaded = run_fresh(
        "from slopecert import cli; code = cli.main(['snf', 'm.txt']); " + MODULES, tmp_path)
    assert {"slopecert.linalg", "slopecert.jsonio"} <= set(loaded)
    for name in ("cablespace", "transfer", "pipeline", "verify"):
        assert "slopecert." + name not in loaded


def test_star_import_binds_the_public_names(tmp_path):
    names = run_fresh(
        "from slopecert import *; import json, sys; "
        "sys.stderr.write(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))",
        tmp_path,
    )
    assert names == sorted(PUBLIC + ["json", "sys"])
    assert slopecert.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 45


def test_package_names_resolve_to_their_modules():
    from slopecert import linalg, transfer

    assert slopecert.verify_certificate is transfer.verify_certificate
    assert slopecert.IntMatrix is linalg.IntMatrix
    assert set(PUBLIC) <= set(dir(slopecert))
    try:
        slopecert.no_such_name
    except AttributeError as e:
        assert str(e) == "module 'slopecert' has no attribute 'no_such_name'"
    else:
        raise AssertionError("slopecert.no_such_name resolved")
