"""Command-line front end.

Five subcommands: ``snf`` (Smith normal form of a matrix file),
``cable-homology`` (print the homology model of a cable space),
``transfer`` (build and check a slope-transfer certificate),
``propagate`` (push a declared slope set along a cabling chain), and
``verify`` (replay any emitted document: a knot description, a transfer
certificate, or a diameter certificate).

This module keeps only what every run needs: RunConfig, the grammar
table ``_COMMANDS``, the plain reader, ``run`` (dispatch) and ``main``.
Each subcommand's runner, with its text renderer, is a module of its own
(cmd_snf, cmd_cable_homology, cmd_transfer, cmd_propagate, cmd_verify),
which ``run`` imports only for that subcommand, so a job compiles only
its own subcommand's code; the renderers the runners share are report's,
and file reading and writing textio's.  The checks themselves are the
library's: transfer.verify_certificate for a transfer certificate and
verify.verify_document for any document.  Each run renders only the
format asked for: text lines, or one JSON object.  This module imports
only the leaves record and textio, so ``snf`` loads no cable-space
module, json, fractions or document schema.

No module of the package imports this one.  Under ``python -m
slopecert.cli`` it runs as ``__main__``, and importing ``slopecert.cli``
would compile and run it a second time.

A plain command line is read without argparse: a subcommand, then its
options, each once and by its exact name, as ``--name value`` or
``--name=value``, and one unbroken run of its inputs, every value valid.
So a plain run loads none of argparse, gettext, locale or shutil.
argparse reads every other line (help, errors, abbreviations, ``--``, a
repeated option), through the argparser module that only such a line
imports, and it alone writes usage, help and error text.  Both readers
read one table of the grammar, ``_COMMANDS``.

Exit codes: 0 means every check passed; 1 means a certified check
failed, i.e. the input is mathematically inconsistent; 2 means the
input could not be read or violates a structural invariant.  Reports
are deterministic: the same inputs produce byte-identical output.
"""

import sys

from .record import Record, _store
from .textio import canonical_dumps, digit_limit_text


def __getattr__(name):
    # bench/launcher.py traces the grid check under the name _grid_check; it
    # rebinds every module's name for the function, so the calls
    # verify_certificate makes are traced too.  Resolved on use, so that
    # importing this module does not load the law.
    if name == "_grid_check":
        from .law import grid_check

        return grid_check
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class RunConfig(Record):
    """A fully parsed invocation; `run` consumes one of these."""

    def __init__(
        self, command, inputs=(), p=None, q=None, orientation=1, format="text", emit=None,
    ):
        _store(self, locals())


def _runner(command):
    """The run function of a subcommand, from its own module, imported on
    first use; None for a name that is not a subcommand.  Each runner
    returns (exit code, report), the report being a JSON object when
    config.format is "json" and a list of text lines otherwise."""
    if command == "snf":
        from .cmd_snf import run as runner
    elif command == "cable-homology":
        from .cmd_cable_homology import run as runner
    elif command == "transfer":
        from .cmd_transfer import run as runner
    elif command == "propagate":
        from .cmd_propagate import run as runner
    elif command == "verify":
        from .cmd_verify import run as runner
    else:
        return None
    return runner


def run(config):
    """Execute a parsed invocation; returns (exit_code, report_text)."""
    runner = _runner(config.command)
    if runner is None:
        return 2, "input error: unknown command %r\n" % config.command
    try:
        if config.emit == "":  # both readers take --emit "" and --emit=
            raise ValueError("--emit needs a file path, not an empty one")
        code, report = runner(config)
        # Rendering can fail too: an int past the interpreter's digit limit.
        if config.format == "json":
            return code, canonical_dumps(report)
        return code, "\n".join(report) + "\n"
    except ValueError as e:
        return 2, "input error: %s\n" % (digit_limit_text(e) or e)


# ---------------------------------------------------------------------------
# the command line: one table states the grammar, and both readers read it.

# An option is its name and the keyword arguments of argparse's add_argument;
# a type of int converts as int does (argparser._build_parser passes
# argparser._int_option).
_CABLE_SPACE = (
    ("--p", {"type": int, "required": True, "help": "winding count p (coprime to q)"}),
    ("--q", {"type": int, "required": True, "help": "strand count q >= 2"}),
    ("--orientation", {"type": int, "choices": (1, -1), "default": 1,
                       "help": "orientation flag of the model (default: 1)"}),
)
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text",
                        "help": "report format (default: text)"})
_EMIT = ("--emit", {"metavar": "PATH", "default": None,
                    "help": "write the certificate as canonical JSON to PATH"})

# subcommand: (help, (nargs, help) of its inputs or None, options)
_COMMANDS = {
    "snf": ("Smith normal form of an integer matrix file",
            (1, 'matrix file: "rows cols" then row-major integers'), (_FORMAT,)),
    "cable-homology": ("homology model of the (p, q) cable space", None,
                       _CABLE_SPACE + (_FORMAT,)),
    "transfer": ("slope-transfer certificate for the (p, q) cable space", None,
                 _CABLE_SPACE + (_FORMAT, _EMIT)),
    "propagate": ("propagate a declared slope set along a cabling chain",
                  (1, "knot description JSON file"), (_FORMAT,)),
    "verify": ("replay and check descriptions and certificates",
               ("+", "JSON document(s)"), (_FORMAT, _EMIT)),
}


def _parse_plain(argv):
    """The RunConfig arguments of a plain command line, or None.

    A plain line is a subcommand, then its options, each once and by its
    exact name, as ``--name value`` or ``--name=value``, and one unbroken
    run of its inputs, none starting with "-".  A separate value may start
    with "-" only as a negative integer, as argparse reads it.  Every value
    converts and is among its choices, and every required option is given.
    argparse parses such a line to the same arguments, so this reader
    prints nothing and raises nothing: it returns None for any other line,
    help and errors included, and leaves it to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, inputs_spec, options = _COMMANDS[argv[0]]
    specs = dict(options)
    given, inputs, positions = {}, [], []
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            inputs.append(token)
            positions.append(i)
            continue
        name, eq, value = token.partition("=")
        if token in specs and i < len(argv) and (
                not argv[i].startswith("-") or argv[i][1:].isdecimal()):
            name, value = token, argv[i]
            i += 1
        elif not (eq and value and name in specs):
            return None
        if name in given:
            return None
        given[name] = value
    nargs = inputs_spec[0] if inputs_spec else 0
    if not (len(inputs) == nargs or nargs == "+" and inputs):
        return None
    if inputs and positions[-1] - positions[0] >= len(inputs):
        return None
    args = {"command": argv[0], "inputs": tuple(inputs)}
    for name, spec in options:
        if name not in given:
            if spec.get("required"):
                return None
            args[name[2:]] = spec["default"]
            continue
        value = given[name]
        if spec.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if value not in spec.get("choices", (value,)):
            return None
        args[name[2:]] = value
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        # Help, errors and every other form: argparse writes the text and
        # exits.  Every option's name is a RunConfig field; options a
        # command lacks keep their defaults.
        from .argparser import _build_parser

        args = vars(_build_parser(_COMMANDS).parse_args(argv))
        args["inputs"] = tuple(args.get("inputs", ()))
    code, report = run(RunConfig(**args))
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
