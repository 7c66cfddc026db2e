"""The argparse reader of the command line, for every line the plain
reader (cli._parse_plain) refuses: help, errors, abbreviations, ``--``, a
repeated option.  cli imports it only for such a line, so a plain run
loads none of argparse, gettext, locale or shutil.  argparse alone writes
usage, help and error text.
"""

import argparse

from .textio import digit_limit_text


def _int_option(text):
    """The type of the integer options: argparse's own message for text that
    is not an integer, and one that does not echo an over-long one."""
    try:
        return int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            digit_limit_text(e) or "invalid int value: %r" % text
        ) from None


def _build_parser(commands):
    """The parser of the grammar table `commands` (cli._COMMANDS)."""
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Exact slope calculus on knot-exterior boundary tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, inputs_spec, options) in commands.items():
        p = sub.add_parser(command, help=summary)
        if inputs_spec:
            nargs, text = inputs_spec
            p.add_argument("inputs", nargs=nargs, metavar="input", help=text)
        for name, spec in options:
            if spec.get("type") is int:
                spec = dict(spec, type=_int_option)
            p.add_argument(name, **spec)
    return parser
