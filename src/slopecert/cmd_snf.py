"""The ``snf`` subcommand: Smith normal form of a matrix file.

Its module, like each subcommand's runner, is imported by cli.run only
for its own subcommand; it loads linalg and the leaves, and no
cable-space module, json, fractions or document schema.
"""

from .linalg import smith_normal_form
from .textio import _read_text, matrix_to_json, parse_matrix_text


def _fmt_matrix_lines(m):
    """The rows of `m` as text lines, every entry right-aligned to the widest.

    Each entry is converted once, a row at a time.  The widest entry is the
    largest or the smallest, so the width is read from those two alone."""
    entries, cols = m.entries, m.cols
    if not entries:
        return ["  (empty %dx%d)" % (m.rows, cols)]
    width = max(len(str(max(entries))), len(str(min(entries))))
    return [
        "  " + " ".join([str(e).rjust(width) for e in entries[i:i + cols]])
        for i in range(0, len(entries), cols)
    ]


def run(config):
    """(exit code, report) of an snf invocation: a JSON object or text lines."""
    path = config.inputs[0]
    matrix = parse_matrix_text(_read_text(path))
    result = smith_normal_form(matrix)
    if config.format == "json":
        return 0, {
            "kind": "snf_report",
            "input": path,
            "U": matrix_to_json(result.U),
            "D": matrix_to_json(result.D),
            "V": matrix_to_json(result.V),
            "diagonal": list(result.diagonal()),
        }
    return 0, [
        "smith normal form of %s (%dx%d)" % (path, matrix.rows, matrix.cols),
        "D =",
        *_fmt_matrix_lines(result.D),
        "diagonal: %s" % (" ".join(str(d) for d in result.diagonal()) or "(empty)"),
        "U =",
        *_fmt_matrix_lines(result.U),
        "V =",
        *_fmt_matrix_lines(result.V),
    ]
