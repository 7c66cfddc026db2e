"""The JSON emitter, the matrix JSON writer, snf's matrix text format, and
the reading and writing of the CLI's files.  The matrix format is "rows
cols", then rows*cols integers in row-major order, whitespace-separated,
each count at most MAX_MATRIX_DIM.  A leaf: it imports only sys and the json
package's C string encoder (_json), so snf loads neither json nor fractions.
"""

import sys
from _json import encode_basestring_ascii as _encode_str


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, fixed indentation, one trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``,
    errors included.  The stdlib falls back to its pure-Python encoder when
    asked to indent.  This emitter writes the same bytes faster, mostly by
    joining each list of plain ints in one step, for the values slopecert's
    documents and reports hold: values whose type is exactly str, int, bool,
    NoneType, list or tuple, and dicts with str keys.  Anything else, and a
    structure too deep to walk, is left to the stdlib, which writes the same
    text or raises its own error.
    """
    out = []
    try:
        _emit(obj, "\n", out)
    except (TypeError, RecursionError):
        import json

        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


_INT_TYPES = {int}
_int_text = int.__repr__


def _emit(o, nl, out):
    """Append the indented text of `o` to `out`; `nl` is a newline plus
    the indentation of the line `o` starts on.  Raises TypeError on a value
    it does not write: one of another type, or a dict key that is not a str
    (``_encode_str`` refuses it)."""
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(_int_text(o))
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == _INT_TYPES:
            out.append("[" + inner + ("," + inner).join(map(_int_text, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            sep = "," + inner
            _emit(v, inner, out)
        out.append(nl + "]")
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _encode_str(k) + ": ")
            sep = "," + inner
            _emit(v, inner, out)
        out.append(nl + "}")
    elif o is None:
        out.append("null")
    elif t is bool:
        out.append("true" if o else "false")
    else:
        raise TypeError(t.__name__)


def digit_limit_text(e):
    """The interpreter's error for an int past its digit limit, text to int
    or int to text, in slopecert's words; None for any other error."""
    if "sys.set_int_max_str_digits" in str(e):
        return (
            "an integer has more than %d digits, the most slopecert converts"
            " between text and integers" % sys.get_int_max_str_digits()
        )
    return None


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e.strerror or e)) from None
    except UnicodeDecodeError:
        raise ValueError("cannot read %s: not UTF-8 text" % path) from None


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError("cannot write %s: %s" % (path, e.strerror or e)) from None


# The largest row or column count snf accepts; no document holds a matrix.
# Smith normal form and its exact check grow steeply with size: a dense
# 100x100 matrix with entries in [-9, 9] takes about 5 s, a 150x150 one
# about 80 s.
MAX_MATRIX_DIM = 100


def _check_size(rows, cols):
    if rows > MAX_MATRIX_DIM or cols > MAX_MATRIX_DIM:
        raise ValueError(
            "a %dx%d matrix is too large: rows and cols must be at most %d"
            % (rows, cols, MAX_MATRIX_DIM)
        )


def matrix_to_json(m):
    """An integer matrix as a JSON object: its counts and its row-major entries."""
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def parse_matrix_text(text):
    """Parse the snf input format: "rows cols" then row-major integers."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix file must start with the two counts: rows cols")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError("matrix row and column counts must be integers") from None
    try:
        entries = [int(t) for t in tokens[2:]]
    except ValueError as e:
        raise ValueError(digit_limit_text(e) or "matrix entries must be integers") from None
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    _check_size(rows, cols)
    if len(entries) != rows * cols:
        raise ValueError(
            "expected %d entries for a %dx%d matrix, got %d"
            % (rows * cols, rows, cols, len(entries))
        )
    from .linalg import IntMatrix  # here, so that only snf loads linalg

    return IntMatrix(rows, cols, tuple(entries))
