"""JSON documents (descriptions and certificates) and the matrix text format.

Each document type is one table of fields: a JSON key, the attribute it
maps to, and a field kind (see the tables below, FRAMING to
DIAMETER_CERTIFICATE).  One reader and one writer walk the tables.  The
reader checks the type of every value before it reads into it: integers
are JSON integers (true and 1.0 are not), and rationals and slopes must
be in the form the writer uses (see below).  A missing field, a value of
the wrong type, or a rational or slope in another form raises ValueError
with the field's path, list indices included, e.g.
"certificate.levels[3].certificate.model.p: expected an integer", so a
malformed document is an input error (exit code 2).  Values of the right
types that break an invariant of the type they are read into get the
constructor's message after the path of that value, e.g.
"certificate.map: epsilon must be +1 or -1".  Keys not in a table are
ignored.

Only these fields may be omitted, read as the default shown, or be null:
in a description, base.strict_slopes ([]), the four base flags (false),
base.complementary_meridian (null), cablings ([]), cablings[i].orientation
(1), cablings[i].f_outer and f_inner (null: the standard framing); in any
group, invariant_factors (null: not stated; when stated it must match the
diagonal); in a diameter certificate, ambient_h1 (null), base_slopes ([]),
levels ([]), levels[i].slopes (null), routes ({}), primary_route (""),
d_lower (null), reason ("") and tags ([]), tags[i].value (null).  The
writer leaves out complementary_meridian, f_outer and f_inner when None.

All rationals are reduced [numerator, denominator] pairs with positive
denominator; the meridian value is the string "inf" and an empty-set
diameter is "-inf".  Slopes and primitive classes are [a, b] pairs in
reference coordinates, a slope always its canonical pair (coprime, with
b > 0, or [1, 0]).  Documents carry a "kind" field
("knot_description", "transfer_certificate", "diameter_certificate")
so the verifier can dispatch.  Emission is deterministic: fixed key
order via sorted dumps, fixed list orders fixed by the producers.

The matrix text format for the snf command is: first line "rows cols",
then rows*cols integers in row-major order, whitespace-separated.
"""

import json
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd

from .linalg import FPAbelianGroup, IntMatrix
from .slopes import INF, NEG_INF, Framing, PrimitiveClass, Slope, _sorted_values


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, fixed indentation, one trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``,
    errors included.  The stdlib falls back to its pure-Python encoder when
    asked to indent; this emitter writes the same bytes faster, mostly by
    joining each list of plain ints in one step.
    """
    out = []
    try:
        _emit(obj, "\n", out)
    except RecursionError:
        # A circular or very deep structure: the stdlib raises its own
        # error for it (ValueError for a cycle).
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def same_canonical(a, b):
    """Whether canonical_dumps(a) == canonical_dumps(b), without indenting.

    Indentation is a function of structure, so two values have equal
    canonical text exactly when their compact sorted encodings, which the
    stdlib's C encoder writes, are equal.  Comparing the values with ``==``
    would not do: ``True == 1`` and ``1.0 == 1``, but their texts differ.
    """
    return _compact(a) == _compact(b)


def _compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_INT_TYPES = {int}
_int_text = int.__repr__
_INFINITY = float("inf")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(k):
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_text(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return _int_text(k)
    raise TypeError(
        "keys must be str, int, float, bool or None, not %s" % k.__class__.__name__
    )


def _emit(o, nl, out):
    """Append the indented text of `o` to `out`; `nl` is a newline plus
    the indentation of the line `o` starts on.  Type tests and their
    order follow the stdlib encoder, so subclasses encode as it does."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_text(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
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
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _encode_str(_key_text(k)) + ": ")
            sep = "," + inner
            _emit(v, inner, out)
        out.append(nl + "}")
    else:
        raise TypeError(
            "Object of type %s is not JSON serializable" % o.__class__.__name__
        )


# ---------------------------------------------------------------------------
# The schema walk.  Each document type is a record: a table of fields, each
# a JSON key, the attribute (or dict key, or tuple index) it maps to, and a
# field kind.  A kind reads a JSON value, checking its type before it looks
# inside, and writes the Python value back.  A value of the wrong type, or
# values a constructor rejects, raise _Bad; every record, list and map it
# passes through on the way out adds its step to the path, so paths are
# built only for errors.


class _Bad(Exception):
    """A JSON value of the wrong type, or one its type rejects (``message``
    given); ``steps`` is its path, innermost first."""

    def __init__(self, expected, *steps, message=None):
        super().__init__(expected)
        self.message = "expected " + expected if message is None else message
        self.steps = list(steps)

    def within(self, step):
        self.steps.append(step)
        return self


class _Scalar:
    """A JSON integer, boolean or string, of exactly that type (true is not 1)."""

    def __init__(self, type_, expected):
        self.type, self.expected = type_, expected

    def read(self, x):
        if type(x) is self.type:
            return x
        raise _Bad(self.expected)

    def emit(self, v):
        return v


class _Pair:
    """[a, b] with integers a and b, read as make(a, b), written as unmake(v)."""

    def __init__(self, make, unmake):
        self.make, self.emit = make, unmake

    def read(self, x):
        if type(x) is list and len(x) == 2:
            a, b = x
            if type(a) is int and type(b) is int:
                try:
                    return self.make(a, b)
                except ValueError as e:  # a broken invariant of the type
                    raise _Bad("", message=str(e)) from None
            raise _Bad("an integer", "[1]" if type(a) is int else "[0]")
        raise _Bad("a pair [a, b]")


class _Ints:
    """A list of integers, of length n (any length when n is None), read as a tuple."""

    def __init__(self, n=None):
        self.n = n
        self.expected = "a list of integers" if n is None else "a list of %d integers" % n

    def read(self, x):
        if type(x) is not list or self.n not in (None, len(x)):
            raise _Bad(self.expected)
        if [e for e in x if type(e) is not int]:
            i = next(i for i, e in enumerate(x) if type(e) is not int)
            raise _Bad("an integer", "[%d]" % i)
        return tuple(x)

    emit = list


class _Token:
    """The JSON string `text`, read as `value`; anything else is read as `other`."""

    def __init__(self, text, value, other):
        self.text, self.value, self.other = text, value, other

    def read(self, x):
        return self.value if x == self.text else self.other.read(x)

    def emit(self, v):
        return self.text if v is self.value else self.other.emit(v)


class _Nullable:
    """null, read as None, or a value of `kind`."""

    def __init__(self, kind):
        self.kind = kind

    def read(self, x):
        return None if x is None else self.kind.read(x)

    def emit(self, v):
        return None if v is None else self.kind.emit(v)


class _List:
    """A JSON list of `item` values, read as a tuple, written in `order`."""

    def __init__(self, item, order=None):
        self.item, self.order = item, order

    def read(self, x):
        if type(x) is not list:
            raise _Bad("a list")
        read = self.item.read
        out = []
        try:
            for v in x:
                out.append(read(v))
        except _Bad as e:
            raise e.within("[%d]" % len(out))
        return tuple(out)

    def emit(self, v):
        emit = self.item.emit
        return [emit(e) for e in (self.order(v) if self.order else v)]


class _Map:
    """A JSON object from names to `item` values, read as a dict."""

    def __init__(self, item):
        self.item = item

    def read(self, x):
        if type(x) is not dict:
            raise _Bad("an object")
        read = self.item.read
        out = {}
        for k, v in x.items():
            try:
                out[k] = read(v)
            except _Bad as e:
                raise e.within("[%s]" % _encode_str(k))
        return out

    def emit(self, v):
        emit = self.item.emit
        return {k: emit(e) for k, e in v.items()}


_REQUIRED = object()  # the default of a field that must be present


class _Field:
    """One entry of a record's table.

    ``attr`` is the attribute, dict key or tuple index the JSON ``key``
    maps to (the key itself when None).  A missing key reads as the JSON
    value ``default``, or is an error when there is none.  ``omit_none``
    leaves the key out on emit when the value is None.  A ``derived``
    field is not passed to the constructor: it is written from the built
    value's attribute and, when stated, must equal it on read; ``derived``
    names what it must match.
    """

    def __init__(self, key, kind, attr=None, default=_REQUIRED, omit_none=False, derived=""):
        self.key, self.kind = key, kind
        self.attr = key if attr is None else attr
        self.default, self.omit_none, self.derived = default, omit_none, derived


class _Record:
    """A JSON object read field by field into build({attr: value}) and
    written from get(value, attr); a document also writes its "kind"."""

    def __init__(self, build, get, *fields, kind=None):
        self.build, self.get, self.fields, self.kind = build, get, fields, kind
        self.reads = [(f.key, f.attr, f.kind.read, f.default) for f in fields]
        # Scalars (no converter) are written as they are.
        self.emits = [
            (f.key, f.attr, None if type(f.kind) is _Scalar else f.kind.emit, f.omit_none)
            for f in fields
        ]
        self.derived = [f for f in fields if f.derived]

    def document(self, kind):
        """The same table for a top-level document of this kind."""
        return _Record(self.build, self.get, *self.fields, kind=kind)

    def read(self, x):
        if type(x) is not dict:
            raise _Bad("an object")
        values = {}
        for key, attr, read, default in self.reads:
            try:
                values[attr] = read(x.get(key, default))
            except _Bad as e:
                raise e.within("." + key)
        stated = [(f, values.pop(f.attr)) for f in self.derived]
        try:
            obj = self.build(values)
        except ValueError as e:  # a broken invariant of the type
            raise _Bad("", message=str(e)) from None
        for f, v in stated:
            if v is not None and v != self.get(obj, f.attr):
                raise _Bad(f.derived, "." + f.key)
        return obj

    def emit(self, obj):
        out = {"kind": self.kind} if self.kind else {}
        get = self.get
        for key, attr, emit, omit_none in self.emits:
            v = get(obj, attr)
            if emit is None:
                out[key] = v
            elif v is not None or not omit_none:
                out[key] = emit(v)
        return out


def _object(cls, *fields):
    """A record read into cls(**values), written from attributes."""
    return _Record(lambda values: cls(**values), getattr, *fields)


def _deferred(module, name, *fields):
    """_object for the class `name` of this package's `module`, imported on
    the first read: the tables below name cable-space classes, and reading
    a matrix must not load the cable-space modules."""

    def build(values):
        cls = getattr(__import__(__package__ + "." + module, fromlist=(name,)), name)
        return cls(**values)

    return _Record(build, getattr, *fields)


def _dict(*fields):
    """A record read into a dict and written from one."""
    return _Record(dict, operator.getitem, *fields)


def _tuple(*fields):
    """A record read into a tuple, in table order, and written from one by index."""
    return _Record(lambda values: tuple(values.values()), operator.getitem, *fields)


def _fraction(n, d):
    if d > 0 and gcd(n, d) == 1:
        return Fraction(n, d)
    raise _Bad("a reduced fraction [n, d] with d > 0")


def _slope(a, b):
    if (b > 0 or (b == 0 and a == 1)) and gcd(a, b) == 1:
        return Slope(PrimitiveClass(a, b))
    raise _Bad("a canonical slope [a, b]: coprime, with b > 0, or [1, 0]")


def _fraction_pair(v):
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return [v.numerator, v.denominator]


def _codec(kind, where):
    """The writer of `kind`, and a reader raising ValueError("<path>: expected ...")."""

    def read(x, where=where):
        try:
            return kind.read(x)
        except _Bad as e:
            path = where + "".join(reversed(e.steps))
            raise ValueError("%s: %s" % (path, e.message)) from None

    return kind.emit, read


# ---------------------------------------------------------------------------
# The tables.

INT = _Scalar(int, "an integer")
BOOL = _Scalar(bool, "true or false")
STR = _Scalar(str, "a string")
INTS = _Ints()
PAIR = _Pair(lambda a, b: (a, b), list)
FRACTION = _Pair(_fraction, _fraction_pair)
VALUE = _Token("inf", INF, FRACTION)
D_LOWER = _Nullable(_Token("-inf", NEG_INF, FRACTION))
SLOPE = _Pair(_slope, lambda s: [s.a, s.b])
PRIMITIVE_CLASS = _Pair(PrimitiveClass, lambda c: [c.a, c.b])

FRAMING = _object(
    Framing,
    _Field("mu", PRIMITIVE_CLASS),
    _Field("lambda", PRIMITIVE_CLASS, attr="lambda_"),
    _Field("sign", INT),
)

MATRIX = _object(IntMatrix, _Field("rows", INT), _Field("cols", INT), _Field("entries", INTS))

GROUP = _object(
    FPAbelianGroup,
    _Field("n_generators", INT),
    _Field("diag", INTS),
    _Field("coordinate_map", MATRIX),
    _Field(
        "invariant_factors", _Nullable(INTS), default=None,
        derived="factors matching the diagonal",
    ),
)

MODEL = _deferred(
    "cablespace", "CableSpaceModel",
    _Field("p", INT),
    _Field("q", INT),
    _Field("orientation", INT),
    _Field("f_outer", FRAMING),
    _Field("f_inner", FRAMING),
    _Field("relation", MATRIX),
    _Field("h1", GROUP),
    _Field("img_mu", _Ints(3)),
    _Field("img_lambda", _Ints(3)),
    _Field("img_mu_prime", _Ints(3)),
    _Field("img_lambda_prime", _Ints(3)),
    _Field("boundary_outer", _Ints(2)),
    _Field("boundary_inner", _Ints(2)),
    _Field("zeta", INT),
    _Field("t", FRACTION),
    _Field("theta", INT),
    _Field("eta", INT),
)

MAP = _deferred(
    "transfer", "AffineSlopeMap", _Field("epsilon", INT), _Field("q", INT), _Field("u", FRACTION)
)

TRANSFER_CERTIFICATE = _deferred(
    "transfer", "TransferCertificate",
    _Field("model", MODEL),
    _Field("map", MAP),
    _Field("witnesses", _dict(
        _Field("boundary", _dict(
            _Field("outer", PAIR), _Field("inner", PAIR), _Field("zeta", INT),
        )),
        _Field("meridian", _dict(
            _Field("zeta", INT), _Field("q", INT), _Field("factor", FRACTION),
        )),
        _Field("longitude", _dict(_Field("t", FRACTION), _Field("coefficient", INT))),
        _Field("slopes", _List(_dict(
            _Field("source", PAIR),
            _Field("image", PAIR),
            _Field("factor", FRACTION),
            _Field("value_outer", VALUE),
            _Field("value_inner", VALUE),
        ))),
    )),
)

ATOM = _deferred(
    "pipeline", "AtomKnot",
    _Field(
        "strict_slopes", _List(VALUE, order=_sorted_values), attr="strict_numerical_slopes",
        default=[],
    ),
    _Field("meridionally_small", BOOL, default=False),
    _Field("is_round", BOOL, default=False),
    _Field("is_cable", BOOL, default=False),
    _Field("ambient_pi1_cyclic", BOOL, default=False),
    _Field("complementary_meridian", _Nullable(SLOPE), default=None, omit_none=True),
)

CABLING = _deferred(
    "pipeline", "Cabling",
    _Field("p", INT),
    _Field("q", INT),
    _Field("orientation", INT, default=1),
    _Field("f_outer", _Nullable(FRAMING), default=None, omit_none=True),
    _Field("f_inner", _Nullable(FRAMING), default=None, omit_none=True),
)

DESCRIPTION = _deferred(
    "pipeline", "KnotDescription",
    _Field("base", ATOM),
    _Field("cablings", _List(CABLING), default=[]),
)

DIAMETER_CERTIFICATE = _deferred(
    "pipeline", "DiameterCertificate",
    _Field("description", DESCRIPTION),
    _Field("gitk", BOOL),
    _Field("ambient_h1", _Nullable(GROUP), attr="ambient", default=None),
    _Field("base_slopes", _List(VALUE), default=[]),
    _Field("levels", _List(_deferred(
        "pipeline", "LevelRecord",
        _Field("cabling", CABLING),
        _Field("certificate", TRANSFER_CERTIFICATE),
        _Field("slopes", _Nullable(_List(FRACTION)), default=None),
    )), default=[]),
    _Field("routes", _Map(FRACTION), default={}),
    _Field("primary_route", STR, default=""),
    _Field("d_lower", D_LOWER, default=None),
    _Field("reason", STR, default=""),
    _Field("tags", _List(_tuple(
        _Field("rule", STR, attr=0),
        _Field("value", _Nullable(FRACTION), attr=1, default=None),
    )), default=[]),
).document("diameter_certificate")

# The writers and readers the CLI and the tests call by name.
frac_to_json, frac_from_json = _codec(FRACTION, "rational")
value_to_json, value_from_json = _codec(VALUE, "value")
dlower_to_json = D_LOWER.emit
slope_to_json, slope_from_json = _codec(SLOPE, "slope")
framing_to_json, framing_from_json = _codec(FRAMING, "framing")
matrix_to_json, matrix_from_json = _codec(MATRIX, "matrix")
model_to_json = MODEL.emit
transfer_certificate_to_json, transfer_certificate_from_json = _codec(
    TRANSFER_CERTIFICATE.document("transfer_certificate"), "certificate"
)
description_to_json, description_from_json = _codec(
    DESCRIPTION.document("knot_description"), "description"
)
diameter_certificate_to_json, diameter_certificate_from_json = _codec(
    DIAMETER_CERTIFICATE, "certificate"
)


def load_document(text, where="input"):
    """Parse a JSON document and dispatch on its "kind" field."""
    try:
        x = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("%s: malformed JSON (%s)" % (where, e)) from None
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply to parse" % where) from None
    if not isinstance(x, dict):
        raise ValueError("%s: expected a JSON object" % where)
    kind = x.get("kind")
    if kind == "knot_description":
        return description_from_json(x, where)
    if kind == "transfer_certificate":
        return transfer_certificate_from_json(x, where)
    if kind == "diameter_certificate":
        return diameter_certificate_from_json(x, where)
    raise ValueError(
        '%s.kind: expected "knot_description", "transfer_certificate", or '
        '"diameter_certificate"' % where
    )


def parse_matrix_text(text):
    """Parse the snf input format: "rows cols" then row-major integers."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix file must start with the two counts: rows cols")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        entries = [int(t) for t in tokens[2:]]
    except ValueError:
        raise ValueError("matrix entries must be integers") from None
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if len(entries) != rows * cols:
        raise ValueError(
            "expected %d entries for a %dx%d matrix, got %d"
            % (rows * cols, rows, cols, len(entries))
        )
    return IntMatrix(rows, cols, tuple(entries))
