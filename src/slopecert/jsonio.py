"""JSON documents: knot descriptions and certificates.

Each document type is one table of fields: a JSON key, the attribute it
maps to, and a field kind (see the tables below, FRAMING to
DIAMETER_CERTIFICATE).  One reader and one writer walk the tables.  The
reader checks the type of every value before it reads into it: integers
are JSON integers (true and 1.0 are not), and rationals and slopes must
be in the form the writer uses (see below).  A missing field, a value of
the wrong type, or a rational or slope in another form raises ValueError
with the field's path, list indices included, e.g.
"certificate.description.cablings[3].p: expected an integer", so a
malformed document is an input error (exit code 2).  Values of the right
types that break an invariant of the type they are read into get the
constructor's message after the path of that value, e.g.
"certificate.map: epsilon must be +1 or -1"; so does a matrix with more
than MAX_MATRIX_DIM rows or columns.  A list that holds a set (a base's
strict slopes) must be in the writer's order: ascending, "inf" last,
nothing repeated.  Keys not in a table are ignored, among them the
copies that certificates written by earlier versions state, such as
each diameter level's transfer certificate and a model's h1.  A model
states no group H1, which is Z^2 for every cable space (see
cablespace), so a stored model.h1, edited or not, changes no verdict.

Only these fields may be omitted, read as the default shown, or be null:
in a description, base.strict_slopes ([]), the four base flags (false),
base.complementary_meridian (null), cablings ([]), cablings[i].orientation
(1), cablings[i].f_outer and f_inner (null: the standard framing); in a
diameter certificate, ambient_h1 (null), base_slopes ([]), levels ([]),
levels[i].slopes (null), routes ({}), primary_route (""), d_lower (null),
reason ("") and tags ([]), tags[i].value (null).  A transfer certificate
has none.  The writer leaves out complementary_meridian, f_outer and
f_inner when None.

All rationals are reduced [numerator, denominator] pairs with positive
denominator, read as rational.Rational and written from anything with a
numerator and a denominator; the meridian value is the string "inf" and
an empty-set diameter is "-inf".  Slopes and primitive classes are [a, b] pairs in
reference coordinates, a slope always its canonical pair (coprime, with
b > 0, or [1, 0]).  Documents carry a "kind" field
("knot_description", "transfer_certificate", "diameter_certificate")
so the verifier can dispatch.  Emission is deterministic: fixed key
order via sorted dumps, fixed list orders fixed by the producers.

The emitter, the matrix writer and snf's matrix text format are textio's,
bound here too as the same objects; snf loads textio without this module.
A document is parsed by the C scanner that json.loads runs (_json), with
json.loads's settings, so reading one loads neither json nor fractions;
json is imported only to word an error, which is json.loads's own.
"""

import operator
import sys
from _json import make_encoder as _make_encoder, make_scanner as _make_scanner
from math import gcd

from .rational import Rational
from .slopes import INF, NEG_INF, Framing, PrimitiveClass, Slope, _sorted_values, value_text
from .textio import MAX_MATRIX_DIM, _check_size, _encode_str, canonical_dumps
from .textio import digit_limit_text, matrix_to_json, parse_matrix_text


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
    """A list of integers, read as a tuple."""

    def read(self, x):
        if type(x) is not list:
            raise _Bad("a list of integers")
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
    """A JSON list of `item` values, read as a tuple.  With an `order` it
    holds a set: it is written in that order, and is read only in it,
    each value once."""

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
        if self.order:
            for i in range(1, len(out)):
                pair = (out[i - 1], out[i])
                if pair[0] == pair[1] or self.order(pair) != pair:
                    raise _Bad('a value after the one before it: ascending,'
                               ' "inf" last, none repeated', "[%d]" % i)
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
    leaves the key out on emit when the value is None.
    """

    def __init__(self, key, kind, attr=None, default=_REQUIRED, omit_none=False):
        self.key, self.kind = key, kind
        self.attr = key if attr is None else attr
        self.default, self.omit_none = default, omit_none


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
        try:
            return self.build(values)
        except ValueError as e:  # a broken invariant of the type
            raise _Bad("", message=str(e)) from None

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


def _exported(name):
    """The class the package exports as `name`, importing its module on
    first use: the tables below name the classes of linalg and of the
    cable-space modules, and importing jsonio loads none of them."""
    return getattr(sys.modules[__package__], name)


def _deferred(name, *fields):
    """_object for the class the package exports as `name`, looked up on
    each read (_exported)."""
    return _Record(lambda values: _exported(name)(**values), getattr, *fields)


def _dict(*fields):
    """A record read into a dict and written from one."""
    return _Record(dict, operator.getitem, *fields)


def _tuple(*fields):
    """A record read into a tuple, in table order, and written from one by index."""
    return _Record(lambda values: tuple(values.values()), operator.getitem, *fields)


def _fraction(n, d):
    if d > 0 and gcd(n, d) == 1:
        return Rational(n, d)
    raise _Bad("a reduced fraction [n, d] with d > 0")


def _slope(a, b):
    if (b > 0 or (b == 0 and a == 1)) and gcd(a, b) == 1:
        return Slope(PrimitiveClass(a, b))
    raise _Bad("a canonical slope [a, b]: coprime, with b > 0, or [1, 0]")


def _matrix(values):
    """The IntMatrix of a document's matrix, if no count is over MAX_MATRIX_DIM."""
    _check_size(values["rows"], values["cols"])
    return _exported("IntMatrix")(**values)


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
FRACTION = _Pair(_fraction, lambda v: [v.numerator, v.denominator])
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

MATRIX = _Record(
    _matrix, getattr, _Field("rows", INT), _Field("cols", INT), _Field("entries", INTS)
)
MATRIX.emit = matrix_to_json  # the one writer of the shape, snf's report's too

GROUP = _deferred(
    "FPAbelianGroup",
    _Field("n_generators", INT),
    _Field("diag", INTS),
    _Field("coordinate_map", MATRIX),
)

MODEL = _deferred(
    "CableSpaceModel",
    _Field("p", INT),
    _Field("q", INT),
    _Field("orientation", INT),
    _Field("f_outer", FRAMING),
    _Field("f_inner", FRAMING),
    _Field("zeta", INT),
    _Field("t", FRACTION),
)

MAP = _deferred(
    "AffineSlopeMap", _Field("epsilon", INT), _Field("q", INT), _Field("u", FRACTION)
)

TRANSFER_CERTIFICATE = _deferred(
    "TransferCertificate",
    _Field("model", MODEL),
    _Field("map", MAP),
    _Field("witnesses", _dict(
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
    "AtomKnot",
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
    "Cabling",
    _Field("p", INT),
    _Field("q", INT),
    _Field("orientation", INT, default=1),
    _Field("f_outer", _Nullable(FRAMING), default=None, omit_none=True),
    _Field("f_inner", _Nullable(FRAMING), default=None, omit_none=True),
)

DESCRIPTION = _deferred(
    "KnotDescription",
    _Field("base", ATOM),
    _Field("cablings", _List(CABLING), default=[]),
)

DIAMETER_CERTIFICATE = _deferred(
    "DiameterCertificate",
    _Field("description", DESCRIPTION),
    _Field("gitk", BOOL),
    _Field("ambient_h1", _Nullable(GROUP), attr="ambient", default=None),
    _Field("base_slopes", _List(VALUE), default=[]),
    _Field("levels", _List(_deferred(
        "LevelRecord", _Field("slopes", _Nullable(_List(FRACTION)), default=None),
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
_, matrix_from_json = _codec(MATRIX, "matrix")
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


def first_difference(kind, stored, fresh, path=""):
    """(path, stored text, fresh text) at the first place where two unequal
    values of `kind`, a table above, differ.  The walk follows the table:
    records field by field, lists item by item, maps with the same keys,
    and integer pairs entry by entry; rationals, tokens and scalars are
    compared whole.  The path is in JSON keys, as input errors write it,
    e.g. "levels[1].slopes[0]", "tags[0].value" or "ambient_h1".  A
    rational is written as reports write it, any other value as one line
    of JSON.  Two lists that agree up to the end of the shorter differ at
    its end, written as the two lengths, e.g. "length 49"."""
    if type(kind) is _Nullable and stored is not None and fresh is not None:
        kind = kind.kind
    t = type(kind)
    steps = ()
    if t is _Record:
        get = kind.get
        steps = [("." + f.key, f.kind, get(stored, f.attr), get(fresh, f.attr))
                 for f in kind.fields]
    elif t is _List or t is _Ints:
        item, order = (INT, tuple) if t is _Ints else (kind.item, kind.order or tuple)
        xs, ys = order(stored), order(fresh)
        steps = [("[%d]" % i, item, x, y) for i, (x, y) in enumerate(zip(xs, ys))]
    elif t is _Map and stored.keys() == fresh.keys():
        steps = [("[%s]" % _encode_str(k), kind.item, stored[k], fresh[k]) for k in sorted(stored)]
    elif t is _Pair and kind is not FRACTION:
        steps = [("[%d]" % i, INT, x, y)
                 for i, (x, y) in enumerate(zip(kind.emit(stored), kind.emit(fresh)))]
    for step, item, x, y in steps:
        if x != y:
            return first_difference(item, x, y, path + step)
    if (t is _List or t is _Ints) and len(xs) != len(ys):
        path += "[%d]" % min(len(xs), len(ys))
        return path.lstrip("."), "length %d" % len(xs), "length %d" % len(ys)
    return path.lstrip("."), _value_json(kind, stored), _value_json(kind, fresh)


def _value_json(kind, v):
    """A value as first_difference writes it: a rational as reports do, any
    other value as json.dumps(..., sort_keys=True) writes its JSON form."""
    if type(v) is Rational or v is INF or v is NEG_INF:
        return value_text(v)
    encode = _make_encoder({}, _unserializable, _encode_str, None, ": ", ", ", True, False, True)
    return "".join(encode(kind.emit(v), 0))


def _unserializable(o):
    raise TypeError("Object of type %s is not JSON serializable" % o.__class__.__name__)


class _Strict:
    """json.loads's settings, for the C scanner."""

    strict, object_hook, object_pairs_hook = True, None, None
    parse_float, parse_int = float, int
    parse_constant = {
        "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
    }.__getitem__


_scan = _make_scanner(_Strict)
_WHITESPACE = " \t\n\r"


def _loads(text):
    """json.loads(text): the C scanner, from the first character that is not
    JSON whitespace to the last.  Anything else (a leading BOM, trailing
    data, any error) goes to json.loads, which returns the same value or
    raises its own error."""
    try:
        x, end = _scan(text, len(text) - len(text.lstrip(_WHITESPACE)))
        if not text[end:].strip(_WHITESPACE):
            return x
    except (StopIteration, ValueError, RecursionError, TypeError):
        pass
    import json

    return json.loads(text)


def load_document(text, where="input"):
    """Parse a JSON document and dispatch on its "kind" field."""
    try:
        x = _loads(text)
    except ValueError as e:  # JSONDecodeError, or an int past the digit limit
        raise ValueError("%s: malformed JSON (%s)" % (where, digit_limit_text(e) or e)) from None
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
