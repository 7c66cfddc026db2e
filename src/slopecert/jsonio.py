"""JSON schema for descriptions and certificates, and the matrix text format.

All rationals are emitted as reduced [numerator, denominator] pairs
with positive denominator; the meridian value is the string "inf" and
an empty-set diameter is "-inf".  Slopes and primitive classes are
[a, b] pairs in reference coordinates.  Documents carry a "kind" field
("knot_description", "transfer_certificate", "diameter_certificate")
so the verifier can dispatch.  Emission is deterministic: fixed key
order via sorted dumps, fixed list orders fixed by the producers.

The matrix text format for the snf command is: first line "rows cols",
then rows*cols integers in row-major order, whitespace-separated.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .cablespace import CableSpaceModel
from .linalg import FPAbelianGroup, IntMatrix
from .pipeline import (
    NEG_INF,
    AtomKnot,
    Cabling,
    DiameterCertificate,
    KnotDescription,
    LevelRecord,
)
from .slopes import INF, Framing, PrimitiveClass, canonical_slope
from .transfer import AffineSlopeMap, TransferCertificate


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


def _fail(where, expected):
    raise ValueError("%s: expected %s" % (where, expected))


def _int(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(where, "an integer")
    return x


def _int_pair(x, where):
    if not (isinstance(x, list) and len(x) == 2):
        _fail(where, "a pair [a, b]")
    return [_int(e, where) for e in x]


def frac_to_json(v):
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return [v.numerator, v.denominator]


def frac_from_json(x, where="rational"):
    n, d = _int_pair(x, where)
    if d == 0:
        _fail(where, "a nonzero denominator")
    return Fraction(n, d)


def value_to_json(v):
    return "inf" if v is INF else frac_to_json(v)


def value_from_json(x, where="value"):
    if x == "inf":
        return INF
    return frac_from_json(x, where)


def dlower_to_json(v):
    if v is None:
        return None
    if v is NEG_INF:
        return "-inf"
    return frac_to_json(v)


def dlower_from_json(x, where="d_lower"):
    if x is None:
        return None
    if x == "-inf":
        return NEG_INF
    return frac_from_json(x, where)


def slope_to_json(s):
    return [s.a, s.b]


def slope_from_json(x, where="slope"):
    a, b = _int_pair(x, where)
    return canonical_slope(a, b)


def framing_to_json(f):
    return {
        "mu": [f.mu.a, f.mu.b],
        "lambda": [f.lambda_.a, f.lambda_.b],
        "sign": f.sign,
    }


def framing_from_json(x, where="framing"):
    if not isinstance(x, dict):
        _fail(where, "an object with mu, lambda, sign")
    mu = _int_pair(x.get("mu"), where + ".mu")
    lam = _int_pair(x.get("lambda"), where + ".lambda")
    sign = _int(x.get("sign"), where + ".sign")
    return Framing(PrimitiveClass(*mu), PrimitiveClass(*lam), sign)


def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def matrix_from_json(x, where="matrix"):
    if not isinstance(x, dict):
        _fail(where, "an object with rows, cols, entries")
    rows = _int(x.get("rows"), where + ".rows")
    cols = _int(x.get("cols"), where + ".cols")
    entries = x.get("entries")
    if not isinstance(entries, list):
        _fail(where + ".entries", "a list of integers")
    return IntMatrix(
        rows, cols, tuple(_int(e, where + ".entries") for e in entries)
    )


def group_to_json(g):
    return {
        "n_generators": g.n_generators,
        "diag": list(g.diag),
        "invariant_factors": list(g.invariant_factors),
        "coordinate_map": matrix_to_json(g.coordinate_map),
    }


def group_from_json(x, where="group"):
    if not isinstance(x, dict):
        _fail(where, "an object")
    n = _int(x.get("n_generators"), where + ".n_generators")
    diag = x.get("diag")
    if not isinstance(diag, list):
        _fail(where + ".diag", "a list of integers")
    g = FPAbelianGroup(
        n_generators=n,
        diag=tuple(_int(e, where + ".diag") for e in diag),
        coordinate_map=matrix_from_json(
            x.get("coordinate_map"), where + ".coordinate_map"
        ),
    )
    stated = x.get("invariant_factors")
    if stated is not None and tuple(stated) != g.invariant_factors:
        _fail(where + ".invariant_factors", "factors matching the diagonal")
    return g


def _vec_to_json(v):
    return list(v)


def _int_vec(x, n, where):
    if not (isinstance(x, list) and len(x) == n):
        _fail(where, "a list of %d integers" % n)
    return tuple(_int(e, where) for e in x)


def model_to_json(m):
    return {
        "p": m.p,
        "q": m.q,
        "orientation": m.orientation,
        "f_outer": framing_to_json(m.f_outer),
        "f_inner": framing_to_json(m.f_inner),
        "relation": matrix_to_json(m.relation),
        "h1": group_to_json(m.h1),
        "img_mu": _vec_to_json(m.img_mu),
        "img_lambda": _vec_to_json(m.img_lambda),
        "img_mu_prime": _vec_to_json(m.img_mu_prime),
        "img_lambda_prime": _vec_to_json(m.img_lambda_prime),
        "boundary_outer": _vec_to_json(m.boundary_outer),
        "boundary_inner": _vec_to_json(m.boundary_inner),
        "zeta": m.zeta,
        "t": frac_to_json(m.t),
        "theta": m.theta,
        "eta": m.eta,
    }


def model_from_json(x, where="model"):
    if not isinstance(x, dict):
        _fail(where, "an object")
    return CableSpaceModel(
        p=_int(x.get("p"), where + ".p"),
        q=_int(x.get("q"), where + ".q"),
        orientation=_int(x.get("orientation"), where + ".orientation"),
        f_outer=framing_from_json(x.get("f_outer"), where + ".f_outer"),
        f_inner=framing_from_json(x.get("f_inner"), where + ".f_inner"),
        relation=matrix_from_json(x.get("relation"), where + ".relation"),
        h1=group_from_json(x.get("h1"), where + ".h1"),
        img_mu=_int_vec(x.get("img_mu"), 3, where + ".img_mu"),
        img_lambda=_int_vec(x.get("img_lambda"), 3, where + ".img_lambda"),
        img_mu_prime=_int_vec(x.get("img_mu_prime"), 3, where + ".img_mu_prime"),
        img_lambda_prime=_int_vec(
            x.get("img_lambda_prime"), 3, where + ".img_lambda_prime"
        ),
        boundary_outer=_int_vec(x.get("boundary_outer"), 2, where + ".boundary_outer"),
        boundary_inner=_int_vec(x.get("boundary_inner"), 2, where + ".boundary_inner"),
        zeta=_int(x.get("zeta"), where + ".zeta"),
        t=frac_from_json(x.get("t"), where + ".t"),
        theta=_int(x.get("theta"), where + ".theta"),
        eta=_int(x.get("eta"), where + ".eta"),
    )


def map_to_json(m):
    return {"epsilon": m.epsilon, "q": m.q, "u": frac_to_json(m.u)}


def map_from_json(x, where="map"):
    if not isinstance(x, dict):
        _fail(where, "an object with epsilon, q, u")
    return AffineSlopeMap(
        epsilon=_int(x.get("epsilon"), where + ".epsilon"),
        q=_int(x.get("q"), where + ".q"),
        u=frac_from_json(x.get("u"), where + ".u"),
    )


def transfer_certificate_to_json(cert, kind=True):
    w = cert.witnesses
    out = {
        "model": model_to_json(cert.model),
        "map": map_to_json(cert.map),
        "witnesses": {
            "boundary": {
                "outer": list(w["boundary"]["outer"]),
                "inner": list(w["boundary"]["inner"]),
                "zeta": w["boundary"]["zeta"],
            },
            "meridian": {
                "zeta": w["meridian"]["zeta"],
                "q": w["meridian"]["q"],
                "factor": frac_to_json(w["meridian"]["factor"]),
            },
            "longitude": {
                "t": frac_to_json(w["longitude"]["t"]),
                "coefficient": w["longitude"]["coefficient"],
            },
            "slopes": [
                {
                    "source": list(rec["source"]),
                    "image": list(rec["image"]),
                    "factor": frac_to_json(rec["factor"]),
                    "value_outer": value_to_json(rec["value_outer"]),
                    "value_inner": value_to_json(rec["value_inner"]),
                }
                for rec in w["slopes"]
            ],
        },
    }
    if kind:
        out["kind"] = "transfer_certificate"
    return out


def transfer_certificate_from_json(x, where="certificate"):
    if not isinstance(x, dict):
        _fail(where, "an object")
    wx = x.get("witnesses")
    if not isinstance(wx, dict):
        _fail(where + ".witnesses", "an object")
    bx = wx.get("boundary", {})
    mx = wx.get("meridian", {})
    lx = wx.get("longitude", {})
    sx = wx.get("slopes")
    if not isinstance(sx, list):
        _fail(where + ".witnesses.slopes", "a list")
    witnesses = {
        "boundary": {
            "outer": tuple(_int_pair(bx.get("outer"), where + ".boundary.outer")),
            "inner": tuple(_int_pair(bx.get("inner"), where + ".boundary.inner")),
            "zeta": _int(bx.get("zeta"), where + ".boundary.zeta"),
        },
        "meridian": {
            "zeta": _int(mx.get("zeta"), where + ".meridian.zeta"),
            "q": _int(mx.get("q"), where + ".meridian.q"),
            "factor": frac_from_json(mx.get("factor"), where + ".meridian.factor"),
        },
        "longitude": {
            "t": frac_from_json(lx.get("t"), where + ".longitude.t"),
            "coefficient": _int(lx.get("coefficient"), where + ".longitude.coefficient"),
        },
        "slopes": tuple(
            {
                "source": tuple(_int_pair(rec.get("source"), where + ".slopes.source")),
                "image": tuple(_int_pair(rec.get("image"), where + ".slopes.image")),
                "factor": frac_from_json(rec.get("factor"), where + ".slopes.factor"),
                "value_outer": value_from_json(
                    rec.get("value_outer"), where + ".slopes.value_outer"
                ),
                "value_inner": value_from_json(
                    rec.get("value_inner"), where + ".slopes.value_inner"
                ),
            }
            for rec in sx
        ),
    }
    return TransferCertificate(
        model=model_from_json(x.get("model"), where + ".model"),
        map=map_from_json(x.get("map"), where + ".map"),
        witnesses=witnesses,
    )


def atom_to_json(a):
    finite = sorted(v for v in a.strict_numerical_slopes if v is not INF)
    values = [frac_to_json(v) for v in finite]
    if INF in a.strict_numerical_slopes:
        values.append("inf")
    out = {
        "strict_slopes": values,
        "meridionally_small": a.meridionally_small,
        "is_round": a.is_round,
        "is_cable": a.is_cable,
        "ambient_pi1_cyclic": a.ambient_pi1_cyclic,
    }
    if a.complementary_meridian is not None:
        out["complementary_meridian"] = slope_to_json(a.complementary_meridian)
    return out


def _bool(x, where):
    if not isinstance(x, bool):
        _fail(where, "true or false")
    return x


def atom_from_json(x, where="base"):
    if not isinstance(x, dict):
        _fail(where, "an object")
    values = x.get("strict_slopes", [])
    if not isinstance(values, list):
        _fail(where + ".strict_slopes", 'a list of [num, den] pairs or "inf"')
    comp = x.get("complementary_meridian")
    return AtomKnot(
        strict_numerical_slopes=frozenset(
            value_from_json(v, where + ".strict_slopes") for v in values
        ),
        meridionally_small=_bool(
            x.get("meridionally_small", False), where + ".meridionally_small"
        ),
        is_round=_bool(x.get("is_round", False), where + ".is_round"),
        is_cable=_bool(x.get("is_cable", False), where + ".is_cable"),
        ambient_pi1_cyclic=_bool(
            x.get("ambient_pi1_cyclic", False), where + ".ambient_pi1_cyclic"
        ),
        complementary_meridian=(
            None if comp is None else slope_from_json(comp, where + ".complementary_meridian")
        ),
    )


def cabling_to_json(c):
    out = {"p": c.p, "q": c.q, "orientation": c.orientation}
    if c.f_outer is not None:
        out["f_outer"] = framing_to_json(c.f_outer)
    if c.f_inner is not None:
        out["f_inner"] = framing_to_json(c.f_inner)
    return out


def cabling_from_json(x, where="cabling"):
    if not isinstance(x, dict):
        _fail(where, "an object with p and q")
    fo = x.get("f_outer")
    fi = x.get("f_inner")
    return Cabling(
        p=_int(x.get("p"), where + ".p"),
        q=_int(x.get("q"), where + ".q"),
        orientation=_int(x.get("orientation", 1), where + ".orientation"),
        f_outer=None if fo is None else framing_from_json(fo, where + ".f_outer"),
        f_inner=None if fi is None else framing_from_json(fi, where + ".f_inner"),
    )


def description_to_json(d, kind=True):
    out = {
        "base": atom_to_json(d.base),
        "cablings": [cabling_to_json(c) for c in d.cablings],
    }
    if kind:
        out["kind"] = "knot_description"
    return out


def description_from_json(x, where="description"):
    if not isinstance(x, dict):
        _fail(where, "an object with base and cablings")
    cablings = x.get("cablings", [])
    if not isinstance(cablings, list):
        _fail(where + ".cablings", "a list of {p, q} objects")
    return KnotDescription(
        base=atom_from_json(x.get("base"), where + ".base"),
        cablings=tuple(
            cabling_from_json(c, where + ".cablings[%d]" % i)
            for i, c in enumerate(cablings)
        ),
    )


def diameter_certificate_to_json(cert):
    return {
        "kind": "diameter_certificate",
        "description": description_to_json(cert.description, kind=False),
        "gitk": cert.gitk,
        "ambient_h1": None if cert.ambient is None else group_to_json(cert.ambient),
        "base_slopes": [value_to_json(v) for v in cert.base_slopes],
        "levels": [
            {
                "cabling": cabling_to_json(rec.cabling),
                "certificate": transfer_certificate_to_json(
                    rec.certificate, kind=False
                ),
                "slopes": (
                    None
                    if rec.slopes is None
                    else [frac_to_json(v) for v in rec.slopes]
                ),
            }
            for rec in cert.levels
        ],
        "routes": {name: frac_to_json(v) for name, v in cert.routes.items()},
        "primary_route": cert.primary_route,
        "d_lower": dlower_to_json(cert.d_lower),
        "reason": cert.reason,
        "tags": [
            {"rule": rule, "value": None if v is None else frac_to_json(v)}
            for rule, v in cert.tags
        ],
    }


def diameter_certificate_from_json(x, where="certificate"):
    if not isinstance(x, dict):
        _fail(where, "an object")
    levels = x.get("levels", [])
    if not isinstance(levels, list):
        _fail(where + ".levels", "a list")
    routes = x.get("routes", {})
    if not isinstance(routes, dict):
        _fail(where + ".routes", "an object")
    tags = x.get("tags", [])
    if not isinstance(tags, list):
        _fail(where + ".tags", "a list")
    base_slopes = x.get("base_slopes", [])
    if not isinstance(base_slopes, list):
        _fail(where + ".base_slopes", "a list")
    ambient = x.get("ambient_h1")
    return DiameterCertificate(
        description=description_from_json(
            x.get("description"), where + ".description"
        ),
        gitk=_bool(x.get("gitk"), where + ".gitk"),
        ambient=None if ambient is None else group_from_json(ambient, where + ".ambient_h1"),
        base_slopes=tuple(
            value_from_json(v, where + ".base_slopes") for v in base_slopes
        ),
        levels=tuple(
            LevelRecord(
                cabling=cabling_from_json(rec.get("cabling"), where + ".levels.cabling"),
                certificate=transfer_certificate_from_json(
                    rec.get("certificate"), where + ".levels.certificate"
                ),
                slopes=(
                    None
                    if rec.get("slopes") is None
                    else tuple(
                        frac_from_json(v, where + ".levels.slopes")
                        for v in rec["slopes"]
                    )
                ),
            )
            for rec in levels
        ),
        routes={
            name: frac_from_json(v, where + ".routes") for name, v in routes.items()
        },
        primary_route=x.get("primary_route", ""),
        d_lower=dlower_from_json(x.get("d_lower"), where + ".d_lower"),
        reason=x.get("reason", ""),
        tags=tuple(
            (
                tag.get("rule"),
                None if tag.get("value") is None else frac_from_json(tag["value"], where + ".tags"),
            )
            for tag in tags
        ),
    )


def load_document(text, where="input"):
    """Parse a JSON document and dispatch on its "kind" field."""
    try:
        x = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("%s: malformed JSON (%s)" % (where, e)) from None
    if not isinstance(x, dict):
        _fail(where, "a JSON object")
    kind = x.get("kind")
    if kind == "knot_description":
        return description_from_json(x, where)
    if kind == "transfer_certificate":
        return transfer_certificate_from_json(x, where)
    if kind == "diameter_certificate":
        return diameter_certificate_from_json(x, where)
    _fail(
        where + ".kind",
        '"knot_description", "transfer_certificate", or "diameter_certificate"',
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
