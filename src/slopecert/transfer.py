"""Transfer certificates: the affine law of a cable space, with witnesses.

A TransferCertificate packages a cable-space model, its affine slope map
(law.transfer_map) and sampled slope pairs with their rational
proportionality factors, enough for verify_certificate() to re-derive
every claim from the model's parameters alone: it takes the model's own
checks (cablespace.check_model), which hold the model's constants
against the closed-form images of the boundary bases, checks the map
and the list of slope records (slope_record), and proves that phi obeys
the map on every slope (law.grid_check).  Each constant is stated once,
in the model.

Nothing is computed twice for one model object: its check report and its
witness records are cached on it, and a certificate built from it states
those very records.

The law itself (AffineSlopeMap, phi, the grid check, transfer_map) is
law's, which pipeline imports without this module, so a knot
description or a diameter certificate loads no certificate code.  The
law's names that this module uses, and phi, are bound here too, where
earlier callers and the benchmark's tracer (bench/launcher.py) look
them up.
"""

from types import MappingProxyType

from .law import grid_check, phi, phi_with_factor, transfer_map
from .rational import Rational
from .record import Record, _store
from .report import Check, CheckReport
from .slopes import INF, canonical_slope, numerical_slope, slope_from_numerical, value_text


_DEFAULT_WITNESS_VALUES = (INF, 0, 1, -1, Rational(5, 3))


class TransferCertificate(Record):
    """A transfer map with everything needed to re-derive it.

    ``model`` is a CableSpaceModel and ``map`` an AffineSlopeMap.
    ``witnesses`` maps "slopes" to the records (slope_record: source,
    image, factor and values) of the slopes witness_slopes names, in its
    order; a built certificate states its model's ``witness_records``
    tuple itself.  The model's constants zeta and t are stated only in
    the model; the meridian's factor is that of the meridian's record.
    """

    def __init__(self, model, map, witnesses):
        _store(self, locals())


def slope_record(model, s):
    """The witness record of slope s: its source and image pairs, the
    proportionality factor, and its numerical values on both tori.  It is
    read-only, since a model's records are shared by every certificate
    built from it."""
    image, r = phi_with_factor(model, s)
    return MappingProxyType({
        "source": (s.a, s.b),
        "image": (image.a, image.b),
        "factor": r,
        "value_outer": numerical_slope(model.f_outer, s),
        "value_inner": numerical_slope(model.f_inner, image),
    })


def witness_slopes(model):
    """The slopes a certificate states records of, in order: those of the
    default witness values (the meridian first), then the cabling curve's,
    each once."""
    slopes = [slope_from_numerical(model.f_outer, v) for v in _DEFAULT_WITNESS_VALUES]
    slopes.append(canonical_slope(model.p, model.q))
    return tuple(dict.fromkeys(slopes))


def transfer_certificate(model):
    """Build the certificate for a model: its map and slope witnesses."""
    smap = transfer_map(model)
    return TransferCertificate(
        model=model, map=smap, witnesses={"slopes": model.witness_records}
    )


def _witness_problem(model, smap, records):
    """Why `records` are not the records transfer_certificate writes for
    `model` (its ``witness_records``), each obeying `smap`, naming the
    first index that fails; "" when they are.  The lists are compared
    whole; records are compared one by one only when they differ, to
    name the index."""
    wanted = model.witness_records
    same = tuple(records) == wanted
    for i, expected in enumerate(wanted):
        where = (i,) + expected["source"]
        if not same:
            if i == len(records):
                return "slopes[%d]: no record of slope (%d, %d)" % where
            if records[i] != expected:
                return "slopes[%d]: not the record of slope (%d, %d)" % where
        if expected["value_inner"] != smap.apply(expected["value_outer"]):
            return "slopes[%d]: slope (%d, %d) breaks the affine law" % where
    if len(records) > len(wanted):
        return "slopes[%d]: a record past the last witness slope" % len(wanted)
    return ""


def verify_certificate(cert):
    """Replay every claim in a TransferCertificate from raw data.

    Returns a CheckReport: the model's checks (check_model, read from
    the model's cached ``report``), then map-consistency, witness-slopes
    and the grid check, always all six.  Like the model's identities,
    the last three read phi in the closed-form coordinates of H1(N),
    where both inclusions are isomorphisms over Q, so every slope has an
    image.  The model's report and witness records are computed once per
    model object, so a certificate holding a built model is checked
    against the build's own; a certificate read from input holds its own
    model object and gets its own.  Failures are report entries, never
    exceptions.
    """
    model = cert.model
    checks = list(model.report.checks)

    def add(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    # The map's constants against the model's: epsilon = -eta*theta,
    # quadratic coefficient q^2, u = -zeta*q*t; the first that differs is
    # named with both sides.
    smap = cert.map
    mismatch = next(
        (
            "%s: map %s, model %s" % (name, value_text(stated), value_text(wanted))
            for name, stated, wanted in (
                ("epsilon", smap.epsilon, -model.eta * model.theta),
                ("q", smap.q, model.q),
                ("u", smap.u, -model.zeta * model.q * model.t),
            )
            if stated != wanted
        ),
        "",
    )
    add("map-consistency", not mismatch, mismatch)

    # Slope witnesses: exactly the records transfer_certificate writes,
    # in its order, each obeying the affine law.
    problem = _witness_problem(model, smap, cert.witnesses.get("slopes", ()))
    add("witness-slopes", not problem, problem)

    checks.append(grid_check(model, smap))
    return CheckReport(checks=tuple(checks))
