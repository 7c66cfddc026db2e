"""Transfer certificates: the affine law of a cable space, with witnesses.

A TransferCertificate packages a cable-space model, its affine slope map
(law.transfer_map) and sampled slope pairs with their rational
proportionality factors (slope_record).  verify_certificate() replays it
as a diameter certificate is replayed: it rebuilds the certificate from
the stated model's parameters and framings and compares the two with
``==`` (report.replay_check, which names the first field that differs).
It then takes the stated model's own checks (cablespace.check_model),
which hold the model's constants against the closed-form images of the
boundary bases, and proves that phi obeys the stated map on every slope
(law.grid_check).  Each constant is stated once, in the model.

The law itself (AffineSlopeMap, phi, the grid check, transfer_map) is
law's, which pipeline imports without this module, so a knot
description or a diameter certificate loads no certificate code.  The
law's names that this module uses, and phi, are bound here too, where
earlier callers and the benchmark's tracer (bench/launcher.py) look
them up.
"""

from .cablespace import cable_space_homology
from .law import grid_check, phi, phi_with_factor, transfer_map
from .rational import Rational
from .record import Record, _store
from .report import Check, CheckReport, replay_check
from .slopes import INF, canonical_slope, numerical_slope, slope_from_numerical


_DEFAULT_WITNESS_VALUES = (INF, 0, 1, -1, Rational(5, 3))


class TransferCertificate(Record):
    """A transfer map with everything needed to re-derive it.

    ``model`` is a CableSpaceModel and ``map`` an AffineSlopeMap.
    ``witnesses`` maps "slopes" to the tuple of records (slope_record:
    source, image, factor and values) of the slopes witness_slopes names,
    in its order.  The model's constants zeta and t are stated only in
    the model; the meridian's factor is that of the meridian's record.
    """

    kind = "transfer_certificate"

    def __init__(self, model, map, witnesses):
        _store(self, locals())


def slope_record(model, s):
    """The witness record of slope s: its source and image pairs, the
    proportionality factor, and its numerical values on both tori."""
    image, r = phi_with_factor(model, s)
    return {
        "source": (s.a, s.b),
        "image": (image.a, image.b),
        "factor": r,
        "value_outer": numerical_slope(model.f_outer, s),
        "value_inner": numerical_slope(model.f_inner, image),
    }


def witness_slopes(model):
    """The slopes a certificate states records of, in order: those of the
    default witness values (the meridian first), then the cabling curve's,
    each once."""
    slopes = [slope_from_numerical(model.f_outer, v) for v in _DEFAULT_WITNESS_VALUES]
    slopes.append(canonical_slope(model.p, model.q))
    return tuple(dict.fromkeys(slopes))


def transfer_certificate(model):
    """Build the certificate for a model: its map and slope witnesses."""
    records = tuple(slope_record(model, s) for s in witness_slopes(model))
    return TransferCertificate(model=model, map=transfer_map(model), witnesses={"slopes": records})


def verify_certificate(cert):
    """Replay every claim in a TransferCertificate from raw data.

    Returns a CheckReport of five checks, always all five: "replay" (the
    certificate transfer_certificate builds from the stated model's
    parameters and framings, compared with ``==``), the stated model's
    checks (check_model, read from its cached ``report``), and the grid
    check of the stated model and map.  The grid check reads phi in the
    closed-form coordinates of H1(N), where both inclusions are
    isomorphisms over Q, so every slope has an image.  Framings that do
    not fit the model cannot be rebuilt: "replay" fails and names why,
    and framing-signs fails too.  Failures are report entries, never
    exceptions.
    """
    model = cert.model
    try:
        rebuilt = cable_space_homology(
            model.p, model.q, model.f_outer, model.f_inner, model.orientation)
    except ValueError as e:  # framings that do not fit the model
        replay = Check("replay", False, "the stated model cannot be rebuilt: %s" % e)
    else:
        replay = replay_check("TRANSFER_CERTIFICATE", cert, transfer_certificate(rebuilt))
    return CheckReport(checks=(replay, *model.report.checks, grid_check(model, cert.map)))
