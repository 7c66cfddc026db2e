"""Exact slope calculus on knot-exterior boundary tori.

The package computes, in exact arithmetic, how boundary slopes of knots
behave under cabling: slope/framing algebra on a torus, first homology
of cable spaces from an explicit presentation, the induced slope
bijection between the two boundary tori of a cable space together with
its affine law on numerical slopes, and a small pipeline that propagates
strict boundary-slope sets along chains of cablings and emits
machine-checkable certificates for lower bounds on the slope diameter.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.  A module is imported
# when one of its names is first used (PEP 562), so that importing the
# package, or running one subcommand, loads only the modules it needs.
_EXPORTS = {
    "InvariantError": "record",
    "INF": "slopes",
    "NEG_INF": "slopes",
    "Framing": "slopes",
    "FramingChange": "slopes",
    "PrimitiveClass": "slopes",
    "Slope": "slopes",
    "canonical_slope": "slopes",
    "framing_change": "slopes",
    "geometric_intersection": "slopes",
    "numerical_slope": "slopes",
    "slope_from_numerical": "slopes",
    "FPAbelianGroup": "linalg",
    "IntMatrix": "linalg",
    "SNFResult": "linalg",
    "group_from_presentation": "linalg",
    "smith_normal_form": "linalg",
    "STANDARD_INNER_FRAMING": "cablespace",
    "STANDARD_OUTER_FRAMING": "cablespace",
    "CableSpaceModel": "cablespace",
    "cable_space_homology": "cablespace",
    "check_model": "cablespace",
    "verify_model": "cablespace",
    "Check": "report",
    "CheckReport": "report",
    "AffineSlopeMap": "law",
    "conjugate": "law",
    "phi": "law",
    "transfer_map": "law",
    "TransferCertificate": "transfer",
    "transfer_certificate": "transfer",
    "verify_certificate": "transfer",
    "AtomKnot": "pipeline",
    "Cabling": "pipeline",
    "DiameterCertificate": "pipeline",
    "KnotDescription": "pipeline",
    "LevelCache": "pipeline",
    "LevelRecord": "pipeline",
    "ambient_h1": "pipeline",
    "check_corollary_c": "pipeline",
    "diameter": "pipeline",
    "diameter_lower_bound": "pipeline",
    "propagate": "pipeline",
    "recognize_gitk": "pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(__import__(__name__ + "." + module, fromlist=(name,)), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
