"""Exact slope calculus on knot-exterior boundary tori.

The package computes, in exact arithmetic, how boundary slopes of knots
behave under cabling: slope/framing algebra on a torus, first homology
of cable spaces from an explicit presentation, the induced slope
bijection between the two boundary tori of a cable space together with
its affine law on numerical slopes, and a small pipeline that propagates
strict boundary-slope sets along chains of cablings and emits
machine-checkable certificates for lower bounds on the slope diameter.
"""

from .slopes import (
    INF,
    NEG_INF,
    Framing,
    FramingChange,
    InvariantError,
    PrimitiveClass,
    Slope,
    canonical_slope,
    framing_change,
    geometric_intersection,
    numerical_slope,
    slope_from_numerical,
)
from .linalg import (
    FPAbelianGroup,
    IntMatrix,
    SNFResult,
    group_from_presentation,
    smith_normal_form,
)
from .cablespace import (
    STANDARD_INNER_FRAMING,
    STANDARD_OUTER_FRAMING,
    CableSpaceModel,
    cable_space_homology,
    check_model,
    glued_manifold_h1,
    verify_model,
)
from .report import Check, CheckReport
from .transfer import (
    AffineSlopeMap,
    TransferCertificate,
    conjugate,
    phi,
    transfer_certificate,
    transfer_map,
    verify_certificate,
)
from .pipeline import (
    AtomKnot,
    Cabling,
    DiameterCertificate,
    KnotDescription,
    LevelCache,
    LevelRecord,
    ambient_h1,
    check_corollary_c,
    diameter,
    diameter_lower_bound,
    propagate,
    recognize_gitk,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "NEG_INF",
    "STANDARD_INNER_FRAMING",
    "STANDARD_OUTER_FRAMING",
    "AffineSlopeMap",
    "AtomKnot",
    "Cabling",
    "CableSpaceModel",
    "Check",
    "CheckReport",
    "DiameterCertificate",
    "FPAbelianGroup",
    "Framing",
    "FramingChange",
    "IntMatrix",
    "InvariantError",
    "KnotDescription",
    "LevelCache",
    "LevelRecord",
    "PrimitiveClass",
    "SNFResult",
    "Slope",
    "TransferCertificate",
    "ambient_h1",
    "cable_space_homology",
    "canonical_slope",
    "check_corollary_c",
    "check_model",
    "conjugate",
    "diameter",
    "diameter_lower_bound",
    "framing_change",
    "geometric_intersection",
    "glued_manifold_h1",
    "group_from_presentation",
    "numerical_slope",
    "phi",
    "propagate",
    "recognize_gitk",
    "slope_from_numerical",
    "smith_normal_form",
    "transfer_certificate",
    "transfer_map",
    "verify_certificate",
    "verify_model",
]
