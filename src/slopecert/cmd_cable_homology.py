"""The ``cable-homology`` subcommand: the homology model of a cable space.

The document schema (jsonio) is loaded only for a JSON report.
"""

from .cablespace import cable_space_homology


def run(config):
    """(exit code, report) of a cable-homology invocation."""
    model = cable_space_homology(config.p, config.q, orientation=config.orientation)
    if config.format == "json":
        from .jsonio import model_to_json

        return 0, {"kind": "cable_homology_report", "model": model_to_json(model)}
    return 0, [
        "cable space (p, q) = (%d, %d), orientation %+d"
        % (model.p, model.q, model.orientation),
        "presentation: H1 = Z<c, m, l> / (%dc %s %dm - %dl)"
        % (model.q, "-" if model.p > 0 else "+", abs(model.p), model.q),
        "H1 = Z + Z",
        "boundary images in Z + Z, by (c, m, l) -> (%dc + %dm, c + l):" % (model.p, model.q),
        "  mu-bar       = %s" % (model.rational_outer(1, 0),),
        "  lambda-bar   = %s" % (model.rational_outer(0, 1),),
        "  mu-bar'      = %s" % (model.rational_inner(1, 0),),
        "  lambda-bar'  = %s" % (model.rational_inner(0, 1),),
        "constants: zeta = %+d, t = %s, theta = %+d, eta = %+d"
        % (model.zeta, model.t, model.theta, model.eta),
    ]
