"""The ``propagate`` subcommand: push a declared slope set along a chain.

It reads a knot description, so it loads pipeline and the affine law,
and no transfer-certificate code.
"""

from . import jsonio
from .pipeline import KnotDescription, diameter, propagate
from .slopes import value_text
from .textio import _read_text


def run(config):
    """(exit code, report) of a propagate invocation."""
    path = config.inputs[0]
    doc = jsonio.load_document(_read_text(path), path)
    if not isinstance(doc, KnotDescription):
        raise ValueError("%s: propagate expects a knot_description document" % path)
    levels = propagate(doc)
    diameters = [diameter(level) for level in levels]
    if config.format == "json":
        return 0, {
            "kind": "propagation_report",
            "input": path,
            "levels": [
                {
                    "slopes": [jsonio.frac_to_json(v) for v in level],
                    "diameter": jsonio.dlower_to_json(diameters[i]),
                }
                for i, level in enumerate(levels)
            ],
        }
    lines = ["propagation of %s (%d cabling(s))" % (path, len(doc.cablings))]
    for i, level in enumerate(levels):
        label = "base " if i == 0 else "level %d" % i
        values = ", ".join(value_text(v) for v in level) or "(empty)"
        note = "" if i == 0 else "   [x %d = q^2, rule A]" % doc.cablings[i - 1].q ** 2
        lines.append("  %-7s {%s}   diameter %s%s" % (label, values, value_text(diameters[i]), note))
    return 0, lines
