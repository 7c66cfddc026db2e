"""Run one slopecert CLI job with every layer boundary traced.

Usage: python3 launcher.py SPANS_OUT ARGS...

Wraps the layer functions listed below in place, in every slopecert module
namespace that binds them, then calls ``slopecert.cli.main(ARGS)`` exactly as
``python -m slopecert.cli ARGS`` would.  The program's files are not touched.
Spans (id, parent id, name, start ns, end ns, info, and the ns spent
computing the info after the span ended, which the parent's self time leaves
out) are kept in memory and written to SPANS_OUT as JSON when the job ends,
together with call counts of the leaf functions, which get a counter instead
of a span because a span would cost as much as the function itself.
"""

import json
import sys
import time
from itertools import count

from slopecert import cablespace, cli, jsonio, linalg, pipeline, slopes, transfer


def _bits(snf):
    return max((abs(e).bit_length() for m in (snf.U, snf.D, snf.V) for e in m.entries), default=0)


def _model_key(model):
    return repr((model.p, model.q, model.orientation, model.f_outer, model.f_inner))


# (owner, attribute, span name, info(args, result) or None)
SPANNED = (
    (cli, "run", "cli.run", None),
    (cli, "_grid_check", "cli.grid_check", None),
    (transfer, "phi", "transfer.phi", None),
    (transfer, "transfer_certificate", "transfer.transfer_certificate", None),
    (transfer, "verify_certificate", "transfer.verify_certificate", None),
    (cablespace, "cable_space_homology", "cablespace.cable_space_homology",
     lambda args, result: _model_key(result)),
    (cablespace, "verify_model", "cablespace.verify_model", None),
    (linalg, "smith_normal_form", "linalg.smith_normal_form", lambda args, result: _bits(result)),
    (linalg, "det", "linalg.det", None),
    (pipeline, "diameter_lower_bound", "pipeline.diameter_lower_bound", None),
    (jsonio, "load_document", "jsonio.load_document",
     lambda args, result: len(args[0].encode())),
    (jsonio, "parse_matrix_text", "jsonio.parse_matrix_text",
     lambda args, result: len(args[0].encode())),
    # json.dumps escapes non-ASCII characters, so characters are bytes here.
    (jsonio, "canonical_dumps", "jsonio.canonical_dumps", lambda args, result: len(result)),
)

# (owner, attribute, counter name)
COUNTED = (
    (transfer, "transfer_map", "transfer.transfer_map"),
    (linalg, "group_from_presentation", "linalg.group_from_presentation"),
    (linalg.FPAbelianGroup, "rational_coords", "linalg.rational_coords"),
    (pipeline, "propagate", "pipeline.propagate"),
    (pipeline, "check_corollary_c", "pipeline.check_corollary_c"),
    (slopes, "canonical_slope", "slopes.canonical_slope"),
    (slopes, "numerical_slope", "slopes.numerical_slope"),
)


class Tracer:
    """Spans and leaf call counts of one job."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for _, _, name in COUNTED}
        self._stack = [0]
        self._ids = count(1)

    def span(self, name, fn, info):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra, info_ns = None, 0
                if info is not None and result is not None:
                    extra = info(args, result)
                    info_ns = clock() - end
                spans.append((sid, parent, name, start, end, extra, info_ns))

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        plan = [(owner, attr, self.span(name, getattr(owner, attr), info))
                for owner, attr, name, info in SPANNED]
        plan += [(owner, attr, self.counter(name, getattr(owner, attr)))
                 for owner, attr, name in COUNTED]
        modules = [m for n, m in sys.modules.items() if n == "slopecert" or n.startswith("slopecert.")]
        for owner, attr, wrapper in plan:
            original = getattr(owner, attr)
            for namespace in modules + ([owner] if isinstance(owner, type) else []):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh, separators=(",", ":"))


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
