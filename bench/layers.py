"""Per-layer metrics from the span files the traced launcher writes.

A span's self time is its duration minus the durations of its direct child
spans (the program is single-threaded, so children never overlap), and minus
the time the launcher spent computing its children's span info.  Counts
are exact: the traced run covers one fixed pass of the workload's jobs.
"""

import json
from collections import defaultdict

# Units of the metrics that are exact counts, or derived only from counts.
EXACT_UNITS = ("count", "bits", "bytes", "ratio")


def aggregate(span_files, names):
    """Sum calls, self time and span info over the jobs' span files, for the
    per-layer metric names listed in BENCHMARK.json (trace.* excepted)."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    grid_slopes = 0
    parse_bytes = emit_bytes = max_bits = 0
    builds = distinct_models = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        span_names = {sid: name for sid, _, name, _, _, _, _ in spans}
        children = defaultdict(int)
        for _, parent, _, start, end, _, info_ns in spans:
            children[parent] += end - start + info_ns
        keys = set()
        for sid, parent, name, start, end, info, _ in spans:
            calls[name] += 1
            self_ns[name] += end - start - children[sid]
            if name == "transfer.phi" and span_names.get(parent) == "cli.grid_check":
                grid_slopes += 1
            elif name in ("jsonio.load_document", "jsonio.parse_matrix_text") and info:
                parse_bytes += info
            elif name == "jsonio.canonical_dumps" and info:
                emit_bytes += info
            elif name == "linalg.smith_normal_form" and info:
                max_bits = max(max_bits, info)
            elif name == "cablespace.cable_space_homology" and info:
                builds += 1
                keys.add(info)
        distinct_models += len(keys)
        for name, n in data["counts"].items():
            calls[name] += n

    out = {}
    for metric in names:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[base]
        elif stat == "self_s":
            out[metric] = self_ns[base] / 1e9
    out["cli.grid_check.slopes"] = grid_slopes
    out["jsonio.parse_bytes"] = parse_bytes
    out["jsonio.emit_bytes"] = emit_bytes
    out["linalg.smith_normal_form.max_entry_bits"] = max_bits
    # Distinct (p, q, orientation, framings) models per job over models built:
    # 1.0 means no model was built twice; 0 when the jobs build none.
    out["cablespace.model_reuse"] = distinct_models / builds if builds else 0.0
    return out
