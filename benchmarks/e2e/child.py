"""One rep of one workload, in a fresh interpreter.

``run.py`` starts ``python3 child.py '<request JSON>'`` once per rep,
one child at a time.  The child imports the library, sets the workload
up, runs its op once and prints one JSON line:

* ``setup_done``: ``time.monotonic()`` when setup finished (the parent
  subtracts its own reading taken just before it started the child;
  both read the system-wide monotonic clock);
* ``op_s``: wall seconds of the op; ``peak_rss_mb``: the child's peak
  resident set size right after the op;
* ``outputs``: the op's outputs, for the correctness checks;
* when traced: ``layers`` (per-layer metrics), ``nesting`` (span tree
  problems), ``missing`` (wrap targets that did not resolve), and the
  Chrome trace written to ``request["trace_path"]``.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time

import spans as span_mod

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"


def run_rep(workload, inputs: dict, tracer=None, trace_path=None,
            label: str = "") -> dict:
    """Set up and run one op in this process; see the module docstring.

    With a :class:`spans.Tracer`, the library wrappers are installed for
    the rep and removed before this returns, also on error.
    """
    span = tracer.span if tracer is not None else span_mod.no_span
    record = {}
    if tracer is not None:
        span_mod.install(tracer)
    try:
        with span("setup"):
            state = workload.setup(inputs)
        record["setup_done"] = time.monotonic()
        start = time.perf_counter()
        with span("op"):
            outputs = workload.op(state, inputs, span)
        record["op_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None and hasattr(workload, "alternates"):
            with span("alternates"):
                workload.alternates(inputs, span)
    finally:
        if tracer is not None:
            tracer.restore()
    record["outputs"] = outputs
    if tracer is not None:
        record["layers"] = layers(tracer.spans, outputs)
        record["nesting"] = span_mod.check_nesting(tracer.spans)
        record["missing"] = tracer.missing
        if trace_path is not None:
            with open(trace_path, "w") as handle:
                json.dump(span_mod.chrome_trace(tracer.spans, label), handle,
                          separators=(",", ":"))
    return record


def layers(spans, outputs: dict) -> dict:
    """Per-layer metrics of the whole rep plus, for multi-dump workloads,
    of each dump under its label prefix: ``{name: [value, unit]}``."""
    out = {name: list(value) for name, value in
           span_mod.layer_metrics(spans, outputs).items()}
    for label, dump_outputs in outputs.get("dumps", {}).items():
        roots = {}
        for i, s in enumerate(spans):
            if s[0] == "dump." + label:
                roots[i] = "op"
            elif s[0].startswith(label + "."):
                roots[i] = "alternates"
        part = span_mod.subtrees(spans, roots)
        for name, value in span_mod.layer_metrics(part, dump_outputs).items():
            out["%s.%s" % (label, name)] = list(value)
    return out


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    import workloads

    tracer = span_mod.Tracer() if request["trace"] else None
    record = run_rep(workloads.WORKLOADS[request["workload"]],
                     request["inputs"], tracer=tracer,
                     trace_path=request.get("trace_path"),
                     label=request["workload"])
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
