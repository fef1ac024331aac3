"""In-memory spans and reversible timing wrappers for the traced run.

The traced run measures each layer from the outside.  It replaces public
callables of the library, as looked up at their call sites, with
wrappers that record one span per call, runs the workload, and then puts
the original objects back.  Nothing inside ``repro`` changes.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``attrs`` is ``None`` or a
small dict of counts.  Self time is a span's duration minus the
durations of its direct children.  Spans stay in memory until the run
ends; :func:`chrome_trace` turns them into a trace-event document that
Perfetto opens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

clock = time.perf_counter


def no_span(name):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


class Tracer:
    """Records spans and owns the wrappers it installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        #: (owner, attr, original, owned) in install order
        self._patches: list = []
        #: targets that did not resolve (renamed or removed callables)
        self.missing: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = clock()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, target: str, name: str, note=None, per_item=False):
        """Time every call of ``target`` as a span called ``name``.

        Args:
            target: ``"module:attr"`` or ``"module:Class.attr"``.
            note: optional ``note(args, result) -> dict`` whose counts are
                stored on the span.
            per_item: ``target`` returns an iterator; time every ``next()``
                instead of the call.

        A target that does not resolve is recorded in :attr:`missing`, so a
        renamed callable leaves a visible gap in the trace instead of
        failing the run.
        """
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        owned = not isinstance(owner, type) or attr in owner.__dict__
        original = owner.__dict__[attr] if isinstance(owner, type) and owned \
            else getattr(owner, attr)
        maker = self._iter_wrapper if per_item else self._call_wrapper
        setattr(owner, attr, functools.wraps(original)(
            maker(original, name, note)))
        self._patches.append((owner, attr, original, owned))

    def _call_wrapper(self, original, name, note):
        open_, close, spans = self._open, self._close, self.spans

        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if note is not None:
                spans[index][4] = note(args, result)
            return result

        return wrapper

    def _iter_wrapper(self, original, name, note):
        open_, close, spans = self._open, self._close, self.spans

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            try:
                while True:
                    index = open_(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        close(index)
                        if len(spans) == index + 1:
                            spans.pop()  # the exhausting probe did no work
                        return
                    except BaseException:
                        close(index)
                        raise
                    close(index)
                    yield item
            finally:
                closer = getattr(iterator, "close", None)
                if closer is not None:
                    closer()

        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back to the identical object."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError when the callable is gone
    return owner, attr


# -- what the traced run wraps ------------------------------------------------


def _note_check(args, outcome) -> dict:
    baseline = outcome.baseline
    return {"signatures": len(outcome.signatures),
            "sorted_vertices": outcome.collective.sorted_vertices,
            "baseline_sorted_vertices":
                baseline.sorted_vertices if baseline is not None else 0,
            "digits_changed": outcome.collective.digits_changed}


def _note_read(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


#: (target, span name, note, per_item).  Each public callable is wrapped
#: where it is looked up: module-level functions in every namespace that
#: calls them, methods and constructors on their class.
LIBRARY_TARGETS = (
    ("repro.harness.runner:generate", "testgen.generate", None, False),
    ("repro.instrument.signature:SignatureCodec.__init__",
     "instrument.codec_init", None, False),
    ("repro.instrument.signature:SignatureCodec.encode",
     "instrument.encode", None, False),
    ("repro.harness.runner:Campaign.__init__", "harness.init", None, False),
    ("repro.harness.runner:Campaign.run", "harness.run", None, False),
    ("repro.harness.runner:Campaign.run_blocks", "harness.run_blocks",
     None, False),
    ("repro.sim.executor:OperationalExecutor.run", "sim.executor.iter",
     None, True),
    ("repro.sim.detailed:DetailedExecutor.run", "sim.detailed.iter",
     None, True),
    ("repro.io:read_campaign", "io.read", _note_read, False),
    ("repro.harness.runner:CampaignResult.sorted_signatures", "checker.sort",
     None, False),
    ("repro.graph.builder:GraphBuilder.__init__", "graph.builder_init",
     None, False),
    ("repro.graph.builder:GraphBuilder.build", "graph.build", None, False),
    ("repro.checker.delta:SignatureDeltaSource.__init__",
     "checker.delta.source_init", None, False),
    ("repro.checker.delta:SignatureDeltaSource.base_state", "graph.build",
     None, False),
    ("repro.checker.delta:SignatureDeltaSource.delta_pairs", "graph.build",
     None, False),
    ("repro.checker.delta:SignatureDeltaSource.full_graph", "graph.build",
     None, False),
    ("repro.checker.collective:CollectiveChecker.check_deltas",
     "checker.collective.check", None, False),
    ("repro.checker.collective:CollectiveChecker.check",
     "checker.collective.check", None, False),
    ("repro.checker.baseline:BaselineChecker.check_stream",
     "checker.baseline.check", None, False),
    ("repro.checker.baseline:BaselineChecker.check",
     "checker.baseline.check", None, False),
    ("repro.harness:check_campaign_result", "check", _note_check, False),
    ("repro.harness.runner:check_campaign_result", "check", _note_check,
     False),
    ("repro.mutate.campaign:check_campaign_result", "check", _note_check,
     False),
    ("repro.mutate.campaign:merge_campaign_results", "fleet.merge", None,
     False),
    ("repro.mutate.campaign:SensitivityCampaign.run", "mutate.campaign",
     None, False),
)

#: Off-the-default-path checkers timed by the traced ``host-check`` run.
#: Optional: a later change may delete them without touching this file.
ALTERNATE_TARGETS = (
    ("repro.checker.packed:PackedPlan.__init__", "checker.packed.plan",
     None, False),
    ("repro.checker.packed:PackedChecker.check", "checker.packed.check",
     None, False),
    ("repro.checker.poly:PolySignatureSource.__init__",
     "checker.poly.source_init", None, False),
    ("repro.checker.poly:PolyChecker.check", "checker.poly.check", None,
     False),
)


def install(tracer: Tracer) -> None:
    """Wrap every library and alternate target on ``tracer``."""
    for target, name, note, per_item in LIBRARY_TARGETS + ALTERNATE_TARGETS:
        tracer.wrap(target, name, note=note, per_item=per_item)


# -- from spans to per-layer metrics ------------------------------------------

#: span name -> layer (the ``repro`` subsystem doing the work)
LAYER_OF = {
    "testgen.generate": "testgen",
    "instrument.codec_init": "instrument",
    "instrument.encode": "instrument",
    "sim.executor.iter": "sim.executor",
    "sim.detailed.iter": "sim.detailed",
    "harness.init": "harness",
    "harness.run": "harness",
    "harness.run_blocks": "harness",
    "io.read": "io",
    "graph.builder_init": "graph",
    "graph.build": "graph",
    "checker.sort": "checker",
    "checker.delta.source_init": "checker",
    "checker.collective.check": "checker",
    "checker.baseline.check": "checker",
    "check": "checker",
    "fleet.merge": "fleet",
    "mutate.campaign": "mutate",
}
LAYERS = ("testgen", "instrument", "sim.executor", "sim.detailed", "harness",
          "io", "graph", "checker", "fleet", "mutate")

#: the traced workload runs under these root spans; ``alternates`` holds
#: off-path checks and is kept out of the workload's own numbers
ROOTS = ("setup", "op")


def percentile(values, q: float):
    """Nearest-rank ``q`` quantile, or None with fewer than 10 samples
    beyond it (a tail percentile is only reported where it has them)."""
    n = len(values)
    if not n or (q > 0.5 and n * (1.0 - q) < 10):
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, int(q * n))]


def summarize(spans, roots) -> dict:
    """Per-name totals over the spans under root spans named in ``roots``.

    Returns ``{"wall": s, "self": {name: s}, "total": {name: s},
    "count": {name: n}, "durations": {name: [s, ...]}, "attrs": {name:
    {key: sum}}}``; ``wall`` sums the root spans themselves.
    """
    child = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    out = {"wall": 0.0, "self": defaultdict(float), "total": defaultdict(float),
           "count": defaultdict(int), "durations": defaultdict(list),
           "attrs": defaultdict(lambda: defaultdict(int))}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if spans[root_of[i]][0] not in roots:
            continue
        duration = end - start
        if parent < 0:
            out["wall"] += duration
        out["self"][name] += duration - child[i]
        out["total"][name] += duration
        out["count"][name] += 1
        out["durations"][name].append(duration)
        for key, value in (attrs or {}).items():
            out["attrs"][name][key] += value
    return out


def mutate_checks(spans) -> tuple:
    """(count, signatures, seconds) of the ``check`` spans a sensitivity
    campaign issued: its cumulative re-checks."""
    inside = [False] * len(spans)
    count = signatures = 0
    seconds = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        inside[i] = parent >= 0 and (inside[parent]
                                     or spans[parent][0] == "mutate.campaign")
        if name == "check" and inside[i]:
            count += 1
            signatures += (attrs or {}).get("signatures", 0)
            seconds += end - start
    return count, signatures, seconds


def layer_metrics(spans, outputs: dict) -> dict:
    """Every per-layer metric of one traced rep: ``{name: (value, unit)}``.

    ``outputs`` is the workload op's result (see ``workloads.py``); it
    supplies what the program counted (iterations, simulated accesses
    and cycles) next to what the spans timed.
    """
    rep = summarize(spans, ROOTS)
    selfs, count, durations = rep["self"], rep["count"], rep["durations"]
    check = rep["attrs"]["check"]
    wall = max(rep["wall"], 1e-9)
    iterations = outputs.get("iterations", 0)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for name in ("testgen.generate", "instrument.codec_init",
                 "instrument.encode", "io.read", "graph.builder_init",
                 "graph.build", "checker.sort", "checker.delta.source_init",
                 "checker.collective.check", "checker.baseline.check",
                 "fleet.merge"):
        put(name + "_s", selfs.get(name, 0.0), "s")
    put("check.self_s", selfs.get("check", 0.0), "s")
    put("harness.run_self_s",
        selfs.get("harness.run", 0.0) + selfs.get("harness.run_blocks", 0.0),
        "s")
    put("instrument.encode_calls", count.get("instrument.encode", 0), "count")

    for machine, tail in (("sim.executor", 0.99), ("sim.detailed", 0.95)):
        times = durations.get(machine + ".iter", [])
        put(machine + ".run_s", sum(times), "s")
        for q in (0.5, tail):
            value = percentile(times, q)
            if value is not None:
                put("%s.iter_us.p%d" % (machine, round(q * 100)),
                    value * 1e6, "us")
    executor_s = m["sim.executor.run_s"][0]
    put("sim.executor.accesses_per_s",
        outputs.get("test_accesses", 0) / executor_s if executor_s else 0.0,
        "1/s")
    put("sim.executor.sim_cycles_per_iter",
        outputs.get("sim_cycles", 0.0) / iterations if iterations else 0.0,
        "cycles")
    put("sim.detailed.iterations", count.get("sim.detailed.iter", 0), "count")

    put("harness.unique_frac",
        outputs.get("unique", 0) / iterations if iterations else 0.0, "frac")
    put("io.bytes", rep["attrs"]["io.read"].get("bytes", 0), "bytes")

    sorted_vertices = check.get("sorted_vertices", 0)
    baseline_vertices = check.get("baseline_sorted_vertices", 0)
    put("checker.sorted_vertices", sorted_vertices, "count")
    put("checker.baseline_sorted_vertices", baseline_vertices, "count")
    put("checker.sorted_vertex_ratio",
        sorted_vertices / baseline_vertices if baseline_vertices else 0.0,
        "frac")
    put("checker.digits_changed", check.get("digits_changed", 0), "count")

    rechecks, checked, recheck_s = mutate_checks(spans)
    put("mutate.rechecks", rechecks, "count")
    put("mutate.signatures_checked", checked, "count")
    # a hunt's ``unique`` counts each seed's signatures at detection
    put("mutate.recheck_useful_frac",
        outputs.get("unique", 0) / checked if checked else 0.0, "frac")
    put("mutate.check_s", recheck_s, "s")

    layer_self = defaultdict(float)
    for name, seconds in selfs.items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            layer_self[layer] += seconds
    for layer in LAYERS:
        put(layer + ".share", layer_self[layer] / wall, "frac")
    unattributed = sum(seconds for name, seconds in selfs.items()
                       if name not in LAYER_OF)
    put("op.unattributed_frac", unattributed / wall, "frac")

    alt = summarize(spans, ("alternates",))["total"]
    if alt:
        for name in ("checker.packed.plan", "checker.packed.check",
                     "checker.poly.source_init", "checker.poly.check"):
            put(name + "_s", alt.get(name, 0.0), "s")
        delta = (rep["total"].get("checker.delta.source_init", 0.0)
                 + rep["total"].get("checker.collective.check", 0.0))
        if delta:
            packed = alt.get("checker.packed.plan", 0.0) \
                + alt.get("checker.packed.check", 0.0)
            poly = alt.get("checker.poly.source_init", 0.0) \
                + alt.get("checker.poly.check", 0.0)
            if packed:
                put("checker.packed_over_delta", packed / delta, "x")
            if poly:
                put("checker.poly_over_delta", poly / delta, "x")
    return m


def subtrees(spans, roots: dict) -> list:
    """The spans under ``roots`` (``{index: new root name}``), re-indexed.

    Lets one traced rep be summarized per part, e.g. per campaign dump.
    """
    keep: dict = {}
    out = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if i in roots:
            name, new_parent = roots[i], -1
        elif parent in keep:
            new_parent = keep[parent]
        else:
            continue
        keep[i] = len(out)
        out.append([name, start, end, new_parent, attrs])
    return out


def check_nesting(spans) -> list:
    """Problems with the span tree: children outside their parent or
    overlapping siblings.  Empty when every span nests."""
    problems = []
    last_end: dict = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if end < start:
            problems.append("%s #%d ends before it starts" % (name, i))
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append("%s #%d lies outside its parent %s"
                                % (name, i, spans[parent][0]))
        if start < last_end.get(parent, float("-inf")):
            problems.append("%s #%d overlaps its previous sibling" % (name, i))
        last_end[parent] = end
    return problems


def chrome_trace(spans, label: str) -> dict:
    """Trace-event JSON (complete ``X`` events, microseconds) for Perfetto."""
    origin = min((s[1] for s in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": label}}]
    for name, start, end, parent, attrs in spans:
        event = {"name": name, "cat": LAYER_OF.get(name, "root"), "ph": "X",
                 "pid": 1, "tid": 1, "ts": round((start - origin) * 1e6, 3),
                 "dur": round((end - start) * 1e6, 3)}
        if attrs:
            event["args"] = attrs
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
