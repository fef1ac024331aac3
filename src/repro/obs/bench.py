"""Bench-regression watchdog: canonical snapshots, banded diffs, history.

The ``benchmarks/results/BENCH_*.json`` snapshots each grew their own
shape (per-config count tables, per-suite metric dumps, per-mutation
outcomes).  This module puts one canonical schema over all of them:
a snapshot *flattens* to dotted-key numeric leaves
(``configs.ARM-2-50-32.sorted_vertices`` → ``533``), and every leaf is
either a **count** — deterministic work (graphs, vertices, findings),
compared exactly — or a **timing** (``info_ms.*``, ``*_s``,
``elapsed``...), compared inside a relative tolerance band because wall
time is machine noise.

Three consumers:

* ``repro bench diff BASELINE CURRENT`` — tolerance-banded comparison
  of any two snapshot files; exit 1 on regressions.
* ``repro bench diff --check`` — the deterministic count gate: runs
  each :data:`CHECK_CONFIGS` campaign once, at the iterations and seed
  embedded in the :data:`CHECK_LEGS` snapshots, checks it with
  ``graphs`` and with every leg's pipeline, requires each leg's
  verdicts to match those of ``graphs``, and compares each leg's
  :func:`pinned_counts` with its committed snapshot exactly.
  Timings are reported but never fail the check — CI runners are too
  noisy for wall-clock gates.
* ``repro bench record`` — appends a headline digest of a snapshot to
  ``benchmarks/results/BENCH_history.jsonl``, the per-PR trajectory of
  the repo's own performance counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.errors import ReproError

#: relative band for timing leaves; counts are always compared exactly
DEFAULT_TOLERANCE = 0.1

#: the campaigns ``repro bench diff --check`` re-runs: both ISAs, and
#: two x86 graph-population sizes
CHECK_CONFIGS = ("ARM-2-50-32", "x86-2-50-32", "x86-2-100-32")


class CheckLeg(NamedTuple):
    """One pipeline the count gate checks, and its committed snapshot."""

    snapshot: str
    #: verdict parity with ``graphs``: ``"summary"`` is a byte-identical
    #: collective summary (within the graph family); ``"digest"`` the
    #: cross-family :func:`repro.checker.violation_digest`
    parity: str
    #: counts of the pipeline's own source that its report lacks
    source_counts: Callable = None


#: pipeline -> leg; the committed snapshots share their embedded
#: ``iterations``/``seed``
CHECK_LEGS = {
    "delta": CheckLeg("BENCH_delta.json", "summary"),
    "packed": CheckLeg("BENCH_packed.json", "summary", lambda plan: {
        "edge_universe": plan.num_edges,
        "digit_columns": plan.digit_columns}),
    "poly": CheckLeg("BENCH_poly.json", "digest", lambda source: {
        "static_pairs": len(source.verifier.static_pairs),
        "closure_unions": source.stats["closure_unions"],
        "dynamic_pairs": source.stats["dynamic_pairs"]}),
}

#: the snapshot the gate reads first
CHECK_SNAPSHOT = CHECK_LEGS["delta"].snapshot

#: key fragments marking a leaf as wall-clock derived
_TIMING_SUFFIXES = ("_ms", "_s", "_seconds")
_TIMING_WORDS = ("info_ms", "seconds", "elapsed", "time", "wall")


class BenchSchemaError(ReproError):
    """A benchmark snapshot cannot be loaded or compared."""


# -- canonicalization ----------------------------------------------------------------


def flatten_numeric(doc, prefix: str = "") -> dict:
    """All numeric leaves of a snapshot as ``dotted.key -> value``.

    Strings and booleans are dropped (names, schema tags, flags);
    lists index their elements so per-seed tables stay addressable.
    """
    leaves = {}

    def walk(node, path):
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            leaves[path] = node
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], "%s.%s" % (path, key) if path else str(key))
        elif isinstance(node, list):
            for index, item in enumerate(node):
                walk(item, "%s.%d" % (path, index) if path else str(index))

    walk(doc, prefix)
    return leaves


def is_timing_key(key: str) -> bool:
    """True when a dotted key measures wall time rather than work."""
    for part in key.split("."):
        lowered = part.lower()
        if lowered.endswith(_TIMING_SUFFIXES):
            return True
        if any(word in lowered for word in _TIMING_WORDS):
            return True
    return False


# -- comparison ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchDelta:
    """One compared leaf of a snapshot pair."""

    key: str
    #: ``"count"`` (exact) or ``"timing"`` (banded)
    kind: str
    baseline: float = None
    current: float = None
    #: ``ok`` / ``regression`` / ``improvement`` / ``added`` / ``removed``
    status: str = "ok"

    @property
    def ratio(self):
        """current / baseline (None when undefined)."""
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline

    def to_json(self) -> dict:
        return {"key": self.key, "kind": self.kind,
                "baseline": self.baseline, "current": self.current,
                "status": self.status}


@dataclass
class BenchComparison:
    """Outcome of diffing two snapshots leaf by leaf."""

    tolerance: float
    deltas: list = field(default_factory=list)
    #: timing leaves never fail the comparison when set (--check mode)
    counts_only: bool = False
    #: "<leg> on <config>: ..." lines where a leg's verdicts differed
    #: from ``graphs`` (--check mode)
    parity_breaks: list = field(default_factory=list)

    def _with_status(self, *statuses):
        return [d for d in self.deltas if d.status in statuses]

    @property
    def regressions(self) -> list:
        out = self._with_status("regression")
        if self.counts_only:
            out = [d for d in out if d.kind == "count"]
        return out

    @property
    def improvements(self) -> list:
        return self._with_status("improvement")

    @property
    def shape_changes(self) -> list:
        return self._with_status("added", "removed")

    @property
    def failed(self) -> bool:
        """True when the current snapshot regressed, changed shape or
        broke verdict parity."""
        return bool(self.regressions or self.shape_changes
                    or self.parity_breaks)

    def to_json(self) -> dict:
        return {"tolerance": self.tolerance,
                "counts_only": self.counts_only,
                "compared": len(self.deltas),
                "failed": self.failed,
                "parity_breaks": list(self.parity_breaks),
                "deltas": [d.to_json() for d in self.deltas
                           if d.status != "ok"]}

    def render(self) -> str:
        from repro.harness.reporting import format_table

        flagged = [d for d in self.deltas if d.status != "ok"]
        if not flagged and not self.parity_breaks:
            return ("bench diff ok: %d leaves compared, none outside the "
                    "%.0f%% timing band"
                    % (len(self.deltas), 100 * self.tolerance))
        lines = ["VERDICT PARITY BROKEN: %s" % line
                 for line in self.parity_breaks]
        rows = []
        for delta in sorted(flagged, key=lambda d: (d.status, d.key)):
            ratio = delta.ratio
            rows.append([delta.key, delta.kind,
                         "-" if delta.baseline is None else
                         "%g" % delta.baseline,
                         "-" if delta.current is None else
                         "%g" % delta.current,
                         "-" if ratio is None else "%.2fx" % ratio,
                         delta.status.upper()
                         if delta.status == "regression"
                         else delta.status])
        if rows:
            lines.append(format_table(
                ["key", "kind", "baseline", "current", "ratio", "status"],
                rows,
                title="bench diff: %d/%d leaves flagged (timing band %.0f%%)"
                % (len(flagged), len(self.deltas), 100 * self.tolerance)))
        if self.failed:
            lines.append("BENCH REGRESSION: %d regressed leaves, %d shape "
                         "changes" % (len(self.regressions),
                                      len(self.shape_changes)))
        return "\n".join(lines)


def diff_snapshots(baseline: dict, current: dict,
                   tolerance: float = DEFAULT_TOLERANCE,
                   counts_only: bool = False) -> BenchComparison:
    """Compare two snapshots leaf by leaf.

    Count leaves must match exactly; timing leaves may drift within
    ``tolerance`` (relative).  Leaves present on only one side are
    shape changes and fail the comparison — a renamed counter would
    otherwise silently leave the watchdog blind.
    """
    base = flatten_numeric(baseline)
    cur = flatten_numeric(current)
    comparison = BenchComparison(tolerance, counts_only=counts_only)
    for key in sorted(set(base) | set(cur)):
        kind = "timing" if is_timing_key(key) else "count"
        if key not in cur:
            comparison.deltas.append(
                BenchDelta(key, kind, baseline=base[key], status="removed"))
            continue
        if key not in base:
            comparison.deltas.append(
                BenchDelta(key, kind, current=cur[key], status="added"))
            continue
        want, got = base[key], cur[key]
        status = "ok"
        if kind == "count":
            if got != want:
                # fewer graphs checked is NOT an improvement: any exact
                # count mismatch means the workload changed
                status = "regression"
        else:
            limit = tolerance * max(abs(want), 1e-12)
            if abs(got - want) > limit:
                status = "regression" if got > want else "improvement"
        comparison.deltas.append(
            BenchDelta(key, kind, baseline=want, current=got, status=status))
    return comparison


# -- snapshot io ---------------------------------------------------------------------


def load_snapshot(path) -> dict:
    """Load one snapshot JSON, wrapping failures in a CLI-safe error."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise BenchSchemaError("cannot read %s: %s"
                               % (path, exc.strerror)) from None
    except json.JSONDecodeError as exc:
        raise BenchSchemaError("%s is not valid JSON: %s"
                               % (path, exc)) from None
    if not isinstance(doc, dict):
        raise BenchSchemaError("%s: snapshot must be a JSON object" % path)
    return doc


# -- the count gate ------------------------------------------------------------------


def pinned_counts(outcome) -> dict:
    """The deterministic work counts a snapshot pins for one checked
    campaign, a :class:`repro.harness.CheckOutcome` with its baseline.

    Unique graphs, violations, the complete/no-resort/incremental
    method mix, sorted vertices (collective and baseline), decoded
    digits and edge deltas, plus the source counts :data:`CHECK_LEGS`
    names for the outcome's pipeline.  Campaigns are seeded pure
    Python, so every count is bit-reproducible across machines.
    """
    from repro.checker.results import COMPLETE, INCREMENTAL, NO_RESORT

    report = outcome.collective
    counts = {
        "graphs": report.num_graphs,
        "violations": len(report.violations),
        "methods": {"complete": report.count(COMPLETE),
                    "no_resort": report.count(NO_RESORT),
                    "incremental": report.count(INCREMENTAL)},
        "sorted_vertices": report.sorted_vertices,
        "baseline_sorted_vertices": outcome.baseline.sorted_vertices,
        "digits_changed": report.digits_changed,
        "edges_added": report.edges_added,
        "edges_removed": report.edges_removed,
    }
    leg = CHECK_LEGS.get(outcome.pipeline)
    if leg is not None and leg.source_counts is not None:
        counts.update(leg.source_counts(outcome.source))
    return counts


@dataclass
class CountGate:
    """What ``repro bench diff --check`` found: one comparison per leg."""

    #: the configs every leg was checked on
    configs: tuple
    #: leg -> counts-only :class:`BenchComparison` against its snapshot
    legs: dict = field(default_factory=dict)
    #: timings never fail the gate; counts and verdict parity do
    counts_only = True

    @property
    def deltas(self) -> list:
        """Every compared leaf of every leg."""
        return [delta for comparison in self.legs.values()
                for delta in comparison.deltas]

    @property
    def failed(self) -> bool:
        return any(comparison.failed for comparison in self.legs.values())

    def to_json(self) -> dict:
        return {leg: dict(comparison.to_json(), configs=list(self.configs))
                for leg, comparison in self.legs.items()}

    def render(self) -> str:
        return "\n".join("%s leg (%s): %s"
                         % (leg, ", ".join(self.configs), comparison.render())
                         for leg, comparison in self.legs.items())


def _committed_leg(results_dir, leg: str) -> dict:
    """A leg's committed snapshot, with what the gate reads checked."""
    path = os.path.join(results_dir, CHECK_LEGS[leg].snapshot)
    doc = load_snapshot(path)
    if not isinstance(doc.get("iterations"), int) \
            or not isinstance(doc.get("seed"), int):
        raise BenchSchemaError(
            "%s lacks the embedded iterations/seed the gate re-runs with"
            % path)
    configs = doc.get("configs")
    missing = [name for name in CHECK_CONFIGS
               if not isinstance(configs, dict) or name not in configs]
    if missing:
        raise BenchSchemaError("%s lacks gate configs %s"
                               % (path, ", ".join(missing)))
    return doc


def check_against_committed(results_dir,
                            tolerance: float = DEFAULT_TOLERANCE
                            ) -> CountGate:
    """Run the count gate against the committed leg snapshots.

    The snapshots must embed one ``iterations``/``seed`` pair.  Each
    config's campaign runs once with it and is checked once with
    ``graphs``.  Every leg's pipeline checks the same campaign, must
    match ``graphs`` by the leg's parity and on the baseline summary,
    and has its :func:`pinned_counts` compared exactly with its
    snapshot's (``info_ms`` left out).
    """
    from repro.checker import violation_digest
    from repro.harness import Campaign, check_campaign_result
    from repro.testgen import paper_config

    committed = {leg: _committed_leg(results_dir, leg) for leg in CHECK_LEGS}
    knobs = {(doc["iterations"], doc["seed"]) for doc in committed.values()}
    if len(knobs) > 1:
        raise BenchSchemaError(
            "the leg snapshots embed different iterations/seed: %s"
            % ", ".join("%s %d/%d" % (CHECK_LEGS[leg].snapshot,
                                      doc["iterations"], doc["seed"])
                        for leg, doc in committed.items()))
    ((iterations, seed),) = knobs
    verdicts = {"summary": ("collective summary", lambda r: r.summary()),
                "digest": ("violation digest", violation_digest)}
    fresh = {leg: {} for leg in CHECK_LEGS}
    breaks = {leg: [] for leg in CHECK_LEGS}
    for name in CHECK_CONFIGS:
        campaign = Campaign(config=paper_config(name), seed=seed)
        result = campaign.run(iterations)
        reference = check_campaign_result(result, campaign.model,
                                          pipeline="graphs")
        for leg, spec in CHECK_LEGS.items():
            outcome = check_campaign_result(result, campaign.model,
                                            pipeline=leg)
            what, project = verdicts[spec.parity]
            if project(outcome.collective) != project(reference.collective):
                breaks[leg].append("%s on %s: %s differs from graphs"
                                   % (leg, name, what))
            if outcome.baseline.summary() != reference.baseline.summary():
                breaks[leg].append("%s on %s: baseline summary differs "
                                   "from graphs" % (leg, name))
            fresh[leg][name] = pinned_counts(outcome)
    gate = CountGate(CHECK_CONFIGS)
    for leg, doc in committed.items():
        pinned = {name: {key: value
                         for key, value in doc["configs"][name].items()
                         if key != "info_ms"}
                  for name in CHECK_CONFIGS}
        comparison = diff_snapshots({"configs": pinned},
                                    {"configs": fresh[leg]},
                                    tolerance=tolerance, counts_only=True)
        comparison.parity_breaks = breaks[leg]
        gate.legs[leg] = comparison
    return gate


# -- trajectory history --------------------------------------------------------------


def headline(snapshot: dict) -> dict:
    """A compact digest of one snapshot: leaf totals and a shape hash."""
    leaves = flatten_numeric(snapshot)
    counts = {k: v for k, v in leaves.items() if not is_timing_key(k)}
    blob = json.dumps(counts, sort_keys=True).encode()
    return {
        "leaves": len(leaves),
        "count_leaves": len(counts),
        "count_sum": sum(counts.values()),
        "counts_sha256_16": hashlib.sha256(blob).hexdigest()[:16],
    }


def history_entry(name: str, snapshot: dict, note: str = "") -> dict:
    """One ``BENCH_history.jsonl`` record for a snapshot."""
    entry = {"ts": time.time(), "snapshot": name,
             "digest": headline(snapshot)}
    if note:
        entry["note"] = note
    return entry


def append_history(path, entry: dict) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def read_history(path) -> list:
    entries = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise BenchSchemaError("%s:%d: not valid JSON: %s"
                                       % (path, lineno, exc)) from None
    return entries
