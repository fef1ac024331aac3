"""Packed checking core — Figure-9 campaigns through the array kernels.

For each Figure-9 configuration: run a campaign, compile the unique
signature block into a :class:`~repro.checker.packed.PackedPlan` (CSR
edge universe, batched mixed-radix decode, per-step delta tapes), then
time :class:`~repro.checker.packed.PackedChecker` replay against the
conventional per-graph topological sort and the streaming delta
pipeline.  Verdicts are asserted byte-identical three ways (packed ==
delta == legacy collective); the deterministic work counts land in
``benchmarks/results/BENCH_packed.json``.

The timings are replay only: plan compilation happens before the timed
calls, so these figures do not show the end-to-end (plan plus replay)
cost — EXPERIMENTS.md records that separately.  Two pins gate the run:

* packed replay is at least ``_MIN_SPEEDUP``× faster than conventional
  checking on *every* configuration, and
* packed replay beats the delta pipeline's check on every
  configuration.
"""

from conftest import (FIG09_CONFIGS, FIG09_ITERS, FIG09_SEED, campaign_graphs,
                      obs_off, record_table, write_count_snapshot)
from repro import obs
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    PackedChecker,
    PackedPlan,
    SignatureDeltaSource,
)
from repro.graph import GraphBuilder
from repro.harness import CheckOutcome, format_table
from repro.obs.bench import pinned_counts
from repro.testgen import paper_config

_MIN_SPEEDUP = 5.0


def _best_of(fn, *args, repeats=5, budget_s=0.02, cap=60):
    """Re-run a checker until a small time budget is spent; keep the
    fastest report.

    ``bench_fig09`` uses a fixed repeat count, which is fine at tens of
    milliseconds — but the packed replay puts the smallest configs well
    under wall-clock noise, so sub-millisecond runs auto-range (timeit
    style) until ``budget_s`` accumulates, capped at ``cap`` repeats.
    """
    best = None
    spent = 0.0
    runs = 0
    while runs < repeats or (spent < budget_s and runs < cap):
        report = obs_off(fn)(*args)
        runs += 1
        spent += report.elapsed
        if best is None or report.elapsed < best.elapsed:
            best = report
    return best


def _packed_rows():
    rows = []
    snapshot = {}
    sample = None
    for name in FIG09_CONFIGS:
        cfg = paper_config(name)
        campaign, result, graphs = campaign_graphs(
            cfg, iterations=FIG09_ITERS, seed=FIG09_SEED)
        signatures = result.sorted_signatures()
        builder = GraphBuilder(campaign.program, campaign.model,
                               ws_mode="static")
        source = SignatureDeltaSource(campaign.codec, builder, signatures)
        plan = PackedPlan(campaign.codec,
                          GraphBuilder(campaign.program, campaign.model,
                                       ws_mode="static"),
                          signatures)
        # one obs-enabled pass records the deterministic counters
        with obs.enabled_obs() as handle:
            packed = PackedChecker().check(plan)
            delta = CollectiveChecker().check_deltas(source)
            baseline = BaselineChecker().check(graphs)
        legacy = CollectiveChecker().check(graphs)
        assert packed.summary() == delta.summary() == legacy.summary()
        assert (packed.digits_changed, packed.edges_added,
                packed.edges_removed) == \
               (delta.digits_changed, delta.edges_added, delta.edges_removed)
        metrics = handle.metrics
        assert metrics.counter("checker.packed.digits_changed").value == \
            packed.digits_changed

        packed = _best_of(PackedChecker().check, plan)
        delta = _best_of(CollectiveChecker().check_deltas, source)
        baseline = _best_of(BaselineChecker().check, graphs)
        speedup = baseline.elapsed / packed.elapsed if packed.elapsed else 0
        rows.append([
            name, len(graphs),
            packed.elapsed * 1e3, delta.elapsed * 1e3, baseline.elapsed * 1e3,
            speedup, packed.digits_changed,
        ])
        snapshot[name] = dict(
            pinned_counts(CheckOutcome(collective=packed, baseline=baseline,
                                       pipeline="packed", source=plan)),
            info_ms={"packed": round(packed.elapsed * 1e3, 3),
                     "delta": round(delta.elapsed * 1e3, 3),
                     "conventional": round(baseline.elapsed * 1e3, 3),
                     "speedup": round(speedup, 2)})
        if name == "ARM-2-100-32":
            sample = plan
    return rows, snapshot, sample


def test_packed_core_speedup(benchmark):
    rows, snapshot, sample = _packed_rows()
    record_table("packed_checking", format_table(
        ["config", "unique graphs", "packed ms", "delta ms",
         "conventional ms", "speedup x", "digit transitions"], rows,
        title="Packed replay (plan compile excluded) vs conventional and "
              "delta pipelines (%d iterations per test; pin: >=%.0fx "
              "everywhere)" % (FIG09_ITERS, _MIN_SPEEDUP)))
    write_count_snapshot("packed", snapshot)

    # >=5x replay speedup over conventional on every config
    slow = [(r[0], r[5]) for r in rows if r[5] < _MIN_SPEEDUP]
    assert not slow, "packed speedup below %.1fx: %r" % (_MIN_SPEEDUP, slow)
    # packed replay must also beat the delta pipeline it reproduces
    assert all(r[2] < r[3] for r in rows)

    checker = PackedChecker()
    benchmark(obs_off(checker.check), sample)
