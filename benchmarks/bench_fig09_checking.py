"""Figure 9 — MCM violation checking: topological-sorting speedup.

For each configuration: run a campaign, build the signature-sorted unique
constraint graphs once (graphs in memory, as in the paper's measurement),
then time MTraceCheck's collective checking against the conventional
per-graph topological sort.  Reports normalized time and the absolute
milliseconds (the in-bar numbers of Figure 9), plus the computation proxy
(vertices fed to Kahn's algorithm).

The delta column times the streaming pipeline over the same campaigns:
``CollectiveChecker.check_deltas`` over a :class:`SignatureDeltaSource`
never materializes more than one full graph — signatures are decoded
incrementally (changed digits only) and edge deltas come from the
builder's per-load tables.  Verdicts are asserted byte-identical to the
legacy column; the deterministic work counts land in
``benchmarks/results/BENCH_delta.json``.

The paper reports an 81% average reduction (9.4%-44.9% of conventional).
"""

from conftest import (FIG09_CONFIGS, FIG09_ITERS, FIG09_SEED, campaign_graphs,
                      obs_off, record_table, write_count_snapshot)
from repro import obs
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    SignatureDeltaSource,
)
from repro.graph import GraphBuilder
from repro.harness import CheckOutcome, format_table
from repro.obs.bench import pinned_counts
from repro.testgen import paper_config


def _delta_source(campaign, result):
    builder = GraphBuilder(campaign.program, campaign.model, ws_mode="static")
    return SignatureDeltaSource(campaign.codec, builder,
                                result.sorted_signatures())


def _best_of(fn, *args, repeats=3):
    """Re-run a checker a few times; keep the fastest report.

    Counters are recorded separately (one obs-enabled run); wall-clock
    rows use the minimum so sub-millisecond configs are not noise-bound.
    """
    best = None
    for _ in range(repeats):
        report = obs_off(fn)(*args)
        if best is None or report.elapsed < best.elapsed:
            best = report
    return best


def _checking_rows():
    rows = []
    snapshot = {}
    sample = None
    for name in FIG09_CONFIGS:
        cfg = paper_config(name)
        campaign, result, graphs = campaign_graphs(
            cfg, iterations=FIG09_ITERS, seed=FIG09_SEED)
        source = _delta_source(campaign, result)
        # one obs-enabled pass records the deterministic counters (and
        # warms the per-load edge table exactly once)
        with obs.enabled_obs() as handle:
            collective = CollectiveChecker().check(graphs)
            delta = CollectiveChecker().check_deltas(source)
            baseline = BaselineChecker().check(graphs)
        assert delta.summary() == collective.summary()
        assert [v.violation for v in collective.verdicts] == \
               [v.violation for v in baseline.verdicts]
        # the computation proxy comes from the checkers' registry counters;
        # both collective pipelines recorded under checker.collective, so
        # halve the shared counter and cross-check the delta-only one
        metrics = handle.metrics
        collective_vertices = \
            metrics.counter("checker.collective.sorted_vertices").value // 2
        baseline_vertices = metrics.counter("checker.baseline.sorted_vertices").value
        assert collective_vertices == collective.sorted_vertices
        assert metrics.counter("checker.delta.digits_changed").value == \
            delta.digits_changed

        collective = _best_of(CollectiveChecker().check, graphs)
        delta = _best_of(CollectiveChecker().check_deltas, source)
        baseline = _best_of(BaselineChecker().check, graphs)
        rows.append([
            name, len(graphs),
            collective.elapsed * 1e3, delta.elapsed * 1e3, baseline.elapsed * 1e3,
            100.0 * collective.elapsed / baseline.elapsed if baseline.elapsed else 0,
            100.0 * delta.elapsed / baseline.elapsed if baseline.elapsed else 0,
            100.0 * collective_vertices / baseline_vertices
            if baseline_vertices else 0,
        ])
        snapshot[name] = dict(
            pinned_counts(CheckOutcome(collective=delta, baseline=baseline,
                                       pipeline="delta")),
            info_ms={"collective": round(collective.elapsed * 1e3, 3),
                     "delta": round(delta.elapsed * 1e3, 3),
                     "conventional": round(baseline.elapsed * 1e3, 3)})
        if name == "ARM-2-100-32":
            sample = source
    return rows, snapshot, sample


def test_fig09_collective_checking_speedup(benchmark):
    rows, snapshot, sample = _checking_rows()
    record_table("fig09_checking", format_table(
        ["config", "unique graphs", "collective ms", "delta ms",
         "conventional ms", "normalized time %", "delta normalized %",
         "normalized sorted vertices %"], rows,
        title="Figure 9: collective vs conventional topological sorting "
              "(%d iterations per test; paper avg: 19%% of conventional)" % FIG09_ITERS))
    write_count_snapshot("delta", snapshot)

    mean_vertices = sum(r[7] for r in rows) / len(rows)
    assert mean_vertices < 55.0          # a clear majority of sorting saved
    slower = [r for r in rows if r[2] > r[4] * 1.2]
    assert len(slower) <= 2              # wall-clock wins almost everywhere
    # the streaming pipeline must improve on the legacy collective
    # checker everywhere (the whole point of the delta refactor)
    assert all(r[3] < r[2] for r in rows)

    checker = CollectiveChecker()
    benchmark(obs_off(checker.check_deltas), sample)
