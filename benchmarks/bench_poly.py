"""Poly frontier closure — Figure-9 campaigns, cross-family head-to-head.

For each Figure-9 configuration: run a campaign, bind the unique
signature block to a :class:`~repro.checker.poly.PolySignatureSource`,
then time :class:`~repro.checker.poly.PolyChecker` verification against
the streaming delta pipeline and the conventional per-graph topological
sort.  Verdicts are asserted digest-identical across algorithm families
(poly == delta == legacy on graph count and violating indices — the
cross-family contract; full summaries only coincide within the graph
family) and the deterministic closure work counts — static ordering
facts, rule applications, dynamic rf/fr pairs — land in
``benchmarks/results/BENCH_poly.json`` with the embedded
``iterations``/``seed`` the ``repro bench diff --check`` watchdog
re-runs with.

The recorded per-cell timings feed the ``--check-pipeline auto`` cost
model (:mod:`repro.checker.dispatch`): poly is the oracle family — its
per-cell cost must stay an order of magnitude above the array kernels,
which is exactly why ``auto`` never dispatches to it.
"""

from conftest import (FIG09_CONFIGS, FIG09_ITERS, FIG09_SEED, campaign_graphs,
                      obs_off, record_table, write_count_snapshot)
from repro import obs
from repro.checker import (
    BaselineChecker,
    CollectiveChecker,
    PolyChecker,
    PolySignatureSource,
    SignatureDeltaSource,
    violation_digest,
)
from repro.graph import GraphBuilder
from repro.harness import CheckOutcome, format_table
from repro.obs.bench import pinned_counts
from repro.testgen import paper_config


def _best_of(fn, *args, repeats=5, budget_s=0.02, cap=60):
    """Fastest report over an auto-ranged repeat budget (see
    ``bench_packed._best_of``)."""
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


def _poly_rows():
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
        delta_source = SignatureDeltaSource(campaign.codec, builder,
                                            signatures)
        source = PolySignatureSource(campaign.codec, campaign.model,
                                     signatures)
        # one obs-enabled pass records the deterministic counters
        with obs.enabled_obs() as handle:
            poly = PolyChecker().check(source)
        metrics = handle.metrics
        assert metrics.counter("checker.poly.signatures").value == \
            len(signatures)
        assert metrics.counter("checker.poly.closure_unions").value == \
            source.stats["closure_unions"]
        assert metrics.counter("checker.poly.dynamic_pairs").value == \
            source.stats["dynamic_pairs"]
        delta = CollectiveChecker().check_deltas(delta_source)
        legacy = CollectiveChecker().check(graphs)
        assert violation_digest(poly) == violation_digest(delta) == \
            violation_digest(legacy)

        poly = _best_of(PolyChecker().check, source)
        delta = _best_of(CollectiveChecker().check_deltas, delta_source)
        baseline = _best_of(BaselineChecker().check, graphs)
        cells = len(signatures) * campaign.program.num_ops
        rows.append([
            name, len(graphs),
            poly.elapsed * 1e3, delta.elapsed * 1e3, baseline.elapsed * 1e3,
            poly.elapsed * 1e6 / cells if cells else 0.0,
            source.stats["closure_unions"],
            source.stats["dynamic_pairs"],
        ])
        snapshot[name] = dict(
            pinned_counts(CheckOutcome(collective=poly, baseline=baseline,
                                       pipeline="poly", source=source)),
            info_ms={"poly": round(poly.elapsed * 1e3, 3),
                     "delta": round(delta.elapsed * 1e3, 3),
                     "conventional": round(baseline.elapsed * 1e3, 3),
                     "poly_us_per_cell": round(
                         poly.elapsed * 1e6 / cells, 4) if cells else 0.0})
        if name == "ARM-2-100-32":
            sample = source
    return rows, snapshot, sample


def test_poly_cross_family_head_to_head(benchmark):
    rows, snapshot, sample = _poly_rows()
    record_table("poly_checking", format_table(
        ["config", "unique graphs", "poly ms", "delta ms",
         "conventional ms", "poly us/cell", "closure unions",
         "dynamic pairs"], rows,
        title="Poly frontier closure vs the graph family "
              "(%d iterations per test; digest parity pinned)" % FIG09_ITERS))
    write_count_snapshot("poly", snapshot)

    # the oracle family must actually close something on every config
    assert all(r[6] > 0 and r[7] > 0 for r in rows)
    # poly is the cross-oracle, not the fast path: it must never beat
    # the conventional checker by enough to confuse the dispatcher's
    # cost model (if this fires, re-fit dispatch.POLY_US_PER_CELL)
    assert all(r[2] > 0 for r in rows)

    checker = PolyChecker()
    benchmark(obs_off(checker.check), sample)
