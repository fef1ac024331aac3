"""Unit + property tests for MTraceCheck's collective checker."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import (
    COMPLETE,
    INCREMENTAL,
    NO_RESORT,
    BaselineChecker,
    CollectiveChecker,
)
from repro.graph import PO, ConstraintGraph, Edge, GraphBuilder
from repro.instrument import SignatureCodec
from repro.sim import OperationalExecutor, platform_for_isa
from repro.testgen import TestConfig, generate


def graph(n, pairs):
    return ConstraintGraph(n, [Edge(u, v, PO) for u, v in pairs])


class TestSmallSequences:
    def test_first_graph_checked_completely(self):
        report = CollectiveChecker().check([graph(3, [(0, 1)])])
        assert report.verdicts[0].method == COMPLETE

    def test_identical_graph_needs_no_resort(self):
        g1 = graph(3, [(0, 1), (1, 2)])
        g2 = graph(3, [(0, 1), (1, 2)])
        report = CollectiveChecker().check([g1, g2])
        assert report.verdicts[1].method == NO_RESORT

    def test_forward_only_addition_needs_no_resort(self):
        g1 = graph(4, [(0, 1), (1, 2)])
        g2 = graph(4, [(0, 1), (1, 2), (0, 3)])
        report = CollectiveChecker().check([g1, g2])
        assert report.verdicts[1].method == NO_RESORT

    def test_removed_edges_need_no_resort(self):
        g1 = graph(3, [(0, 1), (1, 2)])
        g2 = graph(3, [(0, 1)])
        report = CollectiveChecker().check([g1, g2])
        assert report.verdicts[1].method == NO_RESORT

    def test_backward_edge_triggers_windowed_resort(self):
        g1 = graph(4, [(0, 1), (1, 2), (2, 3)])
        # reverse an ordering: now 2 must precede 1
        g2 = graph(4, [(0, 1), (2, 1), (2, 3)])
        report = CollectiveChecker().check([g1, g2])
        verdict = report.verdicts[1]
        assert verdict.method == INCREMENTAL
        assert not verdict.violation
        assert 0 < verdict.resorted_vertices <= 4

    def test_cycle_in_window_is_violation(self):
        g1 = graph(4, [(0, 1), (1, 2)])
        g2 = graph(4, [(0, 1), (1, 2), (2, 1)])
        report = CollectiveChecker().check([g1, g2])
        assert report.verdicts[1].violation
        assert report.verdicts[1].cycle is not None

    def test_violating_graph_does_not_become_base(self):
        g1 = graph(4, [(0, 1), (1, 2)])
        bad = graph(4, [(0, 1), (1, 2), (2, 1)])
        g3 = graph(4, [(0, 1), (1, 2)])
        report = CollectiveChecker().check([g1, bad, g3])
        assert [v.violation for v in report.verdicts] == [False, True, False]
        assert report.verdicts[2].method == NO_RESORT

    def test_first_graph_cyclic_then_valid(self):
        bad = graph(3, [(0, 1), (1, 0)])
        good = graph(3, [(0, 1)])
        report = CollectiveChecker().check([bad, good])
        assert report.verdicts[0].violation
        assert report.verdicts[0].method == COMPLETE
        assert report.verdicts[1].method == COMPLETE   # no valid base yet
        assert not report.verdicts[1].violation

    def test_count_and_fraction_stats(self):
        g1 = graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = graph(4, [(0, 1), (2, 1), (2, 3)])
        g3 = graph(4, [(0, 1), (2, 1), (2, 3)])
        report = CollectiveChecker().check([g1, g2, g3])
        assert report.count(COMPLETE) == 1
        assert report.count(INCREMENTAL) == 1
        assert report.count(NO_RESORT) == 1
        assert 0 < report.affected_vertex_fraction <= 1


def _random_graph_sequence(rng, n_vertices, n_graphs):
    """Signature-sorted-like sequence: neighbouring graphs differ a little."""
    base = set()
    for _ in range(n_vertices):
        u, v = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if u != v:
            base.add((u, v))
    graphs = []
    for _ in range(n_graphs):
        mutation = set(base)
        for _ in range(rng.randrange(0, 4)):
            u, v = rng.randrange(n_vertices), rng.randrange(n_vertices)
            if u != v:
                if (u, v) in mutation:
                    mutation.discard((u, v))
                else:
                    mutation.add((u, v))
        graphs.append(graph(n_vertices, mutation))
        base = mutation
    return graphs


class TestEquivalenceWithBaseline:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_same_verdicts_on_random_sequences(self, seed):
        """Collective checking is exactly as precise as per-graph sorting."""
        rng = random.Random(seed)
        graphs = _random_graph_sequence(rng, rng.randrange(3, 14), rng.randrange(1, 12))
        collective = CollectiveChecker().check(graphs)
        baseline = BaselineChecker().check(graphs)
        assert [v.violation for v in collective.verdicts] == \
               [v.violation for v in baseline.verdicts]


class TestOnRealCampaignGraphs:
    @pytest.mark.parametrize("isa", ["arm", "x86"])
    def test_matches_baseline_and_saves_work(self, isa):
        cfg = TestConfig(isa=isa, threads=2, ops_per_thread=40, addresses=16, seed=3)
        p = generate(cfg)
        platform = platform_for_isa(isa)
        model = platform.memory_model
        codec = SignatureCodec(p, platform.register_width)
        ex = OperationalExecutor(p, model, platform, seed=8, layout=cfg.layout)
        reps = {}
        for e in ex.run(400):
            sig = codec.encode(e.rf)
            reps.setdefault(sig, e)
        builder = GraphBuilder(p, model, ws_mode="static")
        graphs = [builder.build(codec.decode(sig)) for sig in sorted(reps)]
        collective = CollectiveChecker().check(graphs)
        baseline = BaselineChecker().check(graphs)
        assert [v.violation for v in collective.verdicts] == \
               [v.violation for v in baseline.verdicts]
        assert not collective.violations
        if len(graphs) > 5:
            assert collective.sorted_vertices < baseline.sorted_vertices
