"""The packed checking core: plan compilation and array-kernel replay.

The packed pipeline's contract is *byte-identical verdicts* three ways:
for any campaign, :class:`PackedChecker` over a :class:`PackedPlan`
must produce the same summary — verdict methods, violation indices,
witness cycles, ``sorted_vertices`` accounting — and the same delta
work counts (``digits_changed``, ``edges_added``, ``edges_removed``)
as both ``CollectiveChecker.check_deltas`` and the legacy
``CollectiveChecker.check``.  These tests enforce that contract on
real, violating and hand-rolled campaigns, plus the plan-compilation
invariants (CSR universe, block decode) and the runner/serve wiring.

The campaign/report helpers live in :mod:`tests.differential` so the
delta, packed and poly suites all exercise the same fixture.
"""

import pytest

from repro import obs
from repro.checker import CollectiveChecker, PackedChecker, PackedPlan
from repro.errors import CheckerError, SignatureError
from repro.graph import GraphBuilder
from repro.harness import Campaign, check_campaign_result
from repro.instrument import Signature
from repro.mcm import get_model
from repro.sim import OperationalExecutor, platform_for_isa
from repro.testgen import TestConfig, generate
from tests.differential import (
    packed_report,
    reference_reports,
    run_unique_signatures,
)


class TestPlanConstruction:
    def test_rejects_observed_builder(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="observed")
        with pytest.raises(CheckerError):
            PackedPlan(small_codec, builder, [])

    def test_rejects_mismatched_program(self, small_codec):
        other = generate(TestConfig(isa="arm", threads=2, ops_per_thread=6,
                                    addresses=4, seed=99))
        builder = GraphBuilder(other, get_model("weak"), ws_mode="static")
        with pytest.raises(CheckerError):
            PackedPlan(small_codec, builder, [])

    def test_corrupt_signature_rejected(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=10,
                         addresses=4, seed=4)
        program, codec, signatures = run_unique_signatures(cfg, 40)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        sig = signatures[0]
        # push one word past its mixed-radix range
        bad_words = tuple(
            tuple(w + 10 ** 9 for w in tw) if t == 0 else tw
            for t, tw in enumerate(sig.words))
        with pytest.raises(SignatureError):
            PackedPlan(codec, builder, signatures + [Signature(bad_words)])

    def test_mismatched_shape_rejected(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="static")
        with pytest.raises(SignatureError):
            PackedPlan(small_codec, builder, [Signature(((1,),))])

    def test_empty_block(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="static")
        plan = PackedPlan(small_codec, builder, [])
        assert len(plan) == 0
        assert plan.digits_changed_total == 0
        report = PackedChecker().check(plan)
        assert report.num_graphs == 0
        assert report.summary() == CollectiveChecker().check([]).summary()

    def test_single_signature_block(self, small_program, small_codec):
        builder = GraphBuilder(small_program, get_model("weak"),
                               ws_mode="static")
        executor = OperationalExecutor(small_program, get_model("weak"),
                                       platform_for_isa("arm"), seed=1)
        sig = small_codec.encode(next(iter(executor.run(1))).rf)
        plan = PackedPlan(small_codec, builder, [sig])
        assert plan.digits_changed_total == 0
        report = PackedChecker().check(plan)
        assert report.num_graphs == 1
        assert not report.violations

    def test_full_graph_matches_legacy_build(self):
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=15,
                         addresses=6, seed=7)
        program, codec, signatures = run_unique_signatures(cfg, 60)
        model = platform_for_isa("x86").memory_model
        builder = GraphBuilder(program, model, ws_mode="static")
        plan = PackedPlan(codec, builder, signatures)
        for index in range(len(signatures)):
            assert plan.full_graph(index).adjacency == \
                builder.build(codec.decode(signatures[index])).adjacency


class TestThreeWayParity:
    @pytest.mark.parametrize("isa", ["arm", "x86"])
    def test_real_campaign_parity(self, isa):
        cfg = TestConfig(isa=isa, threads=2, ops_per_thread=40,
                         addresses=16, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 400)
        model = platform_for_isa(isa).memory_model
        legacy, delta = reference_reports(program, codec, signatures, model)
        packed, plan = packed_report(program, codec, signatures, model)
        assert packed.summary() == delta.summary() == legacy.summary()
        assert (packed.digits_changed, packed.edges_added,
                packed.edges_removed) == \
               (delta.digits_changed, delta.edges_added, delta.edges_removed)

    def test_violating_campaign_parity(self):
        """ARM weak executions checked against SC: genuine violations
        must flow through the packed windowed path with witness cycles
        identical to both reference checkers'."""
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program, codec, signatures = run_unique_signatures(cfg, 300, seed=13)
        legacy, delta = reference_reports(program, codec, signatures,
                                          get_model("sc"))
        packed, plan = packed_report(program, codec, signatures,
                                     get_model("sc"))
        assert len(legacy.violations) > 0
        assert packed.summary() == delta.summary() == legacy.summary()
        for mine, theirs in zip(packed.verdicts, legacy.verdicts):
            assert (mine.violation, mine.cycle) == \
                (theirs.violation, theirs.cycle)

    def test_initial_key_parity(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=25,
                         addresses=8, seed=5)
        program, codec, signatures = run_unique_signatures(cfg, 150)
        key = lambda v: -v
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        graphs = [builder.build(codec.decode(sig)) for sig in signatures]
        legacy = CollectiveChecker(initial_key=key).check(graphs)
        packed, plan = packed_report(program, codec, signatures,
                                     get_model("weak"), initial_key=key)
        assert packed.summary() == legacy.summary()

    def test_precompiled_base_order_used_without_key(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=6)
        program, codec, signatures = run_unique_signatures(cfg, 100)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        plan = PackedPlan(codec, builder, signatures)
        assert plan.base_order is not None
        assert sorted(plan.base_order) == list(range(plan.num_vertices))
        assert all(plan.base_position[v] == p
                   for p, v in enumerate(plan.base_order))
        # the checker still counts the complete sort it skipped
        report = PackedChecker().check(plan)
        assert report.sorted_vertices >= plan.num_vertices


class TestRunnerWiring:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        campaign = Campaign(config=TestConfig(
            isa="arm", threads=2, ops_per_thread=30, addresses=8, seed=9),
            seed=5)
        return campaign, campaign.run(250)

    def test_packed_outcome_matches_delta(self, campaign_result):
        campaign, result = campaign_result
        packed = check_campaign_result(result, campaign.model,
                                       pipeline="packed")
        delta = check_campaign_result(result, campaign.model,
                                      pipeline="delta")
        assert packed.pipeline == "packed"
        assert packed.collective.summary() == delta.collective.summary()
        assert packed.baseline.summary() == delta.baseline.summary()

    def test_packed_outcome_materializes_no_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = check_campaign_result(result, campaign.model,
                                        pipeline="packed")
        assert outcome.graphs == []
        assert isinstance(outcome.source, PackedPlan)

    def test_graph_at_rebuilds_identical_graphs(self, campaign_result):
        campaign, result = campaign_result
        packed = check_campaign_result(result, campaign.model,
                                       pipeline="packed")
        legacy = check_campaign_result(result, campaign.model,
                                       pipeline="graphs")
        for index in range(len(packed.signatures)):
            assert packed.graph_at(index).adjacency == \
                legacy.graphs[index].adjacency

    def test_observed_ws_falls_back_to_graphs(self, campaign_result):
        campaign, result = campaign_result
        outcome = check_campaign_result(result, campaign.model,
                                        ws_mode="observed",
                                        pipeline="packed")
        assert outcome.pipeline == "graphs"
        assert outcome.graphs

    def test_packed_obs_counters_recorded(self, campaign_result):
        campaign, result = campaign_result
        with obs.enabled_obs() as handle:
            outcome = check_campaign_result(result, campaign.model,
                                            pipeline="packed")
        metrics = handle.metrics
        report = outcome.collective
        assert metrics.counter("checker.packed.graphs").value == \
            report.num_graphs
        assert metrics.counter("checker.packed.digits_changed").value == \
            report.digits_changed
        assert metrics.gauge("checker.packed.edge_universe").value == \
            outcome.source.num_edges


class TestStreamFinalizeWiring:
    def test_finalize_packed_matches_delta(self):
        from repro.checker.stream import StreamingCollectiveChecker

        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=6)
        program, codec, signatures = run_unique_signatures(cfg, 150)
        builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
        checker = StreamingCollectiveChecker(codec, builder)
        for sig in signatures:
            checker.feed(sig)
        assert checker.finalize(pipeline="packed").summary() == \
            checker.finalize().summary()
