"""Integration tests exercising the full Figure-1 flow across modules."""

import pytest

from repro import obs
from repro.analysis import uniqueness
from repro.harness import Campaign, run_and_check
from repro.instrument import intrusiveness
from repro.checker.results import describe_cycle
from repro.graph import GraphBuilder
from repro.mcm import TSO
from repro.sim.faults import Bug, FaultConfig
from repro.testgen import TestConfig, generate_suite


class TestFullFlowBothPlatforms:
    @pytest.mark.parametrize("isa", ["arm", "x86"])
    def test_generate_instrument_execute_check(self, isa):
        cfg = TestConfig(isa=isa, threads=4, ops_per_thread=30, addresses=16, seed=6)
        campaign, result, outcome = run_and_check(cfg, 200)
        # no violations on a correct machine
        assert not outcome.collective.violations
        # collective checking did less sorting work than the baseline
        if result.unique_signatures > 10:
            assert outcome.collective.sorted_vertices < outcome.baseline.sorted_vertices
        # duplicate executions were filtered before checking
        assert outcome.collective.num_graphs == result.unique_signatures

    def test_weak_platform_more_diverse_than_tso(self):
        """Figure 8's headline cross-platform observation."""
        uniq = {}
        for isa in ("arm", "x86"):
            cfg = TestConfig(isa=isa, threads=4, ops_per_thread=50,
                             addresses=32, seed=8)
            campaign = Campaign(config=cfg, seed=3)
            uniq[isa] = uniqueness(campaign.run(300)).unique
        assert uniq["arm"] > uniq["x86"]

    def test_false_sharing_increases_diversity(self):
        uniq = {}
        for wpl in (1, 16):
            cfg = TestConfig(isa="x86", threads=4, ops_per_thread=50,
                             addresses=64, words_per_line=wpl, seed=8)
            campaign = Campaign(config=cfg, seed=3)
            uniq[wpl] = uniqueness(campaign.run(250)).unique
        assert uniq[16] > uniq[1]

    def test_intrusiveness_small(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=50, addresses=32, seed=1)
        campaign = Campaign(config=cfg, seed=1)
        report = intrusiveness(campaign.program, campaign.codec)
        assert report.normalized < 0.2


class TestObservabilityEndToEnd:
    def test_campaign_produces_four_phase_span_tree(self):
        """A full campaign must cover the paper's Figure-1 pipeline:
        tests generation -> code instrumentation -> tests execution ->
        violation checking, all visible in the span tree."""
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20,
                         addresses=8, seed=4)
        with obs.enabled_obs() as handle:
            campaign, result, outcome = run_and_check(cfg, 150)
            report = handle.report(meta={"command": "test"})
        obs.validate_report(report)
        names = obs.span_names(report)
        assert {"generate", "instrument", "execute", "check"} <= names
        # the checkers ran nested inside the check phase
        assert handle.tracer.node("check", "checker.collective").count == 1
        assert handle.tracer.node("check", "checker.baseline").count == 1

    def test_checker_counters_agree_with_check_report(self):
        from repro.checker.results import COMPLETE, INCREMENTAL, NO_RESORT

        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=30,
                         addresses=16, seed=6)
        with obs.enabled_obs() as handle:
            campaign, result, outcome = run_and_check(cfg, 200)
        metrics = handle.metrics
        collective = outcome.collective
        assert metrics.counter("checker.collective.graphs").value == \
            collective.num_graphs
        assert metrics.counter("checker.collective.violations").value == \
            len(collective.violations)
        assert metrics.counter("checker.collective.sorted_vertices").value == \
            collective.sorted_vertices
        for method, suffix in ((COMPLETE, "complete"), (NO_RESORT, "no_resort"),
                               (INCREMENTAL, "incremental")):
            assert metrics.counter("checker.collective.verdicts."
                                   + suffix).value == collective.count(method)
        window = metrics.histogram("checker.collective.resort_window_size")
        assert window.count == collective.count(INCREMENTAL)
        assert metrics.counter("harness.iterations").value == result.iterations
        assert metrics.counter("sim.executor.iterations").value == \
            result.iterations

    def test_disabled_observability_records_nothing(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=15,
                         addresses=8, seed=4)
        handle = obs.get_obs()
        assert not handle.enabled
        run_and_check(cfg, 50)
        assert handle.metrics.snapshot() == {}
        assert handle.tracer.tree() == []


class TestBugDetectionEndToEnd:
    def test_bug2_detected_through_signature_pipeline(self):
        """The paper's Table 3 flow: instrumented tests on the detailed
        simulator, signatures collected, collective checking flags the
        violating signatures and renders a Figure-13 report."""
        cfg = TestConfig(isa="x86", threads=7, ops_per_thread=200, addresses=32,
                         words_per_line=16, seed=23)
        detected = []
        for i, program in enumerate(generate_suite(cfg, 3)):
            campaign = Campaign(
                program=program, config=cfg, seed=100 + i,
                faults=FaultConfig(bug=Bug.LOAD_LOAD_LSQ, l1_lines=4))
            # observed-ws graphs catch the violation exactly as the
            # calibration study does
            campaign_check = campaign.check
            result = campaign.run(128)
            builder = GraphBuilder(program, TSO, ws_mode="observed")
            from repro.checker import BaselineChecker

            graphs = []
            sigs = result.sorted_signatures()
            for sig in sigs:
                graphs.append(builder.build(campaign.codec.decode(sig),
                                            result.ws_orders[sig]))
            report = BaselineChecker().check(graphs)
            for verdict in report.violations:
                detected.append((sigs[verdict.index], verdict))
                text = describe_cycle(program, graphs[verdict.index], verdict.cycle)
                assert "memory consistency violation" in text
        assert detected, "bug 2 must be caught by at least one signature"

    def test_bug3_crashes_counted_by_campaign(self):
        cfg = TestConfig(isa="x86", threads=4, ops_per_thread=100, addresses=64,
                         words_per_line=4, seed=29)
        campaign = Campaign(
            config=cfg, seed=5,
            faults=FaultConfig(bug=Bug.WRITEBACK_RACE, l1_lines=4))
        result = campaign.run(10)
        assert result.crashes == 10
