"""Unit tests for the campaign harness and reporting."""

import pytest

from repro.errors import ExecutionError, ReproError
from repro.harness import (
    Campaign,
    SortCostModel,
    format_bar_chart,
    format_table,
    run_and_check,
)
from repro.sim.faults import Bug, FaultConfig
from repro.testgen import TestConfig


@pytest.fixture
def campaign_and_result():
    cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20, addresses=8, seed=5)
    campaign = Campaign(config=cfg, seed=2)
    return campaign, campaign.run(120)


class TestCampaign:
    def test_requires_program_or_config(self):
        with pytest.raises(ValueError):
            Campaign()

    def test_signature_counts_sum_to_iterations(self, campaign_and_result):
        _, result = campaign_and_result
        assert sum(result.signature_counts.values()) == 120
        assert result.iterations == 120

    def test_ws_orders_match_first_executions(self, campaign_and_result,
                                              executions_of):
        """Each unique signature keeps the ws order of the first
        execution that produced it, and nothing else."""
        campaign, result = campaign_and_result
        first = {}
        for execution in executions_of(campaign, 120):
            first.setdefault(campaign.codec.encode(execution.rf), execution)
        assert result.ws_orders.keys() == first.keys()
        for sig, execution in first.items():
            assert result.ws_orders[sig] == execution.ws

    def test_decode_recovers_representative_rf(self, campaign_and_result,
                                               executions_of):
        """Algorithm 1 reconstructs exactly what was observed."""
        campaign, result = campaign_and_result
        for execution in executions_of(campaign, 120):
            sig = campaign.codec.encode(execution.rf)
            assert sig in result.signature_counts
            assert campaign.codec.decode(sig) == execution.rf

    def test_sorted_signatures_ascending(self, campaign_and_result):
        _, result = campaign_and_result
        sigs = result.sorted_signatures()
        assert sigs == sorted(sigs)

    def test_check_outcome_no_violations(self, campaign_and_result):
        campaign, result = campaign_and_result
        outcome = campaign.check(result)
        assert not outcome.collective.violations
        assert not outcome.baseline.violations
        assert [v.violation for v in outcome.collective.verdicts] == \
               [v.violation for v in outcome.baseline.verdicts]
        assert len(outcome.signatures) == result.unique_signatures

    def test_cycle_accounting_accumulates(self, campaign_and_result):
        _, result = campaign_and_result
        assert result.base_cycles > 0
        assert result.instrumentation_cycles > 0
        assert result.signature_sort_cycles > 0

    def test_flush_mode_has_no_sort_cost(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20, addresses=8, seed=5)
        campaign = Campaign(config=cfg, seed=2, instrumentation="flush")
        result = campaign.run(30)
        assert result.signature_sort_cycles == 0
        assert result.extra_accesses == 30 * len(campaign.program.loads)

    def test_run_and_check_convenience(self):
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=15, addresses=8, seed=9)
        campaign, result, outcome = run_and_check(cfg, 40)
        assert result.iterations == 40
        assert outcome.violating_signatures == []

    def test_campaign_with_detailed_executor(self):
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=10, addresses=4, seed=9)
        campaign = Campaign(config=cfg, seed=1, faults=FaultConfig())
        result = campaign.run(20)
        outcome = campaign.check(result)
        assert not outcome.collective.violations

    def test_faults_need_x86_and_no_mutation(self):
        # the MESI simulator models x86 only, and a mutation brings its
        # own executor, so neither combination may run silently
        arm = TestConfig(isa="arm", threads=2, ops_per_thread=10,
                         addresses=4, seed=9)
        with pytest.raises(ReproError, match="x86 only"):
            Campaign(config=arm, faults=FaultConfig())
        x86 = TestConfig(isa="x86", threads=2, ops_per_thread=10,
                         addresses=4, seed=9)
        for mutation in ("gem5-lsq-squash", "tso-stale-read"):
            with pytest.raises(ReproError, match="combined with faults"):
                Campaign(config=x86, mutation=mutation,
                         faults=FaultConfig(bug=Bug.LOAD_LOAD_LSQ))

    def test_os_model_flag(self):
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=15, addresses=8, seed=5)
        campaign = Campaign(config=cfg, seed=2, os_model=True)
        result = campaign.run(30)
        assert result.iterations == 30

    @pytest.mark.parametrize("knob", [{"os_model": True},
                                      {"sync_barriers": True}])
    def test_detailed_executor_rejects_os_and_sync_knobs(self, knob):
        # the MESI simulator models neither; dropping them silently ran a
        # plain detailed campaign
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=10,
                         addresses=4, seed=9)
        with pytest.raises(ExecutionError, match="detailed simulator"):
            Campaign(config=cfg, mutation="gem5-protocol-squash", **knob)
        with pytest.raises(ExecutionError, match="detailed simulator"):
            Campaign(config=cfg, faults=FaultConfig(), **knob)


class TestSortCostModel:
    def test_cost_grows_with_tree_size(self):
        m = SortCostModel()
        assert m.insert_cost(1000, 1) > m.insert_cost(2, 1)

    def test_cost_grows_with_signature_words(self):
        m = SortCostModel()
        assert m.insert_cost(100, 8) > m.insert_cost(100, 1)

    def test_minimum_one_comparison(self):
        assert SortCostModel().insert_cost(0, 1) > 0

    def test_defaults_pinned(self):
        m = SortCostModel()
        assert (m.cycles_per_comparison, m.word_compare_cost) == (22.0, 2.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_table_float_rendering(self):
        text = format_table(["v"], [[0.1234], [12.34], [1234.5], [0.0]])
        assert "0.123" in text and "12.3" in text and "1234" in text

    def test_format_bar_chart(self):
        text = format_bar_chart(["a", "bb"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_format_bar_chart_empty(self):
        assert format_bar_chart([], []) == ""
