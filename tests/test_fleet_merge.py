"""Unit tests for host-side signature-multiset merging."""

import pytest

from repro import io as repro_io
from repro.fleet import merge_campaign_results
from repro.harness import Campaign
from repro.harness.runner import CampaignResult
from repro.instrument import SignatureCodec
from repro.testgen import TestConfig


@pytest.fixture
def campaign():
    cfg = TestConfig(threads=2, ops_per_thread=10, addresses=8, seed=5)
    return Campaign(config=cfg, seed=9)


class TestMerge:
    def test_counts_sum_across_shards(self, campaign):
        whole = campaign.run(120, block=40)
        shards = [Campaign(program=campaign.program, config=campaign.config,
                           seed=9).run_blocks([(i, 40)]) for i in range(3)]
        merged = merge_campaign_results(shards)
        assert merged.signature_counts == whole.signature_counts
        assert merged.iterations == 120
        assert merged.unique_signatures == whole.unique_signatures

    def test_first_shard_wins_ws_orders(self, campaign):
        a = campaign.run_blocks([(0, 50)])
        b = Campaign(program=campaign.program, config=campaign.config,
                     seed=9).run_blocks([(0, 50)])
        merged = merge_campaign_results([a, b])
        assert merged.ws_orders.keys() == merged.signature_counts.keys()
        for signature, ws in merged.ws_orders.items():
            if signature in a.ws_orders:
                assert ws is a.ws_orders[signature]

    def test_crashes_and_accounting_sum(self, campaign):
        a = campaign.run_blocks([(0, 30)])
        b = Campaign(program=campaign.program, config=campaign.config,
                     seed=9).run_blocks([(1, 30)])
        a.crashes, b.crashes = 2, 3
        merged = merge_campaign_results([a, b])
        assert merged.crashes == 5
        assert merged.test_accesses == a.test_accesses + b.test_accesses
        assert merged.base_cycles == pytest.approx(
            a.base_cycles + b.base_cycles)

    def test_single_result_is_identity(self, campaign):
        result = campaign.run(80)
        merged = merge_campaign_results([result])
        assert merged.signature_counts == result.signature_counts
        assert merged.crashes == result.crashes

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_campaign_results([])

    def test_mismatched_programs_rejected(self, campaign):
        other_cfg = TestConfig(threads=2, ops_per_thread=10, addresses=8,
                               seed=77)
        other = Campaign(config=other_cfg, seed=9)
        with pytest.raises(repro_io.FormatError):
            merge_campaign_results([campaign.run(40), other.run(40)])

    def test_mismatched_register_widths_rejected(self, campaign):
        result = campaign.run(40)
        wide = CampaignResult(result.program,
                              SignatureCodec(result.program, 64))
        with pytest.raises(repro_io.FormatError):
            merge_campaign_results([result, wide])

    def test_merging_loaded_dumps_roundtrips(self, campaign):
        whole = campaign.run(100, block=50)
        shards = [Campaign(program=campaign.program, config=campaign.config,
                           seed=9).run_blocks([(i, 50)]) for i in range(2)]
        loaded = [repro_io.load_campaign(repro_io.dump_campaign(s))
                  for s in shards]
        merged = merge_campaign_results(loaded)
        assert merged.signature_counts == whole.signature_counts
