"""Unit tests for the cross-client dedup store (repro.serve.dedup)."""

import json

import pytest

from repro import obs
from repro.instrument.signature import Signature
from repro.serve.dedup import SignatureDedupStore, campaign_key


def _sig(value):
    return Signature(((value,),))


class TestCampaignKey:
    def test_same_program_same_width_share_a_key(self, small_program):
        assert campaign_key(small_program, 32) == \
            campaign_key(small_program, 32)

    def test_register_width_splits_the_campaign(self, small_program):
        assert campaign_key(small_program, 32) != \
            campaign_key(small_program, 64)

    def test_different_programs_never_collide(self, small_program,
                                              figure3_program):
        assert campaign_key(small_program, 32) != \
            campaign_key(figure3_program, 32)


class TestObserveRecord:
    def test_miss_then_hit(self):
        store = SignatureDedupStore()
        assert store.observe("c", _sig(1)) is None
        store.record("c", _sig(1), violation=True)
        record = store.observe("c", _sig(1))
        assert record is not None and record.violation
        assert (store.hits, store.misses) == (1, 1)
        assert record.hits == 1

    def test_campaigns_are_isolated(self):
        store = SignatureDedupStore()
        store.record("a", _sig(1), violation=False)
        # the miss on campaign "b" must not leak campaign "a"'s verdict
        assert store.observe("b", _sig(1)) is None
        assert store.campaigns == 1
        store.record("b", _sig(1), violation=True)
        assert store.observe("a", _sig(1)).violation is False
        assert store.observe("b", _sig(1)).violation is True

    def test_unique_signatures_counts_across_campaigns(self):
        store = SignatureDedupStore()
        store.record("a", _sig(1), violation=False)
        store.record("a", _sig(2), violation=False)
        store.record("b", _sig(1), violation=False)
        assert store.unique_signatures == 3
        assert store.campaigns == 2


class TestGauges:
    def test_serve_dedup_gauges_published(self):
        handle = obs.Observability(enabled=True)
        store = SignatureDedupStore()
        store.record("c", _sig(1), violation=False)
        store.observe("c", _sig(1))
        store.observe("c", _sig(2))
        store.record_gauges(handle)
        metrics = handle.metrics
        assert metrics.gauge("serve.dedup.hits").value == 1
        assert metrics.gauge("serve.dedup.misses").value == 1
        assert metrics.gauge("serve.dedup.unique_signatures").value == 1
        assert metrics.gauge("serve.dedup.hit_rate").value == 0.5


class TestJournal:
    def test_journal_replayed_on_restart(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        with SignatureDedupStore(str(path)) as store:
            store.record("c", _sig(1), violation=True)
            store.record("c", _sig(2), violation=False)
        with SignatureDedupStore(str(path)) as again:
            assert again.observe("c", _sig(1)).violation is True
            assert again.observe("c", _sig(2)).violation is False
            assert again.unique_signatures == 2

    def test_torn_tail_line_skipped(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        with SignatureDedupStore(str(path)) as store:
            store.record("c", _sig(1), violation=False)
        with open(path, "a") as handle:
            handle.write('{"campaign": "c", "words": [[2]], "viol')
        with SignatureDedupStore(str(path)) as again:
            assert again.observe("c", _sig(1)) is not None
            assert again.observe("c", _sig(2)) is None

    @pytest.mark.parametrize("line", [
        '{"campaign": "c", "words": [[2.9]], "violation": true}',
        '{"campaign": "c", "words": [[2]], "violation": "false"}',
        '{"campaign": "c", "words": [[2]], "violation": 1}',
        '{"campaign": "c", "words": [[2]], "violation": null}',
        '{"campaign": ["c"], "words": [[2]], "violation": false}',
    ], ids=["float-word", "string-verdict", "int-verdict", "null-verdict",
            "list-campaign"])
    def test_line_with_a_bad_word_skipped(self, tmp_path, line):
        path = tmp_path / "dedup.jsonl"
        with SignatureDedupStore(str(path)) as store:
            store.record("c", _sig(1), violation=False)
        with open(path, "a") as handle:
            handle.write(line + "\n")
        with SignatureDedupStore(str(path)) as again:
            assert again.observe("c", _sig(1)) is not None
            assert again.observe("c", _sig(2)) is None
            assert again.unique_signatures == 1

    def test_journal_lines_are_json(self, tmp_path):
        path = tmp_path / "dedup.jsonl"
        with SignatureDedupStore(str(path)) as store:
            store.record("c", _sig(7), violation=False)
        lines = [line for line in path.read_text().splitlines() if line]
        doc = json.loads(lines[0])
        assert doc == {"campaign": "c", "words": [[7]], "violation": False}
