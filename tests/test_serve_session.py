"""Tests for daemon-side campaign sessions (repro.serve.session)."""

import pytest

from repro import obs
from repro.errors import ReproError
from repro.harness import Campaign, check_campaign_result
from repro.io import FormatError, signature_to_entry
from repro.mcm import SC
from repro.serve.dedup import SignatureDedupStore
from repro.serve.session import CampaignSession
from repro.testgen import TestConfig


@pytest.fixture
def campaign_result():
    config = TestConfig(isa="arm", threads=2, ops_per_thread=18,
                        addresses=8, seed=13)
    campaign = Campaign(config=config, seed=6)
    return campaign.run(250)


def _entries(result):
    return [signature_to_entry(sig, count)
            for sig, count in sorted(result.signature_counts.items())]


def _batch_summary(result, model=None):
    outcome = check_campaign_result(result, model, baseline=False,
                                    pipeline="delta")
    return outcome.collective.summary()


class TestIngest:
    def test_multiset_accounting_is_exact(self, campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        entries = _entries(campaign_result)
        ack = session.ingest(entries, seq=1)
        assert ack.novel == len(entries)
        assert ack.repeats == 0
        assert session.result.signature_counts == \
            campaign_result.signature_counts
        assert session.signatures_ingested == campaign_result.iterations

    def test_repeat_batch_is_all_dedup_hits(self, campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        entries = _entries(campaign_result)
        session.ingest(entries, seq=1)
        ack = session.ingest(entries, seq=2)
        assert ack.novel == 0
        assert ack.repeats == len(entries)
        # counts doubled: dedup answers verdicts, never occurrence math
        assert session.signatures_ingested == 2 * campaign_result.iterations

    def test_out_of_range_count_rejects_the_whole_batch(
            self, campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        entries = _entries(campaign_result)
        entries[1] = dict(entries[1], count=0)
        with pytest.raises(FormatError):
            session.ingest(entries, seq=1)
        # decoded before folding: nothing of the batch was accepted
        assert session.signatures_ingested == 0
        assert session.unique_signatures == 0
        assert len(session.checker) == 0

    def test_out_of_range_word_rejects_the_whole_batch(self,
                                                        campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        entries = _entries(campaign_result)
        session.ingest(entries[:3], seq=1)
        counters = (session.unique_signatures, session.signatures_ingested,
                    session.batches)
        bad = {"words": [list(words) for words in entries[4]["words"]]}
        bad["words"][0][0] = 10 ** 30
        with pytest.raises(ReproError):
            session.ingest([entries[3], bad], seq=2)
        assert (session.unique_signatures, session.signatures_ingested,
                session.batches) == counters
        ack = session.ingest(entries[3:], seq=3)
        assert ack.novel == len(entries) - 3
        assert session.finalize().summary == _batch_summary(campaign_result)

    def test_dedup_shared_across_sessions(self, campaign_result):
        store = SignatureDedupStore()
        first = CampaignSession(1, campaign_result.program, 32, store)
        first.ingest(_entries(campaign_result), seq=1)
        second = CampaignSession(2, campaign_result.program, 32, store)
        ack = second.ingest(_entries(campaign_result), seq=1)
        assert ack.novel == 0
        assert ack.repeats == len(_entries(campaign_result))


class TestFinalize:
    def test_report_is_byte_identical_to_batch(self, campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        entries = _entries(campaign_result)
        # interleave: small out-of-order batches
        for start in range(0, len(entries), 5):
            session.ingest(entries[start:start + 5], seq=start)
        report = session.finalize()
        assert report.summary == _batch_summary(campaign_result)
        assert report.unique_signatures == campaign_result.unique_signatures

    def test_all_dedup_hit_session_still_reports_full_summary(
            self, campaign_result):
        """The finalize replay must cover dedup hits whose live check
        was answered by another session's work."""
        store = SignatureDedupStore()
        first = CampaignSession(1, campaign_result.program, 32, store)
        first.ingest(_entries(campaign_result), seq=1)
        second = CampaignSession(2, campaign_result.program, 32, store)
        second.ingest(_entries(campaign_result), seq=1)
        report = second.finalize()
        assert report.dedup_hits == len(_entries(campaign_result))
        assert report.summary == _batch_summary(campaign_result)

    def test_event_kinds_and_counts(self, campaign_result):
        """Live checking emits no delta plan; finalize emits the one."""
        entries = _entries(campaign_result)
        with obs.enabled_obs() as handle:
            session = CampaignSession(1, campaign_result.program, 32,
                                      SignatureDedupStore())
            session.ingest(entries[:10], seq=1)
            session.ingest(entries[5:], seq=2)
            assert handle.events.counts() == {"serve.batch": 2,
                                              "serve.session.open": 1}
            session.finalize()
        assert handle.events.counts() == {
            "check.batch": 1, "checker.delta.plan": 1, "serve.batch": 2,
            "serve.session.close": 1, "serve.session.open": 1}
        plans = [e.data for e in handle.events.events()
                 if e.kind == "checker.delta.plan"]
        assert plans == [{"signatures": campaign_result.unique_signatures}]

    def test_empty_session_reports_cleanly(self, campaign_result):
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore())
        report = session.finalize(drained=True)
        assert report.unique_signatures == 0
        assert report.signatures == 0
        assert report.drained is True

    def test_violations_survive_the_replay(self, campaign_result):
        """Weak-hardware signatures checked under SC: the session's ack
        violations and final report must agree with the batch path."""
        session = CampaignSession(1, campaign_result.program, 32,
                                  SignatureDedupStore(), model=SC)
        ack = session.ingest(_entries(campaign_result), seq=1)
        report = session.finalize()
        batch = _batch_summary(campaign_result, SC)
        assert report.summary == batch
        assert report.violations == len(batch["violations"])
        assert ack.violations == report.violations
        assert report.violations > 0, "seed produced no SC violations"

