"""Tests for arrival-order streaming checking (repro.checker.stream)."""

import random

import pytest

from repro.checker import CollectiveChecker
from repro.checker.delta import SignatureDeltaSource
from repro.checker.stream import StreamingCollectiveChecker
from repro.errors import CheckerError
from repro.graph import GraphBuilder
from repro.harness import Campaign
from repro.instrument import SignatureCodec
from repro.mcm import SC, WEAK
from repro.sim import OperationalExecutor
from repro.testgen import TestConfig, generate


@pytest.fixture
def campaign_signatures():
    config = TestConfig(isa="arm", threads=2, ops_per_thread=18,
                        addresses=8, seed=11)
    campaign = Campaign(config=config, seed=2)
    result = campaign.run(250)
    codec = result.codec
    builder = GraphBuilder(result.program, WEAK, ws_mode="static")
    return codec, builder, result.sorted_signatures()


def _batch_report(codec, builder, signatures):
    source = SignatureDeltaSource(codec, builder, sorted(set(signatures)))
    return CollectiveChecker().check_deltas(source)


class TestConstruction:
    def test_rejects_observed_ws_builder(self, campaign_signatures):
        codec, builder, _ = campaign_signatures
        observed = GraphBuilder(builder.program, WEAK, ws_mode="observed")
        with pytest.raises(CheckerError):
            StreamingCollectiveChecker(codec, observed)

    def test_rejects_mismatched_program(self, campaign_signatures,
                                        figure3_program):
        codec, _, _ = campaign_signatures
        other = GraphBuilder(figure3_program, WEAK, ws_mode="static")
        with pytest.raises(CheckerError):
            StreamingCollectiveChecker(codec, other)


class TestFeed:
    def test_sorted_feed_matches_batch_verdicts(self, campaign_signatures):
        codec, builder, signatures = campaign_signatures
        checker = StreamingCollectiveChecker(codec, builder)
        for signature in signatures:
            checker.feed(signature)
        batch = _batch_report(codec, builder, signatures)
        fed = checker.report
        assert [v.violation for v in fed.verdicts] == \
            [v.violation for v in batch.verdicts]
        assert len(checker) == len(signatures)

    def test_shuffled_feed_finds_the_same_violation_set(
            self, campaign_signatures):
        codec, builder, signatures = campaign_signatures
        batch = _batch_report(codec, builder, signatures)
        expected = {signatures[v.index] for v in batch.violations}
        for seed in (0, 1, 2):
            shuffled = list(signatures)
            random.Random(seed).shuffle(shuffled)
            checker = StreamingCollectiveChecker(codec, builder)
            for signature in shuffled:
                checker.feed(signature)
            assert set(checker.violating_signatures()) == expected

    def test_violations_detected_streaming(self):
        """A weak-hardware campaign checked under SC must violate, and
        the streaming verdicts must flag the same signatures as batch."""
        config = TestConfig(isa="arm", threads=2, ops_per_thread=12,
                            addresses=4, seed=5)
        program = generate(config)
        codec = SignatureCodec(program, config.register_width)
        executor = OperationalExecutor(program, WEAK, seed=9)
        signatures = {codec.encode(e.rf) for e in executor.run(300)}
        builder = GraphBuilder(program, SC, ws_mode="static")
        batch = _batch_report(codec, builder, signatures)
        assert batch.violations, "seed produced no SC violations"
        checker = StreamingCollectiveChecker(codec, builder)
        for signature in sorted(signatures, reverse=True):
            checker.feed(signature)
        assert set(checker.violating_signatures()) == \
            {sorted(set(signatures))[v.index] for v in batch.violations}


class TestFinalize:
    def test_finalize_is_byte_identical_to_batch(self, campaign_signatures):
        codec, builder, signatures = campaign_signatures
        batch = _batch_report(codec, builder, signatures)
        shuffled = list(signatures)
        random.Random(42).shuffle(shuffled)
        checker = StreamingCollectiveChecker(codec, builder)
        for signature in shuffled:
            checker.feed(signature)
        assert checker.finalize().summary() == batch.summary()

    def test_finalize_accepts_a_wider_pool(self, campaign_signatures):
        """Serve sessions replay their full multiset, including dedup
        hits never fed here — finalize must cover the superset."""
        codec, builder, signatures = campaign_signatures
        checker = StreamingCollectiveChecker(codec, builder)
        for signature in signatures[: len(signatures) // 2]:
            checker.feed(signature)
        report = checker.finalize(signatures)
        assert report.summary() == \
            _batch_report(codec, builder, signatures).summary()

    @pytest.mark.parametrize("pipeline", ("graphs", "auto", "deltas"))
    def test_finalize_rejects_pipelines_outside_the_registry(
            self, campaign_signatures, pipeline):
        codec, builder, signatures = campaign_signatures
        checker = StreamingCollectiveChecker(codec, builder)
        checker.feed(signatures[0])
        with pytest.raises(CheckerError):
            checker.finalize(pipeline=pipeline)
