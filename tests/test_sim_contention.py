"""Unit tests for the cache-line contention model."""

import random

import pytest

from repro.isa import MemoryLayout
from repro.sim import ContentionModel, LatencyConfig, UniformModel


def make(words_per_line=1, jitter=0.0, hiccup=0.0):
    cfg = LatencyConfig(jitter=jitter, hiccup_prob=hiccup)
    return ContentionModel(MemoryLayout(16, words_per_line), random.Random(1), cfg)


class TestLatencies:
    def test_first_touch_is_miss(self):
        m = make()
        assert m.load_latency(0, 3) == LatencyConfig().miss

    def test_repeat_load_hits(self):
        m = make()
        m.load_latency(0, 3)
        assert m.load_latency(0, 3) == LatencyConfig().l1_hit

    def test_second_reader_pays_shared_hit(self):
        m = make()
        m.load_latency(0, 3)
        assert m.load_latency(1, 3) == LatencyConfig().shared_hit

    def test_store_to_shared_line_pays_invalidation(self):
        m = make()
        m.load_latency(0, 3)
        m.load_latency(1, 3)
        assert m.store_latency(0, 3) == LatencyConfig().invalidation

    def test_store_hit_when_exclusive(self):
        m = make()
        m.store_latency(0, 3)
        assert m.store_latency(0, 3) == LatencyConfig().l1_hit

    def test_store_invalidates_readers(self):
        m = make()
        m.load_latency(1, 3)
        m.store_latency(0, 3)
        assert m.load_latency(1, 3) == LatencyConfig().shared_hit

    def test_reset_forgets_state(self):
        m = make()
        m.load_latency(0, 3)
        m.reset()
        assert m.load_latency(0, 3) == LatencyConfig().miss


@pytest.mark.parametrize("far", [8, 70])
class TestCoreIdsBeyondPaperThreads:
    """Cores past the paper's seven threads keep their own sharer state."""

    def test_store_pays_invalidation_of_far_sharer(self, far):
        m = make()
        m.load_latency(far, 3)
        m.load_latency(0, 3)
        assert m.store_latency(far, 3) == LatencyConfig().invalidation
        m.load_latency(0, 3)
        assert m.store_latency(0, 3) == LatencyConfig().invalidation

    def test_far_reader_pays_shared_hit_then_hits(self, far):
        m = make()
        m.store_latency(0, 3)
        assert m.load_latency(far, 3) == LatencyConfig().shared_hit
        assert m.load_latency(far, 3) == LatencyConfig().l1_hit

    def test_reset_forgets_far_state(self, far):
        m = make()
        m.store_latency(far, 3)
        assert m.store_latency(far, 3) == LatencyConfig().l1_hit
        m.reset()
        assert m.load_latency(far, 3) == LatencyConfig().miss


class TestMemoBound:
    def test_memo_starts_over_and_keeps_latencies(self):
        from repro.sim.contention import _MEMO_LIMIT

        m = make()
        m.load_latency(0, 3)
        # each new reader hands core 0 a sharer set it has not met
        for core in range(1, _MEMO_LIMIT + 20):
            assert m.load_latency(core, 3) == LatencyConfig().shared_hit
            assert m.load_latency(0, 3) == LatencyConfig().l1_hit
            assert len(m.memos(0)[0]) <= _MEMO_LIMIT
        assert m.store_latency(0, 3) == LatencyConfig().invalidation


class TestFalseSharing:
    def test_different_words_same_line_contend(self):
        m = make(words_per_line=4)
        m.store_latency(0, 0)
        # word 1 shares line 0: the second core's store pays a transfer
        assert m.store_latency(1, 1) > LatencyConfig().l1_hit

    def test_no_false_sharing_without_colocation(self):
        m = make(words_per_line=1)
        m.store_latency(0, 0)
        assert m.store_latency(1, 1) == LatencyConfig().miss


class TestNoise:
    def test_jitter_scales_with_latency(self):
        cfg = LatencyConfig(jitter=0.5, hiccup_prob=0.0)
        m = ContentionModel(MemoryLayout(4, 1), random.Random(2), cfg)
        miss = m.load_latency(0, 0)
        assert LatencyConfig().miss <= miss <= LatencyConfig().miss * 1.5

    def test_hiccups_add_long_stalls(self):
        cfg = LatencyConfig(jitter=0.0, hiccup_prob=1.0, hiccup_cycles=100)
        m = ContentionModel(MemoryLayout(4, 1), random.Random(3), cfg)
        assert m.load_latency(0, 0) >= LatencyConfig().miss + 50

    def test_core_speed_multiplier(self):
        m = ContentionModel(MemoryLayout(4, 1), random.Random(4),
                            LatencyConfig(jitter=0.0, hiccup_prob=0.0),
                            core_speed={1: 2.0})
        fast = m.load_latency(0, 0)
        m.reset()
        slow = m.load_latency(1, 0)
        assert slow == 2.0 * fast


class TestUniformModel:
    def test_unit_latencies(self):
        u = UniformModel()
        assert u.load_latency(0, 0) == 1.0
        assert u.store_latency(3, 7) == 1.0
        assert u.private_store_latency(1) == 1.0
        u.reset()   # no-op, no crash
