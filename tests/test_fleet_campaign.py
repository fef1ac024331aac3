"""Integration tests: sharded campaigns vs serial ground truth."""

import hashlib
import json
import pathlib

import pytest

from repro import obs
from repro.errors import ExecutionError, ReproError
from repro.fleet import FleetConfig, run_campaign_fleet
from repro.harness import Campaign, SuiteRunner, check_campaign_result
from repro.mcm import get_model
from repro.sim import platform_for_isa
from repro.sim.faults import Bug, FaultConfig
from repro.testgen import TestConfig, paper_config

CFG = TestConfig(threads=2, ops_per_thread=10, addresses=8, seed=7)

#: the fleet bench's committed snapshot (config, sizes and checksums)
BENCH_FLEET = (pathlib.Path(__file__).resolve().parent.parent
               / "benchmarks" / "results" / "BENCH_fleet.json")


def multiset_checksum(result) -> str:
    """sha256[:16] of a result's signature multiset, as the bench takes it."""
    payload = json.dumps(sorted(
        ([list(w) for w in sig.words], count)
        for sig, count in result.signature_counts.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestShardedDeterminism:
    """Acceptance: jobs > 1 must reproduce the serial run bit-for-bit."""

    def test_four_workers_match_serial(self):
        serial = Campaign(config=CFG, seed=11).run(240, block=40)
        merged = run_campaign_fleet(config=CFG, iterations=240, jobs=4,
                                    seed=11, block=40)
        assert merged.signature_counts == serial.signature_counts
        assert merged.iterations == serial.iterations
        assert merged.crashes == serial.crashes

    def test_checker_verdicts_identical(self):
        serial = Campaign(config=CFG, seed=11).run(240, block=40)
        merged = run_campaign_fleet(config=CFG, iterations=240, jobs=4,
                                    seed=11, block=40)
        ours = check_campaign_result(merged)
        theirs = check_campaign_result(serial)
        assert ours.collective.summary() == theirs.collective.summary()
        assert ours.baseline.summary() == theirs.baseline.summary()
        assert ours.signatures == theirs.signatures

    def test_campaign_jobs_knob_routes_to_fleet(self):
        serial = Campaign(config=CFG, seed=11).run(200, block=50)
        sharded = Campaign(config=CFG, seed=11).run(200, jobs=2, block=50)
        assert sharded.signature_counts == serial.signature_counts

    @pytest.mark.parametrize("option", ["model", "platform"])
    def test_campaign_refuses_overrides_workers_cannot_rebuild(self, option):
        # workers rebuild the campaign from the config alone, so an
        # sc model or a platform override would silently change what
        # the shards run
        value = {"model": get_model("sc"),
                 "platform": platform_for_isa("arm")}[option]
        campaign = Campaign(config=CFG, seed=11, **{option: value})
        with pytest.raises(ReproError, match=option):
            campaign.run(200, jobs=2, block=50)
        assert campaign.run(20).iterations == 20

    def test_worker_count_does_not_matter(self):
        two = run_campaign_fleet(config=CFG, iterations=160, jobs=2,
                                 seed=11, block=40)
        three = run_campaign_fleet(config=CFG, iterations=160, jobs=3,
                                   seed=11, block=40)
        assert two.signature_counts == three.signature_counts


class TestCommittedFleetChecksum:
    """The bench snapshot's multiset checksum, serial and on two workers."""

    def test_serial_and_two_jobs_match_snapshot(self):
        bench = json.loads(BENCH_FLEET.read_text())
        config = paper_config(bench["config"])
        expected = bench["runs"]["serial"]["multiset_sha256_16"]
        assert bench["runs"]["jobs=2"]["multiset_sha256_16"] == expected
        serial = Campaign(config=config, seed=bench["seed"]).run(
            bench["iterations"], block=bench["block"])
        sharded = run_campaign_fleet(
            config=config, iterations=bench["iterations"], jobs=2,
            seed=bench["seed"], block=bench["block"])
        assert multiset_checksum(serial) == expected
        assert multiset_checksum(sharded) == expected


class TestCrashTolerance:
    """Acceptance: a dying worker is a crash outcome, not an abort."""

    X86 = TestConfig(isa="x86", threads=2, ops_per_thread=8, addresses=4,
                     seed=3)
    #: bug 3 on a 2-line L1: the writeback race fires in most iterations
    BUG3 = FaultConfig(bug=Bug.WRITEBACK_RACE, l1_lines=2)

    def test_bug3_device_death_recorded_as_crashes(self):
        # bug 3 (writeback race) crashes every iteration; die_on_crash
        # makes the worker die like real silicon, so after the bounded
        # retries each shard lands in the crash column and the campaign
        # still completes.
        with obs.enabled_obs() as handle:
            merged = run_campaign_fleet(
                config=self.X86, iterations=60, jobs=2, seed=5, block=20,
                faults=self.BUG3, die_on_crash=True,
                fleet=FleetConfig(max_retries=1))
            assert merged.iterations == 60
            assert merged.crashes == 60
            assert merged.unique_signatures == 0
            assert handle.metrics.get("fleet.worker_retries").value >= 1
            assert handle.metrics.get("fleet.shards_crashed").value == 2

    def test_crashed_result_still_checks(self):
        merged = run_campaign_fleet(
            config=self.X86, iterations=40, jobs=2, seed=5, block=20,
            faults=self.BUG3, die_on_crash=True,
            fleet=FleetConfig(max_retries=0))
        outcome = check_campaign_result(merged)
        assert outcome.collective.num_graphs == 0

    def test_in_simulation_crashes_without_device_death(self):
        # without die_on_crash the worker survives bug-3 iterations and
        # ships its multiset with the per-iteration crash count; the
        # multiset matches the serial run's exactly, and so does a
        # detailed Campaign sharded through run(jobs=2)
        merged = run_campaign_fleet(
            config=self.X86, iterations=40, jobs=2, seed=5, block=20,
            faults=self.BUG3)
        assert merged.iterations == 40
        assert merged.crashes >= 1              # writeback races fired
        campaign = Campaign(config=self.X86, seed=5, faults=self.BUG3)
        serial = campaign.run(40, block=20)
        sharded = campaign.run(40, jobs=2, block=20)
        for other in (serial, sharded):
            assert other.iterations == merged.iterations
            assert other.crashes == merged.crashes
            assert other.signature_counts == merged.signature_counts

    @pytest.mark.parametrize("knobs", [
        {"faults": FaultConfig(l1_lines=4), "os_model": True},
        {"mutation": "gem5-protocol-squash", "os_model": True},
        {"faults": FaultConfig(bug=Bug.LOAD_LOAD_LSQ, l1_lines=4),
         "sync_barriers": True}])
    def test_detailed_os_or_sync_rejected_before_dispatch(self, knobs):
        # a worker cannot build that executor; without the host-side
        # check every shard failed and was reported as crashes
        with pytest.raises(ReproError, match="detailed simulator"):
            run_campaign_fleet(config=self.X86, iterations=20, jobs=2,
                               **knobs)

    def test_worker_setup_error_raises_before_dispatch(self):
        # the detailed simulator models x86 only: every worker would fail
        # to build this campaign, so the host must raise, not count crashes
        arm = TestConfig(threads=2, ops_per_thread=10, addresses=4, seed=3)
        with pytest.raises(ReproError, match="x86 only"):
            run_campaign_fleet(config=arm, iterations=20, jobs=2,
                               mutation="gem5-protocol-squash")


class TestFleetObservability:
    def test_phase_spans_and_fleet_metrics(self):
        with obs.enabled_obs() as handle:
            run_campaign_fleet(config=CFG, iterations=80, jobs=2, seed=1,
                               block=40)
            assert handle.tracer.node("generate") is not None
            assert handle.tracer.node("execute") is not None
            assert handle.tracer.node("fleet.shard") is not None
            assert handle.tracer.node("fleet.merge") is not None
            metrics = handle.metrics
            assert metrics.get("fleet.jobs").value == 2
            assert metrics.get("fleet.shards").value == 2
            assert metrics.get("fleet.merge_seconds").count == 1
            # worker-side series shipped home and absorbed by the host
            assert metrics.get("harness.iterations").value == 80

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            run_campaign_fleet(config=CFG, iterations=10, jobs=0)
        with pytest.raises(ValueError):
            run_campaign_fleet(iterations=10, jobs=2)


class TestSuiteFleet:
    def test_sharded_suite_matches_serial(self):
        cfg = TestConfig(threads=2, ops_per_thread=8, addresses=4, seed=2)
        serial = SuiteRunner(cfg, tests=3, iterations=60).run(seed=4)
        fleet = SuiteRunner(cfg, tests=3, iterations=60, jobs=2).run(seed=4)
        assert fleet.unique_signatures == serial.unique_signatures
        assert fleet.crashes == serial.crashes
        assert fleet.violating_signatures == serial.violating_signatures
        assert fleet.method_counts == serial.method_counts
        assert fleet.collective_sorted_vertices == \
               serial.collective_sorted_vertices
        assert fleet.baseline_sorted_vertices == \
               serial.baseline_sorted_vertices

    def test_sharded_detailed_suite_matches_serial(self):
        cfg = TestConfig(isa="x86", threads=3, ops_per_thread=10,
                         addresses=4, words_per_line=2, seed=2)
        faults = FaultConfig(bug=Bug.LOAD_LOAD_LSQ, l1_lines=2)
        serial = SuiteRunner(cfg, tests=2, iterations=40,
                             faults=faults).run(seed=4)
        fleet = SuiteRunner(cfg, tests=2, iterations=40, jobs=2,
                            faults=faults).run(seed=4)
        assert fleet.unique_signatures == serial.unique_signatures
        assert fleet.crashes == serial.crashes
        assert fleet.violating_signatures == serial.violating_signatures
        assert fleet.collective_sorted_vertices == \
               serial.collective_sorted_vertices

    def test_unsupported_campaign_kwargs_rejected(self):
        from repro.sim.platform import ARM_BIG_LITTLE

        cfg = TestConfig(threads=2, ops_per_thread=8, addresses=4, seed=2)
        runner = SuiteRunner(cfg, tests=1, iterations=20, jobs=2,
                             platform=ARM_BIG_LITTLE)
        with pytest.raises(ReproError, match="platform"):
            runner.run()

    def test_jobs_must_be_positive(self):
        cfg = TestConfig(threads=2, ops_per_thread=8, addresses=4, seed=2)
        with pytest.raises(ValueError):
            SuiteRunner(cfg, jobs=0)

    def test_set_up_error_raises_before_dispatch(self):
        # a worker would fail every test and report it as crashes
        cfg = TestConfig(threads=2, ops_per_thread=8, addresses=4, seed=2)
        for jobs in (1, 2):
            with pytest.raises(ExecutionError, match="bogus"):
                SuiteRunner(cfg, tests=2, iterations=20, jobs=jobs,
                            instrumentation="bogus").run()

    def test_lint_skipped_test_keeps_stats_aligned(self, monkeypatch):
        cfg = TestConfig(threads=2, ops_per_thread=8, addresses=4, seed=2)
        serial = SuiteRunner(cfg, tests=3, iterations=60).run(seed=4)
        # lint skips the middle test outright: it gets no task
        decisions = iter([(60, 0), (0, 60), (60, 0)])
        monkeypatch.setattr(SuiteRunner, "_gate_test",
                            lambda self, program: next(decisions))
        fleet = SuiteRunner(cfg, tests=3, iterations=60, jobs=2,
                            lint="skip").run(seed=4)
        first, _, last = serial.unique_signatures
        assert fleet.unique_signatures == [first, 0, last]
        assert (fleet.skipped_tests, fleet.skipped_iterations) == (1, 60)
        assert fleet.crashes == serial.crashes == 0
