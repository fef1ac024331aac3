"""Multi-test validation suites (the paper's per-configuration campaigns).

The paper evaluates every configuration with 10 generated tests, each run
for 65,536 iterations, and aggregates across them.  :class:`SuiteRunner`
packages that loop: generate a suite, run each test as a campaign, check
every campaign, and aggregate the statistics the evaluation section
reports (unique interleavings, checking work, violations, crashes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.checker.results import COMPLETE, INCREMENTAL, NO_RESORT
from repro.errors import ReproError
from repro.harness.runner import (
    Campaign,
    CampaignResult,
    CheckOutcome,
    check_campaign_result,
)
from repro.testgen.config import TestConfig
from repro.testgen.generator import generate_suite

#: campaign kwargs a worker process can reconstruct from plain data (each
#: is also a :func:`~repro.fleet.campaign.plan_campaign_tasks` keyword)
_FLEET_KWARGS = {"instrumentation", "os_model", "sync_barriers", "faults"}


@dataclass
class SuiteStats:
    """Aggregated results of one configuration's test suite."""

    config: TestConfig
    tests: int = 0
    iterations_per_test: int = 0
    unique_signatures: list = field(default_factory=list)
    violating_signatures: int = 0
    tests_with_violations: int = 0
    crashes: int = 0
    collective_sorted_vertices: int = 0
    baseline_sorted_vertices: int = 0
    collective_seconds: float = 0.0
    baseline_seconds: float = 0.0
    method_counts: dict = field(default_factory=lambda: {
        COMPLETE: 0, NO_RESORT: 0, INCREMENTAL: 0})
    #: tests the lint gate trimmed or skipped, and the iterations saved
    skipped_tests: int = 0
    skipped_iterations: int = 0

    @property
    def mean_unique(self) -> float:
        return (sum(self.unique_signatures) / len(self.unique_signatures)
                if self.unique_signatures else 0.0)

    @property
    def checking_reduction(self) -> float:
        """Fraction of topological-sort computation saved (Figure 9)."""
        if not self.baseline_sorted_vertices:
            return 0.0
        return 1.0 - self.collective_sorted_vertices / self.baseline_sorted_vertices


class SuiteRunner:
    """Runs a configuration's suite of generated tests.

    Args:
        config: test configuration.
        tests: how many distinct tests to generate (paper: 10).
        iterations: iterations per test (paper: 65,536).
        jobs: worker processes; ``1`` runs every test in-process, while
            ``N > 1`` shards the suite's tests over a fleet of ``N``
            workers (the paper's many-devices-one-host deployment) and
            checks each shipped signature multiset on the host.
        fleet: optional :class:`repro.fleet.FleetConfig` supervision
            knobs for ``jobs > 1``.
        lint: static-lint gate policy applied to every generated test —
            ``None``/``"off"``, ``"skip"`` (lint-error tests are skipped
            outright, zero-entropy tests trimmed to one iteration) or
            ``"fail"`` (lint errors abort the suite).
        pipeline: checking pipeline for every campaign — ``"delta"``
            (default, streaming graph deltas), ``"packed"``
            (array-compiled replay) or ``"graphs"`` (legacy full-graph
            path); see :func:`repro.harness.check_campaign_result`.
        campaign_kwargs: forwarded to every :class:`Campaign`
            (platform, instrumentation, faults, os_model, ...); fleet
            mode accepts only the knobs a worker rebuilds a campaign
            from (``instrumentation``, ``os_model``, ``sync_barriers``,
            ``faults``).
    """

    def __init__(self, config: TestConfig, tests: int = 10,
                 iterations: int = 1000, jobs: int = 1, fleet=None,
                 lint: str = None, pipeline: str = "delta", **campaign_kwargs):
        if jobs < 1:
            raise ValueError("jobs must be positive; got %r" % (jobs,))
        self.config = config
        self.tests = tests
        self.iterations = iterations
        self.jobs = jobs
        self.fleet = fleet
        self.lint = lint
        self.pipeline = pipeline
        self.campaign_kwargs = campaign_kwargs

    def run(self, seed: int = 0, check: bool = True) -> SuiteStats:
        """Execute the whole suite; optionally check every campaign."""
        if self.jobs > 1:
            return self._run_fleet(seed, check)
        stats = SuiteStats(self.config, tests=self.tests,
                           iterations_per_test=self.iterations)
        for index, program in enumerate(generate_suite(self.config, self.tests)):
            campaign = Campaign(program=program, config=self.config,
                                seed=seed + index, **self.campaign_kwargs)
            result = campaign.run(self.iterations, lint=self.lint)
            stats.unique_signatures.append(result.unique_signatures)
            stats.crashes += result.crashes
            if result.skipped_iterations:
                stats.skipped_tests += 1
                stats.skipped_iterations += result.skipped_iterations
            if not check:
                continue
            outcome = campaign.check(result, pipeline=self.pipeline)
            self._absorb(stats, result, outcome)
        return stats

    def _run_fleet(self, seed: int, check: bool) -> SuiteStats:
        """Shard the suite's tests over worker processes.

        Each test is one shard task carrying the test's full seed-block
        plan, so its worker-side execution is bit-identical to the
        serial campaign with the same seed.  The tasks come from the
        fleet's own builder, so a set-up error raises here, before
        dispatch.  A dead worker (crash after retries, timeout) records
        its whole test as crashed iterations with zero observed
        signatures — the paper's bug-3 accounting — and the suite
        carries on.
        """
        from repro import io as repro_io
        from repro.fleet.campaign import plan_campaign_tasks
        from repro.fleet.supervisor import FleetConfig, FleetSupervisor
        from repro.obs import get_obs
        from repro.sim.platform import platform_for_isa

        unsupported = set(self.campaign_kwargs) - _FLEET_KWARGS
        if unsupported:
            raise ReproError(
                "campaign options %s cannot be dispatched to worker "
                "processes; run with jobs=1" % sorted(unsupported))
        obs = get_obs()
        tasks = []
        # per test: whether it has a task (lint may skip a test
        # outright), and the iterations lint saved
        gated = []
        for index, program in enumerate(
                generate_suite(self.config, self.tests)):
            run_iterations, skipped = self._gate_test(program)
            test_tasks = plan_campaign_tasks(
                program, self.config, run_iterations, 1, seed=seed + index,
                collect_metrics=obs.enabled, **self.campaign_kwargs)
            tasks.extend(test_tasks)
            gated.append((bool(test_tasks), skipped))
        base = FleetConfig() if self.fleet is None else self.fleet
        supervisor = FleetSupervisor(replace(base, jobs=self.jobs))
        obs.counter("fleet.shards").inc(len(tasks))
        with obs.span("execute"):
            outcomes = iter(supervisor.run(tasks))

        stats = SuiteStats(self.config, tests=self.tests,
                           iterations_per_test=self.iterations)
        model = platform_for_isa(self.config.isa).memory_model
        for has_task, skipped in gated:
            if skipped:
                stats.skipped_tests += 1
                stats.skipped_iterations += skipped
            if not has_task:
                stats.unique_signatures.append(0)
                continue
            outcome = next(outcomes)
            if outcome.crashed:
                stats.unique_signatures.append(0)
                stats.crashes += outcome.iterations
                continue
            result = repro_io.load_campaign(outcome.payload)
            stats.unique_signatures.append(result.unique_signatures)
            stats.crashes += result.crashes
            if not check:
                continue
            checked = check_campaign_result(result, model,
                                            pipeline=self.pipeline)
            self._absorb(stats, result, checked)
        return stats

    def _gate_test(self, program):
        """Apply the lint policy to one test; (run_iterations, skipped)."""
        if self.lint in (None, "off"):
            return self.iterations, 0
        from repro.lint.engine import (
            gate_iterations,
            lint_program,
            record_gate,
        )

        report = lint_program(program, config=self.config)
        decision = gate_iterations(report, self.lint, self.iterations)
        record_gate(decision)
        return decision.run_iterations, decision.skipped_iterations

    @staticmethod
    def _absorb(stats: SuiteStats, result: CampaignResult,
                outcome: CheckOutcome) -> None:
        report = outcome.collective
        violations = len(report.violations)
        stats.violating_signatures += violations
        if violations:
            stats.tests_with_violations += 1
        stats.collective_sorted_vertices += report.sorted_vertices
        stats.baseline_sorted_vertices += outcome.baseline.sorted_vertices
        stats.collective_seconds += report.elapsed
        stats.baseline_seconds += outcome.baseline.elapsed
        for method in (COMPLETE, NO_RESORT, INCREMENTAL):
            stats.method_counts[method] += report.count(method)
