"""End-to-end campaign runner (the paper's Figure 1 flow).

``tests generation -> code instrumentation -> tests execution ->
violation checking``:

1. generate (or accept) a test program,
2. build its :class:`~repro.instrument.SignatureCodec`,
3. execute it for N iterations on an execution substrate, collecting the
   signature of every run and keeping one representative execution per
   *unique* signature,
4. sort the unique signatures, decode each back to its reads-from map
   (Algorithm 1), build constraint graphs, and check them with both the
   collective checker and the conventional baseline.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ReproError, SignatureError
from repro.fleet.sharding import derive_os_seed, derive_seed, plan_blocks
from repro.harness.sortmodel import SortCostModel
from repro.checker.baseline import BaselineChecker
from repro.checker.collective import CollectiveChecker
from repro.checker.delta import SignatureDeltaSource
from repro.checker.dispatch import PIPELINES
from repro.checker.packed import PackedChecker, PackedPlan
from repro.checker.poly import PolyChecker, PolySignatureSource
from repro.checker.results import CheckReport
from repro.graph.builder import GraphBuilder
from repro.instrument.signature import Signature, SignatureCodec
from repro.isa.program import TestProgram
from repro.lint.engine import (
    GateDecision,
    gate_iterations,
    lint_program,
    record_gate,
)
from repro.lint.findings import LintReport
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.sim.executor import OperationalExecutor
from repro.sim.os_model import OSModel
from repro.sim.platform import (
    Platform,
    model_for_register_width,
    platform_for_isa,
)
from repro.testgen.config import TestConfig
from repro.testgen.generator import generate


@dataclass
class CampaignResult:
    """Everything a campaign observed before checking."""

    program: TestProgram
    codec: SignatureCodec
    iterations: int = 0
    #: signature -> occurrence count over all iterations
    signature_counts: Counter = field(default_factory=Counter)
    #: signature -> representative execution (first with that signature)
    representatives: dict = field(default_factory=dict)
    #: summed cycle accounting over all iterations
    base_cycles: float = 0.0
    instrumentation_cycles: float = 0.0
    signature_sort_cycles: float = 0.0
    test_accesses: int = 0
    extra_accesses: int = 0
    crashes: int = 0
    #: iterations the lint gate statically proved redundant and skipped
    skipped_iterations: int = 0
    #: iterations whose observed rf fell outside the instrumented
    #: candidate sets — the signature chain's assertion tail fired
    #: (paper Figure 4 "assert error"); a detection outcome on its own,
    #: these executions have no encodable signature
    signature_asserts: int = 0

    @property
    def unique_signatures(self) -> int:
        """The paper's "number of unique memory-access interleavings"."""
        return len(self.signature_counts)

    def sorted_signatures(self) -> list[Signature]:
        return sorted(self.signature_counts)


@dataclass
class CheckOutcome:
    """Violation-checking results over a campaign's unique executions."""

    collective: CheckReport
    #: conventional per-execution checking; None when it was skipped
    baseline: CheckReport = None
    #: signatures, in the checked (ascending) order
    signatures: list = field(default_factory=list)
    #: constraint graphs, aligned with ``signatures``; empty under the
    #: delta pipeline, which never materializes the full list — use
    #: :meth:`graph_at` for uniform access
    graphs: list = field(default_factory=list)
    #: which checking pipeline produced this outcome
    pipeline: str = "graphs"
    #: delta source kept for on-demand graph rebuilds (delta pipeline)
    source: object = None

    @property
    def violating_signatures(self) -> list:
        return [self.signatures[v.index] for v in self.collective.violations]

    def graph_at(self, index: int):
        """Constraint graph of checked execution ``index``.

        Returns the materialized graph when the ``graphs`` pipeline
        built one, else rebuilds it from the delta source (identical by
        construction) — callers rendering violation witnesses don't care
        which pipeline ran.
        """
        if self.graphs:
            return self.graphs[index]
        if self.source is not None:
            return self.source.full_graph(index)
        raise IndexError("no graphs materialized and no delta source kept")


class Campaign:
    """Runs one test program many times and checks the outcomes.

    Args:
        program: test to run, or ``None`` to generate from ``config``.
        config: test configuration (required when ``program`` is None;
            also selects register width / platform defaults).
        platform: system under validation; defaults to the Table 1
            platform matching the configuration's ISA.
        model: memory model override (defaults to the platform's).
        instrumentation: "signature" (MTraceCheck), "flush" (baseline
            [24]) or None (bare test).
        os_model: pass True for the Linux-perturbation variant, or an
            :class:`OSModel` instance for custom interference.
        seed: executor RNG seed.
        mutation: a registered :class:`repro.mutate.Mutation` (or its
            name) to inject — operational mutations arm a seeded
            :class:`repro.mutate.FaultPlane` on the executor, detailed
            ones swap in the MESI simulator with the matching
            :class:`repro.sim.faults.FaultConfig`.  ``None`` (default)
            runs the unmutated, byte-identical machine.
    """

    def __init__(self, program: TestProgram = None, config: TestConfig = None,
                 platform: Platform = None, model: MemoryModel = None, *,
                 instrumentation: str = "signature", os_model=None, seed: int = 0,
                 executor_cls=OperationalExecutor, sync_barriers: bool = False,
                 mutation=None):
        obs = get_obs()
        if program is None:
            if config is None:
                raise ValueError("need a program or a config")
            with obs.span("generate"):
                program = generate(config)
        self.program = program
        self.config = config
        #: dispatchable to fleet workers only when every knob is plain data
        self._fleet_ready = executor_cls is OperationalExecutor
        self.mutation = None
        plane = None
        if mutation is not None:
            plane, executor_cls, platform = self._resolve_mutation(
                mutation, executor_cls, platform, seed)
        if platform is None:
            platform = platform_for_isa(config.isa if config else "arm")
        self.platform = platform
        self.model = model if model is not None else platform.memory_model
        with obs.span("instrument"):
            self.codec = SignatureCodec(program, platform.register_width)
        layout = config.layout if config else None
        self._owned_os_model = None
        if os_model is True:
            os_model = OSModel(random.Random(derive_os_seed(seed)),
                               program.num_threads, platform.num_cores)
            self._owned_os_model = os_model
        extra = {"plane": plane} if plane is not None else {}
        self.executor = executor_cls(
            program, self.model, platform, seed=seed,
            instrumentation=instrumentation, codec=self.codec,
            layout=layout, os_model=os_model, sync_barriers=sync_barriers,
            **extra)
        self.instrumentation = instrumentation
        self.seed = seed
        self.sync_barriers = sync_barriers
        self._fleet_ready = (
            self._fleet_ready
            and (os_model is None or os_model is self._owned_os_model))
        self._sort_model = SortCostModel()

    def _resolve_mutation(self, mutation, executor_cls, platform, seed):
        """Turn a mutation (or its name) into executor wiring.

        Operational mutations get a fresh :class:`FaultPlane`; detailed
        ones swap the executor class for the MESI simulator carrying the
        bug's :class:`FaultConfig` (mirroring the CLI ``--bug`` path).
        Mutated campaigns stay fleet-dispatchable — workers rebuild the
        same wiring from the mutation's registered name.
        """
        from repro.mutate.plane import FaultPlane
        from repro.mutate.registry import Mutation, get_mutation

        resolved = mutation if isinstance(mutation, Mutation) \
            else get_mutation(mutation)
        if not self._fleet_ready:
            raise ReproError(
                "mutation %r cannot be combined with a custom executor class"
                % resolved.name)
        self.mutation = resolved
        if resolved.executor == "detailed":
            from repro.sim.detailed import DetailedExecutor
            from repro.sim.platform import GEM5_X86_8CORE

            isa = self.config.isa if self.config else "x86"
            if isa != "x86":
                raise ReproError(
                    "mutation %r runs on the detailed MESI simulator, "
                    "which models x86 only (config is %s)"
                    % (resolved.name, isa))
            faults = resolved.fault_config()
            executor_cls = (
                lambda *a, **kw: DetailedExecutor(*a, faults=faults, **kw))
            return None, executor_cls, platform or GEM5_X86_8CORE
        return FaultPlane(resolved, seed), executor_cls, platform

    def run(self, iterations: int, jobs: int = 1, block: int = None,
            lint: str = None) -> CampaignResult:
        """Execute ``iterations`` runs, collecting signatures.

        Iterations are executed in deterministic *seed blocks* (see
        :mod:`repro.fleet.sharding`): block ``i`` reseeds the executor
        with ``derive_seed(seed, i)``, so the collected signature
        multiset is a pure function of ``(seed, iterations)`` and is
        identical whether the blocks run serially here or sharded over
        a worker fleet.

        Args:
            iterations: total iterations to run.
            jobs: worker processes; ``1`` runs in-process, ``N > 1``
                dispatches the seed blocks to a fleet of ``N`` workers
                and merges their signature multisets.
            block: seed-block size override (mainly for tests).
            lint: static-lint gate policy — ``None``/``"off"`` runs
                unconditionally, ``"skip"`` skips tests with lint errors
                and trims statically zero-entropy tests to a single
                iteration, ``"fail"`` raises
                :class:`~repro.lint.LintGateError` on lint errors.
        """
        if jobs < 1:
            raise ValueError("jobs must be positive; got %r" % (jobs,))
        if jobs > 1:
            return self._run_fleet(iterations, jobs, block, lint)
        decision = self._lint_gate(lint, iterations)
        blocks = plan_blocks(decision.run_iterations, block)
        obs = get_obs()
        obs.emit("campaign.plan", iterations=decision.run_iterations,
                 blocks=len(blocks))
        result = self.run_blocks(blocks)
        result.skipped_iterations = decision.skipped_iterations
        obs.emit("campaign.result", iterations=result.iterations,
                 unique_signatures=result.unique_signatures,
                 crashes=result.crashes,
                 skipped_iterations=result.skipped_iterations,
                 signature_asserts=result.signature_asserts)
        return result

    def lint(self, lint_config=None) -> LintReport:
        """Statically lint this campaign's program and instrumentation."""
        return lint_program(
            self.program, codec=self.codec, config=self.config,
            model=self.model, lint_config=lint_config)

    def _lint_gate(self, policy: str, iterations: int) -> GateDecision:
        if policy in (None, "off"):
            return GateDecision("off", iterations, 0)
        decision = gate_iterations(self.lint(), policy, iterations)
        record_gate(decision)
        return decision

    def run_blocks(self, blocks, progress=None) -> CampaignResult:
        """Execute an explicit ``(block_index, count)`` seed-block list.

        This is the worker-shard entry point: a fleet worker runs exactly
        its assigned blocks through the same code path the serial runner
        uses for the full plan.

        Args:
            blocks: ``(block_index, count)`` pairs to execute.
            progress: optional ``callback(iterations_done, result)``
                invoked after every completed seed block — the fleet
                workers wire their heartbeats here.
        """
        iterations = sum(count for _, count in blocks)
        result = CampaignResult(self.program, self.codec, iterations)
        obs = get_obs()
        done = 0
        with obs.span("execute"):
            for index, count in blocks:
                self._reseed_block(index)
                crashes, asserts = result.crashes, result.signature_asserts
                self._run_into(result, count)
                done += count
                obs.emit("block.done", block=index, iterations=count,
                         crashes=result.crashes - crashes,
                         signature_asserts=result.signature_asserts - asserts)
                if progress is not None:
                    progress(done, result)
        if obs.enabled:
            self._record_run_metrics(obs, result)
        return result

    def _reseed_block(self, index: int) -> None:
        """Point the substrate's RNG streams at seed block ``index``."""
        self.executor.reseed(derive_seed(self.seed, index))
        if self._owned_os_model is not None:
            self._owned_os_model.rng.seed(derive_os_seed(self.seed, index))

    def _run_into(self, result: CampaignResult, iterations: int) -> None:
        encode = self.codec.encode
        counts = result.signature_counts
        reps = result.representatives
        for execution in self.executor.run(iterations):
            if execution.crashed:
                result.crashes += 1
                continue
            try:
                signature = encode(execution.rf)
            except SignatureError:
                # the instrumented chain's assertion tail fired on the
                # device: there is no signature to collect, only the
                # detection outcome itself
                result.signature_asserts += 1
                continue
            counts[signature] += 1
            if signature not in reps:
                reps[signature] = execution
            c = execution.counters
            result.base_cycles += c.base_cycles
            result.instrumentation_cycles += c.instrumentation_cycles
            result.test_accesses += c.test_accesses
            result.extra_accesses += c.extra_accesses
            if self.instrumentation == "signature":
                result.signature_sort_cycles += self._sort_model.insert_cost(
                    len(counts), self.codec.total_words)

    def _run_fleet(self, iterations: int, jobs: int, block,
                   lint: str = None) -> CampaignResult:
        from repro.fleet.campaign import run_campaign_fleet

        if not self._fleet_ready:
            raise ReproError(
                "this campaign uses a custom executor or OS model and "
                "cannot be dispatched to worker processes; run with jobs=1")
        return run_campaign_fleet(
            config=self.config, program=self.program, iterations=iterations,
            jobs=jobs, seed=self.seed, block=block,
            instrumentation=self.instrumentation,
            os_model=self._owned_os_model is not None,
            sync_barriers=self.sync_barriers, lint=lint,
            mutation=self.mutation.name if self.mutation else None)

    def _record_run_metrics(self, obs, result: CampaignResult) -> None:
        metrics = obs.metrics
        metrics.counter("harness.iterations").inc(result.iterations)
        metrics.counter("harness.crashes").inc(result.crashes)
        if result.signature_asserts:
            metrics.counter("harness.signature_asserts").inc(
                result.signature_asserts)
        metrics.counter("harness.test_accesses").inc(result.test_accesses)
        metrics.counter("harness.extra_accesses").inc(result.extra_accesses)
        metrics.gauge("harness.unique_signatures").set(result.unique_signatures)
        metrics.histogram("harness.base_cycles").observe(result.base_cycles)
        metrics.histogram("harness.instrumentation_cycles").observe(
            result.instrumentation_cycles)
        metrics.histogram("harness.signature_sort_cycles").observe(
            result.signature_sort_cycles)

    def check(self, result: CampaignResult, ws_mode: str = "static",
              pipeline: str = "delta") -> CheckOutcome:
        """Decode, build and check all unique executions of a campaign.

        Args:
            result: the finished campaign.
            ws_mode: write-serialization handling — ``"static"`` (paper
                default; graphs depend on signatures alone) or
                ``"observed"`` (use each representative execution's
                coherence order for strictly stronger checking).
            pipeline: ``"delta"`` (default) streams graph deltas through
                the checker; ``"graphs"`` materializes every graph
                first; ``"packed"`` compiles the block into flat arrays
                and replays it; ``"poly"`` runs the frontier-closure
                family.  See :func:`check_campaign_result`.
        """
        return check_campaign_result(result, self.model, ws_mode=ws_mode,
                                     pipeline=pipeline)


def check_campaign_result(result: CampaignResult, model: MemoryModel = None,
                          ws_mode: str = "static", baseline: bool = True,
                          pipeline: str = "delta") -> CheckOutcome:
    """Host-side checking of any campaign result — live, loaded or merged.

    The campaign's origin is irrelevant: a serial run, a fleet-merged
    multiset and a :func:`repro.io.load_campaign` dump all check through
    this one path, so sharding can never change checker semantics.

    Args:
        result: signature multiset (plus representatives) to check.
        model: memory model; defaults to the platform matching the
            result's signature register width (the io.py convention).
        ws_mode: ``"static"`` (paper default) or ``"observed"``.
        baseline: also run the conventional per-execution checker;
            skipped (``outcome.baseline is None``) when False.
        pipeline: ``"delta"`` (default) never materializes more than one
            full graph — signatures are decoded incrementally (changed
            digits only) and the collective checker consumes the edge-
            delta stream; ``"graphs"`` is the legacy path that builds
            the whole graph list first; ``"packed"`` compiles the block
            into flat arrays (CSR edge universe, batched signature
            decode, per-step delta tapes) once and replays them through
            the array-kernel checker; ``"poly"`` decodes each signature
            and runs an independent frontier-closure verification (no
            constraint graph, no topological sort — the second algorithm
            family).  Violation verdicts are identical in all of them; the
            graph-family pipelines additionally share the full report
            summary byte for byte.  ``ws_mode="observed"`` graphs depend
            on per-execution coherence order, not the signature alone,
            so they always fall back to ``"graphs"``.
    """
    if pipeline not in PIPELINES:
        raise ValueError(
            "pipeline must be one of %s; got %r"
            % ("/".join(PIPELINES), pipeline))
    if model is None:
        model = model_for_register_width(result.codec.register_width)
    if ws_mode == "observed":
        pipeline = "graphs"  # observed graphs are not signature-pure
    obs = get_obs()
    with obs.span("check"):
        signatures = result.sorted_signatures()
        if pipeline == "poly":
            source = PolySignatureSource(result.codec, model, signatures)
            outcome = CheckOutcome(
                collective=PolyChecker().check(source),
                baseline=BaselineChecker().check_stream(source)
                if baseline else None,
                signatures=signatures,
                pipeline="poly",
                source=source,
            )
            return outcome
        builder = GraphBuilder(result.program, model, ws_mode=ws_mode)
        if pipeline == "packed":
            plan = PackedPlan(result.codec, builder, signatures)
            outcome = CheckOutcome(
                collective=PackedChecker().check(plan),
                baseline=BaselineChecker().check_stream(plan)
                if baseline else None,
                signatures=signatures,
                pipeline="packed",
                source=plan,
            )
            return outcome
        if pipeline == "delta":
            source = SignatureDeltaSource(result.codec, builder, signatures)
            outcome = CheckOutcome(
                collective=CollectiveChecker().check_deltas(source),
                baseline=BaselineChecker().check_stream(source)
                if baseline else None,
                signatures=signatures,
                pipeline="delta",
                source=source,
            )
            return outcome
        graphs = []
        with obs.span("check.build_graphs"):
            for signature in signatures:
                rf = result.codec.decode(signature)
                if ws_mode == "observed":
                    graphs.append(
                        builder.build(rf, result.representatives[signature].ws))
                else:
                    graphs.append(builder.build(rf))
        outcome = CheckOutcome(
            collective=CollectiveChecker().check(graphs),
            baseline=BaselineChecker().check(graphs) if baseline else None,
            signatures=signatures,
            graphs=graphs,
        )
    return outcome


def run_and_check(config: TestConfig, iterations: int, **kwargs):
    """One-call convenience: build a campaign, run it, check it.

    Returns:
        (campaign, result, outcome) triple.
    """
    campaign = Campaign(config=config, **kwargs)
    result = campaign.run(iterations)
    outcome = campaign.check(result)
    return campaign, result, outcome
