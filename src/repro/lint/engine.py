"""Lint orchestration and the campaign gate.

:func:`lint_program` runs the four analyzer families over one test
program (building the missing inputs — codec, layout, model — from a
:class:`~repro.testgen.config.TestConfig` or sane defaults) and returns
a :class:`~repro.lint.findings.LintReport`.  Each family runs under an
observability span and the aggregate counters land in the
``lint.*`` namespace, so run reports show lint cost and findings next
to the generate/instrument/execute/check phases.

:func:`gate_iterations` implements the ``lint=`` policy used by
``Campaign.run`` / ``SuiteRunner`` / ``run_campaign_fleet``:

* ``"skip"`` — error findings skip the test entirely (0 iterations);
  statically zero-entropy tests run a single iteration (its one
  possible signature) and skip the rest;
* ``"fail"`` — error findings raise :class:`LintGateError`;
  zero-entropy tests are still reduced to one iteration (the skip is
  sound: the remaining iterations cannot observe anything new).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.instrument.signature import SignatureCodec
from repro.isa.layout import MemoryLayout
from repro.isa.program import TestProgram
from repro.lint import (
    feasible_lints,
    graph_lints,
    program_lints,
    signature_lints,
    verifier,
)
from repro.lint.findings import LintReport, Severity
from repro.mcm import get_model
from repro.obs import get_obs
from repro.sim.platform import model_for_register_width

#: analyzer families, in execution order
FAMILIES = ("program", "signature", "verifier", "graph", "feasible")

#: accepted ``lint=`` policies (None and "off" disable the gate)
POLICIES = ("off", "skip", "fail")


class LintGateError(ReproError):
    """A campaign was blocked by the ``lint="fail"`` gate."""


@dataclass(frozen=True)
class LintConfig:
    """Knobs of one lint run."""

    families: tuple = FAMILIES
    exhaustive_limit: int = verifier.EXHAUSTIVE_LIMIT
    samples: int = verifier.SAMPLES
    seed: int = 0
    #: extra word address of the signature region (None = after test data)
    signature_base: int = field(default=None)
    #: full feasible-set enumeration up to this many rf assignments
    feasible_budget: int = feasible_lints.DEFAULT_BUDGET

    def with_families(self, *families: str) -> "LintConfig":
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ValueError("unknown lint families %s" % sorted(unknown))
        return replace(self, families=tuple(families))


def _resolve_model(config, register_width: int):
    if config is not None:
        return get_model(config.memory_model_name)
    return model_for_register_width(register_width)


def lint_program(program: TestProgram, *, codec: SignatureCodec = None,
                 config=None, layout: MemoryLayout = None, model=None,
                 register_width: int = None,
                 lint_config: LintConfig = None) -> LintReport:
    """Run all (configured) analyzer families over one test program.

    Args:
        program: the test to lint.
        codec: existing signature codec; built on demand otherwise.
        config: optional :class:`TestConfig` supplying layout, register
            width and memory model defaults.
        layout: memory layout override (for MTC005/MTC006).
        model: memory model override (for the graph lints).
        register_width: signature register width when no codec/config.
        lint_config: family selection and verifier bounds.
    """
    lc = lint_config or LintConfig()
    if register_width is None:
        register_width = (codec.register_width if codec is not None
                          else config.register_width if config is not None
                          else 32)
    obs = get_obs()
    report = LintReport(program.name)
    with obs.span("lint"):
        if codec is None:
            codec = SignatureCodec(program, register_width)
        if layout is None:
            layout = (config.layout if config is not None
                      else MemoryLayout(program.num_addresses)
                      if program.num_addresses > 0 else None)
        if model is None:
            model = _resolve_model(config, codec.register_width)
        candidates = codec.candidates
        report.cardinality = signature_lints.static_cardinality(codec)

        if "program" in lc.families:
            with obs.span("lint.program"):
                report.extend(program_lints.lint_stores(program, candidates))
                report.extend(program_lints.lint_loads(program, candidates))
                report.extend(program_lints.lint_fences(program))
                if layout is not None:
                    report.extend(program_lints.lint_signature_region(
                        layout, codec.total_words, base=lc.signature_base))
        if "signature" in lc.families:
            with obs.span("lint.signature"):
                report.extend(signature_lints.lint_weight_tables(
                    program, codec))
        if "verifier" in lc.families:
            with obs.span("lint.verifier"):
                findings, checked, exhaustive = verifier.verify_instrumentation(
                    program, codec, exhaustive_limit=lc.exhaustive_limit,
                    samples=lc.samples, seed=lc.seed)
                report.extend(findings)
                report.verified_assignments = checked
                report.verified_exhaustive = exhaustive
        if "graph" in lc.families:
            with obs.span("lint.graph"):
                report.extend(graph_lints.lint_po_skeleton(program, model))
                report.extend(graph_lints.lint_candidates_against_po(
                    program, candidates))
                if not report.errors:
                    # a poisoned skeleton/candidate set would make the
                    # closure finding pure noise
                    report.extend(graph_lints.lint_canonical_closure(
                        program, model, candidates))
        if "feasible" in lc.families and not report.errors:
            # error findings (zero-candidate loads, cyclic skeletons)
            # poison the enumeration's inputs, so skip it like the
            # closure lint does
            with obs.span("lint.feasible"):
                findings, fset = feasible_lints.lint_feasible(
                    program, codec, model, budget=lc.feasible_budget,
                    samples=lc.samples, seed=lc.seed)
                report.extend(findings)
                report.feasible_outcomes = fset.feasible_count
                report.feasible_exhaustive = fset.exhaustive
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("lint.programs").inc()
        metrics.counter("lint.findings").inc(len(report.findings))
        metrics.counter("lint.errors").inc(len(report.errors))
        metrics.counter("lint.warnings").inc(len(report.warnings))
        if report.zero_entropy:
            metrics.counter("lint.zero_entropy_tests").inc()
        metrics.gauge("lint.cardinality_bits").set(
            report.cardinality.bit_length())
    return report


@dataclass(frozen=True)
class GateDecision:
    """What the lint gate decided for one campaign."""

    policy: str
    run_iterations: int
    skipped_iterations: int
    reason: str = ""

    @property
    def skipped(self) -> bool:
        return self.skipped_iterations > 0


def gate_iterations(report: LintReport, policy: str,
                    iterations: int) -> GateDecision:
    """Apply a lint policy to a campaign's planned iteration count.

    Raises:
        LintGateError: under ``"fail"`` when the report has errors.
        ValueError: for an unknown policy string.
    """
    if policy is None or policy == "off":
        return GateDecision(policy or "off", iterations, 0)
    if policy not in POLICIES:
        raise ValueError("unknown lint policy %r (expected %s)"
                         % (policy, "/".join(POLICIES)))
    errors = report.errors
    if errors:
        summary = "; ".join("%s %s" % (f.rule, f.message)
                            for f in errors[:3])
        if len(errors) > 3:
            summary += "; +%d more" % (len(errors) - 3)
        if policy == "fail":
            raise LintGateError(
                "lint gate: %s has %d error finding%s: %s"
                % (report.program_name or "program", len(errors),
                   "s" if len(errors) > 1 else "", summary))
        return GateDecision(policy, 0, iterations,
                            reason="lint errors: %s" % summary)
    if report.zero_entropy and iterations > 1:
        return GateDecision(policy, 1, iterations - 1,
                            reason="statically zero-entropy test")
    return GateDecision(policy, iterations, 0)


def record_gate(decision: GateDecision) -> None:
    """Publish a gate decision to the ``lint.*`` metrics and event bus."""
    obs = get_obs()
    if not obs.enabled or decision.policy == "off":
        return
    obs.emit("lint.gate", policy=decision.policy,
             run_iterations=decision.run_iterations,
             skipped_iterations=decision.skipped_iterations,
             reason=decision.reason)
    obs.metrics.counter("lint.gated_campaigns").inc()
    if decision.skipped:
        obs.metrics.counter("lint.skipped_tests").inc()
        obs.metrics.counter("lint.skipped_iterations").inc(
            decision.skipped_iterations)


def fail_on_severity(text: str):
    """Parse a ``--fail-on`` value: a severity or ``"never"`` (None)."""
    if text == "never":
        return None
    return Severity.parse(text)
