"""Checker cross-oracle: observed signatures vs the static feasible set.

Every unique signature a campaign observed is classified on two
independent axes — *membership* in the feasible set (the oracle's
exact per-signature test, :meth:`FeasibilityOracle.is_feasible`) and
the constraint-graph checker's verdict for it — giving the four-way
verdict table:

========== =========== ====================================================
member     violation   meaning
========== =========== ====================================================
yes        no          ``agree-clean`` — both oracles accept the execution
no         yes         ``agree-violation`` — hardware bug, both agree
no         no          ``checker-miss`` — hardware bug the checker passed;
                       a membership miss is a detection on its own
yes        yes         ``checker-false-alarm`` — the checker flagged a
                       feasible execution: a checker bug
========== =========== ====================================================

The last two rows are *disagreements* (ROADMAP item 3's contract: a bug
both oracles flag is a hardware bug, a disagreement is a checker bug)
and flip the ``repro run --cross-check feasible`` exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.feasible.enumerator import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    FeasibilityOracle,
    FeasibleSet,
    enumerate_feasible,
)
from repro.obs import get_obs
from repro.sim.platform import model_for_register_width

#: verdict-table cell names
AGREE_CLEAN = "agree-clean"
AGREE_VIOLATION = "agree-violation"
CHECKER_MISS = "checker-miss"
CHECKER_FALSE_ALARM = "checker-false-alarm"


@dataclass(frozen=True)
class SignatureVerdict:
    """One unique signature's position in the verdict table."""

    index: int
    signature: object
    feasible: bool
    checker_violation: bool

    @property
    def kind(self) -> str:
        if self.feasible:
            return CHECKER_FALSE_ALARM if self.checker_violation \
                else AGREE_CLEAN
        return AGREE_VIOLATION if self.checker_violation else CHECKER_MISS

    @property
    def disagreement(self) -> bool:
        return self.feasible == self.checker_violation

    def to_json(self) -> dict:
        return {"index": self.index, "signature": str(self.signature),
                "feasible": self.feasible,
                "checker_violation": self.checker_violation,
                "kind": self.kind}


@dataclass
class CrossCheckReport:
    """Cross-oracle comparison over one campaign's unique signatures."""

    program_name: str
    model_name: str
    feasible_set: FeasibleSet
    verdicts: list = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(1 for v in self.verdicts if v.kind == kind)

    @property
    def out_of_set(self) -> list:
        """Observed signatures outside the feasible set (hardware bugs)."""
        return [v for v in self.verdicts if not v.feasible]

    @property
    def disagreements(self) -> list:
        return [v for v in self.verdicts if v.disagreement]

    @property
    def agreement(self) -> bool:
        """True when the checker and the static oracle never disagreed."""
        return not self.disagreements

    @property
    def observed_feasible(self) -> int:
        return sum(1 for v in self.verdicts if v.feasible)

    @property
    def coverage(self):
        """observed/feasible unique-outcome ratio; None when sampled.

        The steering signal coverage-guided testgen consumes: how much
        of the architecturally reachable outcome space the campaign
        actually visited.
        """
        if not self.feasible_set.exhaustive:
            return None
        if self.feasible_set.feasible_count == 0:
            return None
        return self.observed_feasible / self.feasible_set.feasible_count

    def summary_json(self) -> dict:
        """Compact digest for run summaries and obs payloads."""
        cov = self.coverage
        return {
            "model": self.model_name,
            "signatures": len(self.verdicts),
            "agree_clean": self.count(AGREE_CLEAN),
            "agree_violation": self.count(AGREE_VIOLATION),
            "checker_miss": self.count(CHECKER_MISS),
            "checker_false_alarm": self.count(CHECKER_FALSE_ALARM),
            "out_of_set": len(self.out_of_set),
            "feasible": self.feasible_set.feasible_count,
            "exhaustive": self.feasible_set.exhaustive,
            "coverage": round(cov, 4) if cov is not None else None,
            "agreement": self.agreement,
        }

    def to_json(self) -> dict:
        doc = self.summary_json()
        doc["program"] = self.program_name
        doc["feasible_set"] = self.feasible_set.to_json()
        doc["verdicts"] = [v.to_json() for v in self.verdicts]
        return doc

    def render(self) -> str:
        fs = self.feasible_set
        lines = ["cross-check (feasible oracle, %s): %d unique signatures"
                 % (self.model_name, len(self.verdicts))]
        if fs.exhaustive:
            lines.append("  feasible set: %d of %d encodable outcomes "
                         "(exhaustive, budget %d)"
                         % (fs.feasible_count, fs.cardinality, fs.budget))
            cov = self.coverage
            if cov is not None:
                lines.append("  coverage: %d/%d feasible outcomes observed "
                             "(%.1f%%)" % (self.observed_feasible,
                                           fs.feasible_count, 100 * cov))
        else:
            lines.append("  feasible set: sampled %d of ~2^%d assignments "
                         "(%d feasible); membership still exact"
                         % (fs.sampled, fs.cardinality.bit_length(),
                            fs.feasible_count))
        lines.append("  %s: %d   %s: %d   %s: %d   %s: %d"
                     % (AGREE_CLEAN, self.count(AGREE_CLEAN),
                        AGREE_VIOLATION, self.count(AGREE_VIOLATION),
                        CHECKER_MISS, self.count(CHECKER_MISS),
                        CHECKER_FALSE_ALARM,
                        self.count(CHECKER_FALSE_ALARM)))
        for v in self.disagreements:
            lines.append("  DISAGREEMENT [%s] signature #%d %s"
                         % (v.kind, v.index, v.signature))
        lines.append("  verdict: %s"
                     % ("AGREE" if self.agreement else "DISAGREE"))
        return "\n".join(lines)


def cross_check_outcome(result, outcome, model=None, *,
                        budget: int = DEFAULT_BUDGET,
                        samples: int = DEFAULT_SAMPLES,
                        seed: int = 0) -> CrossCheckReport:
    """Cross-check a checked campaign against the static feasible set.

    Args:
        result: the :class:`~repro.harness.runner.CampaignResult`.
        outcome: the matching :class:`CheckOutcome` (its ``signatures``
            order anchors violation indices).
        model: memory model; defaults to the register-width convention.
        budget/samples/seed: bounds of the enumeration behind the
            coverage figures; membership of each observed signature is
            always exact regardless.
    """
    if model is None:
        model = model_for_register_width(result.codec.register_width)
    obs = get_obs()
    with obs.span("feasible.crosscheck"):
        oracle = FeasibilityOracle(result.program, model)
        fset = enumerate_feasible(result.program, model, codec=result.codec,
                                  budget=budget, samples=samples, seed=seed)
        violating = {v.index for v in outcome.collective.violations}
        report = CrossCheckReport(result.program.name, model.name, fset)
        decode = result.codec.decode
        for index, signature in enumerate(outcome.signatures):
            member = oracle.is_feasible(decode(signature))
            report.verdicts.append(SignatureVerdict(
                index, signature, member, index in violating))
    obs.emit("feasible.crosscheck", program=result.program.name,
             model=model.name, signatures=len(report.verdicts),
             out_of_set=len(report.out_of_set),
             checker_false_alarms=report.count(CHECKER_FALSE_ALARM),
             agreement=report.agreement)
    if obs.enabled:
        _record_metrics(obs, report)
    return report


def _record_metrics(obs, report: CrossCheckReport) -> None:
    metrics = obs.metrics
    metrics.counter("feasible.crosscheck.signatures").inc(
        len(report.verdicts))
    metrics.counter("feasible.crosscheck.out_of_set").inc(
        len(report.out_of_set))
    metrics.counter("feasible.crosscheck.false_alarms").inc(
        report.count(CHECKER_FALSE_ALARM))
    metrics.gauge("feasible.coverage.observed").set(report.observed_feasible)
    metrics.gauge("feasible.coverage.feasible").set(
        report.feasible_set.feasible_count)
    cov = report.coverage
    if cov is not None:
        metrics.gauge("feasible.coverage.ratio").set(cov)
