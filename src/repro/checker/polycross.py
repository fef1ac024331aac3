"""Checker cross-oracle: graph-family verdicts vs the poly closure.

Every unique signature a campaign observed is judged twice, once by
each algorithm family — the constraint-graph checker that produced the
campaign's :class:`CheckOutcome`, and an independent frontier closure
(:class:`~repro.checker.poly.PolyVerifier`) run per signature — giving
the four-way verdict table:

=========== =========== ===================================================
poly        checker     meaning
violation   violation
=========== =========== ===================================================
no          no          ``agree-clean`` — both families accept it
yes         yes         ``agree-violation`` — hardware bug, both agree
no          yes         ``poly-miss`` — the closure passed an execution
                        the graph family flagged: a checker bug in one
                        of the two families
yes         no          ``poly-false-alarm`` — the closure flagged an
                        execution the graph family passed: ditto
=========== =========== ===================================================

The last two rows are *disagreements* (ROADMAP item 2's contract: a bug
both families flag is a hardware bug, a disagreement is a checker bug)
and flip the ``repro run --cross-check poly`` exit code.  Unlike the
static ``feasible`` oracle this one never enumerates or samples: one
closure per observed signature, exact at any program size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checker.poly import PolyVerifier
from repro.obs import get_obs
from repro.sim.platform import model_for_register_width

#: verdict-table cell names
AGREE_CLEAN = "agree-clean"
AGREE_VIOLATION = "agree-violation"
POLY_MISS = "poly-miss"
POLY_FALSE_ALARM = "poly-false-alarm"


@dataclass(frozen=True)
class PolySignatureVerdict:
    """One unique signature's position in the verdict table."""

    index: int
    signature: object
    poly_violation: bool
    checker_violation: bool

    @property
    def kind(self) -> str:
        if self.poly_violation:
            return AGREE_VIOLATION if self.checker_violation \
                else POLY_FALSE_ALARM
        return POLY_MISS if self.checker_violation else AGREE_CLEAN

    @property
    def disagreement(self) -> bool:
        return self.poly_violation != self.checker_violation

    def to_json(self) -> dict:
        return {"index": self.index, "signature": str(self.signature),
                "poly_violation": self.poly_violation,
                "checker_violation": self.checker_violation,
                "kind": self.kind}


@dataclass
class PolyCrossCheckReport:
    """Cross-family comparison over one campaign's unique signatures."""

    program_name: str
    model_name: str
    verdicts: list = field(default_factory=list)
    #: closure-effort accounting (rule applications across all signatures)
    closure_unions: int = 0

    def count(self, kind: str) -> int:
        return sum(1 for v in self.verdicts if v.kind == kind)

    @property
    def poly_violations(self) -> list:
        """Signatures the frontier closure flags (either agreement row
        ``agree-violation`` or the ``poly-false-alarm`` disagreement)."""
        return [v for v in self.verdicts if v.poly_violation]

    @property
    def disagreements(self) -> list:
        return [v for v in self.verdicts if v.disagreement]

    @property
    def agreement(self) -> bool:
        """True when the two algorithm families never disagreed."""
        return not self.disagreements

    def summary_json(self) -> dict:
        """Compact digest for run summaries and obs payloads."""
        return {
            "model": self.model_name,
            "signatures": len(self.verdicts),
            "agree_clean": self.count(AGREE_CLEAN),
            "agree_violation": self.count(AGREE_VIOLATION),
            "poly_miss": self.count(POLY_MISS),
            "poly_false_alarm": self.count(POLY_FALSE_ALARM),
            "poly_violations": len(self.poly_violations),
            "agreement": self.agreement,
        }

    def to_json(self) -> dict:
        doc = self.summary_json()
        doc["program"] = self.program_name
        doc["closure_unions"] = self.closure_unions
        doc["verdicts"] = [v.to_json() for v in self.verdicts]
        return doc

    def render(self) -> str:
        lines = ["cross-check (poly closure, %s): %d unique signatures"
                 % (self.model_name, len(self.verdicts))]
        lines.append("  frontier closure: %d rule applications; "
                     "per-signature verdicts exact (never sampled)"
                     % self.closure_unions)
        lines.append("  %s: %d   %s: %d   %s: %d   %s: %d"
                     % (AGREE_CLEAN, self.count(AGREE_CLEAN),
                        AGREE_VIOLATION, self.count(AGREE_VIOLATION),
                        POLY_MISS, self.count(POLY_MISS),
                        POLY_FALSE_ALARM, self.count(POLY_FALSE_ALARM)))
        for v in self.disagreements:
            lines.append("  DISAGREEMENT [%s] signature #%d %s"
                         % (v.kind, v.index, v.signature))
        lines.append("  verdict: %s"
                     % ("AGREE" if self.agreement else "DISAGREE"))
        return "\n".join(lines)


def cross_check_poly(result, outcome, model=None) -> PolyCrossCheckReport:
    """Cross-check a checked campaign against the frontier closure.

    Args:
        result: the :class:`~repro.harness.runner.CampaignResult`.
        outcome: the matching :class:`CheckOutcome` (its ``signatures``
            order anchors violation indices).
        model: memory model; defaults to the register-width convention.
    """
    if model is None:
        model = model_for_register_width(result.codec.register_width)
    obs = get_obs()
    with obs.span("poly.crosscheck"):
        verifier = PolyVerifier(result.program, model)
        decode = result.codec.decode
        violating = {v.index for v in outcome.collective.violations}
        report = PolyCrossCheckReport(result.program.name, model.name)
        for index, signature in enumerate(outcome.signatures):
            closed = verifier.verify(decode(signature))
            report.closure_unions += closed.unions
            report.verdicts.append(PolySignatureVerdict(
                index, signature, closed.violation, index in violating))
    obs.emit("poly.crosscheck", program=result.program.name,
             model=model.name, signatures=len(report.verdicts),
             poly_violations=len(report.poly_violations),
             disagreements=len(report.disagreements),
             agreement=report.agreement)
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("poly.crosscheck.signatures").inc(
            len(report.verdicts))
        metrics.counter("poly.crosscheck.poly_violations").inc(
            len(report.poly_violations))
        metrics.counter("poly.crosscheck.disagreements").inc(
            len(report.disagreements))
    return report
