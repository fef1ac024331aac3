"""MCM violation checkers: conventional baseline and MTraceCheck collective."""

from repro.checker.baseline import BaselineChecker
from repro.checker.collective import CollectiveChecker
from repro.checker.delta import SignatureDeltaSource
from repro.checker.dispatch import CROSS_CHECKS, PIPELINES, SERVE_PIPELINES
from repro.checker.minimize import MinimizedViolation, minimize_violation
from repro.checker.packed import PackedChecker, PackedPlan
from repro.checker.poly import (
    PolyChecker,
    PolySignatureSource,
    PolyVerifier,
    violation_digest,
)
from repro.checker.polycross import PolyCrossCheckReport, cross_check_poly
from repro.checker.results import (
    COMPLETE,
    INCREMENTAL,
    NO_RESORT,
    CheckReport,
    Verdict,
    describe_cycle,
)
from repro.checker.ws_inference import infer_constraint_graph

__all__ = [
    "COMPLETE",
    "CROSS_CHECKS",
    "INCREMENTAL",
    "NO_RESORT",
    "PIPELINES",
    "SERVE_PIPELINES",
    "BaselineChecker",
    "CheckReport",
    "CollectiveChecker",
    "MinimizedViolation",
    "PackedChecker",
    "PackedPlan",
    "PolyChecker",
    "PolyCrossCheckReport",
    "PolySignatureSource",
    "PolyVerifier",
    "SignatureDeltaSource",
    "cross_check_poly",
    "minimize_violation",
    "Verdict",
    "describe_cycle",
    "infer_constraint_graph",
    "violation_digest",
]
