"""Deterministic perf-regression guard for the packed checking core.

Runs the shared reduced Figure-9 configuration table (see
``guard_common.py``) through the array-compiled ``packed`` pipeline,
enforces three-way verdict parity (packed == delta == legacy graphs,
collective and baseline), and compares every deterministic work count —
plus the packed plan's edge-universe size and digit-column count —
against the committed snapshot ``benchmarks/results/PACKED_GUARD.json``.
A change that grows the edge universe or re-sorts more vertices than
the snapshot fails CI even when parity still holds.

Usage::

    PYTHONPATH=src python benchmarks/packed_guard.py            # verify
    PYTHONPATH=src python benchmarks/packed_guard.py --update   # re-baseline
"""

from __future__ import annotations

import sys

import guard_common

SNAPSHOT = guard_common.RESULTS_DIR / "PACKED_GUARD.json"


def _plan_counts(outcome) -> dict:
    """Packed-plan counts the generic report misses."""
    plan = outcome.source
    return {
        "edge_universe": plan.num_edges,
        "digit_columns": plan.digit_columns,
    }


def collect() -> dict:
    """Packed-core work counts, parity-checked against delta and legacy."""
    return guard_common.collect("packed", cross=("delta", "graphs"),
                                extra=_plan_counts)


def main(argv=None) -> int:
    return guard_common.run_guard(
        argv, __doc__, "repro.packed-guard", SNAPSHOT, collect, "packed",
        "PYTHONPATH=src python benchmarks/packed_guard.py --update")


if __name__ == "__main__":
    sys.exit(main())
