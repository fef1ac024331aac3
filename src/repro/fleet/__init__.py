"""Sharded multi-process campaign orchestration (the fleet).

MTraceCheck's runtime is distributed by design: many devices under
validation execute the same constrained-random test concurrently, each
collecting a compact signature multiset that is shipped to one host for
collective checking (paper Section 1).  This package reproduces that
split for the simulation pipeline:

* :mod:`~repro.fleet.sharding` — deterministic seed-block planning; the
  block plan depends only on the iteration count, so the merged result
  of any worker count equals the serial run's;
* :mod:`~repro.fleet.worker` — the device side: a picklable shard task
  executed in a ``multiprocessing`` worker, handing its signatures back
  through the :mod:`repro.io` JSON format;
* :mod:`~repro.fleet.supervisor` — the host side: bounded-concurrency
  process supervision with per-shard timeouts and bounded retries;
  worker death is the paper's bug-3 crash outcome, never a campaign
  abort;
* :mod:`~repro.fleet.merge` — signature-multiset union (count summing,
  one ws order per unique signature);
* :mod:`~repro.fleet.campaign` — :func:`run_campaign_fleet`, the
  one-call orchestration used by ``Campaign.run(jobs=N)`` and the CLI.

Only the sharding primitives are imported eagerly — the heavier modules
load on first attribute access, which also keeps
``repro.harness.runner``'s import of the seed-derivation scheme
cycle-free.
"""

from __future__ import annotations

from repro.fleet.sharding import (
    DEFAULT_BLOCK,
    OS_SEED_SALT,
    derive_os_seed,
    derive_seed,
    partition_blocks,
    plan_blocks,
    shard_iterations,
)

_LAZY = {
    "merge_campaign_results": "repro.fleet.merge",
    "WorkerTask": "repro.fleet.worker",
    "CRASH_EXIT": "repro.fleet.worker",
    "execute_task": "repro.fleet.worker",
    "run_worker_task": "repro.fleet.worker",
    "worker_main": "repro.fleet.worker",
    "FleetConfig": "repro.fleet.supervisor",
    "FleetSupervisor": "repro.fleet.supervisor",
    "ShardOutcome": "repro.fleet.supervisor",
    "plan_campaign_tasks": "repro.fleet.campaign",
    "run_campaign_fleet": "repro.fleet.campaign",
}

__all__ = sorted([
    "DEFAULT_BLOCK",
    "OS_SEED_SALT",
    "derive_os_seed",
    "derive_seed",
    "partition_blocks",
    "plan_blocks",
    "shard_iterations",
] + list(_LAZY))


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
