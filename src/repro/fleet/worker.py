"""The device side of the fleet: one process, one shard, one hand-off.

A :class:`WorkerTask` is a pure-data description of a shard — the test
program as assembler text (the :mod:`repro.io` program document), the
seed-block assignment, and the campaign knobs (``faults``, ``mutation``,
``os_model``, ...) — so it pickles under any ``multiprocessing`` start
method.  The worker rebuilds the campaign from those knobs,
runs exactly its blocks, and returns the signature multiset serialized
through :func:`repro.io.dump_campaign`: the same JSON hand-off a device
under validation would ship to the host (paper Section 1).

``die_on_crash`` models the paper's bug-3 behaviour faithfully: on real
silicon a writeback-race crash takes the whole device down, so no
signatures are ever shipped.  With it set, any crashed iteration makes
the worker process exit non-zero instead of reporting partial results;
the supervisor then retries and eventually records the shard as a crash
outcome.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.fleet.progress import HEARTBEAT_MIN_INTERVAL_S
from repro.sim.faults import FaultConfig
from repro.testgen.config import TestConfig

#: exit status of a worker that died emulating a device crash (bug 3)
CRASH_EXIT = 70

#: schema tag of the worker's telemetry hand-off state (third element of
#: the ``("ok", dump, state)`` message); bare metric dicts from older
#: workers are still absorbed by the supervisor as metrics-only state
STATE_SCHEMA = "repro.worker-state"
STATE_VERSION = 1


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker process needs, as picklable plain data."""

    #: :func:`repro.io.dump_program` document ({"name", "listing"})
    program_doc: dict
    #: ``(block_index, iterations)`` seed blocks assigned to this shard
    blocks: tuple
    #: campaign base seed; per-block seeds derive from it
    seed: int = 0
    #: test configuration (ISA, layout / register width); optional
    config: TestConfig = None
    instrumentation: str = "signature"
    #: True enables the Linux-perturbation OS model
    os_model: bool = False
    sync_barriers: bool = False
    #: the detailed MESI simulator's bug and L1 size (x86 only); None
    #: runs the operational executor, as in :class:`Campaign`
    faults: FaultConfig = None
    #: registered :mod:`repro.mutate` mutation name to inject (workers
    #: rebuild the fault plane / detailed fault config from the registry)
    mutation: str = None
    #: emulate device death: exit non-zero if any iteration crashes
    die_on_crash: bool = False
    #: ship the worker's metric state home for host-side absorption
    collect_metrics: bool = False
    #: include observed coherence orders in the hand-off
    include_ws: bool = True

    @property
    def iterations(self) -> int:
        return sum(count for _, count in self.blocks)


def task_campaign(task: WorkerTask):
    """Build the :class:`~repro.harness.Campaign` that runs a task's shard.

    Raises the campaign's set-up :class:`~repro.errors.ReproError` (a
    detailed mutation on an ARM config, an OS model on the detailed
    simulator, ...).  The host builds one before dispatch
    (:func:`repro.fleet.campaign.plan_campaign_tasks`), so such an error
    stops the campaign instead of failing every shard as a crash.
    """
    # imported here so this module stays importable mid-way through a
    # ``repro.harness`` import (harness.runner itself imports the
    # sharding module of this package)
    from repro.harness.runner import Campaign
    from repro.io import load_program

    return Campaign(program=load_program(task.program_doc),
                    config=task.config, instrumentation=task.instrumentation,
                    os_model=task.os_model, seed=task.seed,
                    faults=task.faults, sync_barriers=task.sync_barriers,
                    mutation=task.mutation)


def execute_task(task: WorkerTask, progress=None):
    """Run a task's shard in-process; returns the :class:`CampaignResult`.

    Used by the worker entry point and directly by ``jobs=1`` fallbacks
    and tests — the fleet's execution semantics without any process.
    ``progress`` (``callable(iterations_done, partial_result)``) is
    invoked after every completed seed block.
    """
    return task_campaign(task).run_blocks(task.blocks, progress=progress)


def task_meta(task: WorkerTask) -> dict:
    """Shard provenance stamped into the worker's campaign dump."""
    return {"shard": {"seed": task.seed,
                      "blocks": [list(block) for block in task.blocks]}}


def run_worker_task(task: WorkerTask) -> str:
    """Execute a task and serialize its result to the io.py hand-off."""
    from repro.io import dump_campaign

    return dump_campaign(execute_task(task), include_ws=task.include_ws,
                         meta=task_meta(task))


def heartbeat_sender(task: WorkerTask, conn,
                     min_interval_s: float = HEARTBEAT_MIN_INTERVAL_S):
    """A ``progress`` callback streaming ``("progress", {...})`` beats.

    Throttled to one beat per ``min_interval_s`` except the final block,
    which always reports, so even sub-interval shards produce at least
    one heartbeat.  A closed pipe silences the sender instead of killing
    the shard: progress is advisory, the hand-off is not.
    """
    total = task.iterations
    last_beat = [float("-inf")]

    def beat(done, result):
        now = time.monotonic()
        if done < total and now - last_beat[0] < min_interval_s:
            return
        last_beat[0] = now
        try:
            conn.send(("progress", {
                "iterations_done": done,
                "iterations_total": total,
                "unique_signatures": result.unique_signatures,
                "crashes": result.crashes,
            }))
        except (OSError, ValueError):
            pass

    return beat


def export_state(handle) -> dict:
    """Package one observability instance for the pipe hand-off."""
    return {"schema": STATE_SCHEMA, "version": STATE_VERSION,
            "metrics": handle.metrics.export_state(),
            "events": handle.events.export_state(),
            "spans": handle.tracer.tree()}


def worker_main(task: WorkerTask, conn) -> None:
    """Process entry point: run the shard, ship the result, exit.

    Streams throttled ``("progress", payload)`` heartbeats while the
    shard runs, then sends ``("ok", dump_json, state_or_None)`` on
    success or ``("error", message, None)`` on a handled failure;
    emulated device crashes (``die_on_crash``) exit without sending
    anything, exactly like a killed process.  ``state`` is the
    :data:`STATE_SCHEMA` wrapper carrying the worker's metrics, events
    and span tree for host-side absorption.
    """
    from repro import obs
    from repro.io import dump_campaign

    handle = obs.enable() if task.collect_metrics else obs.disable()
    try:
        result = execute_task(task, progress=heartbeat_sender(task, conn))
        if task.die_on_crash and result.crashes:
            os._exit(CRASH_EXIT)
        state = export_state(handle) if task.collect_metrics else None
        conn.send(("ok", dump_campaign(result, include_ws=task.include_ws,
                                       meta=task_meta(task)),
                   state))
        conn.close()
    except BaseException as exc:  # ship the reason before dying
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc), None))
            conn.close()
        finally:
            os._exit(1)
