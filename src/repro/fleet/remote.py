"""Multi-host fleet workers: the TCP checking pool.

The one-host fleet (:mod:`repro.fleet.supervisor`) launches worker
*processes* and talks to them over pipes; this module keeps every
semantic of that contract — the ``repro.worker-state`` telemetry
wrapper, throttled progress heartbeats, worker death mapping to the
paper's bug-3 crash outcome after bounded retries — but moves the
transport to TCP, so workers may live on other machines.

Dispatch is pull-based work stealing: remote workers dial the pool
(``repro worker --connect HOST:PORT``), announce themselves with a
``join`` frame, and each idle worker is handed the next queued task —
whichever host frees up first takes the work, with no static
assignment.  Liveness is heartbeat-driven: every ``heartbeat`` frame
resets the task's deadline; a worker silent past
``heartbeat_timeout_s`` (or whose connection drops) is declared dead,
its task re-queued, and — with retries exhausted — the shard recorded
as a crash outcome, exactly like a died process under the one-host
supervisor.

Two task types ride the same frames: ``shard`` executes a
:class:`~repro.fleet.worker.WorkerTask` (the device side of a
campaign), and ``check`` runs host-side collective checking over a
campaign dump — the unit the serve daemon offloads when a batch is too
heavy to check inline.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import asdict

from repro.fleet.supervisor import FleetSupervisor, ShardOutcome
from repro.fleet.worker import WorkerTask, execute_task, export_state, task_meta
from repro.obs import get_obs
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    expect_kind,
    read_frame_socket,
    write_frame_socket,
)
from repro.testgen.config import TestConfig

#: how often a busy remote worker proves liveness
HEARTBEAT_INTERVAL_S = 0.5


def task_to_doc(task: WorkerTask) -> dict:
    """A :class:`WorkerTask` as a JSON document (the TCP twin of the
    pickle the one-host fleet sends)."""
    doc = asdict(task)
    doc["blocks"] = [list(block) for block in task.blocks]
    if task.config is not None:
        doc["config"] = asdict(task.config)
    return doc


def task_from_doc(doc: dict) -> WorkerTask:
    fields = dict(doc)
    fields["blocks"] = tuple(tuple(block) for block in fields.get("blocks", ()))
    config = fields.get("config")
    if config is not None:
        fields["config"] = TestConfig(**config)
    return WorkerTask(**fields)


class _PoolRun:
    """Shared dispatch state of one ``run(tasks)`` call."""

    def __init__(self, tasks, outcomes, max_retries: int, lock, cond):
        self.tasks = tasks
        self.outcomes = outcomes
        self.queue = deque(range(len(tasks)))
        self.attempts_left = [1 + max(0, max_retries)] * len(tasks)
        self.outstanding = 0
        self.lock = lock
        self.cond = cond

    @property
    def done(self) -> bool:
        return not self.queue and not self.outstanding

    def take(self):
        """Pop the next task index, counting it outstanding (locked)."""
        if not self.queue:
            return None
        index = self.queue.popleft()
        self.outstanding += 1
        self.outcomes[index].attempts += 1
        return index

    def settle(self, index: int, payload: str = None, error: str = None,
               state=None, obs=None) -> None:
        """A task attempt ended; re-queue, finalize, or crash (locked)."""
        outcome = self.outcomes[index]
        self.outstanding -= 1
        self.attempts_left[index] -= 1
        if payload is not None:
            outcome.payload = payload
            outcome.error = None
            if obs is not None:
                FleetSupervisor._absorb_state(obs, state)
        else:
            outcome.error = error
            if obs is not None:
                obs.counter("fleet.worker_deaths").inc()
            if self.attempts_left[index] > 0:
                self.queue.append(index)      # another worker will steal it
            elif obs is not None:
                # retries exhausted: the paper's bug-3 crash outcome,
                # identical to a died process under the local supervisor
                obs.counter("fleet.shards_crashed").inc()
                obs.emit("shard.crash", shard=index,
                         attempts=outcome.attempts, error=error or "")
        self.cond.notify_all()


class TcpWorkerPool:
    """Accepts remote workers and drives tasks through them.

    Args:
        host/port: listening address (port 0 picks a free port).
        heartbeat_timeout_s: a worker silent this long while owning a
            task is declared dead.
        max_retries: re-dispatches after the first attempt before a
            task is recorded as a crash outcome.
        grace_s: with tasks queued but **zero** connected workers, wait
            this long for one to join before crashing the remainder.
        progress: optional :class:`~repro.fleet.progress.FleetProgress`
            fed from remote heartbeats.
        on_beat: ``callable(ProgressSnapshot)`` for live renderers.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_timeout_s: float = 30.0, max_retries: int = 1,
                 grace_s: float = 30.0, progress=None, on_beat=None):
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_retries = max_retries
        self.grace_s = grace_s
        self.progress = progress
        self.on_beat = on_beat
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._run: _PoolRun = None
        self._closed = False
        self._live_workers = 0
        self._worker_seq = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen()
        self.host, self.port = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pool-accept", daemon=True)
        self._accept_thread.start()

    # -- worker intake -----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._server.accept()
            except OSError:
                return               # closed
            threading.Thread(target=self._serve_worker, args=(sock, addr),
                             name="pool-worker", daemon=True).start()

    def _serve_worker(self, sock, addr) -> None:
        obs = get_obs()
        try:
            sock.settimeout(self.heartbeat_timeout_s)
            join = read_frame_socket(sock)
            expect_kind(join, "join")
            if join.get("v") != PROTOCOL_VERSION:
                raise ProtocolError("worker speaks protocol %r, pool speaks "
                                    "%d" % (join.get("v"), PROTOCOL_VERSION))
        except Exception:
            sock.close()
            return
        with self._lock:
            self._worker_seq += 1
            self._live_workers += 1
            name = join.get("name") or "worker-%d" % self._worker_seq
            self._cond.notify_all()
        obs.emit("pool.worker.join", worker=name,
                 address="%s:%s" % (addr[0], addr[1]))
        obs.counter("pool.workers_joined").inc()
        try:
            self._work_loop(sock, name, obs)
        finally:
            with self._lock:
                self._live_workers -= 1
                self._cond.notify_all()
            sock.close()

    # -- dispatch ----------------------------------------------------------------------

    def _work_loop(self, sock, name: str, obs) -> None:
        """Serve one connected worker until it dies or the pool closes."""
        while True:
            with self._lock:
                while not self._closed and (
                        self._run is None or not self._run.queue):
                    self._cond.wait(0.2)
                if self._closed:
                    try:
                        write_frame_socket(sock, {"kind": "bye",
                                                  "reason": "close"})
                    except OSError:
                        pass
                    return
                run = self._run
                index = run.take()
                if index is None:
                    continue
            if not self._drive_task(sock, name, run, index, obs):
                return               # worker dead; task already settled

    def _drive_task(self, sock, name, run, index, obs) -> bool:
        """One task on one worker; returns False when the worker died."""
        task = run.tasks[index]
        message = {"kind": "task", "task_id": index}
        if isinstance(task, WorkerTask):
            message.update(type="shard", task=task_to_doc(task),
                           collect_metrics=task.collect_metrics)
        else:                # ("check", dump_text, model_name)
            message.update(type="check", dump=task[1], model=task[2])
        start = time.perf_counter()
        if self.progress is not None and isinstance(task, WorkerTask):
            self.progress.launch(index, task.iterations,
                                 run.outcomes[index].attempts)
        try:
            write_frame_socket(sock, message)
            while True:
                sock.settimeout(self.heartbeat_timeout_s)
                reply = read_frame_socket(sock)
                kind = expect_kind(reply, "heartbeat", "result")
                if kind == "heartbeat":
                    self._heartbeat(index, reply.get("progress") or {}, obs)
                    continue
                break
        except Exception as exc:     # timeout, disconnect, bad frame
            error = "remote worker %s died: %s" % (name, exc)
            obs.emit("pool.worker.dead", worker=name, task=index,
                     error="%s" % exc)
            with self._lock:
                run.settle(index, error=error, obs=obs)
            self._finish_progress(run, index)
            return False
        elapsed = time.perf_counter() - start
        ok = bool(reply.get("ok"))
        obs.emit("pool.task", task=index, worker=name,
                 type=message["type"], ok=ok, elapsed_s=elapsed)
        obs.histogram("fleet.shard_seconds").observe(elapsed)
        with self._lock:
            if ok:
                run.settle(index, payload=reply.get("payload"),
                           state=reply.get("state"), obs=obs)
            else:
                run.settle(index, error=reply.get("error") or "worker error",
                           obs=obs)
        self._finish_progress(run, index)
        return True

    def _heartbeat(self, index, payload, obs) -> None:
        obs.counter("fleet.heartbeats").inc()
        obs.emit("fleet.heartbeat", shard=index,
                 iterations_done=payload.get("iterations_done", 0),
                 iterations_total=payload.get("iterations_total", 0),
                 unique_signatures=payload.get("unique_signatures", 0),
                 crashes=payload.get("crashes", 0))
        if self.progress is not None:
            self.progress.heartbeat(index, payload)
            self.progress.record_gauges(obs)
            if self.on_beat is not None:
                self.on_beat(self.progress.snapshot())

    def _finish_progress(self, run, index) -> None:
        outcome = run.outcomes[index]
        settled = outcome.payload is not None or not run.attempts_left[index]
        if self.progress is None or not settled:
            return
        self.progress.finish(index, outcome.crashed)
        if self.on_beat is not None:
            self.on_beat(self.progress.snapshot())

    # -- the supervisor-shaped entry points --------------------------------------------

    def run(self, tasks: list) -> list[ShardOutcome]:
        """Drive every task through the connected workers.

        The remote twin of :meth:`FleetSupervisor.run`: never raises for
        worker failures — each exhausted task is its shard's crash
        outcome.  With zero workers connected, waits up to ``grace_s``
        for one to join before crashing the remainder.
        """
        iterations = [task.iterations if isinstance(task, WorkerTask) else 0
                      for task in tasks]
        outcomes = [ShardOutcome(index, count)
                    for index, count in enumerate(iterations)]
        if not tasks:
            return outcomes
        with self._lock:
            if self._run is not None:
                raise ProtocolError("pool already has a run in flight")
            run = self._run = _PoolRun(tasks, outcomes, self.max_retries,
                                       self._lock, self._cond)
            self._cond.notify_all()
            idle_since = time.monotonic()
            while not run.done:
                if self._live_workers or run.outstanding:
                    idle_since = time.monotonic()
                elif time.monotonic() - idle_since >= self.grace_s:
                    obs = get_obs()
                    while run.queue:   # no one left to steal the work
                        index = run.queue.popleft()
                        outcomes[index].attempts += 1
                        run.attempts_left[index] = 0
                        outcomes[index].error = "no remote workers connected"
                        obs.counter("fleet.shards_crashed").inc()
                        obs.emit("shard.crash", shard=index,
                                 attempts=outcomes[index].attempts,
                                 error=outcomes[index].error)
                    break
                self._cond.wait(0.1)
            self._run = None
        return outcomes

    def check_remote(self, dump_text: str, model: str = None):
        """Offload one campaign-dump check (the delta pipeline); returns
        the verdict digest (``{"summary", "violations", "unique"}``) or
        None on crash."""
        outcomes = self.run([("check", dump_text, model)])
        if outcomes[0].crashed:
            return None
        import json

        return json.loads(outcomes[0].payload)

    def wait_for_workers(self, count: int, timeout_s: float = 10.0) -> int:
        """Block until ``count`` workers are connected (or timeout)."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while self._live_workers < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(0.1, remaining))
            return self._live_workers

    @property
    def live_workers(self) -> int:
        with self._lock:
            return self._live_workers

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._cond.notify_all()
        try:
            self._server.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- the remote worker (device side) --------------------------------------------------


def _latest_progress(task: WorkerTask):
    """A progress callback + cell holding the latest beat payload."""
    cell = {}

    def beat(done, result):
        cell.update(iterations_done=done, iterations_total=task.iterations,
                    unique_signatures=result.unique_signatures,
                    crashes=result.crashes)

    return beat, cell


def _run_remote_task(message: dict) -> dict:
    """Execute one ``check`` task body (shard bodies run threaded)."""
    from repro.harness.runner import check_campaign_result
    from repro.io import _signature_to_list, load_campaign
    from repro.mcm import get_model

    result = load_campaign(message["dump"])
    model = get_model(message["model"]) if message.get("model") else None
    outcome = check_campaign_result(result, model=model, baseline=False,
                                    pipeline="delta")
    report = outcome.collective
    signatures = result.sorted_signatures()
    import json

    return {"ok": True, "payload": json.dumps({
        "summary": report.summary(),
        "violations": [_signature_to_list(signatures[v.index])
                       for v in report.violations],
        "unique": len(signatures)})}


def remote_worker_main(host: str, port: int, name: str = "",
                       tasks_limit: int = None) -> int:
    """Entry point of ``repro worker --connect HOST:PORT``.

    Dials the pool, joins, and serves tasks until the pool says ``bye``
    or the connection closes; returns the number of tasks served.
    ``shard`` tasks run in a thread while the main loop streams
    heartbeats every :data:`HEARTBEAT_INTERVAL_S`, so a hung shard is
    distinguishable from a live long one.
    """
    from repro import obs as obs_module
    from repro.io import dump_campaign

    sock = socket.create_connection((host, port))
    served = 0
    try:
        write_frame_socket(sock, {"kind": "join", "v": PROTOCOL_VERSION,
                                  "name": name})
        while tasks_limit is None or served < tasks_limit:
            try:
                message = read_frame_socket(sock)
            except (EOFError, OSError):
                break
            kind = expect_kind(message, "task", "bye")
            if kind == "bye":
                break
            reply = {"kind": "result", "task_id": message.get("task_id"),
                     "ok": False, "error": "", "payload": None,
                     "state": None}
            if message.get("type") == "check":
                try:
                    reply.update(_run_remote_task(message))
                except Exception as exc:
                    reply["error"] = "%s: %s" % (type(exc).__name__, exc)
            else:
                task = task_from_doc(message["task"])
                handle = (obs_module.enable() if task.collect_metrics
                          else obs_module.disable())
                beat, cell = _latest_progress(task)
                box = {}

                def body():
                    try:
                        box["result"] = execute_task(task, progress=beat)
                    except Exception as exc:
                        box["error"] = "%s: %s" % (type(exc).__name__, exc)

                thread = threading.Thread(target=body, daemon=True)
                thread.start()
                while thread.is_alive():
                    thread.join(HEARTBEAT_INTERVAL_S)
                    if thread.is_alive() and cell:
                        write_frame_socket(sock, {
                            "kind": "heartbeat",
                            "task_id": message.get("task_id"),
                            "progress": dict(cell)})
                if "result" in box:
                    result = box["result"]
                    if task.die_on_crash and result.crashes:
                        return served     # device death: vanish, no result
                    reply.update(ok=True, payload=dump_campaign(
                        result, include_ws=task.include_ws,
                        meta=task_meta(task)))
                    if task.collect_metrics:
                        reply["state"] = export_state(handle)
                else:
                    reply["error"] = box.get("error", "worker failed")
            write_frame_socket(sock, reply)
            served += 1
    finally:
        sock.close()
    return served
