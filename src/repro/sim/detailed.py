"""Detailed out-of-order core + MESI simulator (the gem5 stand-in).

Models the paper's Section 7 configuration: eight x86 (TSO) cores on a
4x2 mesh with a MESI directory protocol.  Each core has:

* an 8-entry LSQ window: operations dispatch in order, but **loads
  execute speculatively out of order** (each with a random execute
  delay);
* in-order commit; committed stores enter a FIFO store buffer that
  drains through the coherence protocol (obtaining M state per line);
* LSQ store-to-load forwarding;
* the x86 memory-ordering safeguard: an invalidation squashes every
  speculatively-executed but uncommitted load to the invalidated line,
  forcing re-execution.  The injected bugs of :mod:`repro.sim.faults`
  disable exactly this safeguard (entirely, or only during S->M
  upgrades), reproducing the paper's load->load violations; bug 3
  instead crashes the protocol on a writeback race.

The executor exposes the same interface as
:class:`repro.sim.executor.OperationalExecutor`, so
:class:`repro.harness.Campaign` can drive it unchanged.  It models
neither OS perturbation nor barrier rendezvous, and rejects both.

One iteration is one inline event loop over a fresh
:class:`~repro.sim.coherence.CoherentSystem`: pop the earliest
``(time, seq, fn, args)`` entry, set ``events.now``, call, count.  The
core reads flat per-thread op tuples built once per executor, and its
events go straight onto the queue's heap.  Executions stay those of the
plain ``EventQueue.schedule`` formulation because:

* the RNG is drawn in the same order: one draw per scheduled core event
  and per mesh message, at the moment it is scheduled (an LSQ-full
  dispatch retry is an event with its own draw);
* ties break on ``(time, seq)``, with every producer taking ``seq``
  from the queue's one counter;
* event times keep their float expressions: ``now + delay`` for core
  events and ``now + (arrival - now)`` for mesh deliveries;
* every message and store commit goes through ``Mesh.send`` and
  ``CoherentSystem.record_store``, looked up on the instance, so a
  :class:`~repro.sim.tracing.ProtocolTracer` sees all of them.

``tests/test_sim_detailed_digests.py`` pins every execution field, the
squash and event counts, and one traced message history.
"""

from __future__ import annotations

import random
from functools import partial
from heapq import heappop, heappush

from repro.errors import ExecutionError, ProtocolCrash
from repro.isa.instructions import INIT, INIT_VALUE, OpKind
from repro.isa.layout import MemoryLayout
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.sim.coherence import CoherentSystem, EventQueue
from repro.sim.execution import (
    Execution,
    ExecutionCounters,
    record_execution_metrics,
)
from repro.sim.faults import FaultConfig, NO_FAULT
from repro.sim.platform import GEM5_X86_8CORE, Platform

_WAIT, _ISSUED, _DONE = 0, 1, 2
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_BARRIER = OpKind.BARRIER


def _stuck_state(cores, system) -> str:
    """Diagnostic snapshot for livelock/deadlock crash reports."""
    parts = []
    for core in cores:
        if core.finished:
            continue
        head = core.lsq[0] if core.lsq else None
        head_desc = ("%s status=%d line=%s" % (head.op.describe(), head.status,
                                               head.line)) if head else "-"
        cache_lines = {line: entry.state
                       for line, entry in system.caches[core.tid].lines.items()
                       if entry.state != "I"}
        parts.append("core%d: lsq=%d sb=%d head[%s] lines=%s"
                     % (core.tid, len(core.lsq), len(core.sb), head_desc, cache_lines))
    busy = [(d.index, line, e.state, e.request_kind, e.acks_needed)
            for d in system.dirs for line, e in d.lines.items() if e.busy]
    parts.append("busy-dirs=%s" % busy)
    return "; ".join(parts)


class _LsqEntry:
    """One LSQ slot, unpacked from a flat op ``(kind, addr, value, uid,
    line, op)``.  ``value`` is a store's value from dispatch on, and a
    load's value once it completes; ``line`` is None for barriers."""

    __slots__ = ("kind", "addr", "value", "uid", "line", "op", "status",
                 "forwarded")

    def __init__(self, flat):
        (self.kind, self.addr, self.value, self.uid, self.line,
         self.op) = flat
        self.status = _WAIT
        self.forwarded = False


class _Core:
    __slots__ = ("tid", "ops", "next_dispatch", "lsq", "sb", "draining",
                 "finished", "args")

    def __init__(self, tid, ops):
        self.tid = tid
        self.ops = ops          # flat op tuples, in program order
        self.next_dispatch = 0
        self.lsq = []
        self.sb = []            # (line, addr, value) in program order
        self.draining = False
        self.finished = False
        self.args = (self,)     # the event arguments of dispatch/drain_sb


class DetailedExecutor:
    """Runs a test on the detailed MESI simulator.

    Args:
        program: test to run (threads are mapped 1:1 onto cores).
        faults: bug injection / cache sizing (see :class:`FaultConfig`).
        lsq_size: LSQ window entries per core.
        layout: word->line mapping (``words_per_line`` intensifies the
            line contention the injected bugs need, per paper Table 3).

    Other parameters mirror :class:`OperationalExecutor` for harness
    compatibility; the memory model is always TSO (x86).  The simulator
    models neither OS perturbation nor barrier rendezvous, so an
    ``os_model`` or ``sync_barriers=True`` raises :class:`ExecutionError`
    rather than being dropped.
    """

    def __init__(self, program: TestProgram, model: MemoryModel = None,
                 platform: Platform = None, *, seed: int = 0,
                 instrumentation: str = None, codec=None,
                 layout: MemoryLayout = None, os_model=None,
                 sync_barriers: bool = False, faults: FaultConfig = NO_FAULT,
                 lsq_size: int = 8):
        platform = platform or GEM5_X86_8CORE
        if program.num_threads > platform.num_cores:
            raise ExecutionError("%d test threads exceed %d cores"
                                 % (program.num_threads, platform.num_cores))
        if model is not None and model.name != "tso":
            raise ExecutionError("the detailed simulator models x86-TSO only")
        if os_model is not None:
            raise ExecutionError("the detailed simulator has no OS model")
        if sync_barriers:
            raise ExecutionError("the detailed simulator has no barrier "
                                 "rendezvous (sync_barriers)")
        self.program = program
        self.platform = platform
        self.faults = faults
        self.lsq_size = lsq_size
        self.codec = codec
        self.instrumentation = instrumentation
        self.rng = random.Random(seed)
        self.layout = layout or MemoryLayout(program.num_addresses, 1)
        self._value_to_uid = {op.value: op.uid for op in program.stores}
        #: loaded value -> rf source (INIT for the initial value)
        self._sources = dict(self._value_to_uid)
        self._sources[INIT_VALUE] = INIT
        line_of = self.layout.line_of
        #: (tid, flat ops) per thread; a flat op is (kind, addr, value,
        #: uid, line, op), with line None for barriers
        self._threads = [
            (tp.thread, tuple(
                (op.kind, op.addr, op.value, op.uid,
                 None if op.addr is None else line_of(op.addr), op)
                for op in tp.ops))
            for tp in program.threads]
        self._squashed_loads = 0
        self._events_processed = 0

    # -- public API ----------------------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the RNG stream; per-iteration state is rebuilt anyway."""
        self.rng.seed(seed)

    def run_one(self) -> Execution:
        """Execute one iteration; returns a crashed Execution on bug 3."""
        self._squashed_loads = 0
        self._events_processed = 0
        try:
            execution = self._simulate()
        except ProtocolCrash:
            execution = Execution({}, {}, ExecutionCounters(), crashed=True)
        obs = get_obs()
        if obs.enabled:
            record_execution_metrics(obs, "sim.detailed", execution)
            metrics = obs.metrics
            metrics.counter("sim.detailed.events_processed").inc(
                self._events_processed)
            metrics.counter("sim.detailed.load_squashes").inc(
                self._squashed_loads)
        return execution

    def run(self, iterations: int):
        for _ in range(iterations):
            yield self.run_one()

    # -- simulation ------------------------------------------------------------------

    def _simulate(self) -> Execution:
        events = EventQueue()
        system = CoherentSystem(self.platform.num_cores, self.rng, events,
                                self.faults)
        draw = self.rng.random
        heap = events._heap
        seq = events._seq
        caches = system.caches
        lsq_size = self.lsq_size
        sources = self._sources
        cores = [_Core(tid, ops) for tid, ops in self._threads]
        rf: dict[int, object] = {}
        counters = ExecutionCounters()
        max_events = 2000 * max(1, self.program.num_ops) + 10000
        processed = 0

        # Every event time below is ``events.now + delay`` with the delay
        # expression EventQueue.schedule was given, and every push takes
        # the queue's next sequence number: the RNG draws, float sums and
        # (time, seq) tie-breaks are the scheduler's own.

        def dispatch(core: _Core) -> None:
            index = core.next_dispatch
            ops = core.ops
            if index >= len(ops):
                return
            lsq = core.lsq
            if len(lsq) >= lsq_size:
                heappush(heap, (events.now + (1.0 + draw()), next(seq),
                                dispatch, core.args))
                return
            core.next_dispatch = index + 1
            entry = _LsqEntry(ops[index])
            lsq.append(entry)
            if entry.kind is _LOAD:
                heappush(heap, (events.now + (0.5 + draw() * 6.0),
                                next(seq), issue_load, (core, entry)))
            else:
                entry.status = _DONE   # stores/barriers are ready at dispatch
                try_commit(core)
            heappush(heap, (events.now + (1.0 + draw() * 0.2), next(seq),
                            dispatch, core.args))

        def issue_load(core: _Core, entry: _LsqEntry) -> None:
            # a waiting entry is always in the LSQ: entries leave it only
            # by committing, which needs _DONE, and a squash re-arms only
            # entries still in it
            if entry.status != _WAIT:
                return
            addr = entry.addr
            lsq = core.lsq
            # LSQ + store-buffer forwarding: youngest older same-address store
            for other in reversed(lsq[:lsq.index(entry)]):
                if other.addr == addr and other.kind is _STORE:
                    entry.value = other.value
                    entry.status = _DONE
                    entry.forwarded = True
                    try_commit(core)
                    return
            for line, sb_addr, value in reversed(core.sb):
                if sb_addr == addr:
                    entry.value = value
                    entry.status = _DONE
                    entry.forwarded = True
                    try_commit(core)
                    return
            entry.status = _ISSUED
            counters.test_accesses += 1
            caches[core.tid].load(entry.line, addr,
                                  partial(complete_load, core, entry))

        def complete_load(core: _Core, entry: _LsqEntry, value: int) -> None:
            if entry.status != _ISSUED:
                return
            entry.value = value
            entry.status = _DONE
            try_commit(core)

        def try_commit(core: _Core) -> None:
            lsq = core.lsq
            while lsq:
                entry = lsq[0]
                kind = entry.kind
                if kind is _BARRIER:
                    if core.sb:
                        return          # mfence: wait for the SB to drain
                    lsq.pop(0)
                    continue
                if kind is _STORE:
                    lsq.pop(0)
                    core.sb.append((entry.line, entry.addr, entry.value))
                    if not core.draining:
                        core.draining = True
                        # stores linger in the buffer: this window is what
                        # lets TSO loads overtake them (store buffering)
                        heappush(heap, (events.now + (4.0 + draw() * 10.0),
                                        next(seq), drain_sb, core.args))
                    continue
                if entry.status != _DONE:
                    return
                try:
                    rf[entry.uid] = sources[entry.value]
                except KeyError:
                    raise ExecutionError("load observed unknown value %d"
                                         % entry.value) from None
                lsq.pop(0)
            if core.next_dispatch >= len(core.ops) and not core.sb:
                core.finished = True

        def drain_sb(core: _Core) -> None:
            if not core.sb:
                core.draining = False
                try_commit(core)
                return
            line, addr, value = core.sb[0]
            counters.test_accesses += 1
            caches[core.tid].store(line, addr, value,
                                   partial(store_done, core))

        def store_done(core: _Core) -> None:
            core.sb.pop(0)
            heappush(heap, (events.now + (1.0 + draw() * 3.0), next(seq),
                            drain_sb, core.args))

        # wire invalidation squash from each L1 into its core's LSQ
        for core in cores:
            caches[core.tid].on_inv = self._squasher(core, issue_load, events)
        for core in cores:
            heappush(heap, (events.now + draw() * 2.0, next(seq),
                            dispatch, core.args))

        # the event loop: EventQueue.run_next inline; an event that raises
        # (a bug-3 crash) is not counted
        try:
            while heap:
                events.now, _, fn, args = heappop(heap)
                fn(*args)
                processed += 1
                if processed > max_events:
                    raise ProtocolCrash("protocol livelock: event budget exhausted; %s"
                                        % _stuck_state(cores, system))
        finally:
            self._events_processed = processed
        if not all(core.finished for core in cores):
            raise ProtocolCrash("protocol deadlock: %s"
                                % _stuck_state(cores, system))

        value_to_uid = self._value_to_uid
        ws = {addr: [value_to_uid[v] for v in chain]
              for addr, chain in system.store_order.items()}
        for addr in range(self.program.num_addresses):
            ws.setdefault(addr, [])
        counters.base_cycles = events.now
        return Execution(rf, ws, counters)

    # -- helpers ----------------------------------------------------------------------

    def _squasher(self, core: _Core, issue_load, events: EventQueue):
        """The x86 LSQ invalidation rule for one core.

        Re-executes every speculatively-completed, uncommitted load whose
        line was invalidated (unless its value came from forwarding, which
        cannot be stale).  The fault configuration decides whether this
        callback is invoked at all (bugs 1 and 2 suppress it).
        """
        lsq = core.lsq
        heap = events._heap
        seq = events._seq
        draw = self.rng.random

        def squash(line: int) -> None:
            for entry in lsq:
                if (entry.line == line and entry.kind is _LOAD
                        and entry.status == _DONE and not entry.forwarded):
                    entry.status = _WAIT
                    entry.value = None
                    self._squashed_loads += 1
                    heappush(heap, (events.now + (0.5 + draw()), next(seq),
                                    issue_load, (core, entry)))
        return squash
