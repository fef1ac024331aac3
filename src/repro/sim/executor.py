"""Fast operational executor — the stand-in for the paper's silicon.

Executes a test program under an operational formulation of the target
MCM, producing non-deterministic but *model-compliant* interleavings:

* **SC** — one global memory; threads take turns completing operations.
* **TSO** — per-thread FIFO store buffers with store-to-load forwarding;
  stores drain to memory asynchronously (the x86-TSO abstract machine).
* **weak** — a bounded per-thread reorder window; any pending operation
  may complete as long as per-location coherence order and barriers are
  respected (RMO-style).

Scheduling is *timing-driven*: every action has a latency drawn from the
cache-line contention model, and the thread with the earliest clock acts
next.  Contention (including false sharing) therefore shapes the observed
interleavings exactly as it does on hardware (paper Sections 2 and 6.1).

The executor also charges the instrumentation's runtime costs:

* ``signature`` mode walks each load's compare/branch chain (cost grows
  with the observed candidate index; a per-site last-value branch
  predictor makes repeated patterns nearly free — paper Section 6.2), and
  stores the signature words at the end of the run;
* ``flush`` mode (the register-flushing baseline [24]) issues one extra
  log store after every load, perturbing timing and contending for store
  bandwidth.

One loop per machine
--------------------

Each machine is a single loop over flat ``(kind, addr, uid)`` op tuples
built once per executor.  One step picks a thread and performs one
action for it:

* **Thread pick.**  ``runnable`` lists, in ascending order, the threads
  not parked at a sync barrier that still hold ops or buffered entries.
  It shrinks when a thread runs dry and is rebuilt only when a
  rendezvous releases its waiters.  The earliest clock wins (the lowest
  thread on a tie); ``uniform_random`` replaces this with
  ``rng.choice(runnable)``.
* **Weak window pick.**  The oldest window entry is always eligible, so
  a thread can complete something exactly when its window is non-empty.
  The entry to complete is chosen oldest-first: the loop draws once per
  eligible entry it passes over, never for the last eligible one, and
  scans for the next eligible entry only after a draw rejects the
  current one — the RNG use of ``_pick_eligible(_eligible(window))``.
* **Latency.**  An access reads its base latency and its line's next
  state from its thread's load or store memo, ``memo[lines[line_of[addr]]]``.
  The memos and line states belong to the contention model, the one
  place the rule is written (:mod:`repro.sim.contention`); no access
  calls into it.  The jitter and hiccup draws follow inline, exactly as
  ``ContentionModel._scaled`` makes them: ``extra = random() * jitter *
  base``, a hiccup draw only when ``hiccup_prob`` is set (and one more
  when it hits), then ``(base + extra) * speed``.  That draw order and
  those float expressions keep the executions identical to ones priced
  by ``load_latency``/``store_latency``.  :class:`UniformModel` offers
  the same tables with unit latencies and ``noisy`` False: no draws.
* **Instrumentation.**  A signature-mode load charges ``index + 1``
  compare/branch pairs, plus a mispredict penalty when its site's last
  index differs.  A source outside the candidate set runs the whole
  chain into its assertion tail (paper Figure 4's "assert error"): it
  counts an assert error and leaves the predictor alone, since the
  iteration aborts into the error handler.  A flush-mode load charges
  one jittered private log store.  Both add to the thread's
  instrumentation clock, from which :meth:`OperationalExecutor._finish`
  derives ``instrumentation_cycles``.
* **Where the options act.**  An :class:`OSModel` perturbs every
  latency just before it is charged to the clock.  ``sync_barriers``
  acts when a barrier completes (:meth:`OperationalExecutor._arrive`).
  A fault plane is consulted at the action it corrupts — the TSO
  barrier and drain, the store-buffer forward, each load's memory read —
  and, on the weak machine, at every window decision, which then builds
  the full eligible list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.isa.instructions import INIT, OpKind
from repro.isa.layout import MemoryLayout
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.sim.contention import ContentionModel, LatencyConfig, UniformModel
from repro.sim.execution import (
    Execution,
    ExecutionCounters,
    record_execution_metrics as _record_execution_metrics,
)
from repro.sim.os_model import OSModel
from repro.sim.platform import Platform, platform_for_isa

#: cycles per compare+branch pair in the instrumented chain
_BRANCH_COST = 1.0
#: penalty for a mispredicted instrumentation branch
_MISPREDICT_PENALTY = 14.0
#: cycles to fetch one operation into the weak model's reorder window
_FETCH_COST = 0.5

_STORE = OpKind.STORE
_BARRIER = OpKind.BARRIER


@dataclass(frozen=True)
class Tuning:
    """Micro-architectural behaviour knobs of the operational machines.

    The defaults are calibrated (see EXPERIMENTS.md) so that the unique-
    interleaving counts across the paper's 21 test configurations follow
    Figure 8's shape: near-deterministic two-threaded runs, nearly
    all-unique seven-threaded runs, higher diversity on the weakly-ordered
    platform than on TSO, and more diversity under false sharing.
    """

    #: probability the TSO machine drains a store-buffer entry when it
    #: could also issue the next instruction
    drain_prob: float = 0.85
    #: probability the weak machine fetches (vs completing) when both are
    #: possible
    fetch_prob: float = 0.6
    #: geometric bias towards completing the *oldest* eligible window
    #: entry; 1.0 makes the weak machine fully in-order, lower values
    #: reorder more aggressively
    in_order_bias: float = 0.9
    #: start-of-iteration skew between threads, cycles (barrier release)
    start_skew: float = 0.5


DEFAULT_TUNING = Tuning()


class OperationalExecutor:
    """Runs a test program repeatedly, yielding :class:`Execution` results.

    Args:
        program: the test to execute.
        model: memory model to comply with (defaults to the platform's).
        platform: system under validation (defaults by heuristic to the
            ARM platform; pass one of :mod:`repro.sim.platform`'s presets).
        seed: RNG seed; one stream drives the whole run.
        instrumentation: ``None``, ``"signature"`` or ``"flush"``.
        codec: :class:`repro.instrument.SignatureCodec`, required for
            ``"signature"`` mode (provides candidate orders and word counts).
        layout: word->line mapping; defaults to one word per line.
        uniform_random: ignore timing and pick uniformly among ready
            threads (the paper's SC limit-study simulator, Section 4.1).
        os_model: optional :class:`OSModel` for the Linux perturbation runs.
        sync_barriers: treat barriers as global rendezvous points in
            addition to their local ordering effect (used for regularized
            programs; requires equal barrier counts across threads).
        plane: optional :class:`repro.mutate.FaultPlane` arming named
            fault points (see below); ``None`` (the default) leaves every
            machine exactly model-compliant — no extra RNG draws, no
            behavioural change, byte-identical executions.

    Fault points (consulted only when a plane arms them):

    * ``tso.sb_reorder`` — the TSO store buffer drains a younger entry
      ahead of the oldest (non-FIFO drain).
    * ``fence.drop`` — a barrier retires without its ordering effect:
      the TSO machine stops waiting for the store buffer to drain, the
      weak machine lets pending accesses complete across the barrier.
    * ``mem.stale_read`` — a load that misses the store buffer returns
      the *previous* write to its address instead of the newest one
      (stale coherence read).
    * ``weak.window_escape`` — the weak machine's reorder window stops
      enforcing per-location coherence: a younger same-address access
      may complete before an older pending one.
    * ``tso.sb_forward_alias`` — the store-to-load forwarding CAM
      matches on the cache-line tag instead of the full address and
      forwards a same-line different-word store's value (wrong-value
      bypass; needs a layout with ``words_per_line > 1`` to have
      opportunities).
    """

    def __init__(self, program: TestProgram, model: MemoryModel = None,
                 platform: Platform = None, *, seed: int = 0,
                 instrumentation: str = None, codec=None,
                 layout: MemoryLayout = None, uniform_random: bool = False,
                 os_model: OSModel = None, sync_barriers: bool = False,
                 latency: LatencyConfig = None, tuning: Tuning = DEFAULT_TUNING,
                 plane=None):
        if platform is None:
            platform = platform_for_isa("x86" if (model and model.name == "tso") else "arm")
        self.program = program
        self.platform = platform
        self.model = model if model is not None else platform.memory_model
        if self.model.name not in ("sc", "tso", "weak"):
            raise ExecutionError("unsupported memory model %r" % self.model.name)
        if instrumentation not in (None, "signature", "flush"):
            raise ExecutionError("unknown instrumentation mode %r" % (instrumentation,))
        if instrumentation == "signature" and codec is None:
            raise ExecutionError("signature instrumentation requires a codec")
        self.instrumentation = instrumentation
        self.codec = codec
        self.rng = random.Random(seed)
        self.uniform_random = uniform_random
        self.os_model = os_model
        self.sync_barriers = sync_barriers
        self.tuning = tuning
        self.plane = plane
        if plane is not None:
            plane.reseed(seed)
        if layout is None:
            layout = MemoryLayout(program.num_addresses, 1)
        if layout.num_words < program.num_addresses:
            raise ExecutionError("the layout holds %d words; the program uses %d"
                                 % (layout.num_words, program.num_addresses))
        self._layout = layout
        if uniform_random:
            self.contention = UniformModel(layout)
        else:
            self.contention = ContentionModel(
                layout, self.rng, latency or platform.latency,
                core_speed=platform.thread_speeds(program.num_threads))
        # what the loops read to apply the latency rule with no call per
        # access: the addr -> line list, the line states, per thread its
        # load and store memos and its speed, and the jitter parameters
        contention, threads = self.contention, range(program.num_threads)
        memos = [contention.memos(t) for t in threads]
        self._latency = (contention.line_of, contention.lines,
                         [loads for loads, _ in memos],
                         [stores for _, stores in memos],
                         [contention.core_speed.get(t, 1.0) for t in threads])
        cfg = contention.config
        self._noise = (contention.noisy, cfg.jitter, cfg.hiccup_prob,
                       cfg.hiccup_cycles, cfg.private_store)
        # per-load-site branch predictor state: last observed candidate index
        self._predictor: dict[int, int] = {}
        cand_index: dict[tuple, int] = {}
        chain_len: dict[int, int] = {}
        if codec is not None:
            for table in codec.tables:
                for slot in table.slots:
                    chain_len[slot.uid] = len(slot.candidates)
                    for i, src in enumerate(slot.candidates):
                        cand_index[(slot.uid, src)] = i
        # what the loops read to charge each load's instrumentation
        self._instrument = (instrumentation == "signature",
                            instrumentation == "flush",
                            cand_index, chain_len, self._predictor)
        #: per thread, its ops as flat ``(kind, addr, uid)`` tuples
        self._threads = [[(op.kind, op.addr, op.uid) for op in tp.ops]
                         for tp in program.threads]
        self._lens = [len(ops) for ops in self._threads]

    # -- public API -------------------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the RNG stream and cross-iteration predictor state.

        All other mutable state (contention line ownership, store
        buffers, windows) is rebuilt per iteration, so after a reseed
        the executor behaves exactly like a freshly constructed one —
        the property the fleet's seed-block scheme relies on.
        """
        self.rng.seed(seed)
        self._predictor.clear()
        if self.plane is not None:
            self.plane.reseed(seed)

    def run_one(self) -> Execution:
        """Execute one iteration of the test."""
        if self.model.name == "tso":
            execution = self._run_tso()
        elif self.model.name == "weak":
            execution = self._run_weak()
        else:
            execution = self._run_sc()
        obs = get_obs()
        if obs.enabled:
            _record_execution_metrics(obs, "sim.executor", execution)
        return execution

    def run(self, iterations: int):
        """Yield :class:`Execution` results for ``iterations`` runs."""
        for _ in range(iterations):
            yield self.run_one()

    # -- shared helpers -----------------------------------------------------------

    def _fresh_state(self):
        self.contention.reset()
        rng = self.rng
        n = self.program.num_threads
        clocks = [rng.random() * self.tuning.start_skew for _ in range(n)]
        return ({}, {addr: [] for addr in range(self.program.num_addresses)}, clocks)

    def _runnable(self, pcs, bufs, waiting) -> list[int]:
        """Threads that may act: not parked, with ops or buffered entries left."""
        lens = self._lens
        return [t for t in range(len(lens))
                if t not in waiting and (pcs[t] < lens[t] or bufs[t])]

    def _finish(self, counters: ExecutionCounters, base_clocks, instr_clocks) -> None:
        """Charge end-of-run signature stores and close the accounting."""
        if self.instrumentation == "signature":
            for tid, table in enumerate(self.codec.tables):
                for _ in range(table.num_words):
                    instr_clocks[tid] += self.contention.private_store_latency(tid)
                    counters.extra_accesses += 1
        base = max(base_clocks) if base_clocks else 0.0
        total = max(b + i for b, i in zip(base_clocks, instr_clocks)) if base_clocks else 0.0
        counters.base_cycles = base
        counters.instrumentation_cycles = max(0.0, total - base)

    # -- fault-point helpers (consulted only when a plane arms them) -------------

    def _alias_forward(self, sb, addr: int, plane):
        """``tso.sb_forward_alias``: forward a same-line, different-word
        buffered store to a load that missed the buffer.

        Models a forwarding CAM that compares line tags instead of full
        addresses — the load receives another word's value, which can
        never be in its candidate set, so the instrumented compare/branch
        chain's assertion tail catches it (the "assert error" detection
        channel).
        """
        line_of = self._layout.line_of
        line = line_of(addr)
        for entry_addr, uid in reversed(sb):
            if entry_addr != addr and line_of(entry_addr) == line:
                if plane.fires("tso.sb_forward_alias"):
                    return uid
                return None
        return None

    def _stale_read(self, chain, newest, plane):
        """``mem.stale_read``: return the previous write to the address.

        Models a core reading a stale cached copy after losing an
        invalidation: the returned value is the one the address held
        *before* its newest store (INIT when only one store reached
        memory).  No opportunity is counted while the address is still
        at INIT — there is nothing stale to read.
        """
        if not chain:
            return newest
        if not plane.fires("mem.stale_read"):
            return newest
        return chain[-2] if len(chain) >= 2 else INIT

    # -- TSO machine ---------------------------------------------------------------

    def _run_tso(self) -> Execution:
        memory, ws, clocks = self._fresh_state()
        counters = ExecutionCounters()
        instr_clocks = [0.0] * len(clocks)
        rf: dict[int, object] = {}
        threads, lens = self._threads, self._lens
        pcs = [0] * len(threads)
        sbs: list[list] = [[] for _ in threads]   # entries: (addr, uid)
        arrived = [0] * len(threads)
        waiting: set[int] = set()
        runnable = self._runnable(pcs, sbs, waiting)
        rng, os_model, plane = self.rng, self.os_model, self.plane
        random = rng.random
        uniform, sync = self.uniform_random, self.sync_barriers
        window, drain_prob = self.platform.window_size, self.tuning.drain_prob
        line_of, lines, loads, stores, speeds = self._latency
        noisy, jitter, hiccup_prob, hiccup_cycles, private_store = self._noise
        signature, flush, cand_index, chain_len, predictor = self._instrument
        fence_drop = plane is not None and plane.arms("fence.drop")
        sb_reorder = plane is not None and plane.arms("tso.sb_reorder")
        alias_forward = plane is not None and plane.arms("tso.sb_forward_alias")
        stale_read = plane is not None and plane.arms("mem.stale_read")

        while True:
            if not runnable:
                if not waiting:
                    break
                waiting.clear()  # all remaining threads wait at the final barrier
                runnable = self._runnable(pcs, sbs, waiting)
                continue
            if uniform:
                t = rng.choice(runnable)
            else:
                t = runnable[0]
                best = clocks[t]
                for u in runnable:
                    if clocks[u] < best:
                        t, best = u, clocks[u]
            sb, pc = sbs[t], pcs[t]

            if pc == lens[t]:
                drain = True
            else:
                kind, addr, uid = threads[t][pc]
                if kind is _BARRIER:
                    drain = bool(sb) and not (fence_drop and plane.fires("fence.drop"))
                    if not drain:
                        # the buffer is empty, or fence.drop retires the
                        # barrier with stores still buffered — its
                        # store->load ordering effect is lost
                        pcs[t] = pc + 1
                        clocks[t] += 1.0
                        if sync:
                            runnable = self._arrive(t, arrived, pcs, sbs, waiting,
                                                    clocks, runnable)
                        elif not sb and pc + 1 == lens[t]:
                            runnable.remove(t)
                        continue
                else:
                    drain = bool(sb) and (len(sb) >= window
                                          or random() < drain_prob)

            if drain:
                if sb_reorder and len(sb) > 1 and plane.fires("tso.sb_reorder"):
                    # non-FIFO drain: a younger buffered store reaches
                    # memory ahead of the oldest one
                    addr, uid = sb.pop(1 + plane.pick_index(len(sb) - 1))
                else:
                    addr, uid = sb.pop(0)
                memory[addr] = uid
                ws[addr].append(uid)
                line = line_of[addr]
                latency, lines[line] = stores[t][lines[line]]
                if noisy:
                    extra = random() * jitter * latency
                    if hiccup_prob and random() < hiccup_prob:
                        extra += hiccup_cycles * (0.5 + random())
                    latency = (latency + extra) * speeds[t]
                if not sb and pc == lens[t]:
                    runnable.remove(t)
            else:
                pcs[t] = pc + 1
                counters.test_accesses += 1
                if kind is _STORE:
                    sb.append((addr, uid))
                    latency = 1.0 + random()
                else:
                    source = None
                    for entry_addr, entry_uid in reversed(sb):
                        if entry_addr == addr:
                            source = entry_uid
                            break
                    if source is None and alias_forward:
                        source = self._alias_forward(sb, addr, plane)
                    if source is not None:
                        latency = 2.0 + random()     # store-to-load forwarding
                    else:
                        source = memory.get(addr, INIT)
                        if stale_read:
                            source = self._stale_read(ws[addr], source, plane)
                        line = line_of[addr]
                        latency, lines[line] = loads[t][lines[line]]
                        if noisy:
                            extra = random() * jitter * latency
                            if hiccup_prob and random() < hiccup_prob:
                                extra += hiccup_cycles * (0.5 + random())
                            latency = (latency + extra) * speeds[t]
                    rf[uid] = source
                    if signature:
                        index = cand_index.get((uid, source))
                        if index is None:
                            counters.assert_errors += 1
                            instr_clocks[t] += ((chain_len.get(uid, 0) + 1) * _BRANCH_COST
                                                + _MISPREDICT_PENALTY)
                        else:
                            cost = (index + 1) * _BRANCH_COST
                            if index != predictor.get(uid, 0):
                                cost += _MISPREDICT_PENALTY
                                counters.branch_mispredicts += 1
                            predictor[uid] = index
                            instr_clocks[t] += cost
                    elif flush:
                        counters.extra_accesses += 1
                        cost = private_store
                        if noisy:
                            extra = random() * jitter * cost
                            if hiccup_prob and random() < hiccup_prob:
                                extra += hiccup_cycles * (0.5 + random())
                            cost = (cost + extra) * speeds[t]
                        instr_clocks[t] += cost
                    if not sb and pc + 1 == lens[t]:
                        runnable.remove(t)
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency

        self._finish(counters, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    # -- weak-ordering machine --------------------------------------------------------

    def _run_weak(self) -> Execution:
        memory, ws, clocks = self._fresh_state()
        counters = ExecutionCounters()
        instr_clocks = [0.0] * len(clocks)
        rf: dict[int, object] = {}
        threads, lens = self._threads, self._lens
        pcs = [0] * len(threads)
        windows: list[list] = [[] for _ in threads]   # entries: op tuples
        arrived = [0] * len(threads)
        waiting: set[int] = set()
        runnable = self._runnable(pcs, windows, waiting)
        rng, os_model, plane = self.rng, self.os_model, self.plane
        random = rng.random
        uniform, sync = self.uniform_random, self.sync_barriers
        capacity = self.platform.window_size
        fetch_prob, bias = self.tuning.fetch_prob, self.tuning.in_order_bias
        line_of, lines, loads, stores, speeds = self._latency
        noisy, jitter, hiccup_prob, hiccup_cycles, private_store = self._noise
        signature, flush, cand_index, chain_len, predictor = self._instrument
        stale_read = plane is not None and plane.arms("mem.stale_read")

        while True:
            if not runnable:
                if not waiting:
                    break
                waiting.clear()  # all remaining threads wait at the final barrier
                runnable = self._runnable(pcs, windows, waiting)
                continue
            if uniform:
                t = rng.choice(runnable)
            else:
                t = runnable[0]
                best = clocks[t]
                for u in runnable:
                    if clocks[u] < best:
                        t, best = u, clocks[u]
            win, pc = windows[t], pcs[t]

            # Without a plane the oldest entry is always eligible, so the
            # window can complete something exactly when it is non-empty.
            eligible = None
            if plane is None:
                blocked = not win
            else:
                eligible = self._eligible(win)
                if win:
                    eligible = self._mutated_eligible(win, eligible, plane)
                blocked = not eligible
            if pc < lens[t] and len(win) < capacity \
                    and (blocked or random() < fetch_prob):
                win.append(threads[t][pc])
                pcs[t] = pc + 1
                clocks[t] += _FETCH_COST
                continue
            if blocked:
                # A non-empty window always has an eligible entry (the
                # oldest op or barrier), and an empty window with pending
                # ops allows a fetch unless the platform's window holds
                # nothing; anything else is a logic error.
                raise ExecutionError("weak machine wedged on thread %d" % t)

            if eligible is not None:
                pick = self._pick_eligible(eligible)
            else:
                # lazy _pick_eligible(_eligible(win)): draw for an eligible
                # entry only once a younger eligible entry turns up
                pick = 0
                if len(win) > 1 and win[0][0] is not _BARRIER:
                    seen = {win[0][1]}
                    for j in range(1, len(win)):
                        kind, addr, _ = win[j]
                        if kind is _BARRIER:
                            break
                        if addr not in seen:
                            if random() < bias:
                                break
                            pick = j
                            seen.add(addr)
            kind, addr, uid = win.pop(pick)
            if kind is _BARRIER:
                clocks[t] += 1.0
                if sync:
                    runnable = self._arrive(t, arrived, pcs, windows, waiting,
                                            clocks, runnable)
                elif not win and pc == lens[t]:
                    runnable.remove(t)
                continue
            if not win and pc == lens[t]:
                runnable.remove(t)
            counters.test_accesses += 1
            if kind is _STORE:
                memory[addr] = uid
                ws[addr].append(uid)
                memo = stores[t]
            else:
                source = memory.get(addr, INIT)
                if stale_read:
                    source = self._stale_read(ws[addr], source, plane)
                rf[uid] = source
                memo = loads[t]
            line = line_of[addr]
            latency, lines[line] = memo[lines[line]]
            if noisy:
                extra = random() * jitter * latency
                if hiccup_prob and random() < hiccup_prob:
                    extra += hiccup_cycles * (0.5 + random())
                latency = (latency + extra) * speeds[t]
            if kind is not _STORE:
                if signature:
                    index = cand_index.get((uid, source))
                    if index is None:
                        counters.assert_errors += 1
                        instr_clocks[t] += ((chain_len.get(uid, 0) + 1) * _BRANCH_COST
                                            + _MISPREDICT_PENALTY)
                    else:
                        cost = (index + 1) * _BRANCH_COST
                        if index != predictor.get(uid, 0):
                            cost += _MISPREDICT_PENALTY
                            counters.branch_mispredicts += 1
                        predictor[uid] = index
                        instr_clocks[t] += cost
                elif flush:
                    counters.extra_accesses += 1
                    cost = private_store
                    if noisy:
                        extra = random() * jitter * cost
                        if hiccup_prob and random() < hiccup_prob:
                            extra += hiccup_cycles * (0.5 + random())
                        cost = (cost + extra) * speeds[t]
                    instr_clocks[t] += cost
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency

        self._finish(counters, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    def _mutated_eligible(self, window: list, eligible: list[int],
                          plane) -> list[int]:
        """Apply window-ordering faults to one eligibility decision.

        * ``weak.window_escape`` — per-location coherence blocking is
          ignored: younger same-address entries become eligible ahead of
          older pending ones.
        * ``fence.drop`` — pending barriers neither block younger
          entries nor wait to become oldest.

        Triggers are consulted once per decision, and only when the
        fault would newly unblock at least one entry (a fault with no
        observable consequence is not an opportunity).  When the fault
        fires, *only* the newly-unblocked entries are returned — the
        machine misbehaves now, rather than merely being allowed to
        (the oldest-first completion bias would otherwise mask the
        fault almost every time).
        """
        for point, drop_fences in (("weak.window_escape", False),
                                   ("fence.drop", True)):
            if not plane.arms(point):
                continue
            allowed = set(eligible)
            added = [i for i in self._eligible_unblocked(window, drop_fences)
                     if i not in allowed]
            if added and plane.fires(point):
                return added
        return eligible

    @staticmethod
    def _eligible_unblocked(window: list, drop_fences: bool) -> list[int]:
        """Eligibility with ordering enforcement deliberately broken.

        With ``drop_fences`` False this lifts only same-address blocking
        (``weak.window_escape``); with True it additionally makes
        barriers transparent and completable anywhere (``fence.drop``).
        """
        eligible = []
        seen_addrs: set = set()
        for i, (kind, addr, _) in enumerate(window):
            if kind is _BARRIER:
                if drop_fences:
                    eligible.append(i)
                    continue
                if i == 0:
                    eligible.append(0)
                break
            if drop_fences:
                if addr not in seen_addrs:
                    eligible.append(i)
                    seen_addrs.add(addr)
            else:
                eligible.append(i)
        return eligible

    def _pick_eligible(self, eligible: list[int]) -> int:
        """Pick a window entry to complete, biased towards the oldest.

        A geometric bias models an out-of-order core that mostly commits
        in order but occasionally lets a younger ready access slip ahead.
        """
        bias = self.tuning.in_order_bias
        rng = self.rng
        for idx in eligible[:-1]:
            if rng.random() < bias:
                return idx
        return eligible[-1]

    @staticmethod
    def _eligible(window: list) -> list[int]:
        """Window indices whose operations may complete now.

        An operation is blocked by any older pending same-address access
        (per-location coherence) and by any older pending barrier; a
        barrier may only complete once it is the oldest pending entry.
        """
        eligible = []
        seen_addrs = set()
        for i, (kind, addr, _) in enumerate(window):
            if kind is _BARRIER:
                if i == 0:
                    eligible.append(0)
                break
            if addr not in seen_addrs:
                eligible.append(i)
                seen_addrs.add(addr)
        return eligible

    # -- SC machine -------------------------------------------------------------------

    def _run_sc(self) -> Execution:
        memory, ws, clocks = self._fresh_state()
        counters = ExecutionCounters()
        instr_clocks = [0.0] * len(clocks)
        rf: dict[int, object] = {}
        threads, lens = self._threads, self._lens
        pcs = [0] * len(threads)
        unbuffered = [()] * len(threads)   # SC buffers nothing
        arrived = [0] * len(threads)
        waiting: set[int] = set()
        runnable = self._runnable(pcs, unbuffered, waiting)
        rng, os_model, plane = self.rng, self.os_model, self.plane
        random = rng.random
        uniform, sync = self.uniform_random, self.sync_barriers
        line_of, lines, loads, stores, speeds = self._latency
        noisy, jitter, hiccup_prob, hiccup_cycles, private_store = self._noise
        signature, flush, cand_index, chain_len, predictor = self._instrument
        stale_read = plane is not None and plane.arms("mem.stale_read")

        while True:
            if not runnable:
                if not waiting:
                    break
                waiting.clear()  # all remaining threads wait at the final barrier
                runnable = self._runnable(pcs, unbuffered, waiting)
                continue
            if uniform:
                t = rng.choice(runnable)
            else:
                t = runnable[0]
                best = clocks[t]
                for u in runnable:
                    if clocks[u] < best:
                        t, best = u, clocks[u]
            kind, addr, uid = threads[t][pcs[t]]
            pcs[t] += 1
            if kind is _BARRIER:
                clocks[t] += 1.0
                if sync:
                    runnable = self._arrive(t, arrived, pcs, unbuffered, waiting,
                                            clocks, runnable)
                elif pcs[t] == lens[t]:
                    runnable.remove(t)
                continue
            if pcs[t] == lens[t]:
                runnable.remove(t)
            counters.test_accesses += 1
            if kind is _STORE:
                memory[addr] = uid
                ws[addr].append(uid)
                memo = stores[t]
            else:
                source = memory.get(addr, INIT)
                if stale_read:
                    source = self._stale_read(ws[addr], source, plane)
                rf[uid] = source
                memo = loads[t]
            line = line_of[addr]
            latency, lines[line] = memo[lines[line]]
            if noisy:
                extra = random() * jitter * latency
                if hiccup_prob and random() < hiccup_prob:
                    extra += hiccup_cycles * (0.5 + random())
                latency = (latency + extra) * speeds[t]
            if kind is not _STORE:
                if signature:
                    index = cand_index.get((uid, source))
                    if index is None:
                        counters.assert_errors += 1
                        instr_clocks[t] += ((chain_len.get(uid, 0) + 1) * _BRANCH_COST
                                            + _MISPREDICT_PENALTY)
                    else:
                        cost = (index + 1) * _BRANCH_COST
                        if index != predictor.get(uid, 0):
                            cost += _MISPREDICT_PENALTY
                            counters.branch_mispredicts += 1
                        predictor[uid] = index
                        instr_clocks[t] += cost
                elif flush:
                    counters.extra_accesses += 1
                    cost = private_store
                    if noisy:
                        extra = random() * jitter * cost
                        if hiccup_prob and random() < hiccup_prob:
                            extra += hiccup_cycles * (0.5 + random())
                        cost = (cost + extra) * speeds[t]
                    instr_clocks[t] += cost
            if os_model is not None:
                latency += os_model.perturb(latency)
            clocks[t] += latency

        self._finish(counters, clocks, instr_clocks)
        return Execution(rf, ws, counters)

    # -- rendezvous -------------------------------------------------------------------

    def _arrive(self, t, arrived, pcs, bufs, waiting, clocks, runnable) -> list[int]:
        """Park thread ``t`` at a sync barrier; return the runnable list.

        The waiters are released once every unfinished thread caught up:
        a thread that already ran past its last barrier (or finished)
        never holds others back.  Requires aligned barrier counts for
        meaningful epoch semantics (as produced by
        :func:`repro.instrument.regularize`).  ``t`` leaves the runnable
        list, which is rebuilt only when the waiters are released.
        """
        arrived[t] += 1
        waiting.add(t)
        runnable.remove(t)
        lens = self._lens
        lagging = min(
            (arrived[u] for u in range(len(lens))
             if u not in waiting and pcs[u] < lens[u]),
            default=None)
        target = min(arrived[u] for u in waiting)
        if lagging is not None and lagging < target:
            return runnable
        release_time = max(clocks[u] for u in waiting)
        for u in list(waiting):
            waiting.discard(u)
            clocks[u] = max(clocks[u], release_time) + self.rng.random() * self.tuning.start_skew
        return self._runnable(pcs, bufs, waiting)
