"""Event-driven MESI directory protocol (the gem5 stand-in's memory side).

A deliberately compact but race-capable implementation of a directory
MESI protocol over a 4x2 mesh (the paper's Section 7 configuration):

* one L1 controller per core (stable states I/S/E/M, transients IS/IM/SM,
  writeback-pending lines, capacity evictions),
* directories at the mesh corners, interleaved by line address (slice
  ``line % 4``), each serializing requests per line (busy + pending
  queue),
* per-channel FIFO message delivery with distance-based latency.

The protocol is exact enough to expose the three injected bugs of
:mod:`repro.sim.faults`: invalidations racing S->M upgrades (bug 1),
invalidation-squash interplay with the LSQ (bug 2, via the ``on_inv``
callback), and the PUTX/GETX writeback race (bug 3).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.errors import ProtocolCrash
from repro.sim.faults import FaultConfig, NO_FAULT

# L1 line states
I, S, E, M = "I", "S", "E", "M"
IS, IM, SM = "IS", "IM", "SM"   # transients: awaiting data / ownership
_GRANT_STATE = {"S": S, "E": E, "M": M}


class EventQueue:
    """Global discrete-event queue with deterministic ordering.

    Entries are ``(time, seq, fn, args)`` heap tuples: equal times run in
    scheduling order, because ``seq`` comes from the one counter every
    producer draws from.  The mesh and the detailed core push onto
    ``_heap`` with ``next(_seq)`` directly and the core pops inline;
    :meth:`schedule` and :meth:`run_next` are the same steps as methods.
    """

    def __init__(self):
        self._heap = []
        self._seq = count(1)
        self.now = 0.0

    def schedule(self, delay: float, fn, *args) -> None:
        heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def run_next(self) -> bool:
        if not self._heap:
            return False
        self.now, _, fn, args = heappop(self._heap)
        fn(*args)
        return True

    def __len__(self):
        return len(self._heap)


def _base_delays(num_cores: int, hop: float, base: float) -> dict:
    """(src, dst) -> hop-count delay on a 4-wide mesh of ``num_cores``
    cores with the four directory slices at its corners."""
    coords = {("core", i): (i % 4, i // 4) for i in range(num_cores)}
    for d, xy in enumerate(((0, 0), (3, 0), (0, 1), (3, 1))):
        coords[("dir", d)] = xy
    return {(src, dst): base + (abs(x0 - x1) + abs(y0 - y1)) * hop
            for src, (x0, y0) in coords.items()
            for dst, (x1, y1) in coords.items()}


#: the default mesh (the paper's 8 cores and 4 directories), derived once
_DEFAULT_SHAPE = (8, 2.0, 3.0)
_DEFAULT_DELAYS = _base_delays(*_DEFAULT_SHAPE)


class Mesh:
    """4x2 mesh latency model with per-channel FIFO delivery.

    Each (src, dst) channel is a ``[base_delay, last_delivery]`` pair,
    set up when the mesh is built, so a message costs one table lookup.
    """

    def __init__(self, events: EventQueue, rng, num_cores: int = 8,
                 hop_latency: float = 2.0, base_latency: float = 3.0):
        self.events = events
        self.rng = rng
        shape = (num_cores, hop_latency, base_latency)
        delays = (_DEFAULT_DELAYS if shape == _DEFAULT_SHAPE
                  else _base_delays(*shape))
        self._channels = {pair: [delay, 0.0] for pair, delay in delays.items()}

    def send(self, src: tuple, dst: tuple, fn, *args) -> None:
        """Deliver ``fn(*args)`` at ``dst`` after the network delay.

        Delivery per (src, dst) channel is FIFO: a message never overtakes
        an earlier one on the same channel.
        """
        channel = self._channels[src, dst]
        events = self.events
        now = events.now
        arrival = now + channel[0] * (1.0 + self.rng.random() * 0.35)
        floor = channel[1] + 1e-6
        if floor > arrival:
            arrival = floor
        channel[1] = arrival
        heappush(events._heap,
                 (now + (arrival - now), next(events._seq), fn, args))


class _Line:
    """One L1 line.

    ``getx_outstanding``: a GETX for this line is queued at the
    directory; guards against duplicate ownership requests (whose stale
    grants could otherwise clobber newer local writes).
    """

    __slots__ = ("state", "data", "waiting_loads", "waiting_store",
                 "getx_outstanding")

    def __init__(self):
        self.state = I
        self.data = {}               # word addr -> value
        #: loads waiting for data, stores waiting for ownership
        self.waiting_loads = []
        self.waiting_store = None
        self.getx_outstanding = False


class L1Cache:
    """One core's L1 controller.

    Args:
        core: core index.
        system: the owning :class:`CoherentSystem`.
        capacity: line capacity; small values force evictions (bug 1/3
            intensification, paper Section 7).
    """

    def __init__(self, core: int, system: "CoherentSystem", capacity: int):
        self.core = core
        self.system = system
        self.capacity = capacity
        self.lines: dict[int, _Line] = {}
        self.wb_pending: set[int] = set()
        #: callback(line) -> None: invoked when an invalidation must squash
        #: speculatively executed loads (wired by the core model)
        self.on_inv = lambda line: None

    # -- core-facing API ---------------------------------------------------------

    def load(self, line: int, addr: int, callback) -> None:
        """Read ``addr``; ``callback(value)`` fires when the value is known."""
        entry = self.lines.get(line)
        if entry is not None:
            state = entry.state
            if state in (S, E, M):
                callback(entry.data.get(addr, 0))
                return
            if state in (IS, IM, SM):
                entry.waiting_loads.append((addr, callback))
                return
        entry = self._allocate(line)
        entry.state = IS
        entry.waiting_loads.append((addr, callback))
        self.system.request("GETS", line, self.core)

    def store(self, line: int, addr: int, value: int, callback) -> None:
        """Write ``addr``; ``callback()`` fires once globally performed."""
        entry = self.lines.get(line)
        if entry is not None:
            state = entry.state
            if state in (E, M):
                entry.state = M
                entry.data[addr] = value
                self.system.record_store(addr, value)
                callback()
                return
            if state == S:
                entry.state = SM
                entry.waiting_store = (addr, value, callback)
                if not entry.getx_outstanding:
                    entry.getx_outstanding = True
                    self.system.request("GETX", line, self.core)
                return
            if state in (IS, IM, SM):
                # One outstanding store per line suffices for an in-order
                # SB.  In IS the upgrade is deferred until the GETS data
                # arrives (handle_data issues the GETX), avoiding
                # duplicate requests.
                entry.waiting_store = (addr, value, callback)
                return
        entry = self._allocate(line)
        entry.state = IM
        entry.waiting_store = (addr, value, callback)
        entry.getx_outstanding = True
        self.system.request("GETX", line, self.core)

    # -- protocol handlers ----------------------------------------------------------

    def handle_data(self, line: int, grant: str, data: dict) -> None:
        """DATA_S / DATA_E / DATA_M arrival from the directory."""
        entry = self.lines.get(line)
        if entry is None:     # allocate on late arrival (evicted transient: not modelled)
            entry = self._allocate(line)
        if entry.state in (S, E, M):
            # Duplicate grant (e.g. a queued request granted after the
            # line was already obtained): our copy is authoritative or
            # identical — merging the grant could clobber newer local
            # writes with the directory's stale words.
            return
        if grant == "M":
            entry.getx_outstanding = False
        entry.data.update(data)
        entry.state = _GRANT_STATE[grant]
        for addr, callback in entry.waiting_loads:
            callback(entry.data.get(addr, 0))
        entry.waiting_loads.clear()
        if entry.waiting_store is not None:
            if entry.state in (E, M):
                addr, value, callback = entry.waiting_store
                entry.waiting_store = None
                entry.state = M
                entry.data[addr] = value
                self.system.record_store(addr, value)
                callback()
            else:
                # Granted S while a store waits: enter the S->M upgrade
                # window, issuing the GETX if none is outstanding yet
                # (the deferred-upgrade path from store() in IS).
                entry.state = SM
                if not entry.getx_outstanding:
                    entry.getx_outstanding = True
                    self.system.request("GETX", line, self.core)

    def handle_inv(self, line: int) -> None:
        """Invalidation on behalf of another core's GETX."""
        entry = self.lines.get(line)
        if entry is None or entry.state == I:
            self.system.inv_ack(line, self.core)
            return
        if entry.state == SM:
            # lost an upgrade race: fall back to IM and await DATA_M
            if self.system.squash_on_inv_in_sm:
                self.on_inv(line)
            entry.state = IM
            entry.data.clear()
        elif entry.state == IS or entry.state == IM:
            # not yet a sharer for this epoch; ack and carry on
            pass
        else:
            if self.system.squash_on_inv:
                self.on_inv(line)
            del self.lines[line]
        self.system.inv_ack(line, self.core)

    def handle_fetch(self, line: int, invalidate: bool) -> None:
        """Directory recall (FETCH / FETCH_INV) for an owned line."""
        entry = self.lines.get(line)
        if entry is None or entry.state not in (E, M):
            if self.system.crash_on_writeback_race:
                raise ProtocolCrash(
                    "invalid transition: FETCH for line %d in state %s at core %d"
                    % (line, entry.state if entry else I, self.core))
            # correct protocol: the in-flight PUTX carries the data; tell
            # the directory to use it
            self.system.fetch_stale(line, self.core)
            return
        data = dict(entry.data)
        if invalidate:
            if self.system.squash_on_inv:
                self.on_inv(line)
            del self.lines[line]
        else:
            entry.state = S
        self.system.writeback_data(line, self.core, data)

    # -- internals ----------------------------------------------------------------------

    def _allocate(self, line: int) -> _Line:
        if line not in self.lines and len(self.lines) >= self.capacity:
            self._evict()
        entry = _Line()
        self.lines[line] = entry
        return entry

    def _evict(self) -> None:
        stable = [l for l, e in self.lines.items() if e.state in (S, E, M)]
        if not stable:
            return   # transients cannot be evicted; allow mild over-capacity
        victim = stable[int(self.system.rng.random() * len(stable))]
        entry = self.lines.pop(victim)
        # Losing the line means no future invalidation will reach this
        # core, so speculatively-executed loads to it must re-execute now.
        # This safeguard is part of the LSQ/eviction datapath, not the
        # invalidation handling the injected bugs disable.
        self.on_inv(victim)
        if entry.state in (E, M):
            self.wb_pending.add(victim)
            self.system.putx(victim, self.core, dict(entry.data))


class _DirLine:
    """One directory line."""

    __slots__ = ("state", "sharers", "owner", "data", "busy", "pending",
                 "acks_needed", "requestor", "request_kind")

    def __init__(self):
        self.state = "U"             # U (at dir) / S (sharers) / E (owner)
        self.sharers = set()
        self.owner = None
        self.data = {}
        self.busy = False
        self.pending = []            # queued (kind, core)
        # in-flight GETX bookkeeping
        self.acks_needed = 0
        self.requestor = None
        self.request_kind = None


class Directory:
    """One directory slice, serializing coherence per line."""

    def __init__(self, index: int, system: "CoherentSystem"):
        self.index = index
        self.system = system
        self.lines: dict[int, _DirLine] = {}

    def _line(self, line: int) -> _DirLine:
        entry = self.lines.get(line)
        if entry is None:
            entry = self.lines[line] = _DirLine()
        return entry

    # -- request entry point ------------------------------------------------------

    def request(self, kind: str, line: int, core: int) -> None:
        """Enqueue a request; the per-line queue preserves arrival order
        even across requests that complete without a busy period."""
        entry = self._line(line)
        entry.pending.append((kind, core))
        self._drain(line, entry)

    def _drain(self, line: int, entry: "_DirLine") -> None:
        while entry.pending and not entry.busy:
            kind, core = entry.pending.pop(0)
            if kind == "GETS":
                self._gets(line, entry, core)
            else:
                self._getx(line, entry, core)

    def _gets(self, line: int, entry: _DirLine, core: int) -> None:
        sys = self.system
        if entry.state == "U":
            entry.state = "E"
            entry.owner = core
            sys.send_data(self.index, line, core, "E", entry.data)
        elif entry.state == "S":
            entry.sharers.add(core)
            sys.send_data(self.index, line, core, "S", entry.data)
        else:  # owned elsewhere: recall a shared copy
            if entry.owner == core:
                # owner lost the line silently? (not modelled) — grant again
                sys.send_data(self.index, line, core, "E", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETS"
            sys.send_fetch(self.index, line, entry.owner, invalidate=False)

    def _getx(self, line: int, entry: _DirLine, core: int) -> None:
        sys = self.system
        if entry.state == "U":
            entry.state = "E"
            entry.owner = core
            sys.send_data(self.index, line, core, "M", entry.data)
        elif entry.state == "S":
            others = entry.sharers - {core}
            if not others:
                entry.state = "E"
                entry.owner = core
                entry.sharers.clear()
                sys.send_data(self.index, line, core, "M", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETX"
            entry.acks_needed = len(others)
            for sharer in others:
                sys.send_inv(self.index, line, sharer)
        else:  # owned elsewhere
            if entry.owner == core:
                sys.send_data(self.index, line, core, "M", entry.data)
                return
            entry.busy = True
            entry.requestor = core
            entry.request_kind = "GETX"
            sys.send_fetch(self.index, line, entry.owner, invalidate=True)

    # -- responses ---------------------------------------------------------------------

    def inv_ack(self, line: int, core: int) -> None:
        entry = self._line(line)
        entry.sharers.discard(core)
        if not entry.busy:
            return
        entry.acks_needed -= 1
        if entry.acks_needed <= 0 and entry.request_kind == "GETX":
            self._grant_pending_getx(line, entry)

    def _grant_pending_getx(self, line: int, entry: _DirLine) -> None:
        entry.state = "E"
        entry.owner = entry.requestor
        entry.sharers.clear()
        self.system.send_data(self.index, line, entry.requestor, "M", entry.data)
        self._unbusy(line, entry)

    def writeback_data(self, line: int, core: int, data: dict) -> None:
        """Fetch response (or crossing PUTX) carrying the owned data."""
        entry = self._line(line)
        entry.data = dict(data)
        if entry.busy:
            if entry.request_kind == "GETS":
                entry.state = "S"
                entry.sharers = {core, entry.requestor}
                self.system.send_data(self.index, line, entry.requestor, "S", entry.data)
            else:
                entry.state = "E"
                entry.owner = entry.requestor
                entry.sharers.clear()
                self.system.send_data(self.index, line, entry.requestor, "M", entry.data)
            self._unbusy(line, entry)
        else:
            entry.state = "U"
            entry.owner = None

    def fetch_stale(self, line: int, core: int) -> None:
        """The fetched owner no longer holds the line: its PUTX crossed our
        FETCH on the network.  Wait — the PUTX will arrive and complete the
        transaction via :meth:`putx`."""
        # nothing to do: the pending request completes when PUTX arrives

    def putx(self, line: int, core: int, data: dict) -> None:
        entry = self._line(line)
        self.system.wb_ack(line, core)
        if entry.state == "E" and entry.owner == core:
            entry.data = dict(data)
            if entry.busy:
                # PUTX raced our FETCH: use its data to satisfy the request
                self.writeback_data(line, core, data)
            else:
                entry.state = "U"
                entry.owner = None
        # otherwise: stale PUTX for a line already transferred — drop

    def _unbusy(self, line: int, entry: _DirLine) -> None:
        entry.busy = False
        entry.requestor = None
        entry.request_kind = None
        entry.acks_needed = 0
        self._drain(line, entry)


class CoherentSystem:
    """L1s + directories + mesh, bound to one event queue.

    Args:
        num_cores: core count (paper Section 7 uses 8).
        rng: shared random source.
        events: shared event queue.
        faults: bug-injection configuration; its predicates are read
            once, here.
    """

    def __init__(self, num_cores: int, rng, events: EventQueue,
                 faults: FaultConfig = NO_FAULT):
        self.rng = rng
        self.events = events
        self.faults = faults
        self.squash_on_inv = faults.squash_on_inv
        self.squash_on_inv_in_sm = faults.squash_on_inv_in_sm
        self.crash_on_writeback_race = faults.crash_on_writeback_race
        self.mesh = Mesh(events, rng, num_cores)
        self.caches = [L1Cache(core, self, faults.l1_lines)
                       for core in range(num_cores)]
        self.dirs = [Directory(d, self) for d in range(4)]
        #: mesh node names, indexed by core / directory slice
        self._core_nodes = tuple(("core", core) for core in range(num_cores))
        self._dir_nodes = tuple(("dir", d) for d in range(4))
        #: per-address coherence order of store values, appended as each
        #: store's word write is globally performed
        self.store_order: dict[int, list[int]] = {}

    def record_store(self, addr: int, value: int) -> None:
        self.store_order.setdefault(addr, []).append(value)

    # -- message helpers (all network hops go through the mesh) --------------------

    def request(self, kind: str, line: int, core: int) -> None:
        d = line % 4
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].request, kind, line, core)

    def send_data(self, d: int, line: int, core: int, grant: str, data: dict) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_data, line, grant, dict(data))

    def send_inv(self, d: int, line: int, core: int) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_inv, line)

    def send_fetch(self, d: int, line: int, core: int, invalidate: bool) -> None:
        self.mesh.send(self._dir_nodes[d], self._core_nodes[core],
                       self.caches[core].handle_fetch, line, invalidate)

    def inv_ack(self, line: int, core: int) -> None:
        d = line % 4
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].inv_ack, line, core)

    def writeback_data(self, line: int, core: int, data: dict) -> None:
        d = line % 4
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].writeback_data, line, core, data)

    def fetch_stale(self, line: int, core: int) -> None:
        d = line % 4
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].fetch_stale, line, core)

    def putx(self, line: int, core: int, data: dict) -> None:
        d = line % 4
        self.mesh.send(self._core_nodes[core], self._dir_nodes[d],
                       self.dirs[d].putx, line, core, data)

    def wb_ack(self, line: int, core: int) -> None:
        self.mesh.send(self._dir_nodes[line % 4], self._core_nodes[core],
                       self.caches[core].wb_pending.discard, line)
