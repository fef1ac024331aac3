"""Memory consistency model definitions.

An MCM contributes two things to the framework:

1. the *preserved program order* (ppo) edges added to every constraint
   graph for intra-thread ordering (paper Section 2: "we also model
   intra-thread consistency edges as defined by the MCM"), and
2. the reordering freedom granted to the operational executors in
   :mod:`repro.sim`.

``ppo_edges`` returns a transitively-reduced-enough edge set: its
transitive closure (together with barrier vertices) equals the full ppo
relation, while keeping constraint graphs small.
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.isa.instructions import Operation
from repro.isa.program import ThreadProgram


class MemoryModel(abc.ABC):
    """Base class for memory consistency models."""

    #: short identifier, e.g. "tso"
    name: str = "abstract"
    #: True when stores become visible to all other threads at once.
    multiple_copy_atomic: bool = True

    @abc.abstractmethod
    def orders(self, earlier: Operation, later: Operation) -> bool:
        """Whether ppo orders ``earlier`` before ``later`` (same thread,
        ``earlier.index < later.index``), ignoring intervening barriers."""

    def ppo_edges(self, thread_program: ThreadProgram) -> Iterator[tuple[int, int]]:
        """Reduced intra-thread ordering edges as (uid, uid) pairs.

        Barriers are emitted as ordinary vertices: every operation since
        the previous barrier is ordered before the barrier, and the
        barrier before every operation up to the next barrier.  Between
        barriers, direct ``orders`` pairs are reduced by linking each
        operation only to its *next* ordered successor of each kind.
        """
        ops = thread_program.ops
        segment_start = 0
        for pos, op in enumerate(ops):
            if not op.is_barrier:
                continue
            for prev in ops[segment_start:pos]:
                yield (prev.uid, op.uid)
            nxt = pos + 1
            while nxt < len(ops) and not ops[nxt].is_barrier:
                yield (op.uid, ops[nxt].uid)
                nxt += 1
            segment_start = pos + 1
        # Non-barrier ordering within the whole thread (barrier edges
        # already dominate cross-segment pairs, but orders() pairs are
        # cheap to reduce globally).
        yield from self._reduced_pairs(ops)

    def _reduced_pairs(self, ops: list[Operation]) -> Iterator[tuple[int, int]]:
        """Reduce ``orders`` pairs transitively.

        For each operation, walk forward and emit an edge to a later
        operation only if the pair is not already implied by previously
        emitted edges (checked via a per-op reachable frontier).  Test
        threads are at most a few hundred ops, so the quadratic scan with
        early pruning is acceptable and keeps the logic obviously correct.
        """
        n = len(ops)
        # reach[i] = set of positions already known reachable from i
        reach: list[set[int]] = [set() for _ in range(n)]
        for i in range(n - 1, -1, -1):
            if ops[i].is_barrier:
                continue
            for j in range(i + 1, n):
                if ops[j].is_barrier:
                    continue
                if not self.orders(ops[i], ops[j]):
                    continue
                if j in reach[i]:
                    continue
                yield (ops[i].uid, ops[j].uid)
                reach[i].add(j)
                reach[i] |= reach[j]

    def __repr__(self):
        return "<%s MCM>" % self.name


class SequentialConsistency(MemoryModel):
    """Lamport SC: program order is fully preserved."""

    name = "sc"

    def orders(self, earlier: Operation, later: Operation) -> bool:
        return True


class TotalStoreOrder(MemoryModel):
    """x86-TSO: only store->load may reorder (store buffering).

    Preserved: load->load, load->store, store->store.  Intra-thread
    store->load pairs are *not* ordered even for the same address, because
    store-to-load forwarding makes the pair globally unordered (paper
    footnote 4: intra-thread store-load dependency edges must be ignored
    to avoid false positives on non-single-copy-atomic systems).
    """

    name = "tso"

    def orders(self, earlier: Operation, later: Operation) -> bool:
        return not (earlier.is_store and later.is_load)


class WeakOrdering(MemoryModel):
    """ARMv7-style weakly-ordered model (RMO-like).

    Without barriers, only per-location coherence order is preserved:
    same-address load->load (CoRR), load->store (CoLR/CoLW) and
    store->store (CoWW).  Same-address store->load is excluded for the
    forwarding reason above.  All cross-address ordering comes from
    barriers (``dmb``).
    """

    name = "weak"

    def orders(self, earlier: Operation, later: Operation) -> bool:
        if earlier.addr != later.addr:
            return False
        return not (earlier.is_store and later.is_load)

    def _reduced_pairs(self, ops: list[Operation]) -> Iterator[tuple[int, int]]:
        """The base class's reduction, visiting only later same-address
        operations (``orders`` holds for no other pair).

        Each operation's candidates are scanned in ascending position,
        as the base scan meets them, so the emitted pairs and their
        order are identical; a thread of n operations costs a scan per
        same-address pair instead of n**2 / 2 ``orders`` calls.
        """
        reach: list[set[int]] = [set() for _ in ops]
        # address -> positions of later non-barrier ops, descending
        later: dict[int, list[int]] = {}
        for i in range(len(ops) - 1, -1, -1):
            op = ops[i]
            if op.is_barrier:
                continue
            positions = later.setdefault(op.addr, [])
            for j in reversed(positions):
                if not self.orders(op, ops[j]) or j in reach[i]:
                    continue
                yield (op.uid, ops[j].uid)
                reach[i].add(j)
                reach[i] |= reach[j]
            positions.append(i)


#: Singleton instances for convenient importing.
SC = SequentialConsistency()
TSO = TotalStoreOrder()
WEAK = WeakOrdering()

_MODELS = {m.name: m for m in (SC, TSO, WEAK)}


def get_model(name: str) -> MemoryModel:
    """Look up a model by name ("sc", "tso", "weak")."""
    try:
        return _MODELS[name.lower()]
    except KeyError:
        raise ValueError("unknown memory model %r (expected one of %s)"
                         % (name, sorted(_MODELS))) from None
