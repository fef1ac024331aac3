"""Building constraint graphs from decoded signatures (paper Section 3.2).

Everything static — the MCM's intra-thread edges, store locations, vertex
IDs — is computed once per test at construction, the static edges into a
template graph; :meth:`GraphBuilder.build` copies the template and adds the
dynamic edges of one execution, and :meth:`GraphBuilder.sort_tables`
appends them to the template's adjacency tuples for a sort that needs
no graph.

Dependency-edge rules (notation of [4, 32], as adopted by the paper):

* ``rf``: source store -> load, *skipped when intra-thread* — a forwarded
  store is not globally ordered with its load (paper footnote 4).
* ``ws``: write-serialization order of same-address stores.
* ``fr``: load -> a store known to coherence-follow the load's source.

Write-serialization handling comes in two modes:

* ``"static"`` (default, paper-faithful): the paper gathers "the
  write-serialization order ... statically during the instrumentation
  process".  Only statically-known coherence order is used: same-thread
  same-address store chains (program order implies coherence order), and
  INIT precedes every store.  fr edges point from a load to the po-next
  same-address store of its source's thread (or, for INIT readers, to
  every thread's first store to the address).  Graphs then depend only on
  the signature's rf choices, which is what makes signature-adjacent
  graphs nearly identical — the property the collective checker exploits.

* ``"observed"``: the execution substrate's full per-address coherence
  order is added as ws chains with exact fr edges.  Strictly stronger
  checking (catches pure write-serialization cycles like 2+2W) at the
  cost of per-execution graph variety; used as an ablation and for the
  detailed-simulator bug studies.
"""

from __future__ import annotations

from repro.errors import CheckerError
from repro.isa.instructions import INIT
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.graph.constraint_graph import FR, PO, RF, WS, ConstraintGraph, Edge


class GraphBuilder:
    """Constructs per-execution constraint graphs for one test program."""

    def __init__(self, program: TestProgram, model: MemoryModel,
                 ws_mode: str = "static"):
        if ws_mode not in ("static", "observed"):
            raise CheckerError("ws_mode must be 'static' or 'observed'")
        self.program = program
        self.model = model
        self.ws_mode = ws_mode
        static_edges = [
            Edge(src, dst, PO)
            for tp in program.threads
            for src, dst in model.ppo_edges(tp)
        ]
        # Statically-known coherence order: same-thread same-address store
        # chains, valid under every coherent memory model.
        self._po_next_store: dict[int, int] = {}
        self._first_stores: dict[int, list[int]] = {}
        for tp in program.threads:
            last_store: dict[int, int] = {}
            for op in tp.ops:
                if not op.is_store:
                    continue
                prev = last_store.get(op.addr)
                if prev is not None:
                    static_edges.append(Edge(prev, op.uid, WS))
                    self._po_next_store[prev] = op.uid
                else:
                    self._first_stores.setdefault(op.addr, []).append(op.uid)
                last_store[op.addr] = op.uid
        self.static_edges: tuple[Edge, ...] = tuple(static_edges)
        self._static_pairs: tuple[tuple[int, int], ...] = tuple(
            (e.src, e.dst) for e in static_edges if e.src != e.dst)
        #: every build starts as a copy of this graph of the static edges
        template = self._template = ConstraintGraph(program.num_ops,
                                                    static_edges)
        #: the template's adjacency as per-vertex tuples and its
        #: in-degrees, the start of every :meth:`sort_tables`
        self._static_successors: dict[int, tuple] = {
            v: tuple(successors)
            for v, successors in template.adjacency.items()}
        indegree = [0] * program.num_ops
        for successors in self._static_successors.values():
            for w in successors:
                indegree[w] += 1
        self._static_indegree = indegree
        #: (load uid, source) -> (pairs, kinds) of the load's static-mode
        #: rf/fr edges; filled on demand by :meth:`_dynamic`
        self._edge_table: dict[tuple[int, object], tuple] = {}
        #: address -> its store uids: an observed ws chain must list
        #: exactly these, each once
        self._stores_at: dict[int, frozenset] = {
            addr: frozenset(st.uid for st in program.stores_to(addr))
            for addr in self._first_stores}

    def build(self, rf: dict[int, object], ws: dict[int, list[int]] = None) -> ConstraintGraph:
        """Build the constraint graph of one execution.

        Args:
            rf: map of load uid -> observed source (store uid or INIT).
            ws: map of address -> store uids in coherence order; required
                (and used) only in ``"observed"`` mode.

        Returns:
            The typed constraint graph; cyclic iff the execution violates
            the memory model (up to the completeness of the ws mode).
        """
        graph = self._template.copy()
        if self.ws_mode == "observed":
            graph.add_pairs(*self._observed_edges(rf, ws))
            return graph
        table = self._edge_table
        pairs: list = []
        kinds: list = []
        for key in rf.items():  # (load uid, source): the memo's key
            entry = table.get(key) or self._dynamic(*key)
            pairs += entry[0]
            kinds += entry[1]
        graph.add_pairs(pairs, kinds)
        return graph

    # -- static (paper) mode ----------------------------------------------------

    def _dynamic(self, load_uid: int, source) -> tuple:
        """The static-mode rf/fr rule for one load and its rf source.

        Memoized per ``(load, source)``; returns the choice's edges as
        ``(pairs, kinds)``, parallel tuples of (src, dst) pairs and
        their dependency types.
        """
        key = (load_uid, source)
        entry = self._edge_table.get(key)
        if entry is not None:
            return entry
        program = self.program
        load_op = program.op(load_uid)
        pairs, kinds = [], []
        if source is INIT or source == INIT:
            # INIT is coherence-first: the load precedes every thread's
            # first store to the address.
            for st_uid in self._first_stores.get(load_op.addr, ()):
                pairs.append((load_uid, st_uid))
                kinds.append(FR)
        else:
            if program.op(source).thread != load_op.thread:
                pairs.append((source, load_uid))
                kinds.append(RF)
            successor = self._po_next_store.get(source)
            if successor is not None:
                pairs.append((load_uid, successor))
                kinds.append(FR)
        entry = self._edge_table[key] = (tuple(pairs), tuple(kinds))
        return entry

    # -- per-load edge table (delta pipeline) -----------------------------------

    def dynamic_edge_pairs(self, load_uid: int, source) -> tuple:
        """The exact dynamic (src, dst) pairs one ``(load, rf source)``
        choice contributes.

        Static-ws mode factors the per-execution edges of :meth:`build`
        into independent per-load contributions (each load's rf/fr edges
        depend only on its own observed source), so the edge delta
        between two signature-adjacent graphs is a table lookup over the
        changed digits.  Entries are memoized per (load, candidate) —
        over a checking stream the table converges to the full static
        (load, rf-candidate) edge table with each entry computed once —
        and shared with :meth:`build`, which adds the same edges typed.
        Bare pairs: the delta pipeline tracks presence only (witness
        rendering rebuilds the one violating graph, types intact).
        """
        if self.ws_mode != "static":
            raise CheckerError("per-load edge tables exist only in static "
                               "ws_mode (observed graphs are not a function "
                               "of the signature alone)")
        return self._dynamic(load_uid, source)[0]

    def sort_tables(self, rf: dict[int, object]) -> tuple:
        """One static-ws execution's ``(adjacency, indegree)``, ready
        for :func:`~repro.graph.toposort.kahn_sort`.

        A shallow copy of the template's successor tuples with each
        load's memoized rf/fr pairs appended, and the template's
        in-degrees counted up to match.  Multiplicity is kept: a
        dynamic pair that repeats a static one is listed and counted
        twice, which changes no verdict.  Nothing is deduplicated and no
        :class:`ConstraintGraph` is built, so a complete sort of an
        execution costs one dict copy plus its dynamic pairs.  Like
        :meth:`dynamic_edge_pairs`, static ws_mode only.
        """
        if self.ws_mode != "static":
            raise CheckerError("sort tables exist only in static ws_mode "
                               "(observed graphs are not a function of "
                               "the signature alone)")
        adjacency = self._static_successors.copy()
        indegree = self._static_indegree.copy()
        get = adjacency.get
        table = self._edge_table
        for key in rf.items():  # (load uid, source): the memo's key
            entry = table.get(key) or self._dynamic(*key)
            for u, v in entry[0]:
                adjacency[u] = get(u, ()) + (v,)
                indegree[v] += 1
        return adjacency, indegree

    @property
    def static_pairs(self) -> tuple:
        """Bare (src, dst) pairs of every static edge, with multiplicity.

        Self-loop edges (a po/ws edge whose src and dst coincide cannot
        occur, but the constructor drops them defensively) are excluded,
        matching what a refcounted delta state counts.
        """
        return self._static_pairs

    def iter_execution_pairs(self, rf: dict[int, object]):
        """All (src, dst) pairs of one static-ws execution *with
        multiplicity*.

        Unlike :meth:`build` this does not deduplicate pairs — a dynamic
        edge that coincides with a static one appears twice — which is
        exactly what a refcounted delta graph state needs as its base
        (the static contributor must survive the dynamic one's removal).
        """
        yield from self._static_pairs
        for load_uid, source in rf.items():
            yield from self.dynamic_edge_pairs(load_uid, source)

    # -- observed mode ------------------------------------------------------------

    def _observed_edges(self, rf: dict[int, object],
                        ws: dict[int, list[int]]) -> tuple:
        """One execution's ws chain and rf/fr edges as ``(pairs, kinds)``."""
        if ws is None:
            raise CheckerError("observed ws_mode requires a ws order")
        program = self.program
        # A missing chain would silently weaken the graph (dropped ws/fr
        # edges can hide violations), so coverage is mandatory.
        missing = [addr for addr in self._first_stores if addr not in ws]
        if missing:
            raise CheckerError(
                "observed ws order missing chains for store-bearing "
                "addresses %s (was the dump saved without ws?)"
                % sorted(missing))
        pairs: list = []
        kinds: list = []
        next_in_ws: dict[int, int] = {}
        first_in_ws: dict[int, int] = {}
        no_stores = frozenset()
        for addr, chain in ws.items():
            # a permutation of the address's stores: a store listed twice
            # would make the chain's own ws edges a cycle
            expected = self._stores_at.get(addr, no_stores)
            if len(chain) != len(expected) or set(chain) != expected:
                raise CheckerError(
                    "ws chain for address 0x%x lists %r, program has %r "
                    "(each store exactly once)"
                    % (addr, sorted(chain), sorted(expected)))
            if chain:
                first_in_ws[addr] = chain[0]
            for a, b in zip(chain, chain[1:]):
                pairs.append((a, b))
                kinds.append(WS)
                next_in_ws[a] = b

        for load_uid, source in rf.items():
            load_op = program.op(load_uid)
            if source is INIT or source == INIT:
                successor = first_in_ws.get(load_op.addr)
            else:
                store_op = program.op(source)
                if store_op.thread != load_op.thread:
                    pairs.append((source, load_uid))
                    kinds.append(RF)
                successor = next_in_ws.get(source)
            if successor is not None:
                pairs.append((load_uid, successor))
                kinds.append(FR)
        return pairs, kinds
