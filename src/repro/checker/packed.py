"""Array-packed collective checking: flat CSR kernels over digit matrices.

The delta pipeline (:mod:`repro.checker.collective`) made collective
checking incremental; this module makes the increments cheap.  Instead of
per-execution dict-keyed adjacency and per-signature mixed-radix decode,
a :class:`PackedPlan` compiles the whole sorted unique-signature block
once per campaign into flat arrays:

* the **edge universe** — every (src, dst) pair any execution of the
  program can contribute (static edges plus the per-load rf/fr candidate
  table from :meth:`GraphBuilder.dynamic_edge_pairs`) — indexed ``0..E-1``
  with int32 endpoint arrays and a CSR-style ``offsets/targets`` layout
  grouped by source vertex;
* the **digits matrix** — the block of signatures decoded at once into
  per-load mixed-radix digit rows, so ``word_changes`` between
  neighbours becomes a column diff; and
* per-step **edge tapes** — for each signature-adjacent step, the edge
  indices whose refcount drops/rises, precompiled from the digit diffs.

:class:`PackedChecker` then replays the tapes, in the same ascending
signature order the delta pipeline checks (paper Section 3: sorted
neighbours share most of their constraint graph).  Windows are re-sorted
by the collective checkers' own
:func:`~repro.graph.toposort.resort_window`, which needs only the
window's backward edges — the pending added edges the lead/trail scan
already enumerates, since the base order is topological for the last
valid graph — and a successor lookup, here a live-edge view of the CSR
arrays (:class:`_LiveSuccessors`).  Verdicts, witnesses and
``sorted_vertices`` accounting are byte-identical to ``check_deltas`` /
legacy ``check`` — the same summary dict, property-tested three ways.

``benchmarks/bench_packed.py`` times the replay alone; compiling the
plan is paid on top of it, so the end-to-end comparison with the delta
pipeline (plan plus replay) is a separate measurement (EXPERIMENTS.md).
"""

from __future__ import annotations

from array import array

from repro.checker.results import (
    COMPLETE,
    INCREMENTAL,
    NO_RESORT,
    CheckReport,
    Verdict,
)
from repro.errors import CheckerError, SignatureError
from repro.graph.delta import DeltaGraphState
from repro.graph.toposort import complete_sort, find_cycle, resort_window
from repro.obs import get_obs


class PackedPlan:
    """A sorted unique-signature block compiled to flat checking arrays.

    Built once per campaign (construction cost is O(block); the paper's
    per-execution checking loop never touches Python object graphs
    again).  The plan doubles as a signature source for
    :meth:`BaselineChecker.check_stream` and witness extraction: it
    exposes ``__len__``, ``num_vertices``, ``codec``, ``signatures``,
    ``builder`` and ``full_graph``.

    Args:
        codec: the campaign's :class:`SignatureCodec`.
        builder: a static-ws :class:`GraphBuilder` over the same program.
        signatures: unique signatures in ascending (checking) order.
    """

    def __init__(self, codec, builder, signatures):
        if builder.ws_mode != "static":
            raise CheckerError("delta checking requires static ws_mode "
                               "(observed graphs are not a function of the "
                               "signature alone)")
        if builder.program is not codec.program:
            raise CheckerError("codec and builder must share one program")
        self.codec = codec
        self.builder = builder
        self.signatures = list(signatures)
        self.num_vertices = builder.program.num_ops

        self._build_columns()
        self._build_edge_universe()
        if self.signatures:
            self._decode_block()
            self._build_tapes()
            self._build_base()
        else:
            self._empty_block()

        get_obs().emit("checker.packed.plan",
                       signatures=len(self.signatures),
                       edge_universe=self.num_edges,
                       digit_columns=self.digit_columns)

    # -- compilation ------------------------------------------------------------

    def _build_columns(self) -> None:
        """Digit-column specs: one column per multi-candidate load slot.

        Column order is thread order then program order within the
        thread — the same order :meth:`ThreadWeightTable.decode` peels
        digits, so a digits-matrix row round-trips to ``codec.decode``.
        Single-candidate slots always decode to digit 0; their (constant)
        edges fold into the universe's base refcounts instead.
        """
        specs = []          # (flat word index, multiplier, candidate count)
        col_loads = []      # (load uid, candidate tuple) per column
        constant = []       # (load uid, sole candidate) of dropped slots
        word_base = 0
        for table in self.codec.tables:
            for slot in table.slots:
                if len(slot.candidates) > 1:
                    specs.append((word_base + slot.word, slot.multiplier,
                                  len(slot.candidates)))
                    col_loads.append((slot.uid, slot.candidates))
                else:
                    constant.append((slot.uid, slot.candidates[0]))
            word_base += table.num_words
        self._col_specs = specs
        #: multi-candidate load slots: one digit column each
        self.digit_columns = len(specs)
        self._col_loads = col_loads
        self._constant_loads = constant
        self.total_words = word_base

    def _build_edge_universe(self) -> None:
        """Index every pair any execution can contribute; count the fixed part.

        ``base_counts[e]`` is the refcount contribution every execution
        shares: static-edge multiplicity plus the dynamic pairs of
        single-candidate loads.  Per-digit contributions live in
        ``_col_edges[c][digit]`` as edge-index tuples.
        """
        builder = self.builder
        pair_index: dict = {}
        esrc = array("i")
        edst = array("i")
        base_counts: list = []

        def edge_id(pair):
            idx = pair_index.get(pair)
            if idx is None:
                idx = len(base_counts)
                pair_index[pair] = idx
                base_counts.append(0)
                esrc.append(pair[0])
                edst.append(pair[1])
            return idx

        for pair in builder.static_pairs:
            base_counts[edge_id(pair)] += 1
        for uid, source in self._constant_loads:
            for pair in builder.dynamic_edge_pairs(uid, source):
                base_counts[edge_id(pair)] += 1
        self._col_edges = [
            tuple(tuple(edge_id(p) for p in builder.dynamic_edge_pairs(uid, c))
                  for c in candidates)
            for uid, candidates in self._col_loads
        ]
        self.esrc = esrc
        self.edst = edst
        self._esrc_list = esrc.tolist()
        self._edst_list = edst.tolist()
        self._base_counts = base_counts

        # CSR by source vertex: edge ids (and their targets) of all
        # universe edges leaving each vertex, offsets indexed by vertex
        by_src: list = [[] for _ in range(self.num_vertices)]
        for e in range(len(base_counts)):
            by_src[esrc[e]].append(e)
        csr_eidx = array("i")
        csr_dst = array("i")
        csr_off = array("i", [0])
        for edges in by_src:
            for e in edges:
                csr_eidx.append(e)
                csr_dst.append(edst[e])
            csr_off.append(len(csr_eidx))
        self.csr_off = csr_off
        self.csr_eidx = csr_eidx
        self.csr_dst = csr_dst
        self._csr_off_list = csr_off.tolist()
        self._csr_eidx_list = csr_eidx.tolist()
        self._csr_dst_list = csr_dst.tolist()

    def _decode_block(self) -> None:
        """Mixed-radix decode of the whole block into digit rows.

        Each row is validated by reconstructing its words from the
        digits: a word is in range iff its digit expansion sums back to
        it exactly, mirroring the per-signature range check of
        :meth:`ThreadWeightTable.decode`.
        """
        sigs = self.signatures
        tables = self.codec.tables
        for i, sig in enumerate(sigs):
            if len(sig.words) != len(tables) or any(
                    len(tw) != table.num_words
                    for table, tw in zip(tables, sig.words)):
                raise SignatureError(
                    "signature %d has mismatched thread sections: %s"
                    % (i, sig))
        specs = self._col_specs
        rows = []
        for i, sig in enumerate(sigs):
            flat = sig.flat
            recon = [0] * self.total_words
            row = []
            for wc, mult, ncand in specs:
                d = (flat[wc] // mult) % ncand
                row.append(d)
                recon[wc] += d * mult
            if tuple(recon) != flat:
                raise SignatureError(
                    "signature %d (%s) is outside the mixed-radix "
                    "range of its weight tables" % (i, sig))
            rows.append(row)
        self._digit_rows = rows

    def _build_tapes(self) -> None:
        """Per-step edge tapes from the digit-row column diff.

        For checked index ``i >= 1``, ``rem_flat[rem_off[i]:rem_off[i+1]]``
        holds the edge ids whose refcount drops by one (the old digit's
        pairs of every changed column) and ``add_flat`` likewise the new
        digit's pairs — the exact multisets ``SignatureDeltaSource``
        feeds ``DeltaGraphState.apply_pairs``, flattened.
        """
        rows = self._digit_rows
        n = len(rows)
        col_edges = self._col_edges
        rem_flat = array("i")
        add_flat = array("i")
        # offsets are indexed by *checked index*: index 0 has no tape, so
        # its empty slice is the leading [0, 0]; step i-1 lands at slot i
        rem_off = array("i", [0, 0])
        add_off = array("i", [0, 0])
        digits_changed = 0
        for step in range(n - 1):
            old, new = rows[step], rows[step + 1]
            for c, edges_by_digit in enumerate(col_edges):
                od, nd = old[c], new[c]
                if od != nd:
                    digits_changed += 1
                    rem_flat.extend(edges_by_digit[od])
                    add_flat.extend(edges_by_digit[nd])
            rem_off.append(len(rem_flat))
            add_off.append(len(add_flat))
        self.rem_flat = rem_flat
        self.add_flat = add_flat
        self.rem_off = rem_off
        self.add_off = add_off
        self.digits_changed_total = digits_changed
        self.edges_removed_total = len(rem_flat)
        self.edges_added_total = len(add_flat)
        # list mirrors: CPython list indexing beats array('i') in the
        # replay loop, and converting once here keeps check() allocation-
        # free apart from its own mutable state
        self._rem_flat_list = rem_flat.tolist()
        self._add_flat_list = add_flat.tolist()
        self._rem_off_list = rem_off.tolist()
        self._add_off_list = add_off.tolist()

    def _build_base(self) -> None:
        """Initial refcounts/live flags and the index-0 adjacency.

        The first complete sort must run on adjacency lists whose
        insertion order matches the delta pipeline's live state (static
        pairs first, then rf iteration order) so FIFO tie-breaking is
        identical — built here once from the same pair stream.
        """
        counts = list(self._base_counts)
        row0 = self._digit_rows[0]
        for c, edges_by_digit in enumerate(self._col_edges):
            for e in edges_by_digit[row0[c]]:
                counts[e] += 1
        self.counts0 = array("i", counts)
        self._counts0_list = counts
        self.live0 = bytes(1 if c else 0 for c in counts)
        rf0 = self.codec.decode(self.signatures[0])
        self.initial_adjacency = DeltaGraphState(
            self.num_vertices,
            list(self.builder.iter_execution_pairs(rf0))).adjacency
        # the index-0 complete sort is a pure function of the plan (FIFO
        # Kahn), so compile it once here
        scratch = array("i", bytes(4 * self.num_vertices))
        self.base_order = complete_sort(self.initial_adjacency,
                                        self.num_vertices, scratch)
        if self.base_order is None:
            self.base_position = None
        else:
            self.base_position = [0] * self.num_vertices
            for pos, v in enumerate(self.base_order):
                self.base_position[v] = pos

    def _empty_block(self) -> None:
        self._digit_rows = []
        self.rem_flat = self.add_flat = array("i")
        self.rem_off = self.add_off = array("i", [0])
        self._rem_flat_list = self._add_flat_list = []
        self._rem_off_list = self._add_off_list = [0]
        self.digits_changed_total = 0
        self.edges_removed_total = self.edges_added_total = 0
        self.counts0 = array("i")
        self._counts0_list = []
        self.live0 = b""
        self.initial_adjacency = {}
        self.base_order = None
        self.base_position = None

    # -- graph-source protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def num_edges(self) -> int:
        """Size of the edge universe (distinct pairs, all executions)."""
        return len(self.esrc)

    def full_graph(self, index: int):
        """Materialize one execution's typed constraint graph.

        Only for witness extraction, baseline cross-checks and violating
        prefixes — the hot loop never calls this.
        """
        return self.builder.build(self.codec.decode(self.signatures[index]))


class PackedChecker:
    """Collective checking over a :class:`PackedPlan`.

    Reproduces :meth:`CollectiveChecker.check_deltas` verdict for
    verdict — same methods, witnesses and ``sorted_vertices`` — from the
    plan's flat arrays.
    """

    def check(self, plan: PackedPlan) -> CheckReport:
        report = CheckReport()
        if not len(plan):
            return report
        report.num_vertices_per_graph = plan.num_vertices

        obs = get_obs()
        with obs.span("checker.collective") as span:
            self._check_loop(plan, report)
        report.elapsed = span.elapsed
        report.digits_changed += plan.digits_changed_total
        report.edges_removed += plan.edges_removed_total
        report.edges_added += plan.edges_added_total
        if obs.enabled:
            report.record_metrics(obs, "checker.collective", pipeline="packed")
            self._record_packed_metrics(obs, report, plan)
        return report

    # -- replay loop ------------------------------------------------------------

    def _check_loop(self, plan: PackedPlan, report: CheckReport) -> None:
        num_vertices = plan.num_vertices
        vertices = range(num_vertices)
        esrc, edst = plan._esrc_list, plan._edst_list
        rem_flat = plan._rem_flat_list
        add_flat = plan._add_flat_list
        rem_off, add_off = plan._rem_off_list, plan._add_off_list

        counts = plan._counts0_list.copy()
        live = bytearray(plan.live0)
        successors = _LiveSuccessors(plan, live)
        position = [0] * num_vertices
        order = None
        have_order = False
        indegree = array("i", bytes(4 * num_vertices))
        pend = array("b", bytes(plan.num_edges))
        touched: list = []
        touched_append = touched.append
        backs: list = []
        backs_append = backs.append
        verdicts_append = report.verdicts.append
        sorted_vertices = 0

        for index in range(len(plan)):
            if index:
                for k in range(rem_off[index], rem_off[index + 1]):
                    e = rem_flat[k]
                    c = counts[e] - 1
                    counts[e] = c
                    if not c:
                        live[e] = 0
                        if have_order:
                            pend[e] = 0 if pend[e] == 1 else -1
                            touched_append(e)
                for k in range(add_off[index], add_off[index + 1]):
                    e = add_flat[k]
                    c = counts[e]
                    counts[e] = c + 1
                    if not c:
                        live[e] = 1
                        if have_order:
                            pend[e] = 0 if pend[e] == -1 else 1
                            touched_append(e)

            if not have_order:
                sorted_vertices += num_vertices
                if index == 0:
                    # compiled with the plan (same FIFO sort, same input)
                    candidate = plan.base_order
                    adjacency = plan.initial_adjacency
                else:
                    adjacency = plan.full_graph(index).adjacency
                    candidate = complete_sort(adjacency, num_vertices,
                                              indegree)
                if candidate is None:
                    cycle = tuple(find_cycle(vertices, adjacency))
                    verdicts_append(
                        Verdict(index, True, cycle, COMPLETE, num_vertices))
                    continue
                if candidate is plan.base_order:
                    order = candidate.copy()
                    position = plan.base_position.copy()
                else:
                    order = candidate
                    for pos, v in enumerate(order):
                        position[v] = pos
                have_order = True
                verdicts_append(
                    Verdict(index, False, None, COMPLETE, num_vertices))
                continue

            lead = num_vertices
            trail = -1
            del backs[:]
            for e in touched:
                if pend[e] == 1:
                    pu = position[esrc[e]]
                    pv = position[edst[e]]
                    if pu > pv:
                        backs_append((pu, pv))
                        if pv < lead:
                            lead = pv
                        if pu > trail:
                            trail = pu
            if trail < 0:
                for e in touched:
                    pend[e] = 0
                del touched[:]
                verdicts_append(Verdict(index, False, None, NO_RESORT, 0))
                continue

            wsize = trail - lead + 1
            sorted_vertices += wsize
            if not resort_window(order, position, successors, lead, trail,
                                 backs):
                in_window = lambda w: lead <= position[w] <= trail
                cycle = tuple(find_cycle(order[lead:trail + 1],
                                         plan.full_graph(index).adjacency,
                                         membership=in_window))
                verdicts_append(
                    Verdict(index, True, cycle, INCREMENTAL, wsize))
                continue
            for e in touched:
                pend[e] = 0
            del touched[:]
            verdicts_append(Verdict(index, False, None, INCREMENTAL, wsize))

        report.sorted_vertices += sorted_vertices

    @staticmethod
    def _record_packed_metrics(obs, report: CheckReport,
                               plan: PackedPlan) -> None:
        metrics = obs.metrics
        metrics.counter("checker.packed.graphs").inc(report.num_graphs)
        metrics.counter("checker.packed.digits_changed").inc(
            report.digits_changed)
        metrics.counter("checker.packed.edges_added").inc(report.edges_added)
        metrics.counter("checker.packed.edges_removed").inc(
            report.edges_removed)
        metrics.gauge("checker.packed.edge_universe").set(plan.num_edges)
        window_hist = metrics.histogram("checker.packed.window_size")
        for verdict in report.verdicts:
            if verdict.method == INCREMENTAL:
                window_hist.observe(verdict.resorted_vertices)


class _LiveSuccessors:
    """A replay's live edges in the ``adjacency.get`` shape.

    :func:`~repro.graph.toposort.resort_window` reads successors through
    ``adjacency.get(v, default)``; this view answers from the plan's CSR
    arrays and the replay's liveness bytes, so only present edges come
    back.  The re-sort asks only for deferred vertices.
    """

    __slots__ = ("_off", "_eidx", "_dst", "_live")

    def __init__(self, plan: PackedPlan, live: bytearray):
        self._off = plan._csr_off_list
        self._eidx = plan._csr_eidx_list
        self._dst = plan._csr_dst_list
        self._live = live

    def get(self, v: int, default=()) -> list:
        eidx, dst, live = self._eidx, self._dst, self._live
        return [dst[j] for j in range(self._off[v], self._off[v + 1])
                if live[eidx[j]]]
