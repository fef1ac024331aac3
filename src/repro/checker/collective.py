"""Collective constraint-graph checking (paper Section 4.2) .

MTraceCheck's key checking insight: constraint graphs of a test's many
executions share all vertices and most edges, and *sorting the execution
signatures* places structurally similar graphs next to each other.  The
checker therefore:

1. fully sorts the first graph (conventional Kahn),
2. for each subsequent graph, diffs its edge set against the previous
   *valid* graph; edges that are forward w.r.t. the current topological
   order — and removed edges — cannot create a cycle, so if no added edge
   is backward the graph is validated with **no re-sorting at all**;
3. otherwise re-sorts only the window of vertices between the *leading*
   and *trailing* boundaries — the outermost order positions touched by
   new backward edges.  If the window's induced subgraph cannot be
   topologically sorted, the execution violates the MCM.

Both walks — :meth:`CollectiveChecker.check` over built graphs and
:meth:`CollectiveChecker.delta_walk` over a delta stream — hand the
backward edges their lead/trail scan finds to
:func:`~repro.graph.toposort.resort_window`.  Every other edge of the
window is forward under the old order, so the re-sort keeps the old
order except around those edges' endpoints and the vertices they delay;
its cost follows the backward edges and the vertices that move, not the
window size.

Correctness of the windowed re-sort: all added backward edges have both
endpoints inside the window by construction; vertices outside the window
keep their positions, and window vertices stay within the window's
position span, so every edge crossing the window boundary keeps its
(forward) orientation.  Re-sorting the induced subgraph with the full
edge set therefore restores a valid topological order of the entire
graph, exactly when one exists.
"""

from __future__ import annotations

from itertools import count

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.toposort import complete_sort, find_cycle, resort_window
from repro.checker.results import (
    COMPLETE,
    INCREMENTAL,
    NO_RESORT,
    CheckReport,
    Verdict,
)
from repro.obs import get_obs


class CollectiveChecker:
    """Validates a signature-sorted sequence of constraint graphs.

    The caller is responsible for ordering ``graphs`` by ascending
    execution signature (see :meth:`repro.harness.Campaign.check`); the
    algorithm is correct for any order but derives its speed from
    signature-adjacent graphs being similar.  Complete sorts break ties
    FIFO; window re-sorts break them by the previous order (stable
    re-sorting), so the base order drifts as little as possible.
    """

    def check(self, graphs: list[ConstraintGraph]) -> CheckReport:
        report = CheckReport()
        if not graphs:
            return report
        report.num_vertices_per_graph = graphs[0].num_vertices

        obs = get_obs()
        with obs.span("checker.collective") as span:
            self._check_all(graphs, report)
        report.elapsed = span.elapsed
        if obs.enabled:
            report.record_metrics(obs, "checker.collective", pipeline="graphs")
        return report

    def _check_all(self, graphs: list[ConstraintGraph], report: CheckReport) -> None:
        num_vertices = graphs[0].num_vertices
        vertices = range(num_vertices)

        order: list[int] | None = None       # topological order of the base graph
        position: list[int] = [0] * num_vertices
        indegree = [0] * num_vertices        # complete sort scratch
        base_edges: frozenset | None = None

        for index, graph in enumerate(graphs):
            if order is None:
                # First graph (or: no valid base yet) — complete check.
                candidate = complete_sort(graph.adjacency, num_vertices,
                                          indegree)
                report.sorted_vertices += num_vertices
                if candidate is None:
                    cycle = tuple(find_cycle(vertices, graph.adjacency))
                    report.verdicts.append(
                        Verdict(index, True, cycle, COMPLETE, num_vertices))
                    continue
                order = candidate
                for pos, v in enumerate(order):
                    position[v] = pos
                base_edges = graph.edge_pairs
                report.verdicts.append(
                    Verdict(index, False, None, COMPLETE, num_vertices))
                continue

            added = graph.edge_pairs - base_edges
            lead = num_vertices
            trail = -1
            backs = []
            for u, v in added:
                pu, pv = position[u], position[v]
                if pu > pv:  # backward edge w.r.t. the current order
                    backs.append((pu, pv))
                    if pv < lead:
                        lead = pv
                    if pu > trail:
                        trail = pu
            if trail < 0:
                # No new backward edges: the current order is already a
                # topological sort of this graph.
                base_edges = graph.edge_pairs
                report.verdicts.append(Verdict(index, False, None, NO_RESORT, 0))
                continue

            size = trail - lead + 1
            report.sorted_vertices += size
            if not resort_window(order, position, graph.adjacency, lead,
                                 trail, backs):
                cycle = tuple(find_cycle(order[lead:trail + 1],
                                         graph.adjacency))
                report.verdicts.append(
                    Verdict(index, True, cycle, INCREMENTAL, size))
                continue  # keep the last valid base
            base_edges = graph.edge_pairs
            report.verdicts.append(
                Verdict(index, False, None, INCREMENTAL, size))

    # -- delta pipeline ---------------------------------------------------------

    def check_deltas(self, source) -> CheckReport:
        """Validate a delta stream without materializing every graph.

        The streaming form of :meth:`check`: ``source`` (typically a
        :class:`~repro.checker.delta.SignatureDeltaSource`) yields one
        refcounted base state plus per-execution :class:`GraphDelta`
        records, and the checker maintains adjacency, topological order
        and a position table in place.  Per execution the
        cost is O(changed digits + backward edges + vertices the re-sort
        defers or moves), not O(vertices + edges): full graphs are built
        only while no valid base order exists and to extract violation
        witnesses.

        Verdicts, cycle witnesses and ``sorted_vertices`` accounting are
        identical to running :meth:`check` over the fully built graph
        list — the delta stream reproduces exactly the legacy
        added-edge-versus-last-valid-base comparison (property-tested in
        ``tests/test_checker_delta.py``).
        """
        obs = get_obs()
        # announce the walk on the event plane: the plan record pairs
        # with the checkers' check.batch events downstream
        obs.emit("checker.delta.plan", signatures=len(source))
        report = CheckReport()
        if not len(source):
            return report
        report.num_vertices_per_graph = source.num_vertices

        with obs.span("checker.collective") as span:
            report.verdicts.extend(self.delta_walk(source, report))
        report.elapsed = span.elapsed
        if obs.enabled:
            report.record_metrics(obs, "checker.collective", pipeline="delta")
            self._record_delta_metrics(obs, report)
        return report

    def delta_walk(self, source, report: CheckReport):
        """The delta pipeline, one execution per step (a generator).

        Each step checks the next execution of a non-empty ``source``,
        adds its delta and re-sort counts to ``report`` and yields its
        verdict; the caller appends the verdict to ``report.verdicts``.
        ``len(source)`` is read again before every step, so a source
        that grows between steps is walked as far as it reaches:
        :meth:`check_deltas` drains the walk over a complete sorted
        sequence, and :class:`~repro.checker.stream.
        StreamingCollectiveChecker` advances it by one per signature fed.
        """
        num_vertices = source.num_vertices
        vertices = range(num_vertices)

        order: list[int] | None = None       # topological order of the base graph
        position = [0] * num_vertices
        indegree = [0] * num_vertices        # complete sort scratch
        # one live graph state for the whole stream: seeded from the
        # first execution, advanced by every delta (valid or not)
        state = source.base_state(0)
        delta_pairs = source.delta_pairs
        apply_pairs = state.apply_pairs
        #: net presence change per pair since the last *valid* base:
        #: +1 added, -1 removed (pairs toggling back cancel out)
        pending: dict[tuple[int, int], int] = {}

        for index in count():
            if index == len(source):
                return  # no next execution (a growing source: not yet)
            if index:
                removed, added, digits = delta_pairs(index)
                report.digits_changed += digits
                report.edges_removed += len(removed)
                report.edges_added += len(added)
                appeared, vanished = apply_pairs(removed, added)
                if order is not None:
                    for pair in appeared:
                        if pending.pop(pair, 0) >= 0:  # not cancelling a removal
                            pending[pair] = 1
                    for pair in vanished:
                        if pending.pop(pair, 0) <= 0:  # not cancelling an addition
                            pending[pair] = -1

            if order is None:
                # No valid base yet — completely check this one graph.
                # At index 0 the live state's adjacency lists match the
                # built graph's insertion order exactly (static pairs
                # first, then rf-iteration order), so the FIFO-tied sort
                # runs on the state; later complete sorts only happen
                # inside a violating prefix, where apply() has reordered
                # the live lists, so the one graph is rebuilt — keeping
                # every tie-break identical to the legacy pipeline.
                adjacency = (state.adjacency if index == 0
                             else source.full_graph(index).adjacency)
                candidate = complete_sort(adjacency, num_vertices, indegree)
                report.sorted_vertices += num_vertices
                if candidate is None:
                    cycle = tuple(find_cycle(vertices, adjacency))
                    yield Verdict(index, True, cycle, COMPLETE, num_vertices)
                    continue
                order = candidate
                for pos, v in enumerate(order):
                    position[v] = pos
                pending.clear()      # the live state IS the new base
                yield Verdict(index, False, None, COMPLETE, num_vertices)
                continue

            lead = num_vertices
            trail = -1
            backs = []
            for (u, v), change in pending.items():
                if change < 0:
                    continue  # removed edges cannot create a cycle
                pu, pv = position[u], position[v]
                if pu > pv:  # backward edge w.r.t. the current order
                    backs.append((pu, pv))
                    if pv < lead:
                        lead = pv
                    if pu > trail:
                        trail = pu
            if trail < 0:
                # No new backward edges: the current order is already a
                # topological sort of this graph.
                pending.clear()
                yield Verdict(index, False, None, NO_RESORT, 0)
                continue

            size = trail - lead + 1
            report.sorted_vertices += size
            if not resort_window(order, position, state.adjacency, lead,
                                 trail, backs):
                # Rare path: rebuild this one graph so the DFS walks the
                # same adjacency order as the legacy checker and extracts
                # the identical witness cycle.
                in_window = lambda w: lead <= position[w] <= trail
                cycle = tuple(find_cycle(order[lead:trail + 1],
                                         source.full_graph(index).adjacency,
                                         membership=in_window))
                yield Verdict(index, True, cycle, INCREMENTAL, size)
                continue  # keep the last valid base order
            pending.clear()
            yield Verdict(index, False, None, INCREMENTAL, size)

    @staticmethod
    def _record_delta_metrics(obs, report: CheckReport) -> None:
        metrics = obs.metrics
        metrics.counter("checker.delta.graphs").inc(report.num_graphs)
        metrics.counter("checker.delta.digits_changed").inc(report.digits_changed)
        metrics.counter("checker.delta.edges_added").inc(report.edges_added)
        metrics.counter("checker.delta.edges_removed").inc(report.edges_removed)
        window_hist = metrics.histogram("checker.delta.window_size")
        for verdict in report.verdicts:
            if verdict.method == INCREMENTAL:
                window_hist.observe(verdict.resorted_vertices)
