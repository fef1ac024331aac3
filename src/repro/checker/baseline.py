"""Conventional per-execution graph checking (the paper's baseline).

Every unique execution's constraint graph is independently and completely
topologically sorted — the approach of TSOtool [24] and of the paper's
``tsort``-based comparison point.  Figure 9 measures MTraceCheck's
collective checker against exactly this.  Each sort is the list-indexed
Kahn loop of :func:`~repro.graph.toposort.kahn_sort`, the stand-in for
``tsort``'s C loop: prebuilt graphs have their in-degrees counted into
one scratch reused across graphs (:func:`complete_sort`), while a
signature stream sorts each execution straight from the builder's
static tables, with no graph built.
"""

from __future__ import annotations

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.toposort import complete_sort, find_cycle, kahn_sort
from repro.checker.results import COMPLETE, CheckReport, Verdict
from repro.obs import get_obs


class BaselineChecker:
    """Checks each constraint graph individually with a full sort."""

    def check(self, graphs: list[ConstraintGraph]) -> CheckReport:
        """Topologically sort every graph; report violations.

        Args:
            graphs: prebuilt constraint graphs (any order).  As in the
                paper's measurement, graph construction is excluded from
                the timed region — only sorting is timed.
        """
        if not graphs:
            return CheckReport()
        num_vertices = graphs[0].num_vertices
        indegree = [0] * num_vertices
        orders = (complete_sort(graph.adjacency, num_vertices, indegree)
                  for graph in graphs)
        return self._check(num_vertices, orders, graphs.__getitem__,
                           pipeline="graphs")

    def check_stream(self, source) -> CheckReport:
        """Check a signature source one execution at a time.

        ``source`` is any sorted signature block with ``codec``,
        ``signatures``, a static-ws ``builder`` and ``full_graph``
        (:class:`~repro.checker.delta.SignatureDeltaSource`,
        :class:`~repro.checker.packed.PackedPlan`,
        :class:`~repro.checker.poly.PolySignatureSource`).  Each
        signature is decoded and sorted from
        :meth:`~repro.graph.builder.GraphBuilder.sort_tables`; only a
        cyclic execution builds its graph, for the witness.  Verdicts
        and witnesses match :meth:`check` over the same sequence
        exactly; ``elapsed`` additionally covers the decode and the
        tables (unlike the prebuilt-graphs path), so Figure-9-style
        timing comparisons should keep using :meth:`check`.
        """
        if not len(source):
            return CheckReport()
        num_vertices = source.num_vertices
        tables = source.builder.sort_tables
        decode = source.codec.decode

        def orders():
            for signature in source.signatures:
                adjacency, indegree = tables(decode(signature))
                yield kahn_sort(adjacency, num_vertices, indegree)

        return self._check(num_vertices, orders(), source.full_graph,
                           pipeline="delta")

    def _check(self, num_vertices: int, orders, graph_at,
               pipeline: str = None) -> CheckReport:
        """Collect one verdict per sort; ``graph_at(index)`` supplies a
        cyclic execution's graph for its witness."""
        report = CheckReport()
        vertices = range(num_vertices)
        report.num_vertices_per_graph = num_vertices

        obs = get_obs()
        with obs.span("checker.baseline") as span:
            for index, order in enumerate(orders):
                report.sorted_vertices += num_vertices
                if order is None:
                    cycle = tuple(find_cycle(vertices,
                                             graph_at(index).adjacency))
                    report.verdicts.append(Verdict(index, True, cycle, COMPLETE,
                                                   num_vertices))
                else:
                    report.verdicts.append(Verdict(index, False, None, COMPLETE,
                                                   num_vertices))
        report.elapsed = span.elapsed
        if obs.enabled:
            report.record_metrics(obs, "checker.baseline", pipeline=pipeline)
        return report
