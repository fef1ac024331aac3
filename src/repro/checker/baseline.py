"""Conventional per-execution graph checking (the paper's baseline).

Every unique execution's constraint graph is independently and completely
topologically sorted — the approach of TSOtool [24] and of the paper's
``tsort``-based comparison point.  Figure 9 measures MTraceCheck's
collective checker against exactly this.  Each sort is the list-indexed
Kahn of :func:`~repro.graph.toposort.complete_sort`, the stand-in for
``tsort``'s C loop, with one in-degree scratch reused across graphs.
"""

from __future__ import annotations

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.toposort import complete_sort, find_cycle
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
        return self._check(graphs[0].num_vertices, graphs,
                           pipeline="graphs")

    def check_stream(self, source) -> CheckReport:
        """Check a delta source one fully built graph at a time.

        Used by the delta checking pipeline so the conventional
        comparison never holds more than one materialized graph either.
        Verdicts match :meth:`check` over the same sequence exactly;
        ``elapsed`` additionally covers decode + graph construction
        (unlike the prebuilt-graphs path), so Figure-9-style timing
        comparisons should keep using :meth:`check`.
        """
        if not len(source):
            return CheckReport()
        graphs = (source.full_graph(i) for i in range(len(source)))
        return self._check(source.num_vertices, graphs, pipeline="delta")

    def _check(self, num_vertices: int, graphs,
               pipeline: str = None) -> CheckReport:
        report = CheckReport()
        vertices = range(num_vertices)
        report.num_vertices_per_graph = num_vertices
        indegree = [0] * num_vertices

        obs = get_obs()
        with obs.span("checker.baseline") as span:
            for index, graph in enumerate(graphs):
                order = complete_sort(graph.adjacency, num_vertices, indegree)
                report.sorted_vertices += num_vertices
                if order is None:
                    cycle = tuple(find_cycle(vertices, graph.adjacency))
                    report.verdicts.append(Verdict(index, True, cycle, COMPLETE,
                                                   num_vertices))
                else:
                    report.verdicts.append(Verdict(index, False, None, COMPLETE,
                                                   num_vertices))
        report.elapsed = span.elapsed
        if obs.enabled:
            report.record_metrics(obs, "checker.baseline", pipeline=pipeline)
        return report
