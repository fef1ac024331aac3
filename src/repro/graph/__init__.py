"""Constraint graphs, builders and topological sorting."""

from repro.graph.builder import GraphBuilder
from repro.graph.delta import DeltaGraphState, GraphDelta
from repro.graph.export import to_dot, to_networkx
from repro.graph.constraint_graph import FR, PO, RF, WS, ConstraintGraph, Edge
from repro.graph.toposort import complete_sort, find_cycle, kahn_sort, topological_sort

__all__ = [
    "FR",
    "PO",
    "RF",
    "WS",
    "ConstraintGraph",
    "DeltaGraphState",
    "Edge",
    "GraphBuilder",
    "GraphDelta",
    "complete_sort",
    "find_cycle",
    "kahn_sort",
    "to_dot",
    "to_networkx",
    "topological_sort",
]
