"""Constraint graphs over test-program operations (paper Section 2).

Vertices are operation uids (dense ints, shared by every execution of the
same test — "vertex data structures are recycled for all constraint
graphs").  Edges carry a dependency type:

* ``po`` — intra-thread ordering required by the MCM (plus barriers),
* ``rf`` — reads-from: store -> load that observed it,
* ``fr`` — from-read: load -> store that coherence-overwrites its source,
* ``ws`` — write serialization: per-address coherence order of stores.

A cyclic constraint graph witnesses a memory-consistency violation.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Edge type tags.
PO, RF, FR, WS = "po", "rf", "fr", "ws"


@dataclass(frozen=True)
class Edge:
    """A typed, directed dependency between two operations."""

    src: int
    dst: int
    kind: str

    def __repr__(self):
        return "%d-%s->%d" % (self.src, self.kind, self.dst)


class ConstraintGraph:
    """A constraint graph for one unique test execution.

    Args:
        num_vertices: total operation count of the test program (vertex
            IDs are ``range(num_vertices)``).
        edges: iterable of :class:`Edge`.

    The pair set (src, dst) is deduplicated; one ``(src, dst) -> kind``
    dict records both presence and the first dependency type added for
    the pair (an rf and a po edge between the same pair collapse into
    one adjacency entry, queryable via :meth:`edge_kind`).
    """

    def __init__(self, num_vertices: int, edges=()):
        self.num_vertices = num_vertices
        self._kinds: dict[tuple[int, int], str] = {}
        self._edge_pairs: frozenset | None = None
        self.adjacency: dict[int, list[int]] = {}
        for edge in edges:
            self.add_edge(edge)

    def add_edge(self, edge: Edge) -> None:
        self.add_pairs(((edge.src, edge.dst),), (edge.kind,))

    def add_pairs(self, pairs, kinds) -> None:
        """Add edges given as parallel sequences of (src, dst) pairs and
        their kinds, in order; the same as one :meth:`add_edge` each."""
        present = self._kinds
        adjacency = self.adjacency
        for pair, kind in zip(pairs, kinds):
            if pair in present or pair[0] == pair[1]:
                continue  # self-loops carry no ordering information
            present[pair] = kind
            successors = adjacency.get(pair[0])
            if successors is None:
                adjacency[pair[0]] = [pair[1]]
            else:
                successors.append(pair[1])
        self._edge_pairs = None

    def copy(self) -> "ConstraintGraph":
        """An independent copy: same pairs, kinds and adjacency order.

        Container copies only (the kind dict and every adjacency list),
        so a builder can stamp out graphs from one static template at C
        speed; adding edges to the copy leaves the original unchanged.
        """
        new = ConstraintGraph.__new__(ConstraintGraph)
        new.num_vertices = self.num_vertices
        new._kinds = self._kinds.copy()
        new._edge_pairs = self._edge_pairs
        adjacency = self.adjacency
        new.adjacency = dict(zip(adjacency, map(list.copy,
                                                adjacency.values())))
        return new

    @property
    def edge_pairs(self) -> frozenset:
        """Immutable (src, dst) pair set — the unit of graph diffing.

        Cached after the first access (the collective checker reads it
        several times per graph); invalidated by adding edges.
        """
        if self._edge_pairs is None:
            self._edge_pairs = frozenset(self._kinds)
        return self._edge_pairs

    def edge_kind(self, src: int, dst: int) -> str:
        """Dependency type recorded for an edge pair."""
        return self._kinds[(src, dst)]

    @property
    def num_edges(self) -> int:
        return len(self._kinds)

    def successors(self, vertex: int) -> list[int]:
        return self.adjacency.get(vertex, [])

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._kinds

    def __repr__(self):
        return "ConstraintGraph(V=%d, E=%d)" % (self.num_vertices, self.num_edges)
