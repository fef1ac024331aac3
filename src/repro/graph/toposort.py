"""Topological sorting and cycle extraction for constraint graphs.

Kahn's algorithm (the paper's conventional checker is GNU ``tsort``,
also Kahn-based) plus a DFS cycle extractor used to produce readable
violation reports like the paper's Figure 13.

All functions operate on a plain adjacency mapping ``{vertex: [succ,...]}``.
:func:`complete_sort` sorts every vertex of a graph (the baseline checks
each execution with it; the collective checkers use it while they have
no valid base order); :func:`topological_sort` and :func:`find_cycle`
restrict to ``vertices``, so the collective checker can re-sort induced
sub-windows without materializing subgraphs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Mapping, MutableSequence, Sequence


def complete_sort(adjacency: Mapping[int, Sequence[int]], num_vertices: int,
                  indegree: MutableSequence[int],
                  key: Callable[[int], object] = None) -> list[int] | None:
    """Topologically sort all of ``range(num_vertices)``.

    Returns exactly ``topological_sort(range(num_vertices), adjacency,
    key=key)``, tie for tie: FIFO ties without a key, the same
    ``(key(v), v)`` heap with one.  Every vertex is a member, so there is
    no membership test, and in-degrees are counted into ``indegree``, a
    caller-owned scratch sequence of ``num_vertices`` zeros that is all
    zero again on return (whether or not the graph is acyclic), so one
    scratch serves a whole stream of graphs.  Without a key the output
    list doubles as the FIFO queue.

    Returns the order, or None when the graph is cyclic.
    """
    for successors in adjacency.values():
        for w in successors:
            indegree[w] += 1
    empty = ()
    vertices = range(num_vertices)
    if key is None:
        order = [v for v in vertices if not indegree[v]]
        append = order.append
        for v in order:  # appended-to while iterated: a FIFO queue
            for w in adjacency.get(v, empty):
                remaining = indegree[w] - 1
                indegree[w] = remaining
                if not remaining:
                    append(w)
    else:
        order = []
        append = order.append
        heap = [(key(v), v) for v in vertices if not indegree[v]]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            v = heappop(heap)[1]
            append(v)
            for w in adjacency.get(v, empty):
                remaining = indegree[w] - 1
                indegree[w] = remaining
                if not remaining:
                    heappush(heap, (key(w), w))
    if len(order) == num_vertices:
        return order  # every in-degree was counted back down to zero
    for v in vertices:
        indegree[v] = 0
    return None


def topological_sort(vertices: Sequence[int],
                     adjacency: Mapping[int, Iterable[int]],
                     key: Callable[[int], object] = None,
                     membership: Callable[[int], bool] = None) -> list[int] | None:
    """Topologically sort ``vertices`` under ``adjacency``.

    Edges with an endpoint outside ``vertices`` are ignored, which is what
    windowed re-sorting requires.  Returns the sorted vertex list, or
    ``None`` when a cycle makes sorting impossible (an MCM violation).

    Args:
        key: optional tie-breaking priority — among simultaneously ready
            vertices, lower keys are emitted first.  The collective
            checker uses this to seed orders that stay valid across
            signature-adjacent graphs (fewer re-sorts).  Without a key,
            ties break in FIFO order over the (deterministic) input order.
        membership: optional precomputed test for "is this vertex in the
            window"; must agree with ``vertices`` (which must then hold no
            duplicates).  Callers that re-sort many windows (the delta
            checker) pass a flag-array lookup here so each call stops
            paying the ``set(vertices)`` construction.
    """
    if membership is None:
        vset = set(vertices)
        member = vset.__contains__
        total = len(vset)
    else:
        member = membership
        total = len(vertices)
    indegree = {v: 0 for v in vertices}
    for v in vertices:
        for w in adjacency.get(v, ()):
            if member(w):
                indegree[w] += 1
    order = []
    if key is None:
        ready = deque(v for v in vertices if indegree[v] == 0)
        pop, push = ready.popleft, ready.append
    else:
        ready = [(key(v), v) for v in vertices if indegree[v] == 0]
        heapq.heapify(ready)

        def pop():
            return heapq.heappop(ready)[1]

        def push(v):
            heapq.heappush(ready, (key(v), v))

    while ready:
        v = pop()
        order.append(v)
        for w in adjacency.get(v, ()):
            if member(w):
                indegree[w] -= 1
                if indegree[w] == 0:
                    push(w)
    if len(order) != total:
        return None
    return order


def find_cycle(vertices: Sequence[int],
               adjacency: Mapping[int, Iterable[int]],
               membership: Callable[[int], bool] = None) -> list[int] | None:
    """Return one cycle (as a vertex list, first == last) or ``None``.

    Iterative DFS with colouring; used only on graphs already known to be
    cyclic, to produce violation reports.  ``membership`` mirrors
    :func:`topological_sort`'s parameter.
    """
    member = set(vertices).__contains__ if membership is None else membership
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {v: WHITE for v in vertices}
    parent: dict[int, int] = {}

    for root in vertices:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(adjacency.get(root, ())))]
        colour[root] = GREY
        while stack:
            v, successors = stack[-1]
            advanced = False
            for w in successors:
                if not member(w):
                    continue
                if colour[w] == WHITE:
                    colour[w] = GREY
                    parent[w] = v
                    stack.append((w, iter(adjacency.get(w, ()))))
                    advanced = True
                    break
                if colour[w] == GREY:
                    # found a back edge v -> w: unwind the cycle
                    cycle = [v]
                    node = v
                    while node != w:
                        node = parent[node]
                        cycle.append(node)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                colour[v] = BLACK
                stack.pop()
        # continue with next root
    return None
