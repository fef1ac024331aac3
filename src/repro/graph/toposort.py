"""Topological sorting and cycle extraction for constraint graphs.

Kahn's algorithm (the paper's conventional checker is GNU ``tsort``,
also Kahn-based) plus a DFS cycle extractor used to produce readable
violation reports like the paper's Figure 13.

All functions operate on a plain adjacency mapping ``{vertex: [succ,...]}``.
:func:`complete_sort` sorts every vertex of a graph (the baseline checks
prebuilt graphs with it; the collective checkers use it while they have
no valid base order) through :func:`kahn_sort`, the one Kahn loop, which
the baseline's stream also calls on in-degrees a builder counted;
:func:`resort_window` is the collective checkers' one windowed re-sort,
which restores an order after new backward edges by touching only the
vertices they delay;
:func:`topological_sort` and :func:`find_cycle` restrict to
``vertices``, so the same adjacency serves any induced subgraph without
materializing it (``topological_sort`` with position keys is the
re-sort's reference).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Mapping, MutableSequence, Sequence


def complete_sort(adjacency: Mapping[int, Sequence[int]], num_vertices: int,
                  indegree: MutableSequence[int]) -> list[int] | None:
    """Topologically sort all of ``range(num_vertices)``.

    Returns exactly ``topological_sort(range(num_vertices), adjacency)``,
    FIFO tie for tie.  In-degrees are counted into ``indegree``, a
    caller-owned scratch sequence of ``num_vertices`` zeros that is all
    zero again on return (whether or not the graph is acyclic), so one
    scratch serves a whole stream of graphs; :func:`kahn_sort` does the
    sorting.

    Returns the order, or None when the graph is cyclic.
    """
    for successors in adjacency.values():
        for w in successors:
            indegree[w] += 1
    order = kahn_sort(adjacency, num_vertices, indegree)
    if order is None:
        for v in range(num_vertices):
            indegree[v] = 0
    return order


def kahn_sort(adjacency: Mapping[int, Sequence[int]], num_vertices: int,
              indegree: MutableSequence[int]) -> list[int] | None:
    """Kahn's FIFO loop over ``range(num_vertices)`` with counted in-degrees.

    ``indegree[v]`` must be the number of times ``v`` occurs in
    ``adjacency``'s successor sequences; a pair listed twice is counted
    twice, so multigraphs sort too.  Every vertex is a member, so there
    is no membership test, and the output list doubles as the FIFO
    queue.  ``indegree`` is consumed: all zero again after an acyclic
    sort, left partly counted after a cyclic one.

    Returns the order, or None when the graph is cyclic.
    """
    empty = ()
    order = [v for v in range(num_vertices) if not indegree[v]]
    append = order.append
    for v in order:  # appended-to while iterated: a FIFO queue
        for w in adjacency.get(v, empty):
            remaining = indegree[w] - 1
            indegree[w] = remaining
            if not remaining:
                append(w)
    return order if len(order) == num_vertices else None


def topological_sort(vertices: Sequence[int],
                     adjacency: Mapping[int, Iterable[int]],
                     key: Callable[[int], object] = None) -> list[int] | None:
    """Topologically sort ``vertices`` under ``adjacency``.

    Edges with an endpoint outside ``vertices`` are ignored, which is what
    windowed re-sorting requires.  Returns the sorted vertex list, or
    ``None`` when a cycle makes sorting impossible (an MCM violation).

    Args:
        key: optional tie-breaking priority — among simultaneously ready
            vertices, lower keys are emitted first; with position keys
            this is :func:`resort_window`'s reference.  Without a key,
            ties break in FIFO order over the (deterministic) input order.
    """
    vset = set(vertices)
    member = vset.__contains__
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
    if len(order) != len(vset):
        return None
    return order


def resort_window(order: list[int], position: MutableSequence[int],
                  adjacency: Mapping[int, Iterable[int]], lead: int,
                  trail: int, backs: Iterable[tuple[int, int]]) -> bool:
    """Re-sort the window ``order[lead:trail + 1]`` in place.

    ``order`` must be a topological order of the graph without the edges
    of ``backs``: the ``(src_pos, dst_pos)`` positions (``src_pos >
    dst_pos``) of every edge that now runs backward, with ``lead`` the
    least ``dst_pos`` and ``trail`` the greatest ``src_pos``.
    ``position`` maps each vertex to its index in ``order``.  The result
    equals ``topological_sort(order[lead:trail + 1], adjacency,
    key=position.__getitem__)``, the min-position Kahn order, found
    without a heap entry per window vertex.

    The scan walks the window in its old order and stops only at
    events, kept in the bytearray ``sched`` (1: still to scan, 2:
    deferred behind the scan): backward-edge endpoints and the forward
    successors of deferred vertices.  A vertex with unemitted window
    predecessors is deferred, and its forward successors in the window
    wait for it in turn.  Emitting a vertex counts down its backward
    targets and, for a deferred vertex, its forward successors, read
    again from ``adjacency``.  Deferred vertices that reach zero are
    emitted at once, lowest position first, which is the min-position
    rule.  While nothing is deferred every vertex keeps its position, so
    only the stretches where something was deferred are written back.
    Per window the Python work is O(backward edges + deferred vertices
    × degree + vertices moved), plus C-speed slicing.

    Returns True after rewriting ``order`` and ``position``, or False,
    leaving both untouched, when the window's subgraph has a cycle.
    """
    span = trail - lead
    window = order[lead:trail + 1]
    block = [0] * (span + 1)       # unemitted predecessors holding it back
    sched = bytearray(span + 1)
    back_targets: dict[int, list[int]] = {}
    for pu, pv in backs:
        pu -= lead
        pv -= lead
        block[pv] += 1
        sched[pu] = sched[pv] = 1
        back_targets.setdefault(pu, []).append(pv)

    empty = ()
    get_successors = adjacency.get
    get_targets = back_targets.get
    find = sched.find
    heappop, heappush = heapq.heappop, heapq.heappush
    moved = []                     # (first position, vertices) per stretch
    deferred = 0
    run_start = 0                  # first position not yet scanned
    p = find(1)
    while p >= 0:
        if deferred and p > run_start:
            stretch.extend(window[run_start:p])
        run_start = p + 1
        if block[p]:
            if not deferred:       # the order goes out of step here
                first = p
                stretch = []
                append = stretch.append
            for w in get_successors(window[p], empty):
                q = position[w] - lead
                if p < q <= span:
                    block[q] += 1
                    sched[q] = 1
            sched[p] = 2
            deferred += 1
        elif deferred:            # emitted in order, behind the deferred
            append(window[p])
            targets = get_targets(p)
            if targets is not None:
                ready = []
                for q in targets:
                    left = block[q] - 1
                    block[q] = left
                    if not left and sched[q] == 2:
                        heappush(ready, q)
                while ready:
                    d = heappop(ready)
                    sched[d] = 0
                    deferred -= 1
                    append(window[d])
                    for w in get_successors(window[d], empty):
                        q = position[w] - lead
                        if d < q <= span:
                            left = block[q] - 1
                            block[q] = left
                            if not left and sched[q] == 2:
                                heappush(ready, q)
                    for q in get_targets(d, empty):
                        left = block[q] - 1
                        block[q] = left
                        if not left and sched[q] == 2:
                            heappush(ready, q)
                if not deferred:   # back in step: positions first..p moved
                    moved.append((lead + first, stretch))
        # else: nothing is deferred, so p keeps its position
        p = find(1, run_start)
    if deferred:
        return False
    for start, stretch in moved:
        order[start:start + len(stretch)] = stretch
        for pos, v in enumerate(stretch, start):
            position[v] = pos
    return True


def find_cycle(vertices: Sequence[int],
               adjacency: Mapping[int, Iterable[int]],
               membership: Callable[[int], bool] = None) -> list[int] | None:
    """Return one cycle (as a vertex list, first == last) or ``None``.

    Iterative DFS with colouring; used only on graphs already known to be
    cyclic, to produce violation reports.  ``membership``, when given,
    replaces the ``set(vertices)`` test; it must agree with ``vertices``
    (the collective checkers pass their window's position bounds check).
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
