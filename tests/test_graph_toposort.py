"""Unit + property tests for topological sorting and cycle extraction."""

from array import array

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.graph import complete_sort, find_cycle, kahn_sort, topological_sort
from repro.graph.toposort import resort_window


def is_topological(order, adjacency):
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[w]
               for u in order for w in adjacency.get(u, ()) if w in pos)


class TestTopologicalSort:
    def test_chain(self):
        adj = {0: [1], 1: [2], 2: [3]}
        assert topological_sort(range(4), adj) == [0, 1, 2, 3]

    def test_cycle_returns_none(self):
        assert topological_sort(range(3), {0: [1], 1: [2], 2: [0]}) is None

    def test_self_edges_outside_vertex_set_ignored(self):
        adj = {0: [1], 1: [99]}            # 99 not in the sorted set
        assert topological_sort(range(2), adj) == [0, 1]

    def test_subset_sorting_ignores_external_cycle(self):
        # cycle 2->3->2 exists, but we only sort {0, 1}
        adj = {0: [1], 2: [3], 3: [2]}
        assert topological_sort([0, 1], adj) == [0, 1]

    def test_empty(self):
        assert topological_sort([], {}) == []

    def test_key_controls_tie_breaking(self):
        adj = {}
        order = topological_sort([3, 1, 2], adj, key=lambda v: -v)
        assert order == [3, 2, 1]

    def test_key_respects_edges(self):
        adj = {2: [1]}
        order = topological_sort([1, 2, 3], adj, key=lambda v: v)
        assert order.index(2) < order.index(1)
        assert is_topological(order, adj)

    def test_deterministic_without_key(self):
        adj = {0: [2]}
        a = topological_sort([2, 0, 1], adj)
        b = topological_sort([2, 0, 1], adj)
        assert a == b


class TestFindCycle:
    def test_finds_simple_cycle(self):
        adj = {0: [1], 1: [2], 2: [0]}
        cycle = find_cycle(range(3), adj)
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {0, 1, 2}

    def test_cycle_edges_exist(self):
        adj = {0: [1], 1: [2, 3], 3: [1], 2: []}
        cycle = find_cycle(range(4), adj)
        for u, v in zip(cycle, cycle[1:]):
            assert v in adj.get(u, ())

    def test_acyclic_returns_none(self):
        assert find_cycle(range(3), {0: [1], 1: [2]}) is None

    def test_restricted_vertex_set(self):
        adj = {0: [1], 1: [0], 2: [3]}
        assert find_cycle([2, 3], adj) is None
        assert find_cycle([0, 1], adj) is not None


@st.composite
def random_digraph(draw):
    n = draw(st.integers(1, 25))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=80))
    adj = {}
    for u, v in edges:
        if u != v:
            adj.setdefault(u, []).append(v)
    return n, adj


class TestPrecomputedMembership:
    """``find_cycle``'s optional ``membership`` test must never change
    results."""

    def member_fn(self, vertices, universe=128):
        # sized over the whole vertex universe, as the delta checker's
        # window flags are: membership must answer for any vertex the
        # adjacency map can reach, not just the searched subset
        flags = bytearray(universe)
        for v in vertices:
            flags[v] = 1
        return flags.__getitem__

    def test_find_cycle_matches_default_membership(self):
        adj = {0: [1], 1: [2, 3], 3: [1], 2: []}
        window = list(range(4))
        assert find_cycle(window, adj, membership=self.member_fn(window)) \
            == find_cycle(window, adj)

    def test_find_cycle_respects_membership_restriction(self):
        adj = {0: [1], 1: [0], 2: [3]}
        assert find_cycle([2, 3], adj, membership=self.member_fn([2, 3])) is None

    @given(random_digraph())
    @settings(max_examples=60, deadline=None)
    def test_property_membership_equivalence(self, case):
        n, adj = case
        member = self.member_fn(list(range(n)))
        assert find_cycle(range(n), adj, membership=member) == \
            find_cycle(range(n), adj)


class TestAgainstNetworkx:
    @given(random_digraph())
    @settings(max_examples=120, deadline=None)
    def test_matches_networkx_acyclicity(self, case):
        n, adj = case
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, vs in adj.items() for v in vs)
        ours = topological_sort(range(n), adj)
        theirs_acyclic = nx.is_directed_acyclic_graph(g)
        assert (ours is not None) == theirs_acyclic
        if ours is not None:
            assert is_topological(ours, adj)
            assert sorted(ours) == list(range(n))
        else:
            cycle = find_cycle(range(n), adj)
            assert cycle is not None
            for u, v in zip(cycle, cycle[1:]):
                assert v in adj.get(u, ())


@st.composite
def random_dag(draw):
    """A DAG: edges run forward in a random permutation of the vertices."""
    n = draw(st.integers(1, 25))
    rank = draw(st.permutations(range(n)))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=80))
    adj = {}
    for a, b in edges:
        if a != b:
            u, v = sorted((rank[a], rank[b]))
            adj.setdefault(u, []).append(v)
    return n, adj


class TestCompleteSort:
    """``complete_sort`` is the one complete sort (baseline, collective,
    packed): it must equal the generic Kahn tie for tie and hand its
    in-degree scratch back all zero."""

    @given(st.one_of(random_dag(), random_digraph()), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_topological_sort(self, case, as_array):
        n, adj = case
        scratch = array("i", [0] * n) if as_array else [0] * n
        order = complete_sort(adj, n, scratch)
        assert order == topological_sort(range(n), adj)
        assert list(scratch) == [0] * n

    def test_scratch_serves_the_next_graph_after_a_cycle(self):
        scratch = [0] * 5
        assert complete_sort({0: [1], 1: [2], 2: [1], 3: [4]}, 5,
                             scratch) is None
        assert scratch == [0] * 5
        assert complete_sort({4: [3], 3: [0]}, 5, scratch) == [1, 2, 4, 3, 0]


class TestKahnSort:
    """``kahn_sort`` takes counted in-degrees, so a pair listed twice is
    counted twice: a multigraph sorts to its simple graph's verdict."""

    @given(st.one_of(random_dag(), random_digraph()))
    @settings(max_examples=200, deadline=None)
    def test_multigraph_verdict_matches_simple_graph(self, case):
        n, adj = case
        doubled = {v: tuple(s) + tuple(s[:1]) for v, s in adj.items()}
        indegree = [0] * n
        for successors in doubled.values():
            for w in successors:
                indegree[w] += 1
        order = kahn_sort(doubled, n, indegree)
        expected = topological_sort(range(n), adj)
        assert (order is None) == (expected is None)
        if order is not None:
            assert sorted(order) == list(range(n))
            assert is_topological(order, adj)
            assert indegree == [0] * n


@st.composite
def resort_case(draw):
    """A DAG laid out in a topological ``order``, then backward edges
    (under that order) added inside a window.

    With ``deferring`` set, a forward chain runs from the window's first
    position to its second-to-last and every backward edge leaves the
    last position, which nothing in the window enters: the window stays
    acyclic and every vertex but the last has to wait.
    """
    n = draw(st.integers(2, 30))
    order = draw(st.permutations(range(n)))
    lead = draw(st.integers(0, n - 2))
    trail = draw(st.integers(lead + 1, n - 1))
    deferring = draw(st.booleans())
    adjacency = {}

    def add(pu, pv):
        successors = adjacency.setdefault(order[pu], [])
        if order[pv] not in successors:
            successors.append(order[pv])

    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=3 * n)):
        a, b = min(a, b), max(a, b)
        if a != b and not (deferring and b == trail):
            add(a, b)
    backs = [(trail, lead)]
    if deferring:
        for p in range(lead, trail - 1):
            add(p, p + 1)
        backs += [(trail, pv) for pv in draw(st.lists(
            st.integers(lead, trail - 1), max_size=4))]
    else:
        for a, b in draw(st.lists(st.tuples(st.integers(lead, trail),
                                            st.integers(lead, trail)),
                                  max_size=6)):
            if a != b:
                backs.append((max(a, b), min(a, b)))
    for pu, pv in backs:
        add(pu, pv)
    # the packed replay can list one pending edge more than once
    backs += backs[:draw(st.integers(0, 2))]
    rng = draw(st.randoms(use_true_random=False))
    for successors in adjacency.values():
        rng.shuffle(successors)
    return order, adjacency, lead, trail, backs, deferring


class TestResortWindow:
    """``resort_window`` must equal the min-position Kahn re-sort of its
    window, and leave ``order`` and ``position`` alone on a cycle."""

    @given(resort_case(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_min_position_kahn(self, case, as_array):
        order, adjacency, lead, trail, backs, deferring = case
        position = [0] * len(order)
        for pos, v in enumerate(order):
            position[v] = pos
        window = order[lead:trail + 1]
        expected = topological_sort(window, adjacency,
                                    key=position.__getitem__)
        new_order = list(order)
        new_position = array("i", position) if as_array else list(position)
        sorted_ok = resort_window(new_order, new_position, adjacency, lead,
                                  trail, backs)
        if expected is None:
            assert not sorted_ok
            assert new_order == order
            assert list(new_position) == position
            cycle = find_cycle(window, adjacency)
            assert cycle is not None
            for u, v in zip(cycle, cycle[1:]):
                assert v in adjacency[u]
            return
        assert sorted_ok
        assert new_order[lead:trail + 1] == expected
        assert new_order[:lead] == order[:lead]
        assert new_order[trail + 1:] == order[trail + 1:]
        assert [new_position[v] for v in new_order] == list(range(len(order)))
        assert is_topological(new_order, adjacency)
        if deferring:
            # everything before the last vertex waited for it
            assert new_order[lead] == order[trail]

    def test_positions_between_stretches_stay(self):
        # new edges 2 -> 1 and 5 -> 4 swap 1-2 and 4-5; 3, a successor
        # of 1 that is released before the scan reaches it, stays put
        order = list(range(7))
        position = list(range(7))
        adjacency = {1: [3], 2: [1], 5: [4]}
        assert resort_window(order, position, adjacency, 1, 5,
                             [(2, 1), (5, 4)])
        assert order == [0, 2, 1, 3, 5, 4, 6]
        assert position == [0, 2, 1, 3, 5, 4, 6]

    def test_released_vertex_counts_down_the_last_position(self):
        # 0 waits for 2 and 1 for 3; once 2 is out, 0 follows and must
        # release its forward successor 3, the window's last vertex
        order = [0, 1, 2, 3]
        position = list(range(4))
        adjacency = {0: [3], 2: [0], 3: [1]}
        assert resort_window(order, position, adjacency, 0, 3,
                             [(2, 0), (3, 1)])
        assert order == [2, 0, 3, 1]
        assert order == topological_sort([0, 1, 2, 3], adjacency,
                                         key=[0, 1, 2, 3].__getitem__)

    def test_cycle_leaves_order_and_position(self):
        order = [0, 1, 2, 3]
        position = array("i", range(4))
        adjacency = {0: [1], 1: [2], 2: [3], 3: [1]}
        assert not resort_window(order, position, adjacency, 1, 3, [(3, 1)])
        assert order == [0, 1, 2, 3]
        assert list(position) == [0, 1, 2, 3]

