"""Unit + property tests for topological sorting and cycle extraction."""

from array import array

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.graph import complete_sort, find_cycle, topological_sort


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
    """The optional ``membership`` fast path must never change results."""

    def member_fn(self, vertices, universe=128):
        # sized over the whole vertex universe, as the delta checker's
        # window flags are: membership must answer for any vertex the
        # adjacency map can reach, not just the sorted subset
        flags = bytearray(universe)
        for v in vertices:
            flags[v] = 1
        return flags.__getitem__

    def test_sort_matches_default_membership(self):
        adj = {0: [1], 1: [99], 2: [3], 3: [2]}   # 99 external, 2-3 cyclic
        window = [0, 1]
        assert topological_sort(window, adj, membership=self.member_fn(window)) \
            == topological_sort(window, adj)

    def test_sort_detects_cycle_with_membership(self):
        adj = {0: [1], 1: [0]}
        window = [0, 1]
        assert topological_sort(window, adj,
                                membership=self.member_fn(window)) is None

    def test_sort_key_composes_with_membership(self):
        adj = {2: [1]}
        window = [1, 2, 3]
        order = topological_sort(window, adj, key=lambda v: v,
                                 membership=self.member_fn(window))
        assert order == topological_sort(window, adj, key=lambda v: v)
        assert is_topological(order, adj)

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
        default = topological_sort(range(n), adj)
        fast = topological_sort(range(n), adj, membership=member)
        assert fast == default
        if default is None:
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


def scrambled(v):
    """A tie-breaking key with many equal keys (ties then go by vertex)."""
    return (v * 7) % 5


class TestCompleteSort:
    """``complete_sort`` is the one complete sort (baseline, collective,
    packed): it must equal the generic Kahn tie for tie and hand its
    in-degree scratch back all zero."""

    @given(st.one_of(random_dag(), random_digraph()),
           st.sampled_from([None, scrambled]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_topological_sort(self, case, key, as_array):
        n, adj = case
        scratch = array("i", [0] * n) if as_array else [0] * n
        order = complete_sort(adj, n, scratch, key)
        assert order == topological_sort(range(n), adj, key=key)
        assert list(scratch) == [0] * n

    def test_scratch_serves_the_next_graph_after_a_cycle(self):
        scratch = [0] * 5
        for key in (None, scrambled):
            assert complete_sort({0: [1], 1: [2], 2: [1], 3: [4]}, 5,
                                 scratch, key) is None
            assert scratch == [0] * 5
        assert complete_sort({4: [3], 3: [0]}, 5, scratch) == [1, 2, 4, 3, 0]
