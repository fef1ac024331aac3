"""Unit tests for memory consistency models and their ppo edges."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import TestProgram, barrier, load, store
from repro.mcm import SC, TSO, WEAK, get_model
from repro.mcm.model import MemoryModel, WeakOrdering
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests, extended_litmus_tests


def closure_pairs(model, thread_program):
    """Transitive closure of the model's reduced ppo edges + barriers."""
    g = nx.DiGraph()
    g.add_nodes_from(op.uid for op in thread_program.ops)
    g.add_edges_from(model.ppo_edges(thread_program))
    closure = nx.transitive_closure(g)
    return set(closure.edges())


def expected_pairs(model, thread_program):
    """Direct O(n^2) enumeration of what ppo + barrier ordering implies."""
    ops = thread_program.ops
    pairs = set()
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a.is_barrier or b.is_barrier:
                pairs.add((a.uid, b.uid))
            elif any(m.is_barrier for m in ops[i + 1:b.index]):
                pairs.add((a.uid, b.uid))
            elif model.orders(a, b):
                pairs.add((a.uid, b.uid))
    return pairs


def non_barrier_pairs(pairs, program):
    return {(u, v) for u, v in pairs
            if not program.op(u).is_barrier and not program.op(v).is_barrier}


@pytest.mark.parametrize("model", [SC, TSO, WEAK], ids=lambda m: m.name)
class TestPpoClosure:
    def test_closure_covers_direct_orders(self, model):
        p = generate(TestConfig(threads=1, ops_per_thread=30, addresses=4, seed=2))
        closure = closure_pairs(model, p.threads[0])
        for u, v in expected_pairs(model, p.threads[0]):
            assert (u, v) in closure, (u, v)

    def test_closure_is_not_too_strong(self, model):
        p = generate(TestConfig(threads=1, ops_per_thread=30, addresses=4, seed=2))
        closure = non_barrier_pairs(closure_pairs(model, p.threads[0]), p)
        expected = non_barrier_pairs(expected_pairs(model, p.threads[0]), p)
        assert closure <= expected

    def test_with_barriers(self, model):
        p = generate(TestConfig(threads=1, ops_per_thread=20, addresses=4,
                                barrier_fraction=0.2, seed=5))
        closure = non_barrier_pairs(closure_pairs(model, p.threads[0]), p)
        expected = non_barrier_pairs(expected_pairs(model, p.threads[0]), p)
        assert closure == expected


class _BaseReductionWeak(WeakOrdering):
    """The weak model with the base class's all-pairs ``orders`` scan."""

    _reduced_pairs = MemoryModel._reduced_pairs


class TestWeakReduction:
    """The weak model's same-address scan emits the base reduction's
    pairs in the base reduction's order: that order fixes every
    template's adjacency, and through it the collective checker's
    counts."""

    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 40),
           st.integers(1, 8), st.sampled_from([0.0, 0.1, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_generated_programs(self, seed, threads, ops, addresses,
                                barriers):
        program = generate(TestConfig(
            threads=threads, ops_per_thread=ops, addresses=addresses,
            barrier_fraction=barriers, seed=seed))
        for tp in program.threads:
            assert list(WEAK.ppo_edges(tp)) == \
                list(_BaseReductionWeak().ppo_edges(tp))

    @pytest.mark.parametrize(
        "litmus", all_litmus_tests() + extended_litmus_tests(),
        ids=lambda t: t.name)
    def test_litmus_tests(self, litmus):
        for tp in litmus.program.threads:
            assert list(WEAK.ppo_edges(tp)) == \
                list(_BaseReductionWeak().ppo_edges(tp))


class TestOrders:
    def setup_method(self):
        self.ld_a = load(0, 0, 0)
        self.ld_a2 = load(0, 1, 0)
        self.ld_b = load(0, 1, 1)
        self.st_a = store(0, 2, 0, 1)
        self.st_a2 = store(0, 3, 0, 2)
        self.st_b = store(0, 3, 1, 3)

    def test_sc_orders_everything(self):
        assert SC.orders(self.ld_a, self.st_b)
        assert SC.orders(self.st_a, self.ld_b)
        assert SC.orders(self.st_a, self.st_b)

    def test_tso_relaxes_store_load_only(self):
        assert not TSO.orders(self.st_a, self.ld_b)
        assert not TSO.orders(self.st_a, self.ld_a2)   # even same address
        assert TSO.orders(self.ld_a, self.st_b)
        assert TSO.orders(self.ld_a, self.ld_b)
        assert TSO.orders(self.st_a, self.st_a2)

    def test_weak_orders_same_address_only(self):
        assert WEAK.orders(self.ld_a, self.ld_a2)
        assert WEAK.orders(self.ld_a, self.st_a)
        assert WEAK.orders(self.st_a, self.st_a2)
        assert not WEAK.orders(self.st_a, self.ld_a2)  # forwarding exemption
        assert not WEAK.orders(self.ld_a, self.ld_b)
        assert not WEAK.orders(self.ld_a, self.st_b)
        assert not WEAK.orders(self.st_a, self.st_b)


class TestBarrierEdges:
    def test_barrier_becomes_ordering_hub(self):
        p = TestProgram.from_ops(
            [[store(0, 0, 0, 1), barrier(0, 1), load(0, 2, 1)]], num_addresses=2)
        edges = set(WEAK.ppo_edges(p.threads[0]))
        bar = p.threads[0].ops[1].uid
        assert (p.threads[0].ops[0].uid, bar) in edges
        assert (bar, p.threads[0].ops[2].uid) in edges

    def test_consecutive_barriers(self):
        p = TestProgram.from_ops(
            [[barrier(0, 0), barrier(0, 1), load(0, 2, 0)]], num_addresses=1)
        edges = list(WEAK.ppo_edges(p.threads[0]))
        assert edges  # no crash, barrier->load edge exists
        b2 = p.threads[0].ops[1].uid
        ld = p.threads[0].ops[2].uid
        assert (b2, ld) in set(edges)


class TestRegistry:
    def test_get_model_by_name(self):
        assert get_model("sc") is SC
        assert get_model("TSO") is TSO
        assert get_model("Weak") is WEAK

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            get_model("power")

    def test_store_atomicity_flags(self):
        assert SC.multiple_copy_atomic
        assert TSO.multiple_copy_atomic
        assert WEAK.multiple_copy_atomic

    def test_repr(self):
        assert "tso" in repr(TSO)
