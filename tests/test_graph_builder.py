"""Unit tests for constraint-graph construction (static vs observed ws)."""

import random

import pytest

from repro.errors import CheckerError
from repro.graph import (FR, RF, WS, ConstraintGraph, Edge, GraphBuilder,
                         kahn_sort, topological_sort)
from repro.harness import Campaign
from repro.isa import INIT, TestProgram, load, store
from repro.mcm import SC, TSO, WEAK
from repro.sim import OperationalExecutor
from repro.sim.detailed import DetailedExecutor
from repro.testgen import TestConfig, generate
from repro.testgen.config import PAPER_CONFIGS


@pytest.fixture
def two_writer_program():
    """t0: st x #1 ; t1: st x #2 ; t2: ld x, ld x."""
    return TestProgram.from_ops(
        [
            [store(0, 0, 0, 1)],
            [store(1, 0, 0, 2)],
            [load(2, 0, 0), load(2, 1, 0)],
        ],
        num_addresses=1,
    )


class TestStaticMode:
    def test_intra_thread_rf_skipped(self, figure3_program):
        builder = GraphBuilder(figure3_program, TSO, ws_mode="static")
        p = figure3_program
        ld2 = p.threads[0].ops[1].uid     # reads own store (1)
        st1 = p.threads[0].ops[0].uid
        graph = builder.build({ld2: st1})
        assert (st1, ld2) not in graph

    def test_cross_thread_rf_added(self, two_writer_program):
        p = two_writer_program
        builder = GraphBuilder(p, TSO, ws_mode="static")
        st1, ld_a = p.threads[0].ops[0].uid, p.threads[2].ops[0].uid
        graph = builder.build({ld_a: st1, p.threads[2].ops[1].uid: st1})
        assert (st1, ld_a) in graph
        assert graph.edge_kind(st1, ld_a) == RF

    def test_init_reader_precedes_first_stores_of_each_thread(self, two_writer_program):
        p = two_writer_program
        builder = GraphBuilder(p, TSO, ws_mode="static")
        ld_a = p.threads[2].ops[0].uid
        graph = builder.build({ld_a: INIT, p.threads[2].ops[1].uid: INIT})
        st1 = p.threads[0].ops[0].uid
        st2 = p.threads[1].ops[0].uid
        assert (ld_a, st1) in graph and (ld_a, st2) in graph

    def test_same_thread_store_chains_are_static_ws(self):
        p = TestProgram.from_ops(
            [[store(0, 0, 0, 1), store(0, 1, 0, 2)]], num_addresses=1)
        builder = GraphBuilder(p, WEAK, ws_mode="static")
        graph = builder.build({})
        assert (0, 1) in graph

    def test_fr_points_to_po_next_store(self):
        p = TestProgram.from_ops(
            [
                [store(0, 0, 0, 1), store(0, 1, 0, 2)],
                [load(1, 0, 0)],
            ],
            num_addresses=1)
        builder = GraphBuilder(p, TSO, ws_mode="static")
        ld = p.threads[1].ops[0].uid
        graph = builder.build({ld: 0})       # reads store #1
        assert (ld, 1) in graph              # fr to store #2
        assert graph.edge_kind(ld, 1) == FR

    def test_graph_is_function_of_rf_only(self, small_program):
        """Static mode: same rf => identical edge sets (what makes
        signature-identical executions share one graph)."""
        from repro.instrument import candidate_sources

        builder = GraphBuilder(small_program, WEAK, ws_mode="static")
        cands = candidate_sources(small_program)
        rf = {uid: c[0] for uid, c in cands.items()}
        assert builder.build(rf).edge_pairs == builder.build(dict(rf)).edge_pairs


class TestObservedMode:
    def test_requires_ws(self, small_program):
        builder = GraphBuilder(small_program, WEAK, ws_mode="observed")
        with pytest.raises(CheckerError):
            builder.build({}, None)

    def test_ws_chain_must_cover_all_stores(self, two_writer_program):
        builder = GraphBuilder(two_writer_program, TSO, ws_mode="observed")
        for chain in ([0],           # store uid 1 missing
                      [0, 1, 0]):    # store uid 0 twice: a ws cycle
            with pytest.raises(CheckerError):
                builder.build({}, {0: chain})

    def test_ws_chain_edges(self, two_writer_program):
        p = two_writer_program
        builder = GraphBuilder(p, TSO, ws_mode="observed")
        graph = builder.build(
            {p.threads[2].ops[0].uid: 0, p.threads[2].ops[1].uid: 1}, {0: [0, 1]})
        assert (0, 1) in graph               # ws chain

    def test_fr_from_init_reader_to_first_in_chain(self, two_writer_program):
        p = two_writer_program
        ld_a = p.threads[2].ops[0].uid
        builder = GraphBuilder(p, TSO, ws_mode="observed")
        graph = builder.build({ld_a: INIT, p.threads[2].ops[1].uid: 1}, {0: [1, 0]})
        assert (ld_a, 1) in graph

    def test_detects_corr_violation(self, two_writer_program):
        """ld new-then-old across same address is cyclic."""
        p = two_writer_program
        ld_a, ld_b = (op.uid for op in p.threads[2].ops)
        builder = GraphBuilder(p, TSO, ws_mode="observed")
        graph = builder.build({ld_a: 1, ld_b: 0}, {0: [0, 1]})
        assert topological_sort(range(p.num_ops), graph.adjacency) is None

    def test_invalid_ws_mode_rejected(self, small_program):
        with pytest.raises(CheckerError):
            GraphBuilder(small_program, TSO, ws_mode="dynamic")


class TestAgainstExecutor:
    @pytest.mark.parametrize("model", [SC, TSO, WEAK], ids=lambda m: m.name)
    def test_compliant_executions_are_acyclic_observed(self, model):
        cfg = TestConfig(threads=3, ops_per_thread=30, addresses=8, seed=13)
        p = generate(cfg)
        builder = GraphBuilder(p, model, ws_mode="observed")
        ex = OperationalExecutor(p, model, seed=4)
        for e in ex.run(150):
            graph = builder.build(e.rf, e.ws)
            assert topological_sort(range(p.num_ops), graph.adjacency) is not None

    @pytest.mark.parametrize("model", [SC, TSO, WEAK], ids=lambda m: m.name)
    def test_compliant_executions_are_acyclic_static(self, model):
        cfg = TestConfig(threads=3, ops_per_thread=30, addresses=8, seed=13)
        p = generate(cfg)
        builder = GraphBuilder(p, model, ws_mode="static")
        ex = OperationalExecutor(p, model, seed=4)
        for e in ex.run(150):
            graph = builder.build(e.rf)
            assert topological_sort(range(p.num_ops), graph.adjacency) is not None

    def test_static_edges_subset_of_observed(self, small_program):
        """Static mode is a sound weakening: every static edge is implied
        by the observed-mode graph's ordering."""
        ex = OperationalExecutor(small_program, WEAK, seed=9)
        execution = ex.run_one()
        static = GraphBuilder(small_program, WEAK, "static").build(execution.rf)
        observed = GraphBuilder(small_program, WEAK, "observed").build(
            execution.rf, execution.ws)
        import networkx as nx

        og = nx.DiGraph()
        og.add_nodes_from(range(small_program.num_ops))
        og.add_edges_from(observed.edge_pairs)
        closure = nx.transitive_closure(og)
        for u, v in static.edge_pairs:
            assert closure.has_edge(u, v), (u, v)


class TestObservedWsCoverage:
    """Regression: observed mode must reject missing ws chains (a missing
    chain would silently weaken checking and hide violations)."""

    def test_missing_chain_rejected(self):
        from repro.testgen.litmus import corr

        lt = corr()
        builder = GraphBuilder(lt.program, TSO, ws_mode="observed")
        with pytest.raises(CheckerError):
            builder.build(lt.interesting_rf, {})

    def test_partial_ws_rejected(self, two_writer_program):
        builder = GraphBuilder(two_writer_program, TSO, ws_mode="observed")
        with pytest.raises(CheckerError):
            builder.build({}, {1: []})      # address 0 has stores, no chain


def reference_graph(builder, rf, ws=None):
    """The graph :meth:`GraphBuilder.build` must return, built edge by
    edge: every static edge in order, then the execution's typed edges
    (ws chains first in observed mode), each load's rf/fr edges derived
    here from the rules in the builder's module docstring."""
    program = builder.program
    graph = ConstraintGraph(program.num_ops)
    for edge in builder.static_edges:
        graph.add_edge(edge)
    next_store, first_store = {}, {}
    if ws is None:
        for tp in program.threads:
            last = {}
            for op in tp.ops:
                if op.is_store:
                    if op.addr in last:
                        next_store[last[op.addr]] = op.uid
                    else:
                        first_store.setdefault(op.addr, []).append(op.uid)
                    last[op.addr] = op.uid
    else:
        for addr, chain in ws.items():
            first_store[addr] = chain[:1]
            for a, b in zip(chain, chain[1:]):
                graph.add_edge(Edge(a, b, WS))
                next_store[a] = b
    for load_uid, source in rf.items():
        load_op = program.op(load_uid)
        if source == INIT:
            for st in first_store.get(load_op.addr, ()):
                graph.add_edge(Edge(load_uid, st, FR))
            continue
        if program.op(source).thread != load_op.thread:
            graph.add_edge(Edge(source, load_uid, RF))
        if source in next_store:
            graph.add_edge(Edge(load_uid, next_store[source], FR))
    return graph


def assert_same_graph(graph, reference):
    """Same pairs, the same kind per pair, the same adjacency order."""
    assert graph.num_vertices == reference.num_vertices
    assert graph.edge_pairs == reference.edge_pairs
    for src, dst in reference.edge_pairs:
        assert graph.edge_kind(src, dst) == reference.edge_kind(src, dst)
    for v in range(reference.num_vertices):
        assert graph.successors(v) == reference.successors(v), v


def random_rf(codec, rng):
    """One rf choice per load, drawn from its candidates, in a random
    load order (build must follow the rf map's own order)."""
    loads = sorted(codec.candidates)
    rng.shuffle(loads)
    return {uid: rng.choice(codec.candidates[uid]) for uid in loads}


class TestBuildMatchesReference:
    """``build`` copies a once-built static template and adds memoized
    typed edges; the graphs must equal ones built edge by edge."""

    @pytest.mark.parametrize("cfg", PAPER_CONFIGS, ids=lambda c: c.name)
    def test_paper_configs_static(self, cfg):
        campaign = Campaign(config=cfg, seed=1)
        builder = GraphBuilder(campaign.program, campaign.model)
        rng = random.Random(cfg.name)
        for _ in range(3):
            rf = random_rf(campaign.codec, rng)
            assert_same_graph(builder.build(rf), reference_graph(builder, rf))

    def test_detailed_simulator_observed(self):
        cfg = TestConfig(isa="x86", threads=4, ops_per_thread=30,
                         addresses=8, seed=5)
        program = generate(cfg)
        builder = GraphBuilder(program, TSO, ws_mode="observed")
        executions = [e for e in DetailedExecutor(program, seed=3,
                                                  layout=cfg.layout).run(24)
                      if not e.crashed]
        assert executions
        for e in executions:
            assert_same_graph(builder.build(e.rf, e.ws),
                              reference_graph(builder, e.rf, e.ws))

    @pytest.mark.parametrize("cfg", PAPER_CONFIGS[::4], ids=lambda c: c.name)
    def test_sort_tables_list_build_pairs_with_multiplicity(self, cfg):
        campaign = Campaign(config=cfg, seed=1)
        builder = GraphBuilder(campaign.program, campaign.model)
        num_ops = campaign.program.num_ops
        rng = random.Random(cfg.name)
        for _ in range(3):
            rf = random_rf(campaign.codec, rng)
            adjacency, indegree = builder.sort_tables(rf)
            listed = sorted((u, v) for u, successors in adjacency.items()
                            for v in successors)
            # the template's (deduplicated) static pairs, then every
            # dynamic pair, a repeat of a static one included
            assert listed == sorted(
                list(builder.build({}).edge_pairs)
                + [pair for key in rf.items()
                   for pair in builder.dynamic_edge_pairs(*key)])
            assert indegree == [sum(v == w for _, v in listed)
                                for w in range(num_ops)]
            graph = builder.build(rf)
            assert set(listed) == graph.edge_pairs
            assert (kahn_sort(adjacency, num_ops, indegree) is None) == \
                (topological_sort(range(num_ops), graph.adjacency) is None)

    def test_sort_tables_leave_the_template_alone(self, small_program):
        builder = GraphBuilder(small_program, WEAK)
        execution = OperationalExecutor(small_program, WEAK, seed=9).run_one()
        first = builder.sort_tables(execution.rf)
        adjacency, indegree = builder.sort_tables(execution.rf)
        assert (adjacency, indegree) == first
        adjacency.clear()
        indegree[:] = [0] * len(indegree)
        assert builder.sort_tables(execution.rf) == first

    def test_sort_tables_need_static_ws(self, small_program):
        builder = GraphBuilder(small_program, WEAK, ws_mode="observed")
        with pytest.raises(CheckerError):
            builder.sort_tables({})

    @pytest.mark.parametrize("ws_mode", ["static", "observed"])
    def test_built_graphs_share_nothing(self, small_program, ws_mode):
        builder = GraphBuilder(small_program, WEAK, ws_mode=ws_mode)
        execution = OperationalExecutor(small_program, WEAK, seed=9).run_one()
        args = (execution.rf,) if ws_mode == "static" else (
            execution.rf, execution.ws)
        template = builder._template
        template_pairs = template.edge_pairs
        template_adjacency = {v: list(s) for v, s in template.adjacency.items()}
        before = builder.build(*args)
        graph = builder.build(*args)
        # one new successor of a vertex with template edges, one new source
        src = builder.static_edges[0].src
        dst = next(v for v in range(small_program.num_ops)
                   if v != src and (src, v) not in graph)
        new_src = next(v for v in range(small_program.num_ops)
                       if v not in graph.adjacency)
        graph.add_edge(Edge(src, dst, RF))
        graph.add_edge(Edge(new_src, src, FR))
        assert (src, dst) in graph and (new_src, src) in graph
        assert_same_graph(builder.build(*args), before)
        assert template.edge_pairs == template_pairs
        assert template.adjacency == template_adjacency
