"""Soundness of the static feasibility oracle: dynamic ⊆ static.

Two independent directions bound the enumerator:

* every signature a simulated machine actually produces — operational
  executor across all three models, detailed MESI simulator fault-free
  — is a member of the statically enumerated feasible set (the
  enumerator never under-approximates reality);
* on small programs the enumerated set equals the brute-force set of
  rf assignments whose :class:`~repro.graph.builder.GraphBuilder`
  constraint graph is acyclic — the *checker's* own graph construction,
  built independently of the oracle's — so the two implementations of
  the same semantics agree assignment-by-assignment (the differential
  contract behind ``--cross-check feasible``).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.feasible import FeasibilityOracle, enumerate_feasible
from repro.graph.builder import GraphBuilder
from repro.graph.toposort import topological_sort
from repro.instrument import SignatureCodec
from repro.mcm import get_model
from repro.sim import OperationalExecutor
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests

MODELS = ("sc", "tso", "weak")


@st.composite
def small_case(draw):
    cfg = TestConfig(
        isa=draw(st.sampled_from(["x86", "arm"])),
        threads=draw(st.integers(2, 3)),
        ops_per_thread=draw(st.integers(3, 10)),
        addresses=draw(st.integers(1, 4)),
        barrier_fraction=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 20_000)),
    )
    return cfg, draw(st.sampled_from(MODELS)), draw(st.integers(0, 500))


@given(small_case())
@settings(max_examples=30, deadline=None)
def test_observed_executions_are_feasible(case):
    cfg, model_name, seed = case
    program = generate(cfg)
    model = get_model(model_name)
    oracle = FeasibilityOracle(program, model)
    executor = OperationalExecutor(program, model, seed=seed)
    for execution in executor.run(15):
        assert oracle.is_feasible(execution.rf), (cfg.name, model_name)


@given(small_case())
@settings(max_examples=15, deadline=None)
def test_observed_signatures_in_enumerated_set(case):
    """Same property at the signature level, through the weight tables."""
    cfg, model_name, seed = case
    program = generate(cfg)
    codec = SignatureCodec(program, cfg.register_width)
    model = get_model(model_name)
    fset = enumerate_feasible(program, model, codec=codec)
    executor = OperationalExecutor(program, model, seed=seed)
    for execution in executor.run(10):
        sig = codec.encode(execution.rf)
        if fset.exhaustive:
            assert sig in fset, (cfg.name, model_name)
        else:
            assert FeasibilityOracle(program, model).is_feasible(
                execution.rf)


def _brute_force_feasible(program, codec, model):
    """The checker's own graphs, enumerated exhaustively."""
    builder = GraphBuilder(program, model)
    vertices = list(range(len(program.all_ops)))
    uids = sorted(codec.candidates)
    feasible = set()
    for combo in itertools.product(*(codec.candidates[u] for u in uids)):
        rf = dict(zip(uids, combo))
        graph = builder.build(rf)
        if topological_sort(vertices, graph.adjacency) is not None:
            feasible.add(codec.encode(rf))
    return feasible


@given(small_case())
@settings(max_examples=15, deadline=None)
def test_differential_against_graph_builder(case):
    cfg, model_name, _ = case
    program = generate(cfg)
    codec = SignatureCodec(program, cfg.register_width)
    if codec.cardinality > 512:
        return  # keep the brute-force side cheap
    model = get_model(model_name)
    fset = enumerate_feasible(program, model, codec=codec)
    assert fset.exhaustive
    assert fset.signatures == _brute_force_feasible(program, codec, model)


def test_differential_on_litmus_corpus():
    """The same equality on every litmus shape, all three models."""
    for lt in all_litmus_tests():
        codec = SignatureCodec(lt.program, 64)
        for model_name in MODELS:
            model = get_model(model_name)
            fset = enumerate_feasible(lt.program, model, codec=codec)
            assert fset.signatures == _brute_force_feasible(
                lt.program, codec, model), (lt.name, model_name)


def test_detailed_simulator_executions_are_feasible():
    """Fault-free MESI runs under TSO stay inside the feasible set."""
    from repro.harness import Campaign
    from repro.sim.faults import FaultConfig

    cfg = TestConfig(isa="x86", threads=2, ops_per_thread=8, addresses=2,
                     seed=9)
    campaign = Campaign(config=cfg, seed=0, faults=FaultConfig(l1_lines=4))
    result = campaign.run(40)
    assert result.crashes == 0 and result.signature_asserts == 0
    oracle = FeasibilityOracle(result.program, campaign.model)
    for sig in result.sorted_signatures():
        assert oracle.is_feasible(result.codec.decode(sig))
