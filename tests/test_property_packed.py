"""Property-based three-way differential: packed == delta == legacy.

For any generated program, execution sample and memory model — including
checking weak-hardware executions against stronger models, which yields
genuine violations — the packed array core must reproduce the delta and
legacy collective checkers byte for byte: the same report summary
(verdict methods, violation indices, witness cycles, sorted-vertices
accounting) and the same delta work counts.  The runner property pins
the ``observed`` ws-mode fallback: packed declines blocks whose graphs
are not a pure function of the signature.
"""

from hypothesis import given, settings, strategies as st

from repro.checker import (
    CollectiveChecker,
    PackedChecker,
    PackedPlan,
    SignatureDeltaSource,
)
from repro.graph import GraphBuilder
from repro.harness import Campaign, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import SC, TSO, WEAK
from repro.sim import OperationalExecutor
from repro.testgen import TestConfig, generate

_MODELS = {"sc": SC, "tso": TSO, "weak": WEAK}


@st.composite
def packed_case(draw):
    cfg = TestConfig(
        threads=draw(st.integers(1, 4)),
        ops_per_thread=draw(st.integers(2, 25)),
        addresses=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 100_000)),
    )
    #: run on weak hardware, check against a drawn (possibly stronger)
    #: model — the violation-bearing half of the space
    check_model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    width = draw(st.sampled_from([32, 64]))
    seed = draw(st.integers(0, 1000))
    return cfg, check_model, width, seed


@given(packed_case())
@settings(max_examples=25, deadline=None)
def test_packed_equals_delta_equals_legacy(case):
    cfg, check_model, width, seed = case
    program = generate(cfg)
    codec = SignatureCodec(program, width)
    executor = OperationalExecutor(program, WEAK, seed=seed,
                                   layout=cfg.layout)
    signatures = sorted({codec.encode(e.rf) for e in executor.run(12)})
    builder = GraphBuilder(program, check_model, ws_mode="static")
    graphs = [builder.build(codec.decode(sig)) for sig in signatures]
    legacy = CollectiveChecker().check(graphs)
    delta = CollectiveChecker().check_deltas(
        SignatureDeltaSource(codec, builder, signatures))
    plan = PackedPlan(codec, builder, signatures)
    packed = PackedChecker().check(plan)
    assert packed.summary() == delta.summary() == legacy.summary()
    assert (packed.digits_changed, packed.edges_added,
            packed.edges_removed) == \
           (delta.digits_changed, delta.edges_added, delta.edges_removed)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_runner_parity_and_observed_fallback(seed):
    campaign = Campaign(config=TestConfig(
        isa="arm", threads=2, ops_per_thread=12, addresses=4,
        seed=seed % 50), seed=seed // 50)
    result = campaign.run(60)
    packed = check_campaign_result(result, campaign.model, pipeline="packed")
    delta = check_campaign_result(result, campaign.model, pipeline="delta")
    assert packed.pipeline == "packed"
    assert packed.collective.summary() == delta.collective.summary()
    assert packed.baseline.summary() == delta.baseline.summary()
    observed = check_campaign_result(result, campaign.model,
                                     ws_mode="observed", pipeline="packed")
    assert observed.pipeline == "graphs"
    # observed-ws checking is strictly no weaker than static
    assert len(observed.collective.violations) >= \
        len(packed.collective.violations)
