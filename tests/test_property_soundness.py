"""Soundness property: a fault-free machine never trips the checker.

The sensitivity suite (``test_mutate_sensitivity.py``) proves the
checker *catches* injected faults; this file proves the complementary
direction — with no mutation armed, random programs on every
operational memory model and on the detailed MESI simulator produce

* zero constraint-graph violations under BOTH checking pipelines
  (``graphs`` and ``delta``), in both ws modes where applicable, and
* zero signature asserts and zero crashes.

Together they bound the validator: sensitive to every registered fault,
silent on compliant machines.
"""

from hypothesis import given, settings, strategies as st

from repro.harness import Campaign, check_campaign_result
from repro.testgen import TestConfig


@st.composite
def campaign_case(draw):
    cfg = TestConfig(
        isa=draw(st.sampled_from(["x86", "arm"])),
        threads=draw(st.integers(2, 4)),
        ops_per_thread=draw(st.integers(4, 24)),
        addresses=draw(st.integers(2, 8)),
        words_per_line=draw(st.sampled_from([1, 4])),
        barrier_fraction=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 50_000)),
    )
    return cfg, draw(st.integers(0, 1000))


@given(campaign_case())
@settings(max_examples=25, deadline=None)
def test_fault_free_campaigns_never_violate(case):
    cfg, seed = case
    campaign = Campaign(config=cfg, seed=seed)
    result = campaign.run(12)
    assert result.signature_asserts == 0
    assert result.crashes == 0
    for pipeline in ("graphs", "delta"):
        outcome = check_campaign_result(result, campaign.model,
                                        pipeline=pipeline)
        assert not outcome.collective.violations, pipeline
        assert not outcome.baseline.violations, pipeline


@given(campaign_case())
@settings(max_examples=10, deadline=None)
def test_fault_free_campaigns_clean_under_observed_ws(case):
    cfg, seed = case
    campaign = Campaign(config=cfg, seed=seed)
    result = campaign.run(10)
    outcome = check_campaign_result(result, campaign.model,
                                    ws_mode="observed")
    assert not outcome.collective.violations


def test_fault_free_detailed_simulator_is_clean():
    """The unmutated MESI simulator passes the same bar on the pinned
    bug configs (the very shapes tuned to provoke the injected bugs)."""
    from repro.mutate import detailed_mutations

    from repro.sim.faults import FaultConfig

    for m in detailed_mutations():
        # no mutation: the detailed simulator, fault-free
        campaign = Campaign(config=m.spec.config, seed=0,
                            faults=FaultConfig(l1_lines=m.spec.l1_lines))
        result = campaign.run(24)
        assert result.crashes == 0
        assert result.signature_asserts == 0
        outcome = check_campaign_result(result, campaign.model,
                                        ws_mode=m.spec.ws_mode,
                                        baseline=False)
        assert not outcome.collective.violations, m.name
