"""The cross-oracle detection channel of the sensitivity campaigns.

``cross_check="feasible"`` consults the feasibility oracle's exact
per-signature test before the graph checker; it must flag the
signature-corrupting gem5 bugs without false-firing on clean
campaigns.
"""

import pytest

from repro.mutate.campaign import (
    CRASH,
    FEASIBLE,
    SensitivityCampaign,
    normalize_cross_check,
    run_sensitivity_suite,
)


class TestNormalization:
    def test_selectors(self):
        assert normalize_cross_check(None) is None
        assert normalize_cross_check(False) is None
        assert normalize_cross_check(True) == FEASIBLE
        assert normalize_cross_check("feasible") == FEASIBLE

    def test_typo_is_a_hard_error(self):
        for name in ("polynomial", "poly"):
            with pytest.raises(ValueError):
                normalize_cross_check(name)


class TestChannelPlumbing:
    def test_default_keeps_channel_inactive(self):
        out = SensitivityCampaign("tso-sb-reorder", seeds=1,
                                  control=False).run()
        assert out.cross_check is None
        assert all(s.out_of_feasible == 0 for s in out.seeds)
        assert FEASIBLE not in out.channels
        assert out.to_json()["cross_check"] is None

    def test_seed_outcome_json_carries_out_of_feasible(self):
        out = SensitivityCampaign("tso-sb-reorder", seeds=1,
                                  control=False).run()
        doc = out.seeds[0].to_json()
        assert "out_of_feasible" in doc

    def test_operational_mutation_with_cross_check(self):
        """Cross-checking a clean-signature channel never false-fires:
        any feasible-channel detection must come with real misses."""
        out = SensitivityCampaign("tso-sb-reorder", seeds=1, control=False,
                                  cross_check=True).run()
        # the historical boolean resolves to the feasible oracle
        assert out.cross_check == FEASIBLE
        assert out.detected
        for s in out.seeds:
            if s.channel == FEASIBLE:
                assert s.out_of_feasible > 0
            else:
                assert s.out_of_feasible == 0


class TestGem5Bugs:
    """ISSUE acceptance: each gem5 bug produces out-of-feasible-set
    signatures via the mutate sensitivity path (bug 3 crashes before
    shipping any signature, so its channel stays ``crash``)."""

    def test_protocol_squash_detected_by_membership(self):
        out = SensitivityCampaign("gem5-protocol-squash", seeds=1,
                                  control=False, cross_check=True).run()
        assert out.detected
        assert out.channels == [FEASIBLE]
        assert out.seeds[0].out_of_feasible >= 1

    def test_lsq_squash_detected_by_membership(self):
        out = SensitivityCampaign("gem5-lsq-squash", seeds=1,
                                  control=False, cross_check=True).run()
        assert out.detected
        assert FEASIBLE in out.channels
        assert out.seeds[0].out_of_feasible >= 1

    def test_writeback_race_still_detected_by_crash(self):
        out = SensitivityCampaign("gem5-writeback-race", seeds=1,
                                  control=False, cross_check=True).run()
        assert out.detected
        assert out.channels == [CRASH]
        assert all(s.out_of_feasible == 0 for s in out.seeds)


def test_suite_forwards_cross_check_flag():
    outcomes = run_sensitivity_suite(["tso-stale-read"], seeds=1,
                                     control=False, cross_check=True)
    assert len(outcomes) == 1
    assert outcomes[0].cross_check == FEASIBLE
    assert outcomes[0].detected
