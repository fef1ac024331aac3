"""Unit tests for the static feasibility enumerator (repro.feasible)."""

import itertools
import json
import pathlib

import pytest

from repro.feasible import (
    DEFAULT_BUDGET,
    FeasibilityOracle,
    enumerate_feasible,
    signature_feasible,
)
from repro.instrument import SignatureCodec
from repro.isa import TestProgram, load, store
from repro.mcm import get_model
from repro.testgen.litmus import all_litmus_tests


def _litmus(name):
    for lt in all_litmus_tests():
        if lt.name == name:
            return lt.program
    raise KeyError(name)


def _enumerate(name, model="tso", **kw):
    program = _litmus(name)
    codec = SignatureCodec(program, 64)
    return enumerate_feasible(program, get_model(model), codec=codec, **kw), codec


class TestLitmusGroundTruth:
    """Feasible counts under TSO match the MCM's published verdicts."""

    # (litmus, feasible, cardinality): SB's both-read-zero outcome is
    # TSO-allowed (store buffering) so all 4 survive; the fenced variant
    # forbids exactly it; MP/LB/CoRR each forbid one outcome; IRIW's
    # non-causal outcome is forbidden (TSO is multi-copy atomic)
    EXPECTED = [
        ("SB", 4, 4),
        ("SB+fences", 3, 4),
        ("MP", 3, 4),
        ("MP+dmbs", 3, 4),
        ("LB", 3, 4),
        ("IRIW", 15, 16),
        ("CoRR", 3, 4),
        ("2+2W", 4, 4),
    ]

    @pytest.mark.parametrize("name,feasible,cardinality", EXPECTED)
    def test_tso_counts(self, name, feasible, cardinality):
        fset, _ = _enumerate(name)
        assert fset.exhaustive
        assert fset.cardinality == cardinality
        assert fset.feasible_count == feasible

    def test_model_monotonicity(self):
        """Stronger models only shrink the set: sc ⊆ tso ⊆ weak."""
        for name, _, _ in self.EXPECTED:
            sc, _ = _enumerate(name, "sc")
            tso, _ = _enumerate(name, "tso")
            weak, _ = _enumerate(name, "weak")
            assert sc.signatures <= tso.signatures <= weak.signatures

    def test_sc_forbids_store_buffering(self):
        sc, _ = _enumerate("SB", "sc")
        tso, _ = _enumerate("SB", "tso")
        # the one extra TSO outcome is exactly the store-buffering one
        assert sc.feasible_count == 3
        assert tso.feasible_count == 4


class TestEnumerationInvariants:
    def test_exhaustive_count_identity(self):
        """feasible == cardinality - pruned whenever exhaustive."""
        for name, _, _ in TestLitmusGroundTruth.EXPECTED:
            fset, _ = _enumerate(name)
            assert fset.feasible_count == \
                fset.cardinality - fset.assignments_pruned
            assert fset.infeasible_count == fset.assignments_pruned

    def test_membership_matches_enumeration(self):
        """Exact per-signature membership agrees with the full walk."""
        program = _litmus("MP")
        codec = SignatureCodec(program, 64)
        model = get_model("tso")
        fset = enumerate_feasible(program, model, codec=codec)
        uids = sorted(codec.candidates)
        for combo in itertools.product(*(codec.candidates[u] for u in uids)):
            sig = codec.encode(dict(zip(uids, combo)))
            assert signature_feasible(codec, model, sig) == (sig in fset)

    def test_oracle_reuse_across_membership_calls(self):
        program = _litmus("SB")
        codec = SignatureCodec(program, 64)
        model = get_model("sc")
        oracle = FeasibilityOracle(program, model)
        fset = enumerate_feasible(program, model, codec=codec)
        for sig in fset.sorted_signatures():
            assert signature_feasible(codec, model, sig, oracle=oracle)

    def test_sampled_is_subset_of_exhaustive(self):
        program = _litmus("IRIW")
        codec = SignatureCodec(program, 64)
        model = get_model("tso")
        full = enumerate_feasible(program, model, codec=codec)
        sampled = enumerate_feasible(program, model, codec=codec,
                                     budget=1, samples=10, seed=3)
        assert not sampled.exhaustive
        assert sampled.sampled == 10
        assert sampled.signatures <= full.signatures
        assert sampled.infeasible_count is None

    def test_sampling_is_seed_deterministic(self):
        program = _litmus("IRIW")
        codec = SignatureCodec(program, 64)
        model = get_model("tso")
        a = enumerate_feasible(program, model, codec=codec, budget=1,
                               samples=8, seed=11)
        b = enumerate_feasible(program, model, codec=codec, budget=1,
                               samples=8, seed=11)
        assert a.signatures == b.signatures


class TestEdgeCases:
    def test_store_only_program_has_one_empty_outcome(self):
        program = TestProgram.from_ops(
            [[store(0, 0, 0, 1)], [store(1, 0, 0, 2)]],
            num_addresses=1, name="stores")
        codec = SignatureCodec(program, 32)
        fset = enumerate_feasible(program, get_model("sc"), codec=codec)
        assert fset.cardinality == 1
        assert fset.feasible_count == 1

    def test_single_load_reads_init_or_remote_store(self):
        program = TestProgram.from_ops(
            [[load(0, 0, 0)], [store(1, 0, 0, 7)]],
            num_addresses=1, name="one-load")
        codec = SignatureCodec(program, 32)
        fset = enumerate_feasible(program, get_model("sc"), codec=codec)
        assert fset.cardinality == 2
        assert fset.feasible_count == 2

    def test_local_forwarding_excludes_init(self):
        # ld x after a local st x can only read stores, never INIT
        program = TestProgram.from_ops(
            [[store(0, 0, 0, 1), load(0, 1, 0)], [store(1, 0, 0, 2)]],
            num_addresses=1, name="forwarded")
        codec = SignatureCodec(program, 32)
        fset = enumerate_feasible(program, get_model("sc"), codec=codec)
        assert fset.cardinality == 2  # local st or remote st, no INIT
        assert fset.feasible_count == 2


class TestFeasibleSetType:
    def test_to_json_exhaustive_keys(self):
        fset, _ = _enumerate("MP")
        doc = fset.to_json()
        assert doc["exhaustive"] is True
        assert doc["cardinality"] == 4
        assert doc["feasible"] == 3
        assert doc["cardinality_bits"] == 3
        assert doc["pruning_factor"] == pytest.approx(4 / 3, abs=1e-3)

    def test_to_json_sampled_hides_exact_cardinality(self):
        fset, _ = _enumerate("MP", budget=1, samples=4)
        doc = fset.to_json()
        assert doc["exhaustive"] is False
        assert "cardinality" not in doc
        assert "pruning_factor" not in doc
        assert doc["sampled"] == 4

    def test_contains_and_sorted(self):
        fset, codec = _enumerate("MP")
        sigs = fset.sorted_signatures()
        assert sigs == sorted(fset.signatures)
        assert all(s in fset for s in sigs)

    def test_frozen(self):
        fset, _ = _enumerate("SB")
        with pytest.raises(AttributeError):
            fset.cardinality = 0

    def test_default_budget_exported(self):
        assert DEFAULT_BUDGET == 4096
        fset, _ = _enumerate("SB")
        assert fset.budget == DEFAULT_BUDGET


class TestMetrics:
    def test_enumeration_metrics_recorded(self):
        from repro import obs as repro_obs

        handle = repro_obs.enable()
        try:
            _enumerate("MP")
            snap = handle.metrics.snapshot()
        finally:
            repro_obs.disable()
        assert snap["feasible.enumerations"]["value"] == 1
        assert snap["feasible.outcomes"]["value"] == 3
        assert snap["feasible.prefixes_explored"]["value"] == 6


class TestBenchSnapshot:
    """``benchmarks/results/BENCH_feasible.json`` pins the enumerator's
    set sizes and pruning counts; recompute its litmus tree exactly as
    ``benchmarks/bench_feasible.py`` builds it."""

    SNAPSHOT = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "results" / "BENCH_feasible.json")

    def test_litmus_tree_matches_committed_snapshot(self):
        tree = {}
        for lt in all_litmus_tests():
            codec = SignatureCodec(lt.program, 64)
            per_model = {}
            for model_name in ("sc", "tso", "weak"):
                fset = enumerate_feasible(lt.program, get_model(model_name),
                                          codec=codec)
                assert fset.exhaustive
                per_model[model_name] = {
                    "cardinality": fset.cardinality,
                    "feasible": len(fset.signatures),
                    "prefixes_explored": fset.prefixes_explored,
                    "assignments_pruned": fset.assignments_pruned,
                    "pruning_factor": round(fset.pruning_factor, 4),
                }
            tree[lt.name] = per_model
        assert tree == json.loads(self.SNAPSHOT.read_text())["litmus"]
