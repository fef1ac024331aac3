"""Unit tests for the fast operational executor."""

from dataclasses import replace

import pytest

from repro.errors import ExecutionError
from repro.instrument import SignatureCodec
from repro.isa import INIT, TestProgram, barrier, load, store
from repro.mcm import SC, TSO, WEAK
from repro.sim import ARM_BIG_LITTLE, OperationalExecutor, X86_DESKTOP
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests


#: reorder-happy machine settings used to stress the litmus tests — rare
#: relaxed outcomes (IRIW, 2+2W) need far fewer iterations to surface,
#: and forbidden outcomes must stay impossible under ANY tuning.
_STRESS = __import__("repro.sim.executor", fromlist=["Tuning"]).Tuning(
    in_order_bias=0.55, fetch_prob=0.75, start_skew=2.0)


def _shows(lt, execution) -> bool:
    """Whether ``execution`` shows litmus test ``lt``'s interesting outcome."""
    hit = all(execution.rf.get(k) == v for k, v in lt.interesting_rf.items())
    if hit and lt.interesting_ws is not None:
        hit = all(execution.ws.get(a) == c for a, c in lt.interesting_ws.items())
    return hit


class TestLitmusCompliance:
    """The executor must produce exactly the allowed outcomes per model."""

    @pytest.mark.parametrize("model", [SC, TSO, WEAK], ids=lambda m: m.name)
    def test_forbidden_outcomes_never_appear(self, model):
        for lt in all_litmus_tests():
            if lt.allowed[model.name]:
                continue
            ex = OperationalExecutor(lt.program, model, seed=3, tuning=_STRESS)
            for e in ex.run(800):
                assert not _shows(lt, e), (lt.name, model.name)

    @pytest.mark.parametrize("model", [TSO, WEAK], ids=lambda m: m.name)
    def test_allowed_relaxed_outcomes_do_appear(self, model):
        for lt in all_litmus_tests():
            if not lt.allowed[model.name] or lt.allowed["sc"]:
                continue
            ex = OperationalExecutor(lt.program, model, seed=3, tuning=_STRESS)
            assert any(_shows(lt, e) for e in ex.run(6000)), (lt.name, model.name)


class TestExecutionShape:
    def test_rf_covers_all_loads(self, small_program):
        ex = OperationalExecutor(small_program, WEAK, seed=1)
        e = ex.run_one()
        assert set(e.rf) == {op.uid for op in small_program.loads}

    def test_ws_covers_all_stores(self, small_program):
        ex = OperationalExecutor(small_program, TSO, seed=1)
        e = ex.run_one()
        for addr in range(small_program.num_addresses):
            assert sorted(e.ws[addr]) == sorted(
                s.uid for s in small_program.stores_to(addr))

    def test_same_thread_ws_in_program_order(self, small_program):
        """Per-location same-thread stores serialize in program order
        under every model (coherence)."""
        for model in (SC, TSO, WEAK):
            ex = OperationalExecutor(small_program, model, seed=5)
            for e in ex.run(50):
                for chain in e.ws.values():
                    per_thread = {}
                    for uid in chain:
                        t = small_program.op(uid).thread
                        assert per_thread.get(t, -1) < uid
                        per_thread[t] = uid

    def test_rf_sources_are_valid_candidates(self, small_program, small_codec):
        for model in (SC, TSO, WEAK):
            ex = OperationalExecutor(small_program, model, seed=6)
            for e in ex.run(50):
                for uid, src in e.rf.items():
                    assert src in small_codec.candidates[uid]

    def test_deterministic_given_seed(self, small_program):
        a = OperationalExecutor(small_program, WEAK, seed=11)
        b = OperationalExecutor(small_program, WEAK, seed=11)
        for ea, eb in zip(a.run(20), b.run(20)):
            assert ea.rf == eb.rf and ea.ws == eb.ws

    def test_counters_populated(self, small_program):
        ex = OperationalExecutor(small_program, TSO, seed=1)
        e = ex.run_one()
        assert e.counters.test_accesses == len(small_program.loads) + \
            len(small_program.stores)
        assert e.counters.base_cycles > 0

    def test_rf_key_identity(self, small_program):
        ex = OperationalExecutor(small_program, SC, seed=2)
        e1, e2 = ex.run_one(), ex.run_one()
        assert (e1.rf == e2.rf) == (e1.rf_key() == e2.rf_key())


class TestInstrumentationModes:
    def test_signature_mode_requires_codec(self, small_program):
        with pytest.raises(ExecutionError):
            OperationalExecutor(small_program, WEAK, instrumentation="signature")

    def test_unknown_mode_rejected(self, small_program):
        with pytest.raises(ExecutionError):
            OperationalExecutor(small_program, WEAK, instrumentation="tracing")

    def test_signature_mode_accounts_cycles_and_stores(self, small_program, small_codec):
        ex = OperationalExecutor(small_program, WEAK, seed=2,
                                 instrumentation="signature", codec=small_codec)
        e = ex.run_one()
        assert e.counters.extra_accesses == small_codec.total_words
        assert e.counters.instrumentation_cycles > 0

    def test_flush_mode_logs_every_load(self, small_program):
        ex = OperationalExecutor(small_program, WEAK, seed=2, instrumentation="flush")
        e = ex.run_one()
        assert e.counters.extra_accesses == len(small_program.loads)

    def test_signature_cheaper_than_flush(self, small_program, small_codec):
        sig = OperationalExecutor(small_program, WEAK, seed=2,
                                  instrumentation="signature", codec=small_codec)
        flush = OperationalExecutor(small_program, WEAK, seed=2,
                                    instrumentation="flush")
        sig_extra = sum(e.counters.extra_accesses for e in sig.run(20))
        flush_extra = sum(e.counters.extra_accesses for e in flush.run(20))
        assert sig_extra < flush_extra

    def test_branch_predictor_warms_up(self):
        """Low-diversity tests mispredict rarely after the first runs
        (paper: signature computation nearly free for ARM-2-50-64)."""
        cfg = TestConfig(isa="arm", threads=2, ops_per_thread=30, addresses=16, seed=9)
        p = generate(cfg)
        codec = SignatureCodec(p, 32)
        ex = OperationalExecutor(p, WEAK, seed=2, instrumentation="signature",
                                 codec=codec)
        runs = list(ex.run(50))
        early = sum(e.counters.branch_mispredicts for e in runs[:5])
        late = sum(e.counters.branch_mispredicts for e in runs[-5:])
        assert late <= early


class TestBarriers:
    def test_tso_barrier_drains_store_buffer(self):
        p = TestProgram.from_ops(
            [
                [store(0, 0, 0, 1), barrier(0, 1), load(0, 2, 1)],
                [store(1, 0, 1, 2), barrier(1, 1), load(1, 2, 0)],
            ],
            num_addresses=2)
        ex = OperationalExecutor(p, TSO, seed=1)
        for e in ex.run(500):
            ld0 = p.threads[0].ops[2].uid
            ld1 = p.threads[1].ops[2].uid
            assert not (e.rf[ld0] == INIT and e.rf[ld1] == INIT)

    def test_sync_barriers_rendezvous(self):
        """With rendezvous barriers, epoch-1 loads always see epoch-0 stores."""
        p = TestProgram.from_ops(
            [
                [store(0, 0, 0, 1), barrier(0, 1), load(0, 2, 1)],
                [store(1, 0, 1, 2), barrier(1, 1), load(1, 2, 0)],
            ],
            num_addresses=2)
        for model in (SC, TSO, WEAK):
            ex = OperationalExecutor(p, model, seed=1, sync_barriers=True)
            for e in ex.run(200):
                assert e.rf[p.threads[0].ops[2].uid] == p.threads[1].ops[0].uid
                assert e.rf[p.threads[1].ops[2].uid] == p.threads[0].ops[0].uid


class TestPlatforms:
    def test_platform_model_default(self, small_program):
        ex = OperationalExecutor(small_program, platform=X86_DESKTOP, seed=1)
        assert ex.model.name == "tso"
        ex = OperationalExecutor(small_program, platform=ARM_BIG_LITTLE, seed=1)
        assert ex.model.name == "weak"

    def test_unsupported_model_rejected(self, small_program):
        class Fake:
            name = "power"

        with pytest.raises(ExecutionError):
            OperationalExecutor(small_program, Fake())

    def test_layout_must_hold_every_address(self, small_program):
        from repro.isa import MemoryLayout

        with pytest.raises(ExecutionError, match="layout holds"):
            OperationalExecutor(small_program, SC, layout=MemoryLayout(
                small_program.num_addresses - 1))

    def test_uniform_random_mode(self, small_program):
        ex = OperationalExecutor(small_program, SC, seed=1, uniform_random=True)
        e = ex.run_one()
        assert set(e.rf) == {op.uid for op in small_program.loads}


class TestWindowCapacity:
    """``Platform.window_size`` bounds the weak window and the TSO buffer."""

    def test_weak_machine_without_a_window_is_a_typed_error(self, small_program):
        platform = replace(ARM_BIG_LITTLE, window_size=0)
        ex = OperationalExecutor(small_program, WEAK, platform, seed=1)
        with pytest.raises(ExecutionError, match="weak machine wedged"):
            ex.run_one()

    @pytest.mark.parametrize("model, platform", [
        (TSO, replace(X86_DESKTOP, window_size=0)),
        (WEAK, replace(ARM_BIG_LITTLE, window_size=1)),
    ], ids=["tso-window-0", "weak-window-1"])
    def test_minimal_window_runs_in_program_order(self, model, platform,
                                                  small_program):
        """A zero-entry store buffer drains each store before its thread
        issues again; a one-entry window completes each op before the
        next is fetched.  Either way no SC-forbidden outcome shows."""
        ex = OperationalExecutor(small_program, model, platform, seed=1)
        for e in ex.run(20):
            assert set(e.rf) == {op.uid for op in small_program.loads}
            assert sum(map(len, e.ws.values())) == len(small_program.stores)
        for lt in all_litmus_tests():
            if lt.allowed["sc"]:
                continue
            ex = OperationalExecutor(lt.program, model, platform, seed=3,
                                     tuning=_STRESS)
            assert not any(_shows(lt, e) for e in ex.run(300)), lt.name
