"""Unit tests for the worker task protocol (the device side)."""

import json

import pytest

from repro import io as repro_io
from repro.fleet import WorkerTask, execute_task, run_worker_task
from repro.fleet.worker import task_meta
from repro.harness import Campaign
from repro.sim.faults import FaultConfig
from repro.testgen import TestConfig, generate

CFG = TestConfig(threads=2, ops_per_thread=10, addresses=8, seed=5)


@pytest.fixture(scope="module")
def program():
    return generate(CFG)


@pytest.fixture
def task(program):
    return WorkerTask(program_doc=repro_io.dump_program(program),
                      blocks=((0, 40), (2, 40)), seed=9, config=CFG)


class TestWorkerTask:
    def test_iterations_property(self, task):
        assert task.iterations == 80

    def test_is_picklable_plain_data(self, task):
        import pickle

        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_execute_matches_in_process_run_blocks(self, program, task):
        campaign = Campaign(program=program, config=CFG, seed=9)
        direct = campaign.run_blocks([(0, 40), (2, 40)])
        result = execute_task(task)
        assert result.signature_counts == direct.signature_counts
        assert result.iterations == direct.iterations
        assert result.crashes == direct.crashes

    def test_detailed_task_uses_x86_substrate(self):
        cfg = TestConfig(isa="x86", threads=2, ops_per_thread=8, addresses=4,
                         seed=3)
        program = generate(cfg)
        task = WorkerTask(program_doc=repro_io.dump_program(program),
                          blocks=((0, 20),), seed=5, config=cfg,
                          faults=FaultConfig(l1_lines=2))
        result = execute_task(task)
        assert result.iterations == 20
        assert result.codec.register_width == 64


class TestHandOff:
    def test_run_worker_task_emits_valid_dump(self, program, task):
        payload = run_worker_task(task)
        loaded = repro_io.load_campaign(payload)
        direct = Campaign(program=program, config=CFG,
                          seed=9).run_blocks([(0, 40), (2, 40)])
        assert loaded.signature_counts == direct.signature_counts
        assert loaded.iterations == 80

    def test_dump_carries_shard_provenance(self, task):
        meta = repro_io.campaign_meta(run_worker_task(task))
        assert meta == task_meta(task)
        assert meta["shard"]["seed"] == 9
        assert meta["shard"]["blocks"] == [[0, 40], [2, 40]]

    def test_include_ws_false_strips_coherence_orders(self, task):
        from dataclasses import replace

        payload = run_worker_task(replace(task, include_ws=False))
        doc = json.loads(payload)
        assert all("ws" not in entry for entry in doc["signatures"])
