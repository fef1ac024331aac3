"""Pinned execution digests of the detailed MESI simulator.

Each row runs one :class:`DetailedExecutor` set-up for a few iterations
at a fixed seed and hashes everything an iteration leaves behind:
``rf``, ``ws``, every :class:`ExecutionCounters` field, ``crashed``,
and the executor's per-iteration ``_squashed_loads`` and
``_events_processed`` (the sources of the ``sim.detailed.load_squashes``
and ``sim.detailed.events_processed`` metrics).  A change to the event
loop or the protocol engine that is meant to be behaviour-preserving
must keep every digest; one that changes an RNG draw, an event
tie-break or a float expression moves at least one of them.

Rows:

* the three registered gem5 mutation specs, each with its bug and with
  the bug-free :class:`FaultConfig` of the same L1 size, on two
  executor seeds;
* every litmus test (base and extended libraries);
* a random x86 grid — 2 to 8 threads, 1 and 4 words per line, L1s of
  2, 4 and 64 lines — with no bug and with each of the three bugs;
* one run under a :class:`ProtocolTracer`, digesting every traced
  message and store; its execution digest must equal the untraced one.

Regenerate the table with ``PYTHONPATH=src python
tests/test_sim_detailed_digests.py`` — only when a change is *meant*
to alter executions, and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.mutate.registry import detailed_mutations
from repro.sim.detailed import DetailedExecutor
from repro.sim.faults import Bug, FaultConfig
from repro.sim.tracing import ProtocolTracer
from repro.testgen import TestConfig, generate
from repro.testgen.litmus import all_litmus_tests, extended_litmus_tests

ITERATIONS = 3
SEEDS = (1, 2)
BUGS = (None,) + tuple(Bug)


def _bug_name(bug) -> str:
    return "none" if bug is None else "bug%d" % bug.value


def run_digest(executor, iterations: int = ITERATIONS) -> str:
    """sha256[:16] over the iterations' full observable state."""
    h = hashlib.sha256()
    for e in executor.run(iterations):
        h.update(repr((sorted(e.rf.items(), key=lambda kv: kv[0]),
                       sorted(e.ws.items()),
                       dataclasses.astuple(e.counters),
                       e.crashed,
                       executor._squashed_loads,
                       executor._events_processed)).encode())
    return h.hexdigest()[:16]


def _spec_rows(table: dict) -> None:
    for mutation in detailed_mutations():
        spec = mutation.spec
        program = generate(spec.config)
        for label, faults in (("bug", mutation.fault_config()),
                              ("clean", FaultConfig(l1_lines=spec.l1_lines))):
            for seed in SEEDS:
                table["spec/%s/%s/s%d" % (mutation.name, label, seed)] = (
                    lambda program=program, cfg=spec.config, faults=faults,
                    seed=seed: DetailedExecutor(program, seed=seed,
                                                layout=cfg.layout,
                                                faults=faults))


def _litmus_rows(table: dict) -> None:
    for lt in all_litmus_tests() + extended_litmus_tests():
        table["litmus/%s" % lt.name] = (
            lambda program=lt.program: DetailedExecutor(program, seed=SEEDS[0]))


def _grid_configs():
    """(name, TestConfig, l1_lines): seeded random shapes over the grid."""
    rng = random.Random(20170624)
    for threads in (2, 3, 5, 8):
        for wpl in (1, 4):
            for l1_lines in (2, 4, 64):
                cfg = TestConfig(isa="x86", threads=threads,
                                 ops_per_thread=rng.randint(6, 24),
                                 addresses=rng.randint(2, 12),
                                 words_per_line=wpl,
                                 seed=rng.randint(0, 50_000))
                yield ("%s-w%d-l%d" % (cfg.name, wpl, l1_lines), cfg,
                       l1_lines)


def _grid_rows(table: dict) -> None:
    for name, cfg, l1_lines in _grid_configs():
        program = generate(cfg)
        for bug in BUGS:
            table["grid/%s/%s" % (name, _bug_name(bug))] = (
                lambda program=program, cfg=cfg, l1_lines=l1_lines, bug=bug:
                DetailedExecutor(program, seed=SEEDS[0], layout=cfg.layout,
                                 faults=FaultConfig(bug=bug,
                                                    l1_lines=l1_lines)))


def cases() -> dict:
    """Case id -> zero-argument executor factory."""
    table = {}
    _spec_rows(table)
    _litmus_rows(table)
    _grid_rows(table)
    return table


_CASES = cases()

#: the set-up of the traced row (a small, line-contended program)
_TRACED = TestConfig(isa="x86", threads=3, ops_per_thread=12, addresses=4,
                     words_per_line=4, seed=11)


def _traced_executor():
    return DetailedExecutor(generate(_TRACED), seed=SEEDS[1],
                            layout=_TRACED.layout,
                            faults=FaultConfig(l1_lines=2))


def traced_digests() -> tuple[str, str]:
    """(execution digest, digest of every traced message and store)."""
    tracer = ProtocolTracer(capacity=1_000_000)
    executor = _traced_executor()
    with tracer.attach_to(executor):
        execution_digest = run_digest(executor, 2)
    h = hashlib.sha256()
    for event in tracer.events:
        h.update(repr((event.time, event.kind, event.detail)).encode())
    return execution_digest, h.hexdigest()[:16]


PINS = {
    'grid/x86-2-11-10-w4-l4/bug1': '2534188ddcf41e1e',
    'grid/x86-2-11-10-w4-l4/bug2': '2534188ddcf41e1e',
    'grid/x86-2-11-10-w4-l4/bug3': '2534188ddcf41e1e',
    'grid/x86-2-11-10-w4-l4/none': '2534188ddcf41e1e',
    'grid/x86-2-23-11-w1-l2/bug1': '30c4b24e0407a9df',
    'grid/x86-2-23-11-w1-l2/bug2': '3346f2260da09d28',
    'grid/x86-2-23-11-w1-l2/bug3': '2bba46e737f8f059',
    'grid/x86-2-23-11-w1-l2/none': '30c4b24e0407a9df',
    'grid/x86-2-23-11-w4-l64/bug1': 'a997f82d5973a5ab',
    'grid/x86-2-23-11-w4-l64/bug2': '2ec90f74021b29de',
    'grid/x86-2-23-11-w4-l64/bug3': 'a997f82d5973a5ab',
    'grid/x86-2-23-11-w4-l64/none': 'a997f82d5973a5ab',
    'grid/x86-2-23-12-w1-l64/bug1': '045e89cc8fc6c195',
    'grid/x86-2-23-12-w1-l64/bug2': '4b9c360d64c0121c',
    'grid/x86-2-23-12-w1-l64/bug3': '045e89cc8fc6c195',
    'grid/x86-2-23-12-w1-l64/none': '045e89cc8fc6c195',
    'grid/x86-2-7-11-w1-l4/bug1': 'c5ea5fa465361c0a',
    'grid/x86-2-7-11-w1-l4/bug2': 'c5ea5fa465361c0a',
    'grid/x86-2-7-11-w1-l4/bug3': 'c5ea5fa465361c0a',
    'grid/x86-2-7-11-w1-l4/none': 'c5ea5fa465361c0a',
    'grid/x86-2-7-11-w4-l2/bug1': '52d7023d38c9a508',
    'grid/x86-2-7-11-w4-l2/bug2': '34309affcb1f33f2',
    'grid/x86-2-7-11-w4-l2/bug3': '52d7023d38c9a508',
    'grid/x86-2-7-11-w4-l2/none': '52d7023d38c9a508',
    'grid/x86-3-11-10-w1-l64/bug1': 'c193c1c1908dfd97',
    'grid/x86-3-11-10-w1-l64/bug2': 'c193c1c1908dfd97',
    'grid/x86-3-11-10-w1-l64/bug3': 'c193c1c1908dfd97',
    'grid/x86-3-11-10-w1-l64/none': 'c193c1c1908dfd97',
    'grid/x86-3-14-9-w4-l64/bug1': '045c986b8b43263d',
    'grid/x86-3-14-9-w4-l64/bug2': '045c986b8b43263d',
    'grid/x86-3-14-9-w4-l64/bug3': '045c986b8b43263d',
    'grid/x86-3-14-9-w4-l64/none': '045c986b8b43263d',
    'grid/x86-3-15-7-w4-l4/bug1': 'bc4e7d90472f03fc',
    'grid/x86-3-15-7-w4-l4/bug2': 'bc4e7d90472f03fc',
    'grid/x86-3-15-7-w4-l4/bug3': 'bc4e7d90472f03fc',
    'grid/x86-3-15-7-w4-l4/none': 'bc4e7d90472f03fc',
    'grid/x86-3-20-11-w1-l2/bug1': 'f3e63224deff6d11',
    'grid/x86-3-20-11-w1-l2/bug2': '8933d6560f57419d',
    'grid/x86-3-20-11-w1-l2/bug3': '297fa5b50d3cf424',
    'grid/x86-3-20-11-w1-l2/none': 'f3e63224deff6d11',
    'grid/x86-3-20-9-w1-l4/bug1': '63580283adf6322c',
    'grid/x86-3-20-9-w1-l4/bug2': '63580283adf6322c',
    'grid/x86-3-20-9-w1-l4/bug3': '8a7312dbe662bd96',
    'grid/x86-3-20-9-w1-l4/none': '63580283adf6322c',
    'grid/x86-3-6-2-w4-l2/bug1': 'c098f9791621d791',
    'grid/x86-3-6-2-w4-l2/bug2': 'c098f9791621d791',
    'grid/x86-3-6-2-w4-l2/bug3': 'c098f9791621d791',
    'grid/x86-3-6-2-w4-l2/none': 'c098f9791621d791',
    'grid/x86-5-10-4-w1-l4/bug1': '484b0795e0679792',
    'grid/x86-5-10-4-w1-l4/bug2': '40966fd2d62f201b',
    'grid/x86-5-10-4-w1-l4/bug3': '484b0795e0679792',
    'grid/x86-5-10-4-w1-l4/none': '484b0795e0679792',
    'grid/x86-5-12-4-w4-l2/bug1': '94de9f614186c539',
    'grid/x86-5-12-4-w4-l2/bug2': '94de9f614186c539',
    'grid/x86-5-12-4-w4-l2/bug3': '94de9f614186c539',
    'grid/x86-5-12-4-w4-l2/none': '94de9f614186c539',
    'grid/x86-5-16-5-w1-l64/bug1': '6e38b24fc04510fe',
    'grid/x86-5-16-5-w1-l64/bug2': '6e38b24fc04510fe',
    'grid/x86-5-16-5-w1-l64/bug3': '6e38b24fc04510fe',
    'grid/x86-5-16-5-w1-l64/none': '6e38b24fc04510fe',
    'grid/x86-5-20-6-w4-l4/bug1': '7ba4d4fc7c61f8b0',
    'grid/x86-5-20-6-w4-l4/bug2': '77d208966e44977f',
    'grid/x86-5-20-6-w4-l4/bug3': '08227981128386c3',
    'grid/x86-5-20-6-w4-l4/none': '08227981128386c3',
    'grid/x86-5-7-10-w1-l2/bug1': 'e9141fe083c4c374',
    'grid/x86-5-7-10-w1-l2/bug2': 'e9141fe083c4c374',
    'grid/x86-5-7-10-w1-l2/bug3': 'a7b13695ec190f7f',
    'grid/x86-5-7-10-w1-l2/none': 'e9141fe083c4c374',
    'grid/x86-5-9-8-w4-l64/bug1': '659a958e48ad5955',
    'grid/x86-5-9-8-w4-l64/bug2': '12cd89873ded3f50',
    'grid/x86-5-9-8-w4-l64/bug3': '69062c87a1671c32',
    'grid/x86-5-9-8-w4-l64/none': '69062c87a1671c32',
    'grid/x86-8-16-8-w1-l2/bug1': '7eeba209ad43445f',
    'grid/x86-8-16-8-w1-l2/bug2': '22bf071eb6b82760',
    'grid/x86-8-16-8-w1-l2/bug3': 'ecb842f947880db1',
    'grid/x86-8-16-8-w1-l2/none': '7eeba209ad43445f',
    'grid/x86-8-19-6-w4-l64/bug1': '3c7e59343b743ca7',
    'grid/x86-8-19-6-w4-l64/bug2': 'f4e384fea6cd0199',
    'grid/x86-8-19-6-w4-l64/bug3': '4bc3c55fc875463c',
    'grid/x86-8-19-6-w4-l64/none': '4bc3c55fc875463c',
    'grid/x86-8-22-9-w4-l2/bug1': '9c52966af80555e0',
    'grid/x86-8-22-9-w4-l2/bug2': 'ff6fa0fe1973a2e8',
    'grid/x86-8-22-9-w4-l2/bug3': 'fdd08f59138e105a',
    'grid/x86-8-22-9-w4-l2/none': '1afc903896b4ca85',
    'grid/x86-8-6-9-w4-l4/bug1': '035851f0e1547a52',
    'grid/x86-8-6-9-w4-l4/bug2': '6cc2b2a24bbdcd1b',
    'grid/x86-8-6-9-w4-l4/bug3': 'e20e42313fa5f7bd',
    'grid/x86-8-6-9-w4-l4/none': 'e20e42313fa5f7bd',
    'grid/x86-8-8-2-w1-l64/bug1': 'bd7d5b1c97d7be47',
    'grid/x86-8-8-2-w1-l64/bug2': '3fe220cb11e90a26',
    'grid/x86-8-8-2-w1-l64/bug3': 'bd7d5b1c97d7be47',
    'grid/x86-8-8-2-w1-l64/none': 'bd7d5b1c97d7be47',
    'grid/x86-8-8-6-w1-l4/bug1': 'eec1b0a999ec0547',
    'grid/x86-8-8-6-w1-l4/bug2': '0169ea75011dae32',
    'grid/x86-8-8-6-w1-l4/bug3': 'eec1b0a999ec0547',
    'grid/x86-8-8-6-w1-l4/none': 'eec1b0a999ec0547',
    'litmus/2+2W': '149a7e3273bb64b1',
    'litmus/CoRR': '0c6075265857933c',
    'litmus/CoWR': 'f1cdf801d5c1c9ad',
    'litmus/CoWW': '4995008c2c14fd7e',
    'litmus/IRIW': 'b6fe9d7adf8d94cf',
    'litmus/LB': '80ffc219d6337bc6',
    'litmus/MP': '343c5a8f4271fa24',
    'litmus/MP+dmbs': '1dcef4044b8fad18',
    'litmus/R': '026074de90a0762b',
    'litmus/RWC': '797dae9aa67f83cb',
    'litmus/S': '5f7e3bdd27ebb95b',
    'litmus/SB': '56c13c627fa61b0d',
    'litmus/SB+fence1': '120ab6d01f194945',
    'litmus/SB+fences': '1d2ccd3bc3f6ed02',
    'litmus/WRC': '0274456b53e40b30',
    'spec/gem5-lsq-squash/bug/s1': 'ea11aaa72b1a78f3',
    'spec/gem5-lsq-squash/bug/s2': '193cdc006b352b21',
    'spec/gem5-lsq-squash/clean/s1': '0a27759f0f86e2b2',
    'spec/gem5-lsq-squash/clean/s2': '940b210737360d38',
    'spec/gem5-protocol-squash/bug/s1': 'efa24a217f0a8064',
    'spec/gem5-protocol-squash/bug/s2': 'b4c1ae1705d80a5f',
    'spec/gem5-protocol-squash/clean/s1': 'bb00ca14eeedae37',
    'spec/gem5-protocol-squash/clean/s2': 'd6ab14dcdf41a403',
    'spec/gem5-writeback-race/bug/s1': '39cb39e2bb56e02c',
    'spec/gem5-writeback-race/bug/s2': '4fbab5ed9333673c',
    'spec/gem5-writeback-race/clean/s1': 'e7fd34a0784b0a38',
    'spec/gem5-writeback-race/clean/s2': 'ee7f598b3ae3c074',
}

TRACE_PIN = ('c684b87f1a37db07', 'cfa84591c22d16d7')


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(_CASES)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest(case):
    assert run_digest(_CASES[case]()) == PINS[case]


def test_traced_run_matches_untraced_and_pin():
    execution_digest, trace_digest = traced_digests()
    assert execution_digest == run_digest(_traced_executor(), 2)
    assert (execution_digest, trace_digest) == TRACE_PIN


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(_CASES):
        print("    %r: %r," % (name, run_digest(_CASES[name]())))
    print("}")
    print()
    print("TRACE_PIN = %r" % (traced_digests(),))
