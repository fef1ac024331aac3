"""Shared fixtures for the test suite."""

import pytest

from repro.fleet.sharding import DEFAULT_BLOCK
from repro.instrument import SignatureCodec
from repro.isa import TestProgram, load, store
from repro.testgen import TestConfig, generate


@pytest.fixture
def figure3_program() -> TestProgram:
    """The example test of the paper's Figure 3.

    thread 0: st 0x100 (1), ld 0x100 (2), ld 0x104 (3), st 0x100 (4)
    thread 1: st 0x104 (5), st 0x100 (6), ld 0x100 (7), st 0x104 (8)
    thread 2: st 0x100 (9), st 0x104 (10)

    Addresses: 0x100 -> 0, 0x104 -> 1.  Store IDs match the paper's
    circled operation numbers.
    """
    return TestProgram.from_ops(
        [
            [store(0, 0, 0, 1), load(0, 1, 0), load(0, 2, 1), store(0, 3, 0, 4)],
            [store(1, 0, 1, 5), store(1, 1, 0, 6), load(1, 2, 0), store(1, 3, 1, 8)],
            [store(2, 0, 0, 9), store(2, 1, 1, 10)],
        ],
        num_addresses=2, name="figure3",
    )


@pytest.fixture
def small_config() -> TestConfig:
    return TestConfig(isa="arm", threads=2, ops_per_thread=20, addresses=8, seed=7)


@pytest.fixture
def small_program(small_config) -> TestProgram:
    return generate(small_config)


@pytest.fixture
def small_codec(small_program) -> SignatureCodec:
    return SignatureCodec(small_program, register_width=32)


@pytest.fixture
def executions_of():
    """``executions_of(campaign, n)``: the executions ``campaign.run(n)``
    collects, straight from its executor.

    A campaign of at most one seed block runs block 0, seeded with the
    campaign's own seed, so re-seeding the executor replays it.
    """
    def replay(campaign, iterations):
        assert iterations <= DEFAULT_BLOCK, "more than one seed block"
        campaign.executor.reseed(campaign.seed)
        return list(campaign.executor.run(iterations))

    return replay
