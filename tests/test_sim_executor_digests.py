"""Pinned execution digests of the operational executor.

Each row runs one executor set-up for a few iterations at a fixed seed
and hashes everything an execution carries: ``rf``, ``ws``, every
:class:`ExecutionCounters` field and ``crashed`` (plus the fault
plane's opportunity and firing totals for mutation rows).  A change to
the machines' loops that is meant to be behaviour-preserving must keep
every digest; one that changes an RNG draw, a float sum's order or a
scheduling decision moves at least one of them.

Rows:

* the 21 paper configurations under SC, TSO and weak (signature mode);
* a barrier and false-sharing grid — arm/x86, 2 and 4 threads, 8
  addresses on 1 word per line and 16 on 4, ``barrier_fraction`` 0.1
  and 0.3 — under the three models and the three instrumentation modes;
* thread counts beyond the paper's seven — arm/x86, 12 and 70 threads,
  30 ops on 16 addresses, 4 words per line — under the three models;
* ``sync_barriers`` on a regularized program, an :class:`OSModel` and
  ``uniform_random``, under the three models;
* the registered operational mutations on their pinned campaign specs.

Regenerate the table with ``PYTHONPATH=src python
tests/test_sim_executor_digests.py`` — only when a change is *meant*
to alter executions, and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.instrument import SignatureCodec, regularize
from repro.mcm import get_model
from repro.mutate.plane import FaultPlane
from repro.mutate.registry import operational_mutations
from repro.sim import OperationalExecutor, OSModel, platform_for_isa
from repro.testgen import TestConfig, generate
from repro.testgen.config import PAPER_CONFIGS

ITERATIONS = 4
SEED = 7
MODELS = ("sc", "tso", "weak")
MODES = ("signature", "flush", "none")


def digest(executions, plane=None) -> str:
    """sha256[:16] over the executions' full observable state."""
    h = hashlib.sha256()
    for e in executions:
        h.update(repr((sorted(e.rf.items(), key=lambda kv: kv[0]),
                       sorted(e.ws.items()),
                       dataclasses.astuple(e.counters),
                       e.crashed)).encode())
    if plane is not None:
        h.update(repr((sorted(plane.opportunities.items()),
                       sorted(plane.fired.items()))).encode())
    return h.hexdigest()[:16]


def _executor(config, model, mode="signature", *, program=None, **kwargs):
    program = program or generate(config)
    platform = platform_for_isa(config.isa)
    codec = SignatureCodec(program, platform.register_width)
    return OperationalExecutor(
        program, get_model(model), platform, seed=SEED,
        instrumentation=None if mode == "none" else mode, codec=codec,
        layout=config.layout, **kwargs)


def _grid_configs():
    for isa in ("arm", "x86"):
        for threads in (2, 4):
            for addresses, wpl in ((8, 1), (16, 4)):
                for fraction in (0.1, 0.3):
                    yield TestConfig(isa=isa, threads=threads,
                                     ops_per_thread=30, addresses=addresses,
                                     words_per_line=wpl,
                                     barrier_fraction=fraction,
                                     seed={"arm": 5, "x86": 6}[isa])


def _grid_name(cfg) -> str:
    return "%s-w%d-b%g" % (cfg.name, cfg.words_per_line, cfg.barrier_fraction)


def _wide_configs():
    for isa in ("arm", "x86"):
        for threads in (12, 70):
            yield TestConfig(isa=isa, threads=threads, ops_per_thread=30,
                             addresses=16, words_per_line=4,
                             seed={"arm": 5, "x86": 6}[isa])


#: the set-up used by the sync, OS and uniform rows
_SPECIAL = TestConfig(isa="x86", threads=4, ops_per_thread=40,
                      addresses=8, words_per_line=4, seed=9)


def _sync(model):
    program = regularize(generate(_SPECIAL), 8)
    return _executor(_SPECIAL, model, program=program, sync_barriers=True)


def _os(model):
    os_model = OSModel(random.Random(SEED + 1), _SPECIAL.threads,
                       platform_for_isa(_SPECIAL.isa).num_cores)
    return _executor(_SPECIAL, model, os_model=os_model)


def _uniform(model):
    return _executor(_SPECIAL, model, uniform_random=True)


def _mutation(mutation):
    spec = mutation.spec
    return _executor(spec.config, spec.config.memory_model_name,
                     plane=FaultPlane(mutation, SEED),
                     sync_barriers=spec.sync_barriers)


def cases() -> dict:
    """Case id -> zero-argument executor factory."""
    table = {}
    for cfg in PAPER_CONFIGS:
        for model in MODELS:
            table["paper/%s/%s" % (cfg.name, model)] = (
                lambda cfg=cfg, model=model: _executor(cfg, model))
    for cfg in _grid_configs():
        for model in MODELS:
            for mode in MODES:
                table["grid/%s/%s/%s" % (_grid_name(cfg), model, mode)] = (
                    lambda cfg=cfg, model=model, mode=mode:
                    _executor(cfg, model, mode))
    for cfg in _wide_configs():
        for model in MODELS:
            table["wide/%s/%s" % (cfg.name, model)] = (
                lambda cfg=cfg, model=model: _executor(cfg, model))
    for kind, factory in (("sync", _sync), ("os", _os), ("uniform", _uniform)):
        for model in MODELS:
            table["%s/%s" % (kind, model)] = (
                lambda factory=factory, model=model: factory(model))
    for mutation in operational_mutations():
        table["mutation/%s" % mutation.name] = (
            lambda mutation=mutation: _mutation(mutation))
    return table


def run_case(factory) -> str:
    executor = factory()
    executions = list(executor.run(ITERATIONS))
    return digest(executions, executor.plane)


_CASES = cases()

PINS = {
    'grid/ARM-2-30-16-w4-b0.1/sc/flush': '3cae516ab4101f71',
    'grid/ARM-2-30-16-w4-b0.1/sc/none': '9c3b46c67de39370',
    'grid/ARM-2-30-16-w4-b0.1/sc/signature': 'bee1687f58896e5c',
    'grid/ARM-2-30-16-w4-b0.1/tso/flush': '978d9dc34a79b005',
    'grid/ARM-2-30-16-w4-b0.1/tso/none': 'b5ffd00343a81d35',
    'grid/ARM-2-30-16-w4-b0.1/tso/signature': 'ef35fba8e96b09a6',
    'grid/ARM-2-30-16-w4-b0.1/weak/flush': '362a3d80808a09cd',
    'grid/ARM-2-30-16-w4-b0.1/weak/none': 'eed5192d46d2d90b',
    'grid/ARM-2-30-16-w4-b0.1/weak/signature': '2b5a2096d1bda238',
    'grid/ARM-2-30-16-w4-b0.3/sc/flush': '04bca680eb8d24e7',
    'grid/ARM-2-30-16-w4-b0.3/sc/none': '4ff07a9d3d4d4ef3',
    'grid/ARM-2-30-16-w4-b0.3/sc/signature': '3e6b09eb14666255',
    'grid/ARM-2-30-16-w4-b0.3/tso/flush': '36925b12066358d3',
    'grid/ARM-2-30-16-w4-b0.3/tso/none': '14cfbf1cce6d9513',
    'grid/ARM-2-30-16-w4-b0.3/tso/signature': '3c2bdcf580595fc2',
    'grid/ARM-2-30-16-w4-b0.3/weak/flush': '4204d93911ceb118',
    'grid/ARM-2-30-16-w4-b0.3/weak/none': 'ceb176dfffd3e092',
    'grid/ARM-2-30-16-w4-b0.3/weak/signature': '49eeb175cf358788',
    'grid/ARM-2-30-8-w1-b0.1/sc/flush': '639e97f807bafefe',
    'grid/ARM-2-30-8-w1-b0.1/sc/none': 'd0c59866da16c8ac',
    'grid/ARM-2-30-8-w1-b0.1/sc/signature': '307e81135e04956a',
    'grid/ARM-2-30-8-w1-b0.1/tso/flush': 'ba22549c41cd8181',
    'grid/ARM-2-30-8-w1-b0.1/tso/none': '2e43afe962eed805',
    'grid/ARM-2-30-8-w1-b0.1/tso/signature': '9ae268a1f6f2a61f',
    'grid/ARM-2-30-8-w1-b0.1/weak/flush': 'a0d762dbd4549ca2',
    'grid/ARM-2-30-8-w1-b0.1/weak/none': '0e44f8f73503ca8b',
    'grid/ARM-2-30-8-w1-b0.1/weak/signature': '5d17e300557b0a8e',
    'grid/ARM-2-30-8-w1-b0.3/sc/flush': '28db693086942bf2',
    'grid/ARM-2-30-8-w1-b0.3/sc/none': '351c9010ef22d22f',
    'grid/ARM-2-30-8-w1-b0.3/sc/signature': 'dafac08e98576bf1',
    'grid/ARM-2-30-8-w1-b0.3/tso/flush': '9f52e3554129c8f2',
    'grid/ARM-2-30-8-w1-b0.3/tso/none': '9e9cf6c39093bbd9',
    'grid/ARM-2-30-8-w1-b0.3/tso/signature': '401c2077d09dd06a',
    'grid/ARM-2-30-8-w1-b0.3/weak/flush': 'ad563f6172249acb',
    'grid/ARM-2-30-8-w1-b0.3/weak/none': 'a4c768cc1a00c20f',
    'grid/ARM-2-30-8-w1-b0.3/weak/signature': '5f47079df4c92109',
    'grid/ARM-4-30-16-w4-b0.1/sc/flush': 'e4d945dfc13bd47d',
    'grid/ARM-4-30-16-w4-b0.1/sc/none': '101f4c35fc252a31',
    'grid/ARM-4-30-16-w4-b0.1/sc/signature': 'ec65ad397d923da1',
    'grid/ARM-4-30-16-w4-b0.1/tso/flush': '79d32da061aa802f',
    'grid/ARM-4-30-16-w4-b0.1/tso/none': 'af244f03e1aab3ab',
    'grid/ARM-4-30-16-w4-b0.1/tso/signature': '0cf5b75eeefb9e47',
    'grid/ARM-4-30-16-w4-b0.1/weak/flush': 'fd7b2d6d15e01182',
    'grid/ARM-4-30-16-w4-b0.1/weak/none': '2f6106cced17f09d',
    'grid/ARM-4-30-16-w4-b0.1/weak/signature': '5b0d14d2d6ab2410',
    'grid/ARM-4-30-16-w4-b0.3/sc/flush': '0f9e34ac4192f05f',
    'grid/ARM-4-30-16-w4-b0.3/sc/none': 'cc5a1a90caf0f5cb',
    'grid/ARM-4-30-16-w4-b0.3/sc/signature': '250881d49503e6cc',
    'grid/ARM-4-30-16-w4-b0.3/tso/flush': '7cbc8ffeac451fe2',
    'grid/ARM-4-30-16-w4-b0.3/tso/none': '60c4cac54dc412d1',
    'grid/ARM-4-30-16-w4-b0.3/tso/signature': 'c017c40636471b81',
    'grid/ARM-4-30-16-w4-b0.3/weak/flush': '4db7522e41b91e13',
    'grid/ARM-4-30-16-w4-b0.3/weak/none': '2103d39b2ee0d297',
    'grid/ARM-4-30-16-w4-b0.3/weak/signature': 'd5ae9c68210f163c',
    'grid/ARM-4-30-8-w1-b0.1/sc/flush': '7da4a8b1dc71abce',
    'grid/ARM-4-30-8-w1-b0.1/sc/none': '2c7a0b2b90cb3606',
    'grid/ARM-4-30-8-w1-b0.1/sc/signature': 'e1b00effb411a824',
    'grid/ARM-4-30-8-w1-b0.1/tso/flush': '03d7ed108a607761',
    'grid/ARM-4-30-8-w1-b0.1/tso/none': 'd89c8183b43e5b14',
    'grid/ARM-4-30-8-w1-b0.1/tso/signature': '819643a1787dbb22',
    'grid/ARM-4-30-8-w1-b0.1/weak/flush': '49829f400b5fafe7',
    'grid/ARM-4-30-8-w1-b0.1/weak/none': 'c4a4611509ccaf2a',
    'grid/ARM-4-30-8-w1-b0.1/weak/signature': '5e89a048a52c1c0d',
    'grid/ARM-4-30-8-w1-b0.3/sc/flush': 'd44a908251004278',
    'grid/ARM-4-30-8-w1-b0.3/sc/none': 'afac43600837c47f',
    'grid/ARM-4-30-8-w1-b0.3/sc/signature': '3617d5d69669d81a',
    'grid/ARM-4-30-8-w1-b0.3/tso/flush': '6dcc65094ec4e1f0',
    'grid/ARM-4-30-8-w1-b0.3/tso/none': '523b140c958163ac',
    'grid/ARM-4-30-8-w1-b0.3/tso/signature': '60e15086c9b9ea17',
    'grid/ARM-4-30-8-w1-b0.3/weak/flush': '23432600fc9252b9',
    'grid/ARM-4-30-8-w1-b0.3/weak/none': '02eb044756ab770f',
    'grid/ARM-4-30-8-w1-b0.3/weak/signature': '802550140a0481f5',
    'grid/x86-2-30-16-w4-b0.1/sc/flush': '46582f1d8efa98ea',
    'grid/x86-2-30-16-w4-b0.1/sc/none': '7c2084c5ecc1a6f8',
    'grid/x86-2-30-16-w4-b0.1/sc/signature': '232db26378fa0b35',
    'grid/x86-2-30-16-w4-b0.1/tso/flush': 'eb906880787bd73e',
    'grid/x86-2-30-16-w4-b0.1/tso/none': '9a2661fe7dbb1ff7',
    'grid/x86-2-30-16-w4-b0.1/tso/signature': '77ea25e411ba608a',
    'grid/x86-2-30-16-w4-b0.1/weak/flush': '777f79083c2ac31f',
    'grid/x86-2-30-16-w4-b0.1/weak/none': '3e6385c0680e2579',
    'grid/x86-2-30-16-w4-b0.1/weak/signature': 'e2c09fb22159f585',
    'grid/x86-2-30-16-w4-b0.3/sc/flush': '32b72297154df41f',
    'grid/x86-2-30-16-w4-b0.3/sc/none': 'ac886150da72c90f',
    'grid/x86-2-30-16-w4-b0.3/sc/signature': 'e8c55655dec1ec0e',
    'grid/x86-2-30-16-w4-b0.3/tso/flush': 'e6addff058126588',
    'grid/x86-2-30-16-w4-b0.3/tso/none': '2451f4bf9c1bf0f9',
    'grid/x86-2-30-16-w4-b0.3/tso/signature': '21faa2b09137aa7b',
    'grid/x86-2-30-16-w4-b0.3/weak/flush': 'f547945a38ac8795',
    'grid/x86-2-30-16-w4-b0.3/weak/none': '9b48cbb2904cdd1c',
    'grid/x86-2-30-16-w4-b0.3/weak/signature': 'fd320204516e4adb',
    'grid/x86-2-30-8-w1-b0.1/sc/flush': '3749ff8e4864ebca',
    'grid/x86-2-30-8-w1-b0.1/sc/none': '5ee724929b465115',
    'grid/x86-2-30-8-w1-b0.1/sc/signature': '6d20429f121cca9f',
    'grid/x86-2-30-8-w1-b0.1/tso/flush': 'abe2f53456e8f3a2',
    'grid/x86-2-30-8-w1-b0.1/tso/none': 'cdc5ac60ebdebaff',
    'grid/x86-2-30-8-w1-b0.1/tso/signature': 'fcb85b29e062a0cb',
    'grid/x86-2-30-8-w1-b0.1/weak/flush': '9bb807d0fe3e27ab',
    'grid/x86-2-30-8-w1-b0.1/weak/none': 'a62155b8bac3af06',
    'grid/x86-2-30-8-w1-b0.1/weak/signature': '38ef0d606bce0fa4',
    'grid/x86-2-30-8-w1-b0.3/sc/flush': '68f14aca1e42bce0',
    'grid/x86-2-30-8-w1-b0.3/sc/none': 'a5bf77aa513f7024',
    'grid/x86-2-30-8-w1-b0.3/sc/signature': '17289fc1c2e6a0a8',
    'grid/x86-2-30-8-w1-b0.3/tso/flush': 'd6cf16d070c42c8a',
    'grid/x86-2-30-8-w1-b0.3/tso/none': '8d2825fb8274c25f',
    'grid/x86-2-30-8-w1-b0.3/tso/signature': '4cf9bf5b059fb900',
    'grid/x86-2-30-8-w1-b0.3/weak/flush': '96d7937310e17c26',
    'grid/x86-2-30-8-w1-b0.3/weak/none': 'bb8e94ba8d82ecd3',
    'grid/x86-2-30-8-w1-b0.3/weak/signature': '1db671492344138d',
    'grid/x86-4-30-16-w4-b0.1/sc/flush': '7dd8414935a38dd9',
    'grid/x86-4-30-16-w4-b0.1/sc/none': 'ee4da110eb9c60c1',
    'grid/x86-4-30-16-w4-b0.1/sc/signature': 'ba0e925965023306',
    'grid/x86-4-30-16-w4-b0.1/tso/flush': 'c65c836d7f69d8c8',
    'grid/x86-4-30-16-w4-b0.1/tso/none': 'c6153aa31b888642',
    'grid/x86-4-30-16-w4-b0.1/tso/signature': 'd20bca6cf4304d75',
    'grid/x86-4-30-16-w4-b0.1/weak/flush': 'd133819e377e9d00',
    'grid/x86-4-30-16-w4-b0.1/weak/none': 'a87e59df8fcba26b',
    'grid/x86-4-30-16-w4-b0.1/weak/signature': '752664018f25b9a8',
    'grid/x86-4-30-16-w4-b0.3/sc/flush': '726753e44607f729',
    'grid/x86-4-30-16-w4-b0.3/sc/none': '19b1f4ec940fff3e',
    'grid/x86-4-30-16-w4-b0.3/sc/signature': '707918fd6eb0b396',
    'grid/x86-4-30-16-w4-b0.3/tso/flush': 'c2667cd2f164e5dc',
    'grid/x86-4-30-16-w4-b0.3/tso/none': '3fbab46ab391b6ed',
    'grid/x86-4-30-16-w4-b0.3/tso/signature': 'af7d3dedb4fd5fad',
    'grid/x86-4-30-16-w4-b0.3/weak/flush': 'cd84f143d27be897',
    'grid/x86-4-30-16-w4-b0.3/weak/none': '02be40b90e5d6e96',
    'grid/x86-4-30-16-w4-b0.3/weak/signature': 'd7b75745273b20d0',
    'grid/x86-4-30-8-w1-b0.1/sc/flush': '3c5494261cff9028',
    'grid/x86-4-30-8-w1-b0.1/sc/none': 'fb62010358e944ae',
    'grid/x86-4-30-8-w1-b0.1/sc/signature': '737a978b4793016e',
    'grid/x86-4-30-8-w1-b0.1/tso/flush': 'c07dcd496d3480bb',
    'grid/x86-4-30-8-w1-b0.1/tso/none': '5ecfc22802489c21',
    'grid/x86-4-30-8-w1-b0.1/tso/signature': 'a34abc682bc546ce',
    'grid/x86-4-30-8-w1-b0.1/weak/flush': 'a3cfeb0a2fa99888',
    'grid/x86-4-30-8-w1-b0.1/weak/none': '5591c8f9a094211c',
    'grid/x86-4-30-8-w1-b0.1/weak/signature': 'c85963dbaa5c37c0',
    'grid/x86-4-30-8-w1-b0.3/sc/flush': '8338f7cc033aa48b',
    'grid/x86-4-30-8-w1-b0.3/sc/none': '991a4f732a0bf74d',
    'grid/x86-4-30-8-w1-b0.3/sc/signature': '73b647511316567d',
    'grid/x86-4-30-8-w1-b0.3/tso/flush': 'b1e89d66ef1dd5a5',
    'grid/x86-4-30-8-w1-b0.3/tso/none': '5ddd0733a912fb3a',
    'grid/x86-4-30-8-w1-b0.3/tso/signature': '06482ee0cf64d191',
    'grid/x86-4-30-8-w1-b0.3/weak/flush': 'b5de9d41b3f982fe',
    'grid/x86-4-30-8-w1-b0.3/weak/none': '7c057acacde105fe',
    'grid/x86-4-30-8-w1-b0.3/weak/signature': 'c3fff79225503618',
    'mutation/tso-fence-drop': 'f82af2bb4eb1a224',
    'mutation/tso-sb-forward-alias': '950051f3c4439c1c',
    'mutation/tso-sb-reorder': 'e0e9e3d02bd08bf9',
    'mutation/tso-stale-read': '0e6d8a78c3268e7d',
    'mutation/weak-fence-drop': '896331bd6dee2097',
    'mutation/weak-stale-read': 'c12f74e41c785377',
    'mutation/weak-window-escape': '5eb7ec08b49b419c',
    'os/sc': '4b21c898fe17c043',
    'os/tso': '4a324818382c4fac',
    'os/weak': '3dd831ded48bd39b',
    'paper/ARM-2-100-32/sc': '9935bbb9ffdb8568',
    'paper/ARM-2-100-32/tso': '0bafd60d206fad64',
    'paper/ARM-2-100-32/weak': '39ae6260c9152886',
    'paper/ARM-2-100-64/sc': 'cf594b664d8a71af',
    'paper/ARM-2-100-64/tso': '4ffa874a4b65d1ea',
    'paper/ARM-2-100-64/weak': '131dc54e3de00fce',
    'paper/ARM-2-200-32/sc': '1f905065407a6959',
    'paper/ARM-2-200-32/tso': 'bd9a7a1516c027d5',
    'paper/ARM-2-200-32/weak': 'a6d03163b3362f7c',
    'paper/ARM-2-200-64/sc': '9c0f99362869038c',
    'paper/ARM-2-200-64/tso': '7c1c7e744feb87d6',
    'paper/ARM-2-200-64/weak': '409609102befae8c',
    'paper/ARM-2-50-32/sc': '5a2d252a7923ff56',
    'paper/ARM-2-50-32/tso': 'd87bda56847fdb62',
    'paper/ARM-2-50-32/weak': 'b382b6334484d87f',
    'paper/ARM-2-50-64/sc': '3e1d4205a0d28c01',
    'paper/ARM-2-50-64/tso': '9c7e80e9aded4bb9',
    'paper/ARM-2-50-64/weak': 'e4840b03cf9c34f5',
    'paper/ARM-4-100-64/sc': '1b70a3e65592dcb9',
    'paper/ARM-4-100-64/tso': '3d894b0ce3a10d25',
    'paper/ARM-4-100-64/weak': '2567e5d4c65496cc',
    'paper/ARM-4-200-64/sc': 'ba779cb5771d242e',
    'paper/ARM-4-200-64/tso': 'a14f2fa00125d9d4',
    'paper/ARM-4-200-64/weak': 'ead4e462c3f6a181',
    'paper/ARM-4-50-64/sc': '2bfe7adb5febd0ef',
    'paper/ARM-4-50-64/tso': '5277eed096c9d994',
    'paper/ARM-4-50-64/weak': 'e26155821f710f29',
    'paper/ARM-7-100-128/sc': 'fca57c714d2e14e7',
    'paper/ARM-7-100-128/tso': '2a39320ed9997c48',
    'paper/ARM-7-100-128/weak': '1db92418a4d810b1',
    'paper/ARM-7-100-64/sc': 'e2a0d5c906a4014e',
    'paper/ARM-7-100-64/tso': 'c1cd4a670f69f728',
    'paper/ARM-7-100-64/weak': '8b31be21c934ae16',
    'paper/ARM-7-200-128/sc': '16d5158ee9c1bd1d',
    'paper/ARM-7-200-128/tso': 'cf02a2d59ae651a4',
    'paper/ARM-7-200-128/weak': '083fbf22fe8a60a2',
    'paper/ARM-7-200-64/sc': '072675fc25a6844e',
    'paper/ARM-7-200-64/tso': 'ad762cad74af6ae9',
    'paper/ARM-7-200-64/weak': '8ed8ec277205eb3d',
    'paper/ARM-7-50-128/sc': '4c4e8810c50d93e8',
    'paper/ARM-7-50-128/tso': '15fa082e5aecda31',
    'paper/ARM-7-50-128/weak': '83616aeff85a101f',
    'paper/ARM-7-50-64/sc': 'ed03f349428c5e09',
    'paper/ARM-7-50-64/tso': '48a2f033049fa78b',
    'paper/ARM-7-50-64/weak': 'c8c3916bad2cf816',
    'paper/x86-2-100-32/sc': '61c1069ce027415c',
    'paper/x86-2-100-32/tso': '47326e4feec97ba0',
    'paper/x86-2-100-32/weak': '5396d9cf65115608',
    'paper/x86-2-200-32/sc': 'c3c6d58fa0fe9f3f',
    'paper/x86-2-200-32/tso': '49fb6215148b2465',
    'paper/x86-2-200-32/weak': '36b1f8fb9685276c',
    'paper/x86-2-50-32/sc': '5a2d252a7923ff56',
    'paper/x86-2-50-32/tso': 'd87bda56847fdb62',
    'paper/x86-2-50-32/weak': 'b382b6334484d87f',
    'paper/x86-4-100-64/sc': 'f5e80b055e36cba4',
    'paper/x86-4-100-64/tso': '56d94f12ce18c168',
    'paper/x86-4-100-64/weak': 'c080aa7fa2922ccb',
    'paper/x86-4-200-64/sc': 'f5ecabecf3daa802',
    'paper/x86-4-200-64/tso': '4b30e5105126fd2b',
    'paper/x86-4-200-64/weak': 'bf6537e131f53115',
    'paper/x86-4-50-64/sc': '2045c3033da6afc8',
    'paper/x86-4-50-64/tso': 'a1afc452ccc67147',
    'paper/x86-4-50-64/weak': 'b3a0838e901456c8',
    'sync/sc': '924ee655f2725f67',
    'sync/tso': '9ea70374feb1ceb5',
    'sync/weak': '69283450954589f3',
    'uniform/sc': '857c4fde78d7fb80',
    'uniform/tso': '2dfbe8eed1480f98',
    'uniform/weak': 'caee4ed7f69f4975',
    'wide/ARM-12-30-16/sc': 'efeb5a7f27aeb47b',
    'wide/ARM-12-30-16/tso': 'cb48881c5fa13ea0',
    'wide/ARM-12-30-16/weak': 'b70e76db77cdccec',
    'wide/ARM-70-30-16/sc': 'a364b47a81b59340',
    'wide/ARM-70-30-16/tso': 'fbeaf226708e447d',
    'wide/ARM-70-30-16/weak': '36b56d8bbf5d28ca',
    'wide/x86-12-30-16/sc': 'bcff1520429a34c3',
    'wide/x86-12-30-16/tso': 'b1d67f48ea63834e',
    'wide/x86-12-30-16/weak': '53ef4d03aa9aaee2',
    'wide/x86-70-30-16/sc': '2c46bad80200aa84',
    'wide/x86-70-30-16/tso': '998124be1d191ed6',
    'wide/x86-70-30-16/weak': '90594235f10e0242',
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(_CASES)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest(case):
    assert run_case(_CASES[case]) == PINS[case]


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(_CASES):
        print("    %r: %r," % (name, run_case(_CASES[name])))
    print("}")
