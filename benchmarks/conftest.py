"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation.  Results are registered via :func:`record_table`; a terminal-
summary hook prints every recorded table after the benchmark run (so the
paper-style rows appear even without ``-s``), and each table is also
written to ``benchmarks/results/``.

Scaling: the paper runs 65,536 iterations per test on native silicon and
10 tests per configuration.  Pure-Python simulation scales both down; the
defaults below reproduce the *shapes* in minutes.  Set ``REPRO_BENCH_ITERS``
and ``REPRO_BENCH_TESTS`` to larger values for tighter statistics.

Observability: every benchmark test runs with a fresh enabled metrics
registry; its snapshot is collected at teardown and merged into the map
(test name -> metrics) in ``benchmarks/results/BENCH_obs.json`` so the
perf trajectory is diffable across PRs.  Only the tests that ran in the
session are replaced (dropped, if they recorded nothing), so re-running
one bench file leaves the other files' snapshots alone; a deleted test's
entry stays until it is removed from the file.  Wall-clock metrics
(``*.elapsed_s`` histograms, span times) are excluded from the file —
everything left is a deterministic function of the seeds.  Campaigns are
cached across tests, so executor metrics land in the snapshot of
whichever test ran a configuration first.  The ``benchmark`` fixture is
wrapped to disable observability inside timed loops: timings measure the
same disabled-mode code paths the seed measured, and adaptive benchmark
rounds cannot inflate the recorded counters.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro import obs
from repro.graph import GraphBuilder
from repro.harness import Campaign
from repro.obs.bench import CHECK_LEGS

#: iterations per test run (paper: 65,536)
BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "192"))
#: distinct tests per configuration (paper: 10)
BENCH_TESTS = int(os.environ.get("REPRO_BENCH_TESTS", "2"))

#: the Figure-9 configs the checking benches (fig09, packed, poly) run,
#: at one iteration count and seed; their count snapshots embed both,
#: and ``repro bench diff --check`` re-runs three configs with them
FIG09_CONFIGS = [
    "ARM-2-50-32", "ARM-2-100-32", "ARM-2-200-32", "ARM-4-50-64",
    "ARM-4-100-64", "ARM-7-50-64", "x86-2-50-32", "x86-2-100-32",
    "x86-4-50-64", "x86-4-100-64",
]
FIG09_ITERS = 600
FIG09_SEED = 31

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TABLES: list[tuple[str, str]] = []


def record_table(name: str, text: str) -> None:
    """Register a paper-style table for terminal + file output."""
    _TABLES.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / (name + ".txt")).write_text(text + "\n")


def write_count_snapshot(pipeline: str, configs: dict) -> None:
    """Write a checking pipeline's per-config counts to the snapshot the
    count gate reads for it (``repro.obs.bench.CHECK_LEGS``)."""
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / CHECK_LEGS[pipeline].snapshot).write_text(json.dumps(
        {"schema": "repro.bench-%s" % pipeline, "version": 1,
         "iterations": FIG09_ITERS, "seed": FIG09_SEED, "configs": configs},
        indent=2, sort_keys=True) + "\n")


_OBS_SNAPSHOTS: dict[str, dict] = {}
#: names of the tests whose body ran this session
_RAN: set[str] = set()


def pytest_runtest_setup(item):
    obs.enable()


def pytest_runtest_teardown(item):
    handle = obs.get_obs()
    if handle.enabled and len(handle.metrics):
        _OBS_SNAPSHOTS[item.name] = _diffable(handle.metrics.snapshot())
    obs.disable()


def pytest_runtest_logreport(report):
    if report.when == "call":
        _RAN.add(report.nodeid.rsplit("::", 1)[-1])


def _diffable(snapshot: dict) -> dict:
    """Drop wall-clock series so the file only changes when behaviour does."""
    return {name: entry for name, entry in snapshot.items()
            if not name.endswith((".elapsed_s", "_seconds"))}


_DISABLED_OBS = obs.Observability(enabled=False)


def obs_off(fn):
    """Wrap ``fn`` so it runs with observability disabled.

    Used around every ``benchmark(...)`` target: timed loops measure the
    same disabled-mode code paths the seed measured, and pytest-benchmark's
    adaptive round counts cannot inflate the recorded per-test counters.
    """
    def wrapper(*args, **kwargs):
        previous = obs.set_obs(_DISABLED_OBS)
        try:
            return fn(*args, **kwargs)
        finally:
            obs.set_obs(previous)
    return wrapper


def pytest_terminal_summary(terminalreporter):
    for name, text in _TABLES:
        terminalreporter.write_sep("=", name)
        terminalreporter.write_line(text)
    if _RAN:
        _RESULTS_DIR.mkdir(exist_ok=True)
        path = _RESULTS_DIR / "BENCH_obs.json"
        suites = _committed_suites(path)
        for name in _RAN:
            suites.pop(name, None)
        suites.update(_OBS_SNAPSHOTS)
        payload = {"schema": "repro.bench-obs", "version": 1,
                   "suites": suites}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        terminalreporter.write_line("observability snapshots merged into %s"
                                    % path)


def _committed_suites(path: pathlib.Path) -> dict:
    """The snapshot map already in ``path`` (empty when absent)."""
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    if payload.get("schema") != "repro.bench-obs":
        raise ValueError("%s is not a repro.bench-obs file" % path)
    return payload["suites"]


_CAMPAIGN_CACHE: dict = {}


def run_campaign(config, iterations=None, seed=1, **kwargs):
    """Run (and cache) a campaign for a configuration."""
    iterations = iterations or BENCH_ITERS
    key = (config, iterations, seed, tuple(sorted(kwargs.items())))
    if key not in _CAMPAIGN_CACHE:
        campaign = Campaign(config=config, seed=seed, **kwargs)
        _CAMPAIGN_CACHE[key] = (campaign, campaign.run(iterations))
    return _CAMPAIGN_CACHE[key]


def campaign_graphs(config, iterations=None, seed=1, ws_mode="static"):
    """Signature-sorted constraint graphs of a campaign's unique executions."""
    campaign, result = run_campaign(config, iterations, seed)
    builder = GraphBuilder(campaign.program, campaign.model, ws_mode=ws_mode)
    graphs = []
    for sig in result.sorted_signatures():
        rf = campaign.codec.decode(sig)
        if ws_mode == "observed":
            graphs.append(builder.build(rf, result.ws_orders[sig]))
        else:
            graphs.append(builder.build(rf))
    return campaign, result, graphs
