"""Self-test of the end-to-end benchmark, at tiny sizes (about 15 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload in-process, traced and untraced, with sizes passed
as constructor arguments, and checks what the benchmark promises: each
metric of ``BENCHMARK.json`` is emitted with its unit, spans nest, pins
are checked, and the traced run puts every wrapped callable back.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro import obs  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
PINS = run.load_pins()

TINY = {
    "arm4-campaign": workloads.CampaignWorkload("ARM-4-100-64", 30),
    "x86-dedup-campaign": workloads.CampaignWorkload("x86-2-100-32", 60),
    "host-check": workloads.HostCheckWorkload((("arm4", "ARM-4-100-64", 30),
                                               ("arm7", "ARM-7-200-64", 8))),
    "gem5-hunt": workloads.HuntWorkload("gem5-protocol-squash", 1,
                                        budget=512),
}

_ABSENT = object()


def _bindings():
    """The object currently bound at every wrap target."""
    out = {}
    for target, *_ in spans.LIBRARY_TARGETS + spans.ALTERNATE_TARGETS:
        owner, attr = spans._resolve(target)
        out[target] = owner.__dict__.get(attr, _ABSENT) \
            if isinstance(owner, type) else getattr(owner, attr)
    return out


@pytest.fixture(autouse=True)
def _obs_off():
    # benchmarks/conftest.py enables repro.obs for every test; the
    # benchmark runs the library with it off, as a user's run does
    obs.disable()


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """One untraced and one traced rep of every tiny workload."""
    obs.disable()
    out = {}
    for name, workload in TINY.items():
        work = tmp_path_factory.mktemp(name)
        inputs = workload.prepare(1, str(work))
        before = _bindings()
        plain = child.run_rep(workload, inputs)
        tracer = spans.Tracer()
        traced = child.run_rep(workload, inputs, tracer=tracer,
                               trace_path=work / "trace.json", label=name)
        for record, is_traced in ((plain, False), (traced, True)):
            record.update(traced=is_traced, setup_s=0.25, wall=1.0,
                          cal_s=[run.CAL_REF_S] * 2)
        out[name] = {"workload": workload, "plain": plain, "traced": traced,
                     "tracer": tracer, "before": before, "after": _bindings(),
                     "trace_path": work / "trace.json"}
    return out


def test_spec_names_match_the_emitters():
    assert set(run.E2E) == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_emitted_with_its_unit(reps):
    for name, r in reps.items():
        result = run.aggregate(r["workload"], [r["plain"], r["traced"]],
                               None, SPEC)
        assert result["failed"] == 0, (name, result["problems"])
        for trace, wanted in ((False, SPEC["end_to_end"]),
                              (True, SPEC["per_layer"])):
            line = run.final_line({name: result}, SPEC, trace)
            assert line["correct"], name
            assert line["attempted"] == 2
            for metric in wanted:
                emitted = line["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric)
                assert isinstance(emitted["value"], (int, float))
                # end-to-end metrics are never 0
                assert trace or emitted["value"] > 0, (name, metric)


def test_layers_are_attributed(reps):
    expected = {"arm4-campaign": "sim.executor.share",
                "x86-dedup-campaign": "sim.executor.share",
                "host-check": "io.share",
                "gem5-hunt": "sim.detailed.share"}
    for name, r in reps.items():
        layers = {k: v for k, (v, unit) in r["traced"]["layers"].items()}
        assert layers["op.unattributed_frac"] < run.UNATTRIBUTED_LIMIT, name
        assert layers[expected[name]] > 0, name
        for key in ("graph.build_s", "checker.collective.check_s",
                    "instrument.codec_init_s", "checker.sort_s"):
            assert layers[key] > 0, (name, key)
    host = reps["host-check"]["traced"]["layers"]
    assert host["arm4.io.read_s"][0] > 0 and host["arm7.io.read_s"][0] > 0
    hunt = reps["gem5-hunt"]["traced"]["layers"]
    assert hunt["mutate.rechecks"][0] >= 1


def test_spans_nest(reps):
    for name, r in reps.items():
        recorded = r["tracer"].spans
        assert spans.check_nesting(recorded) == [], name
        assert r["traced"]["nesting"] == []
        roots = [s[0] for s in recorded if s[3] < 0]
        assert roots[:2] == ["setup", "op"], name
    broken = [["op", 0.0, 1.0, -1, None], ["child", 0.5, 1.5, 0, None],
              ["sibling", 0.4, 0.6, 0, None]]
    problems = spans.check_nesting(broken)
    assert any("outside its parent" in p for p in problems)
    assert any("overlaps" in p for p in problems)


def test_chrome_trace_is_written(reps):
    for name, r in reps.items():
        doc = json.loads(r["trace_path"].read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"setup", "op"} <= names, name
        assert all(e["dur"] >= 0 for e in doc["traceEvents"] if e["ph"] == "X")


def test_wrapped_callables_are_restored(reps):
    for name, r in reps.items():
        assert r["tracer"].missing == [], name
        for target, original in r["before"].items():
            assert r["after"][target] is original, (name, target)


def test_wrappers_are_restored_when_the_op_fails():
    class Broken(workloads.CampaignWorkload):
        def op(self, campaign, inputs, span=spans.no_span):
            campaign.run(2)
            raise RuntimeError("boom")

    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        child.run_rep(Broken("ARM-2-50-32", 2), {"seed": 1}, tracer=tracer)
    after = _bindings()
    assert all(after[t] is before[t] for t in before)


def test_pins_are_checked(reps):
    assert PINS["seed"] == 1
    for name, r in reps.items():
        workload, outputs = r["workload"], r["plain"]["outputs"]
        assert set(PINS["workloads"][name]) \
            == set(workload.pin_view(outputs)), name
        pin = workload.pin_view(outputs)
        assert workload.verify(outputs, pin) == []
        assert workload.verify(outputs, _tampered(pin)), name

        rep = dict(r["plain"])
        result = run.aggregate(workload, [rep], _tampered(pin), SPEC)
        assert result["failed"] == 1
        assert not run.final_line({name: result}, SPEC, False)["correct"]


def _tampered(pin):
    pin = json.loads(json.dumps(pin))
    if "seeds" in pin:
        pin["seeds"][0]["executions_to_detection"] = -1
    elif "signature_digest" in pin:
        pin["signature_digest"] = "0" * 16
    else:
        next(iter(pin.values()))["summary_digest"] = "0" * 16
    return pin


def test_invariants_fail_the_op(reps):
    r = reps["arm4-campaign"]
    outputs = dict(r["plain"]["outputs"], violations=1)
    assert r["workload"].verify(outputs)
    hunt = reps["gem5-hunt"]
    seeds = [dict(s, detected=False) for s in hunt["plain"]["outputs"]["seeds"]]
    outputs = dict(hunt["plain"]["outputs"], seeds=seeds)
    assert hunt["workload"].verify(outputs)


def test_compare_flags_moves_beyond_the_bound(tmp_path, capsys):
    def result_set(path, iters):
        metrics = {m["name"]: run.summary([1.0], m["unit"])
                   for m in SPEC["end_to_end"]}
        metrics["iters_per_s"] = run.summary([iters, iters], "1/s")
        path.write_text(json.dumps(
            {"workloads": {"arm4-campaign": {"metrics": metrics}}}))
        return str(path)

    a = result_set(tmp_path / "a.json", 100.0)
    assert run.compare(a, result_set(tmp_path / "b.json", 104.0), SPEC) == 0
    assert run.compare(a, result_set(tmp_path / "c.json", 150.0), SPEC) == 1
    assert "DIFFERS" in capsys.readouterr().out
