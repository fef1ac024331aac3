"""Tests for the bench-regression watchdog (repro.obs.bench)."""

import dataclasses
import json
import pathlib
import shutil

import pytest

from repro.checker import PackedChecker, PolyChecker
from repro.cli import main
from repro.obs import bench

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def write_snapshot(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


BASELINE = {
    "schema": "bench.example",
    "configs": {
        "ARM-2-50-32": {"graphs": 100, "sorted_vertices": 533,
                        "info_ms": {"check": 120.0}},
        "x86-2-50-32": {"graphs": 100, "sorted_vertices": 471,
                        "info_ms": {"check": 90.0}},
    },
    "elapsed_s": 2.0,
}


class TestFlatten:
    def test_numeric_leaves_get_dotted_keys(self):
        leaves = bench.flatten_numeric(BASELINE)
        assert leaves["configs.ARM-2-50-32.graphs"] == 100
        assert leaves["configs.ARM-2-50-32.info_ms.check"] == 120.0
        assert leaves["elapsed_s"] == 2.0
        # strings and the schema tag are dropped
        assert "schema" not in leaves

    def test_lists_index_their_elements(self):
        leaves = bench.flatten_numeric({"seeds": [10, 20, {"hits": 3}]})
        assert leaves == {"seeds.0": 10, "seeds.1": 20, "seeds.2.hits": 3}

    def test_booleans_are_not_numbers(self):
        assert bench.flatten_numeric({"ok": True, "n": 1}) == {"n": 1}


class TestTimingKeys:
    def test_suffixes_and_words(self):
        assert bench.is_timing_key("configs.ARM.info_ms.check")
        assert bench.is_timing_key("elapsed_s")
        assert bench.is_timing_key("total_seconds")
        assert bench.is_timing_key("wall.run")
        assert bench.is_timing_key("check_time")

    def test_work_counts_are_not_timings(self):
        assert not bench.is_timing_key("configs.ARM.graphs")
        assert not bench.is_timing_key("sorted_vertices")
        assert not bench.is_timing_key("violations")


class TestDiff:
    def test_identical_snapshots_pass(self):
        comparison = bench.diff_snapshots(BASELINE, BASELINE)
        assert not comparison.failed
        assert not comparison.regressions
        assert "bench diff ok" in comparison.render()

    def test_synthetic_20pct_timing_regression_is_detected(self):
        current = json.loads(json.dumps(BASELINE))
        current["configs"]["ARM-2-50-32"]["info_ms"]["check"] = 144.0  # +20%
        comparison = bench.diff_snapshots(BASELINE, current,
                                          tolerance=bench.DEFAULT_TOLERANCE)
        assert comparison.failed
        (delta,) = comparison.regressions
        assert delta.key == "configs.ARM-2-50-32.info_ms.check"
        assert delta.kind == "timing"
        assert delta.ratio == pytest.approx(1.2)
        assert "1.20x" in comparison.render()
        assert "REGRESSION" in comparison.render()

    def test_timing_drift_inside_band_is_ok(self):
        current = json.loads(json.dumps(BASELINE))
        current["configs"]["ARM-2-50-32"]["info_ms"]["check"] = 126.0  # +5%
        assert not bench.diff_snapshots(BASELINE, current).failed

    def test_timing_improvement_reported_not_failed(self):
        current = json.loads(json.dumps(BASELINE))
        current["elapsed_s"] = 1.0
        comparison = bench.diff_snapshots(BASELINE, current)
        assert not comparison.failed
        assert [d.key for d in comparison.improvements] == ["elapsed_s"]

    def test_any_count_change_is_a_regression(self):
        for new_graphs in (99, 101):
            current = json.loads(json.dumps(BASELINE))
            current["configs"]["ARM-2-50-32"]["graphs"] = new_graphs
            comparison = bench.diff_snapshots(BASELINE, current)
            assert comparison.failed
            (delta,) = comparison.regressions
            assert delta.kind == "count"

    def test_shape_changes_fail(self):
        grown = json.loads(json.dumps(BASELINE))
        grown["configs"]["ARM-2-50-32"]["edges_added"] = 7
        comparison = bench.diff_snapshots(BASELINE, grown)
        assert comparison.failed
        assert [d.status for d in comparison.shape_changes] == ["added"]
        shrunk = bench.diff_snapshots(grown, BASELINE)
        assert [d.status for d in shrunk.shape_changes] == ["removed"]

    def test_counts_only_ignores_timing_regressions(self):
        current = json.loads(json.dumps(BASELINE))
        current["configs"]["ARM-2-50-32"]["info_ms"]["check"] = 500.0
        comparison = bench.diff_snapshots(BASELINE, current,
                                          counts_only=True)
        assert not comparison.failed
        # ...but a count mismatch still gates
        current["configs"]["ARM-2-50-32"]["graphs"] = 1
        assert bench.diff_snapshots(BASELINE, current,
                                    counts_only=True).failed

    def test_to_json_keeps_only_flagged_deltas(self):
        current = json.loads(json.dumps(BASELINE))
        current["configs"]["ARM-2-50-32"]["graphs"] = 99
        doc = bench.diff_snapshots(BASELINE, current).to_json()
        assert doc["failed"] is True
        assert len(doc["deltas"]) == 1
        assert doc["compared"] == len(bench.flatten_numeric(BASELINE))


class TestSnapshotIO:
    def test_load_snapshot_errors_are_cli_safe(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(bench.BenchSchemaError, match="not valid JSON"):
            bench.load_snapshot(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(bench.BenchSchemaError, match="JSON object"):
            bench.load_snapshot(str(arr))

    def test_load_snapshot_round_trip(self, tmp_path):
        path = write_snapshot(tmp_path / "snap.json", BASELINE)
        assert bench.load_snapshot(path) == BASELINE


class TestHistory:
    def test_headline_digest_is_shape_sensitive(self):
        digest = bench.headline(BASELINE)
        assert digest["count_leaves"] == 4       # info_ms/elapsed excluded
        assert digest["leaves"] == 7
        assert digest["count_sum"] == 100 + 533 + 100 + 471
        changed = json.loads(json.dumps(BASELINE))
        changed["configs"]["ARM-2-50-32"]["graphs"] = 99
        assert (bench.headline(changed)["counts_sha256_16"]
                != digest["counts_sha256_16"])
        # timing drift does not move the digest
        warmer = json.loads(json.dumps(BASELINE))
        warmer["elapsed_s"] = 99.0
        assert (bench.headline(warmer)["counts_sha256_16"]
                == digest["counts_sha256_16"])

    def test_history_append_and_read(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = bench.history_entry("BENCH_x.json", BASELINE, note="seed")
        bench.append_history(str(path), entry)
        bench.append_history(str(path),
                             bench.history_entry("BENCH_x.json", BASELINE))
        entries = bench.read_history(str(path))
        assert len(entries) == 2
        assert entries[0]["note"] == "seed"
        assert entries[0]["digest"] == bench.headline(BASELINE)
        path.write_text("garbage\n")
        with pytest.raises(bench.BenchSchemaError, match=":1:"):
            bench.read_history(str(path))

    def test_committed_history_parses(self):
        entries = bench.read_history(str(RESULTS_DIR /
                                         "BENCH_history.jsonl"))
        assert entries
        assert all("digest" in e and "snapshot" in e for e in entries)


class TestWatchdog:
    def test_check_against_committed_passes_on_the_committed_snapshot(self):
        comparison = bench.check_against_committed(str(RESULTS_DIR))
        assert not comparison.failed, comparison.render()
        assert comparison.counts_only
        assert comparison.deltas            # something was compared

    def test_check_requires_embedded_rerun_parameters(self, tmp_path):
        write_snapshot(tmp_path / bench.CHECK_SNAPSHOT,
                       {"configs": {}})
        with pytest.raises(bench.BenchSchemaError, match="iterations/seed"):
            bench.check_against_committed(str(tmp_path))

    def test_check_requires_the_watchdog_configs(self, tmp_path):
        write_snapshot(tmp_path / bench.CHECK_SNAPSHOT,
                       {"iterations": 10, "seed": 1,
                        "configs": {"ARM-2-50-32": {"graphs": 1}}})
        with pytest.raises(bench.BenchSchemaError, match="x86-2-50-32"):
            bench.check_against_committed(str(tmp_path))


#: per leg, every count the per-pipeline guard snapshots pinned before
#: the gate took them over, written out
GUARD_LEAVES = ["graphs", "violations", "methods.complete",
                "methods.no_resort", "methods.incremental",
                "sorted_vertices", "baseline_sorted_vertices",
                "digits_changed", "edges_added", "edges_removed"]
LEG_LEAVES = {
    "delta": GUARD_LEAVES,
    "packed": GUARD_LEAVES + ["edge_universe", "digit_columns"],
    "poly": GUARD_LEAVES + ["static_pairs", "closure_unions",
                            "dynamic_pairs"],
}


@pytest.fixture(scope="module")
def committed_gate():
    return bench.check_against_committed(str(RESULTS_DIR))


def copy_leg_snapshots(tmp_path):
    for leg in bench.CHECK_LEGS.values():
        shutil.copy(RESULTS_DIR / leg.snapshot, tmp_path / leg.snapshot)


class TestCountGate:
    def test_every_leg_on_every_config(self, committed_gate):
        assert not committed_gate.failed, committed_gate.render()
        assert bench.CHECK_CONFIGS == ("ARM-2-50-32", "x86-2-50-32",
                                       "x86-2-100-32")
        assert list(committed_gate.legs) == ["delta", "packed", "poly"]
        for leg, comparison in committed_gate.legs.items():
            assert {d.key for d in comparison.deltas} == {
                "configs.%s.%s" % (name, leaf)
                for name in bench.CHECK_CONFIGS for leaf in LEG_LEAVES[leg]}
            assert comparison.parity_breaks == []

    def test_json_has_one_entry_per_leg(self, capsys):
        assert main(["bench", "diff", "--check", "--json",
                     "--results", str(RESULTS_DIR)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["delta", "packed", "poly"]
        for leg, entry in doc.items():
            assert entry["configs"] == list(bench.CHECK_CONFIGS)
            assert entry["compared"] == 3 * len(LEG_LEAVES[leg])
            assert entry["failed"] is False
            assert entry["parity_breaks"] == []

    def test_bench_scripts_pin_the_same_leaves(self):
        for leg, spec in bench.CHECK_LEGS.items():
            doc = bench.load_snapshot(RESULTS_DIR / spec.snapshot)
            for name, counts in doc["configs"].items():
                leaves = bench.flatten_numeric(counts)
                assert sorted(key for key in leaves
                              if not bench.is_timing_key(key)) == \
                    sorted(LEG_LEAVES[leg]), (leg, name)

    @pytest.mark.parametrize("checker,leg,change,what", [
        # a re-sort window: the summary reads it, no pinned count does
        (PackedChecker, "packed", {"resorted_vertices": 99},
         "collective summary"),
        # a violation: the cross-family digest reads it
        (PolyChecker, "poly", {"violation": True}, "violation digest"),
    ])
    def test_a_leg_that_disagrees_with_graphs_fails(self, monkeypatch,
                                                    capsys, checker, leg,
                                                    change, what):
        real = checker.check

        def tampered(self, source):
            report = real(self, source)
            report.verdicts[0] = dataclasses.replace(report.verdicts[0],
                                                     **change)
            return report

        monkeypatch.setattr(checker, "check", tampered)
        gate = bench.check_against_committed(str(RESULTS_DIR))
        assert gate.failed
        assert gate.legs[leg].parity_breaks == [
            "%s on %s: %s differs from graphs" % (leg, name, what)
            for name in bench.CHECK_CONFIGS]
        if leg == "packed":
            assert gate.legs[leg].regressions == []
        assert [other for other, comparison in gate.legs.items()
                if comparison.failed] == [leg]
        assert main(["bench", "diff", "--check",
                     "--results", str(RESULTS_DIR)]) == 1
        out = capsys.readouterr().out
        assert "VERDICT PARITY BROKEN: %s on x86-2-100-32" % leg in out

    @pytest.mark.parametrize("leg", ["delta", "packed", "poly"])
    def test_missing_leg_snapshot_is_a_schema_error(self, tmp_path, leg):
        copy_leg_snapshots(tmp_path)
        snapshot = bench.CHECK_LEGS[leg].snapshot
        (tmp_path / snapshot).unlink()
        with pytest.raises(bench.BenchSchemaError, match=snapshot):
            bench.check_against_committed(str(tmp_path))
        assert main(["bench", "diff", "--check",
                     "--results", str(tmp_path)]) == 2

    @pytest.mark.parametrize("knob", ["iterations", "seed"])
    def test_legs_must_share_iterations_and_seed(self, tmp_path, knob):
        copy_leg_snapshots(tmp_path)
        path = tmp_path / bench.CHECK_LEGS["poly"].snapshot
        doc = json.loads(path.read_text())
        doc[knob] += 1
        write_snapshot(path, doc)
        with pytest.raises(bench.BenchSchemaError,
                           match="different iterations/seed"):
            bench.check_against_committed(str(tmp_path))
        assert main(["bench", "diff", "--check",
                     "--results", str(tmp_path)]) == 2
