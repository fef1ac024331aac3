"""Unit tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _reset_observability():
    """CLI commands install a global obs instance; isolate each test."""
    yield
    obs.disable()


class TestGenerate:
    def test_emits_assembler_text(self, capsys):
        assert main(["generate", "--threads", "2", "--ops", "5",
                     "--addresses", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert ".addresses 4" in out
        assert "thread 0:" in out and "thread 1:" in out

    def test_output_parses_back(self, capsys):
        from repro.isa import assemble

        main(["generate", "--threads", "3", "--ops", "10", "--addresses", "8"])
        program = assemble(capsys.readouterr().out)
        assert program.num_threads == 3


class TestInstrument:
    def test_metrics_table(self, capsys):
        assert main(["instrument", "--threads", "2", "--ops", "10",
                     "--addresses", "4"]) == 0
        out = capsys.readouterr().out
        assert "signature bytes" in out
        assert "code size ratio" in out

    def test_listing_flag(self, capsys):
        main(["instrument", "--threads", "2", "--ops", "6", "--addresses", "4",
              "--listing"])
        out = capsys.readouterr().out
        assert "else assert error" in out


class TestRunAndCheck:
    def test_run_reports_uniques(self, capsys):
        assert main(["run", "--threads", "2", "--ops", "15", "--addresses", "8",
                     "--iterations", "100"]) == 0
        assert "unique signatures" in capsys.readouterr().out

    def test_run_then_check(self, capsys, tmp_path):
        dump = str(tmp_path / "d.json")
        assert main(["run", "--threads", "2", "--ops", "15", "--addresses", "8",
                     "--iterations", "120", "-o", dump]) == 0
        capsys.readouterr()
        assert main(["check", dump]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_check_observed_mode(self, capsys, tmp_path):
        dump = str(tmp_path / "d.json")
        main(["run", "--isa", "x86", "--threads", "2", "--ops", "10",
              "--addresses", "4", "--iterations", "80", "-o", dump])
        capsys.readouterr()
        assert main(["check", dump, "--ws-mode", "observed", "--model", "tso"]) == 0

    def test_check_observed_rejects_repeated_store_in_ws_chain(self, capsys,
                                                              tmp_path):
        """A chain listing a store twice is malformed input (exit 2), not
        a ws cycle to report as a violation (exit 1)."""
        dump = tmp_path / "d.json"
        main(["run", "--isa", "x86", "--threads", "2", "--ops", "10",
              "--addresses", "4", "--iterations", "80", "-o", str(dump)])
        data = json.loads(dump.read_text())
        chain = next(chain for entry in data["signatures"]
                     for chain in entry["ws"].values() if len(chain) > 1)
        chain.append(chain[0])
        dump.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(dump), "--ws-mode", "observed",
                     "--model", "tso"]) == 2
        assert "ws chain" in capsys.readouterr().err

    def test_check_rejects_a_listing_that_is_not_text(self, capsys,
                                                      tmp_path):
        dump = tmp_path / "d.json"
        main(["run", "--threads", "2", "--ops", "10", "--addresses", "4",
              "--iterations", "20", "-o", str(dump)])
        data = json.loads(dump.read_text())
        data["program"]["listing"] = None
        dump.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(dump)]) == 2
        assert "listing" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [[1], {"a": 1}, 5, None])
    def test_check_rejects_a_program_name_that_is_not_text(self, capsys,
                                                           tmp_path, name):
        dump = tmp_path / "d.json"
        main(["run", "--threads", "2", "--ops", "10", "--addresses", "4",
              "--iterations", "20", "-o", str(dump)])
        data = json.loads(dump.read_text())
        data["program"]["name"] = name
        dump.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(dump)]) == 2
        assert "program name" in capsys.readouterr().err

    def test_run_with_os_flag(self, capsys):
        assert main(["run", "--threads", "2", "--ops", "10", "--addresses", "4",
                     "--iterations", "40", "--os"]) == 0


class TestFleetCLI:
    RUN = ["run", "--threads", "2", "--ops", "10", "--addresses", "8",
           "--iterations", "80", "--run-seed", "3"]

    def test_run_jobs_flag_shards_the_campaign(self, capsys):
        assert main(self.RUN + ["--jobs", "2"]) == 0
        assert "unique signatures" in capsys.readouterr().out

    def test_sharded_dump_equals_serial_dump(self, capsys, tmp_path):
        from repro.io import read_campaign

        serial, sharded = str(tmp_path / "s.json"), str(tmp_path / "f.json")
        assert main(self.RUN + ["-o", serial]) == 0
        assert main(self.RUN + ["--jobs", "2", "-o", sharded]) == 0
        capsys.readouterr()
        assert read_campaign(sharded).signature_counts == \
               read_campaign(serial).signature_counts

    def test_merge_subcommand_unions_shards(self, capsys, tmp_path):
        from repro.io import read_campaign, save_campaign
        from repro.harness import Campaign
        from repro.testgen import TestConfig

        cfg = TestConfig(threads=2, ops_per_thread=10, addresses=8, seed=5)
        campaign = Campaign(config=cfg, seed=9)
        paths = []
        for i in range(2):
            shard = Campaign(program=campaign.program, config=cfg,
                             seed=9).run_blocks([(i, 40)])
            paths.append(str(tmp_path / ("shard%d.json" % i)))
            save_campaign(shard, paths[-1])
        merged_path = str(tmp_path / "merged.json")
        assert main(["merge", *paths, "-o", merged_path]) == 0
        assert "merged 2 shard dumps" in capsys.readouterr().out
        whole = campaign.run(80, block=40)
        assert read_campaign(merged_path).signature_counts == \
               whole.signature_counts

    def test_merge_rejects_mismatched_shards(self, capsys, tmp_path):
        from repro.io import save_campaign
        from repro.harness import Campaign
        from repro.testgen import TestConfig

        a = Campaign(config=TestConfig(threads=2, ops_per_thread=10,
                                       addresses=8, seed=5))
        b = Campaign(config=TestConfig(threads=2, ops_per_thread=10,
                                       addresses=8, seed=6))
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_campaign(a.run(20), pa)
        save_campaign(b.run(20), pb)
        assert main(["merge", pa, pb, "-o", str(tmp_path / "m.json")]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_suite_subcommand(self, capsys):
        assert main(["suite", "--threads", "2", "--ops", "8", "--addresses",
                     "4", "--tests", "2", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "mean unique signatures" in out
        assert "checking reduction" in out

    def test_suite_with_jobs(self, capsys):
        assert main(["suite", "--threads", "2", "--ops", "8", "--addresses",
                     "4", "--tests", "2", "--iterations", "40",
                     "--jobs", "2"]) == 0
        assert "mean unique signatures" in capsys.readouterr().out

    def test_run_jobs_report_includes_fleet_spans(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        assert main(self.RUN + ["--jobs", "2", "--metrics-out", path]) == 0
        report = obs.read_report(path)
        names = obs.span_names(report)
        assert {"generate", "instrument", "execute",
                "fleet.shard", "fleet.merge"} <= names
        assert report["summary"]["jobs"] == 2
        assert "fleet.workers_launched" in report["metrics"]
        # device-side series absorbed into the host report
        assert report["metrics"]["harness.iterations"]["value"] == 80


class TestLitmus:
    def test_litmus_clean_under_tso(self, capsys):
        assert main(["litmus", "--model", "tso", "--iterations", "300"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out and "VIOLATION" not in out

    def test_litmus_extended_set(self, capsys):
        assert main(["litmus", "--model", "sc", "--iterations", "150",
                     "--extended"]) == 0
        assert "WRC" in capsys.readouterr().out


class TestObservabilityCLI:
    RUN_ARGS = ["run", "--threads", "2", "--ops", "12", "--addresses", "8",
                "--iterations", "100"]

    def test_run_metrics_out_writes_four_phase_report(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        assert main(self.RUN_ARGS + ["--metrics-out", path]) == 0
        report = obs.read_report(path)
        assert report["schema"] == "repro.run-report"
        assert {"generate", "instrument", "execute",
                "check"} <= obs.span_names(report)
        assert report["meta"]["command"] == "run"
        assert report["summary"]["iterations"] == 100
        assert "checker.collective.graphs" in report["metrics"]

    def test_run_json_prints_report_not_text(self, capsys):
        assert main(self.RUN_ARGS + ["--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)          # whole stdout is one JSON document
        obs.validate_report(report)
        assert report["summary"]["unique_signatures"] >= 1

    def test_check_json_report(self, capsys, tmp_path):
        dump = str(tmp_path / "d.json")
        main(self.RUN_ARGS + ["-o", dump])
        capsys.readouterr()
        assert main(["check", dump, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # default delta pipeline streams — no graph list is ever built
        spans = obs.span_names(report)
        assert {"check", "checker.collective"} <= spans
        assert "check.build_graphs" not in spans
        assert "checker.delta.graphs" in report["metrics"]
        assert report["summary"]["violations"] == 0

    def test_check_json_report_graphs_pipeline(self, capsys, tmp_path):
        dump = str(tmp_path / "d.json")
        main(self.RUN_ARGS + ["-o", dump])
        capsys.readouterr()
        assert main(["check", dump, "--json",
                     "--check-pipeline", "graphs"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"check", "check.build_graphs"} <= obs.span_names(report)
        assert report["summary"]["violations"] == 0

    def test_litmus_metrics_out(self, capsys, tmp_path):
        path = str(tmp_path / "litmus.json")
        assert main(["litmus", "--model", "tso", "--iterations", "100",
                     "--metrics-out", path]) == 0
        report = obs.read_report(path)
        assert report["metrics"]["litmus.tests"]["value"] >= 1

    def test_stats_renders_report(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        main(self.RUN_ARGS + ["--metrics-out", path])
        capsys.readouterr()
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "generate" in out and "execute" in out
        assert "harness.iterations" in out

    def test_stats_validate_flag(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        main(self.RUN_ARGS + ["--metrics-out", path])
        capsys.readouterr()
        assert main(["stats", path, "--validate"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_stats_rejects_malformed_report(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert main(["stats", str(path)]) == 2
        assert "error" in capsys.readouterr().err.lower()


class TestMutateCLI:
    def test_list_prints_registry(self, capsys):
        assert main(["mutate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "tso-stale-read" in out and "gem5-writeback-race" in out
        assert "fault-injection registry" in out

    def test_single_mutation_detected_exits_zero(self, capsys):
        assert main(["mutate", "--mutation", "tso-stale-read",
                     "--no-control"]) == 0
        out = capsys.readouterr().out
        assert "assert" in out and "yes" in out

    def test_undetected_mutation_exits_one(self, capsys):
        # a 1-iteration budget cannot detect anything
        assert main(["mutate", "--mutation", "weak-fence-drop", "--budget",
                     "1", "--seeds", "1", "--no-control"]) == 1
        assert "UNDETECTED: weak-fence-drop" in capsys.readouterr().out

    def test_json_document(self, capsys):
        assert main(["mutate", "--mutation", "tso-stale-read", "--seeds", "1",
                     "--no-control", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["undetected"] == []
        entry = doc["mutations"][0]
        assert entry["mutation"] == "tso-stale-read"
        assert entry["detected"] is True
        assert entry["seeds"][0]["channel"] == "assert"

    def test_metrics_out_writes_report(self, capsys, tmp_path):
        path = str(tmp_path / "mutate.json")
        assert main(["mutate", "--mutation", "tso-stale-read", "--seeds", "1",
                     "--no-control", "--metrics-out", path]) == 0
        with open(path) as handle:
            report = json.load(handle)
        assert report["meta"]["command"] == "mutate"
        assert report["summary"]["undetected"] == 0

    def test_unknown_mutation_name_exits_cleanly(self, capsys):
        assert main(["mutate", "--mutation", "no-such-mutation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown mutation")
        assert "Traceback" not in err

    def test_run_with_mutation_reports_asserts(self, capsys):
        assert main(["run", "--isa", "x86", "--threads", "4", "--ops", "30",
                     "--addresses", "4", "--seed", "14", "--mutation",
                     "tso-stale-read", "--iterations", "64"]) == 0
        assert "signature asserts" in capsys.readouterr().out

    def test_run_unknown_mutation_exits_cleanly(self, capsys):
        assert main(["run", "--mutation", "bogus", "--iterations", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown mutation")

    def test_run_detailed_mutation_on_arm_exits_cleanly(self, capsys):
        assert main(["run", "--mutation", "gem5-lsq-squash",
                     "--iterations", "4"]) == 2
        assert "x86 only" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_detailed_mutation_on_arm_exits_two_at_any_jobs(self, capsys,
                                                                jobs):
        assert main(["run", "--threads", "2", "--ops", "10", "--addresses",
                     "4", "--iterations", "20", "--mutation",
                     "gem5-protocol-squash", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "x86 only" in captured.err
        assert "crashes" not in captured.out

    def test_run_mutation_conflicts_with_bug_flag(self, capsys):
        assert main(["run", "--isa", "x86", "--mutation", "tso-stale-read",
                     "--bug", "2", "--iterations", "4"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--detailed"], ["--bug", "2"]])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_os_conflicts_with_detailed(self, capsys, flag, jobs):
        assert main(["run", "--isa", "x86", "--threads", "2", "--ops", "10",
                     "--addresses", "4", "--iterations", "20", "--os",
                     "--jobs", jobs] + flag) == 2
        assert "--os cannot be combined" in capsys.readouterr().err

    def test_run_bug_on_non_x86_exits_cleanly(self, capsys):
        assert main(["run", "--isa", "arm", "--bug", "3",
                     "--iterations", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x86" in err


class TestServeCLI:
    def test_protocol_doc_matches_generator(self, capsys):
        from repro.serve.protocol import protocol_markdown

        assert main(["serve", "--protocol-doc"]) == 0
        assert capsys.readouterr().out == protocol_markdown() + "\n"

    def test_parse_address_accepts_host_port(self):
        from repro.cli import _parse_address

        assert _parse_address("10.0.0.9:4821") == ("10.0.0.9", 4821)
        assert _parse_address(":4821") == ("127.0.0.1", 4821)

    def test_parse_address_rejects_malformed(self):
        from repro.cli import _parse_address

        for text in ("nocolon", "host:", "host:abc", "4821"):
            with pytest.raises(ValueError):
                _parse_address(text)

    def test_submit_rejects_bad_address(self, capsys, tmp_path):
        dump = str(tmp_path / "d.json")
        assert main(["run", "--threads", "2", "--ops", "10", "--addresses",
                     "4", "--iterations", "20", "-o", dump]) == 0
        capsys.readouterr()
        assert main(["submit", "not-an-address", dump]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_pool_forms_are_gone(self):
        for argv in (["worker", "--connect", "127.0.0.1:1"],
                     ["serve", "--pool-port", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv


class TestLintCLI:
    def test_json_document_carries_schema_header(self, capsys):
        assert main(["lint", "--litmus", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint"
        assert doc["version"] == 1
        assert doc["rules"] > 0
        assert doc["programs"] == len(doc["reports"]) == 8

    def test_empty_program_set_exits_zero_for_every_fail_on(self, capsys):
        """Pinned contract: zero programs means zero failures, at any
        threshold — an empty suite must never flip the exit code."""
        for fail_on in ("error", "warning", "info", "never"):
            assert main(["lint", "--tests", "0", "--fail-on", fail_on,
                         "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["programs"] == 0
            assert doc["failing"] == 0
            assert doc["reports"] == []

    def test_reports_carry_feasible_fields(self, capsys):
        assert main(["lint", "--litmus", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for report in doc["reports"]:
            assert "feasible_outcomes" in report
            assert "feasible_exhaustive" in report
            assert report["feasible_exhaustive"] is True


class TestFeasibleCLI:
    def test_doc_flag_matches_generator(self, capsys):
        from repro.feasible.doc import feasible_markdown

        assert main(["feasible", "--doc"]) == 0
        assert capsys.readouterr().out == feasible_markdown() + "\n"

    def test_litmus_enumeration_text(self, capsys):
        assert main(["feasible", "--litmus", "--model", "tso"]) == 0
        out = capsys.readouterr().out
        assert "MP under tso: 3 of 4 encodable signatures feasible" in out

    def test_json_document(self, capsys):
        assert main(["feasible", "--litmus", "--model", "tso", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.feasible"
        assert doc["version"] == 1
        assert len(doc["programs"]) == 8
        assert doc["out_of_set"] == 0
        mp = next(p for p in doc["programs"] if p["program"] == "MP")
        assert mp["feasible"] == 3 and mp["exhaustive"] is True

    def test_list_outcomes_decodes_rf(self, capsys):
        assert main(["feasible", "--isa", "x86", "--threads", "2",
                     "--ops", "4", "--addresses", "2",
                     "--list-outcomes"]) == 0
        out = capsys.readouterr().out
        assert "<-" in out  # decoded per-load outcomes printed

    def test_coverage_clean_corpus_exits_zero(self, capsys):
        assert main(["feasible", "--litmus", "--model", "tso", "--coverage",
                     "--iterations", "200"]) == 0
        out = capsys.readouterr().out
        assert "coverage:" in out
        assert "OUT OF FEASIBLE SET" not in out

    def test_coverage_json_fields(self, capsys):
        assert main(["feasible", "--litmus", "--model", "tso", "--coverage",
                     "--iterations", "100", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for p in doc["programs"]:
            assert p["out_of_set"] == 0
            assert p["observed"] >= 1
            assert 0 < p["coverage"] <= 1


class TestCrossCheckCLI:
    RUN = ["run", "--isa", "x86", "--threads", "2", "--ops", "8",
           "--addresses", "4", "--iterations", "60"]
    #: per oracle: its render header, and the summary keys it adds to
    #: the shared verdict-table counts
    ORACLES = {
        "feasible": ("cross-check (feasible oracle, tso)",
                     {"checker_miss", "checker_false_alarm", "out_of_set",
                      "feasible", "exhaustive", "coverage"}),
    }
    SHARED_KEYS = {"model", "signatures", "agree_clean", "agree_violation",
                   "agreement"}

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_run_cross_check_agrees(self, capsys, oracle):
        assert main(self.RUN + ["--cross-check", oracle]) == 0
        out = capsys.readouterr().out
        assert self.ORACLES[oracle][0] in out
        assert "verdict: AGREE" in out

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_run_json_summary_carries_cross_check(self, capsys, oracle):
        assert main(self.RUN + ["--cross-check", oracle, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        xc = report["summary"]["cross_check"]
        assert set(xc) == self.SHARED_KEYS | self.ORACLES[oracle][1]
        assert xc["agreement"] is True
        assert xc["model"] == "tso"
        assert xc["agree_clean"] == xc["signatures"] > 0
        assert xc["out_of_set"] == 0

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_check_cross_check(self, capsys, tmp_path, oracle):
        dump = str(tmp_path / "d.json")
        assert main(self.RUN + ["-o", dump]) == 0
        capsys.readouterr()
        assert main(["check", dump, "--cross-check", oracle]) == 0
        out = capsys.readouterr().out
        assert self.ORACLES[oracle][0] in out
        assert "verdict: AGREE" in out

    def test_mutate_cross_check_channel(self, capsys):
        assert main(["mutate", "--mutation", "tso-sb-reorder", "--seeds", "1",
                     "--no-control", "--cross-check", "feasible",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [m] = doc["mutations"]
        assert m["cross_check"] == "feasible"
        assert m["detected"] is True

    def test_cross_check_rejects_unknown_oracle(self, capsys):
        for command in (self.RUN, ["mutate"]):
            for name in ("nonsense", "poly"):
                with pytest.raises(SystemExit) as exc:
                    main(command + ["--cross-check", name])
                assert exc.value.code == 2, (command[0], name)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
