"""Findings, severities, reports and the rule registry."""

import pytest

from repro.lint import LintReport, Severity, all_rules, get_rule
from repro.lint.rules import finding, rules_markdown, rules_table


class TestSeverity:
    def test_ordering_follows_escalation(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_parse_round_trips_every_level(self):
        for severity in Severity:
            assert Severity.parse(str(severity)) is severity
            assert Severity.parse(severity.name) is severity

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")


class TestFinding:
    def test_location_variants(self):
        assert finding("MTC001", "m", thread=1, uid=12).location == "t1.op12"
        assert finding("MTC001", "m", thread=1).location == "t1"
        assert finding("MTC001", "m").location == "program"

    def test_severity_defaults_to_rule_registration(self):
        assert finding("MTC002", "m").severity is Severity.ERROR
        assert finding("MTC001", "m").severity is Severity.WARNING
        override = finding("MTC001", "m", severity=Severity.ERROR)
        assert override.severity is Severity.ERROR

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="MTC999"):
            finding("MTC999", "m")

    def test_to_json_carries_location(self):
        doc = finding("MTC003", "dup", thread=0, uid=4).to_json()
        assert doc == {"rule": "MTC003", "severity": "error",
                       "message": "dup", "location": "t0.op4",
                       "thread": 0, "uid": 4}


class TestLintReport:
    def _report(self):
        report = LintReport("p")
        report.add(finding("MTC001", "dead"))
        report.add(finding("MTC002", "empty", uid=3))
        report.add(finding("MTC013", "single"))
        return report

    def test_severity_arithmetic(self):
        report = self._report()
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert len(report.at_least(Severity.INFO)) == 3
        assert report.worst is Severity.ERROR

    def test_empty_report_is_clean(self):
        report = LintReport("p")
        assert report.worst is None
        assert not report.errors
        assert not report.zero_entropy

    def test_zero_entropy_tracks_cardinality(self):
        report = LintReport("p")
        report.cardinality = 1
        assert report.zero_entropy
        report.cardinality = 2
        assert not report.zero_entropy

    def test_by_rule_counts(self):
        report = self._report()
        report.add(finding("MTC001", "again"))
        assert report.by_rule() == {"MTC001": 2, "MTC002": 1, "MTC013": 1}
        assert report.count("MTC001") == 2

    def test_render_sorts_errors_first(self):
        lines = self._report().render().splitlines()
        assert "MTC002" in lines[1]

    def test_to_json_counts(self):
        doc = self._report().to_json()
        assert doc["counts"] == {"error": 1, "warning": 1, "info": 1}
        assert len(doc["findings"]) == 3


class TestRegistry:
    def test_ids_are_unique_and_sorted(self):
        ids = [r.id for r in all_rules()]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_families_cover_all_analyzers(self):
        families = {r.family for r in all_rules()}
        assert {"program", "layout", "signature", "verifier",
                "graph"} <= families

    def test_get_rule(self):
        rule = get_rule("MTC011")
        assert rule.severity is Severity.ERROR
        assert rule.family == "signature"

    def test_renderings_mention_every_rule(self):
        table = rules_table()
        markdown = rules_markdown()
        for rule in all_rules():
            assert rule.id in table
            assert rule.id in markdown
