"""tools/selfcheck.py: the run-scope determinism gate."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "selfcheck", REPO / "tools" / "selfcheck.py")
selfcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(selfcheck)


def _rules(source):
    return [rule for rule, _, _ in selfcheck.check_source(source, "<t>")]


class TestBannedImports:
    def test_import_random(self):
        assert _rules("import random\n") == [selfcheck.BANNED_IMPORT]

    def test_import_time_nested_in_function(self):
        src = "def f():\n    import time\n    return time\n"
        assert _rules(src) == [selfcheck.BANNED_IMPORT]

    def test_from_import(self):
        assert _rules("from random import Random\n") == \
            [selfcheck.BANNED_IMPORT]

    def test_dotted_submodule(self):
        assert _rules("import time.monotonic\n") == [selfcheck.BANNED_IMPORT]

    def test_relative_import_not_flagged(self):
        # `from .time import x` is a package-local module, not stdlib time
        assert _rules("from .time import x\n") == []

    def test_other_imports_clean(self):
        assert _rules("import itertools\nfrom collections import Counter\n") \
            == []


class TestSetIteration:
    def test_for_over_set_call(self):
        assert _rules("for x in set(items):\n    pass\n") == \
            [selfcheck.SET_ITERATION]

    def test_for_over_set_literal(self):
        assert _rules("for x in {1, 2}:\n    pass\n") == \
            [selfcheck.SET_ITERATION]

    def test_comprehension_over_frozenset(self):
        assert _rules("y = [x for x in frozenset(items)]\n") == \
            [selfcheck.SET_ITERATION]

    def test_list_of_set(self):
        assert _rules("y = list(set(items))\n") == [selfcheck.SET_ITERATION]

    def test_enumerate_of_set_comp(self):
        assert _rules("y = enumerate({x for x in items})\n") == \
            [selfcheck.SET_ITERATION]

    def test_set_algebra_flagged(self):
        assert _rules("for x in a | set(b):\n    pass\n") == \
            [selfcheck.SET_ITERATION]

    def test_sorted_set_is_clean(self):
        assert _rules("for x in sorted(set(items)):\n    pass\n") == []

    def test_for_over_list_is_clean(self):
        assert _rules("for x in [1, 2]:\n    pass\n") == []

    def test_membership_test_is_clean(self):
        # building and probing sets is fine; only iteration order matters
        assert _rules("s = set(items)\nif x in s:\n    pass\n") == []


class TestTreeScan:
    def test_repo_run_scope_is_clean(self):
        assert selfcheck.check_tree(REPO) == []

    def test_allowlist_suppresses(self, tmp_path, monkeypatch):
        scope = tmp_path / "src" / "repro" / "checker"
        scope.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "graph").mkdir()
        (tmp_path / "src" / "repro" / "instrument").mkdir()
        (scope / "bad.py").write_text("import random\n")
        rows = selfcheck.check_tree(tmp_path)
        assert [(r[0], r[1]) for r in rows] == \
            [("src/repro/checker/bad.py", selfcheck.BANNED_IMPORT)]
        monkeypatch.setattr(selfcheck, "ALLOWLIST", {
            "src/repro/checker/bad.py": (selfcheck.BANNED_IMPORT,)})
        assert selfcheck.check_tree(tmp_path) == []

    def test_main_exit_codes(self, capsys):
        assert selfcheck.main(["--root", str(REPO)]) == 0
        out = capsys.readouterr().out
        assert "determinism-clean" in out

    def test_main_json(self, capsys):
        import json

        assert selfcheck.main(["--root", str(REPO), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.selfcheck"
        assert doc["violations"] == []

    def test_main_flags_violations(self, tmp_path, capsys):
        for scope in selfcheck.RUN_SCOPE:
            (tmp_path / scope).mkdir(parents=True)
        (tmp_path / "src/repro/graph/t.py").write_text(
            "from time import monotonic\n")
        assert selfcheck.main(["--root", str(tmp_path)]) == 1
        assert "banned-import" in capsys.readouterr().out


def test_scopes_cover_the_checking_core():
    assert selfcheck.RUN_SCOPE == ("src/repro/checker", "src/repro/graph",
                                   "src/repro/instrument", "src/repro/mcm")
    for scope in selfcheck.RUN_SCOPE:
        assert (REPO / scope).is_dir()


class TestPackedCoverage:
    """The packed checking core rides the auto-scan — pin it."""

    def test_packed_core_is_scanned_and_clean(self):
        packed = REPO / "src" / "repro" / "checker" / "packed.py"
        assert packed.exists()
        assert selfcheck.check_source(packed.read_text(), str(packed)) == []

    def test_packed_regression_would_be_caught(self, tmp_path):
        # a stray randomness import in the packed core must fail the
        # tree scan — guards against the scope list shrinking past it
        for scope in selfcheck.RUN_SCOPE:
            (tmp_path / scope).mkdir(parents=True)
        bad = tmp_path / "src" / "repro" / "checker" / "packed.py"
        bad.write_text("import random\n")
        rows = selfcheck.check_tree(tmp_path)
        assert [(r[0], r[1]) for r in rows] == \
            [("src/repro/checker/packed.py", selfcheck.BANNED_IMPORT)]
