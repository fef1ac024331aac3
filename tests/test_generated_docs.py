"""Every generated reference under docs/ matches the CLI that prints it."""

from pathlib import Path

import pytest

from repro.cli import main

DOCS = Path(__file__).resolve().parents[1] / "docs"

REFERENCES = {
    "LINT_RULES.md": ["lint", "--rules", "--markdown"],
    "EVENTS.md": ["events", "--markdown"],
    "FEASIBLE.md": ["feasible", "--doc"],
    "SERVE_PROTOCOL.md": ["serve", "--protocol-doc"],
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_committed_reference_matches_cli(name, capsys):
    assert main(REFERENCES[name]) == 0
    assert (DOCS / name).read_text() == capsys.readouterr().out, (
        "docs/%s is stale: regenerate it with `python -m repro %s > docs/%s`"
        % (name, " ".join(REFERENCES[name]), name))
