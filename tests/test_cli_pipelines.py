"""The CLI's pipeline/cross-check surface matches the checker registry.

``--check-pipeline`` and ``--cross-check`` appear on several
subcommands; their choices must come from the single registry in
:mod:`repro.checker.dispatch` — not hand-maintained copies that drift
(the pre-poly tree shipped run/check/serve with three different help
strings and choice sets).  These tests introspect the built argparse
tree and pin every occurrence to the registry tuples.  ``serve`` has no
pipeline switch: it always checks through the delta pipeline.
"""

import pytest

from repro.checker import CROSS_CHECKS, PIPELINES
from repro.cli import build_parser


def subcommands(parser):
    action = parser._subparsers._group_actions[0]
    return action.choices


def option(parser, flag):
    for action in parser._actions:
        if flag in action.option_strings:
            return action
    return None


@pytest.fixture(scope="module")
def commands():
    return subcommands(build_parser())


class TestRegistry:
    def test_registry_shape(self):
        assert PIPELINES == ("graphs", "delta", "packed", "poly")
        assert CROSS_CHECKS == ("feasible",)


class TestCheckPipelineFlag:
    @pytest.mark.parametrize("command", ("run", "suite", "check"))
    def test_batch_subcommands_use_full_registry(self, commands, command):
        action = option(commands[command], "--check-pipeline")
        assert action is not None, command
        assert tuple(action.choices) == PIPELINES, command

    def test_serve_uses_stream_registry(self, commands):
        """serve streams every batch through the delta walk: no switch."""
        assert option(commands["serve"], "--check-pipeline") is None
        args = build_parser().parse_args(["serve"])
        assert not hasattr(args, "pipeline")
        assert not hasattr(args, "check_pipeline")

    def test_every_occurrence_is_registry_backed(self, commands):
        """No subcommand may carry a hand-rolled pipeline choice set."""
        for name, sub in commands.items():
            action = option(sub, "--check-pipeline")
            if action is None:
                continue
            assert tuple(action.choices) == PIPELINES, name


class TestCrossCheckFlag:
    @pytest.mark.parametrize("command", ("run", "check", "mutate"))
    def test_cross_check_choices(self, commands, command):
        action = option(commands[command], "--cross-check")
        assert action is not None, command
        assert tuple(action.choices) == CROSS_CHECKS, command

    def test_cross_check_defaults_off(self, commands):
        for command in ("run", "check", "mutate"):
            action = option(commands[command], "--cross-check")
            assert action.default is None, command


class TestParsing:
    def test_run_accepts_poly(self, commands):
        args = build_parser().parse_args(["run", "--check-pipeline", "poly"])
        assert args.pipeline == "poly"

    def test_run_rejects_unknown_pipeline(self):
        for name in ("polynomial", "auto"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["run", "--check-pipeline", name])
            assert exc.value.code == 2, name

    def test_serve_rejects_batch_only_graphs(self):
        # serve carries no pipeline switch, so every value is rejected —
        # the batch-only graphs pipeline and the delta walk serve uses
        for name in ("graphs", "delta"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["serve", "--check-pipeline", name])
            assert exc.value.code == 2, name
