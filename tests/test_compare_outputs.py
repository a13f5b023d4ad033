import importlib.util
from pathlib import Path

import pytest

from cefsim import cli
from cefsim.config import ConfigError, parse_config

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


@pytest.fixture(scope="module")
def plan(tmp_path_factory):
    return compare.commands(ROOT / "src", tmp_path_factory.mktemp("compare") / "configs")


def _configs(args):
    return [a for a in args if a.endswith(".json")]


def test_plan_labels_and_stderr_rule(plan):
    assert len(plan) == 63
    assert {label for label, (_, check) in plan.items() if check} == {
        label for label in plan if label.startswith("invalid-")}


def test_every_command_line_parses(plan):
    for label, (args, _) in plan.items():
        # argparse exits on a command line it rejects
        assert cli.build_parser().parse_args(args).command == args[0], label


def test_valid_commands_have_valid_configs(plan):
    # a broken config makes both trees exit 1 with no output, which reads
    # as identical, so every command meant to run must have a valid one
    for label, (args, _) in plan.items():
        if not label.startswith("invalid-"):
            for path in _configs(args):
                parse_config(path)


def test_invalid_scenario_edits_are_config_errors(plan):
    edited = [label for label, (line, edits) in compare.COMMANDS.items()
              if label.startswith("invalid-") and edits]
    assert len(edited) == 6
    for label in edited:
        (path,) = _configs(plan[label][0])
        with pytest.raises(ConfigError):
            parse_config(path)
