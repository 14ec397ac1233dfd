"""The README's command-line examples, replayed.

The `$ hyperdec` block under "The command line" runs line by line through
run_cli and must print what the README shows, byte for byte; each
refusal named under "Refusals over wrong answers" must be raised with
the error type the README names.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from hyperdec.cli import run_cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _transcript() -> list:
    """(argv, stdout) for each `$ hyperdec` line of the command-line block;
    a command's output runs to the next blank line."""
    block = re.search(r"```\n(\$ hyperdec .*?)```", _section("The command line"), re.S)
    runs = []
    for chunk in block.group(1).split("\n\n"):
        command, *output = chunk.strip("\n").split("\n")
        assert command.startswith("$ hyperdec "), command
        runs.append((shlex.split(command)[2:], "".join(line + "\n" for line in output)))
    return runs


def test_readme_command_block_replays_byte_for_byte(capsys):
    runs = _transcript()
    assert len(runs) == 6
    for argv, want in runs:
        code = run_cli(argv)
        out = capsys.readouterr().out
        assert (code, out) == (0, want), argv


REFUSALS = [
    (["eval", "floor(H/3)"], "FloorUndecidable"),
    (["digits", "(1/3)*eps", "2:0"], "FloorUndecidable"),
    (["lightstone", "1/7"], "UnsupportedNotation"),
    (["st", "H"], "NotFinite"),
]


@pytest.mark.parametrize("argv, error", REFUSALS, ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_readme_refusals_raise_the_named_error(capsys, argv, error):
    assert error in _section("Refusals over wrong answers")
    code = run_cli(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["ok"], payload["error"]["type"]) == (1, False, error)
