"""Replay of the recorded help and usage screens.

Each line of golden/cli_help.jsonl is one command line that argparse
answers by itself: the top-level --help, every subcommand's --help, and
the usage errors of a missing or unknown argument.  The replay runs each
line through run_cli in-process at a terminal width of 120 columns and
compares argv, exit code, stdout and stderr.  At that width Python 3.10
to 3.13 wrap every usage line alike, so one recording serves them all;
at 80 columns 3.13 wraps the top-level usage differently.  Without
pytest, check it with

    PYTHONPATH=src python tests/test_cli_help.py --check

and after an intended change to the argument tree, re-record with

    PYTHONPATH=src python tests/test_cli_help.py
"""

import os
from pathlib import Path
from unittest import mock

from test_cli_transcript import _recorded, check_or_record, replay

SCREENS = Path(__file__).parent / "golden" / "cli_help.jsonl"

COMMANDS = (
    "eval", "st", "classify", "lightstone", "digits", "deriv", "lim",
    "limfun", "ucheck", "evt", "newton", "microscope", "repl",
)
USAGE_ERRORS = [
    ["eval"],
    ["deriv", "x"],
    ["newton", "x"],
    ["digits", "1"],
    ["eval", "1", "--mode", "q"],
    ["frobnicate", "1"],
    ["microscope", "--preset", "zz"],
]


def replay_at_120_columns(argv: list) -> dict:
    with mock.patch.dict(os.environ, {"COLUMNS": "120"}):
        return replay(argv)


def test_help_and_usage_screens_replay_byte_for_byte():
    recorded = _recorded(SCREENS)
    want = [["--help"], *([name, "--help"] for name in COMMANDS), *USAGE_ERRORS]
    assert [rec["argv"] for rec in recorded] == want
    changed = [(rec, got) for rec in recorded if (got := replay_at_120_columns(rec["argv"])) != rec]
    assert not changed, f"{len(changed)} screens differ; first: {changed[0]}"


if __name__ == "__main__":
    check_or_record(SCREENS, replay_at_120_columns)
