"""Replay of a recorded CLI transcript.

Each line of golden/cli_transcript.jsonl is one command line and what it
printed: argv, exit code, stdout and stderr.  The replay runs every line
through run_cli in-process and compares all four fields.  After an
intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff of the golden: it lists every changed answer.
"""

import contextlib
import io
import json
from pathlib import Path

from hyperdec.cli import run_cli

TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.jsonl"


def replay(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> list:
    with TRANSCRIPT.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_transcript_replays_byte_for_byte():
    recorded = _recorded()
    assert 0 < len(recorded) <= 200
    changed = [(rec, got) for rec in recorded if (got := replay(rec["argv"])) != rec]
    assert not changed, f"{len(changed)} lines differ; first: {changed[0]}"


if __name__ == "__main__":
    records = [replay(rec["argv"]) for rec in _recorded()]
    with TRANSCRIPT.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
