"""Replay of a recorded CLI transcript.

Each line of golden/cli_transcript.jsonl is one command line and what it
printed: argv, exit code, stdout and stderr.  The replay runs every line
through run_cli in-process and compares all four fields.  Without
pytest, for instance under another interpreter, check the replay with

    PYTHONPATH=src python tests/test_cli_transcript.py --check

which rewrites nothing and exits 1 with the first differing line.  After
an intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff of the golden: it lists every changed answer.
"""

import argparse
import contextlib
import io
import json
import sys
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
    cli = argparse.ArgumentParser(description="Re-record or check the CLI transcript.")
    cli.add_argument("--check", action="store_true",
                     help="replay every line and rewrite nothing")
    recorded = _recorded()
    if cli.parse_args().check:
        for n, rec in enumerate(recorded, start=1):
            if (got := replay(rec["argv"])) != rec:
                print(f"line {n} differs\nrecorded: {rec}\nreplayed: {got}")
                sys.exit(1)
        print(f"{len(recorded)}/{len(recorded)} lines replay byte for byte")
        sys.exit(0)
    records = [replay(rec["argv"]) for rec in recorded]
    with TRANSCRIPT.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
