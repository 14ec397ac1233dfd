"""The benchmark's smoke run, as one Tier-1 test.

`python3 perfbench/run.py --smoke` runs a tiny pool of every workload,
once untraced and once traced, and exits 1 when an oracle contradicts an
answer.  The traced run wraps the public functions of every layer the
tracer knows, so a change to what importing hyperdec loads, or to a
public name of a layer, shows here before a benchmark run.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("series_core", "calculus", "shell_session")


def test_bench_smoke_runs_every_workload_without_a_failed_op():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    sections = re.findall(r"^\[(.+)\]$", proc.stdout, re.M)
    assert sections == [w + t for w in WORKLOADS for t in ("", " traced")]
    ratios = re.findall(r"^  failed_ratio +(\S+) fraction", proc.stdout, re.M)
    assert ratios == ["0"] * len(sections), proc.stdout
