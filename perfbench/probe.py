"""Set-up probe: a fresh interpreter imports one workload and builds its pool.

    python3 perfbench/probe.py WORKLOAD SEED COUNT

prints "ready" at the point where run.py would start its first timed op.
It imports nothing of the harness, so the time measured is the
interpreter's start, import hyperdec and the workload's input generation.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
__import__(workload).make_inputs(seed, count)
print("ready", flush=True)
