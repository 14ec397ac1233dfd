"""hyperdec benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload series_core --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see each module's docstring for why it was chosen):
series_core (hyperfield arithmetic near the term budget), calculus
(transfer and hypercalc) and shell_session (cli, expr, lightstone,
microscope).  One client, one thread, closed loop: each op starts when
the previous one has returned.

Shared 2-core x86 hosts switch between a fast and a slow state, for
seconds or for minutes (measured there: the same op takes 1.4-1.9x as
long in the slow state).  So a run times each op of a fixed, seeded pool
in many passes, each pass in a fresh order.  Next to the ops it times a
fixed Fraction kernel (reference_kernel), scales each op time by REF_S
over the kernel's best recent time, which takes it to the host's fast
state, and keeps each op's best scaled time.  Latency percentiles and
throughput come from those best times:

    setup_s           time from a fresh interpreter to the first timed
                      op (import hyperdec, build the pool): the median
                      time of SETUP_PROBES runs of probe.py, started at
                      even intervals of the timed window, each followed
                      by a reference child; scaled by REF_SETUP_S over
                      the reference children's median time
    throughput_ops_s  pool ops / sum of their best times
    latency_p50_ms    median best time per op
    latency_p90_ms    90th percentile best time per op
    peak_rss_mb       ru_maxrss of this process after the timed passes

The run record also holds the unscaled set-up time, throughput and
latencies.

After each pass, outside the timed region, the workload's oracle checks
every answer of the pass (of an op's back-to-back repeats, the first).
An op run whose answers show the open truncation defect of the roadmap
(answers right for the cut series the library returned, which keeps the
exact value's leading term, but wrong for the exact value) counts as a
known defect: its share of the attempted op runs is printed above the
result line, kept in the run record and, with --trace 1, reported as
hyperfield.truncation_defect_ratio.  Every other contradicted answer,
and every exception that is not a typed HyperError, counts as failed
and makes the run incorrect.  The result line carries attempted and
failed op runs; failed / attempted is the failed ratio, printed above
it.

--trace 1 runs the pool in two untraced and two traced passes,
alternating, and reports the per-layer metrics of tracing.py plus the
import profile (python -X importtime) and trace.overhead_ratio.  Spans
and a run record go to perfbench/out/.

The script exits with status 2 and prints no result when src/hyperdec is
not next to it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("series_core", "calculus", "shell_session")

# Pool size per second of --seconds, rounded up to whole cycles of the
# workload's plan; at 40 seconds that is 9 cycles of series_core, 8 of
# calculus and 5 of shell_session (at least 160 ops, so at least 16 lie
# beyond p90), and a run makes 4-13 passes on a shared 2-core x86 VM.
# The pool depends only on the seed and --seconds.
POOL_PER_SECOND = {"series_core": 8, "calculus": 4, "shell_session": 5}
# Within a pass an op runs back to back until REPEAT_UNTIL_S has passed
# (at most MAX_REPEATS times), so cheap ops get enough samples for their
# best time to find the host's fast state; only the first run of each
# pass goes to the oracle.
REPEAT_UNTIL_S = 0.002
MAX_REPEATS = 16
# Best time of reference_kernel() on a shared 2-core x86 VM in its fast
# state.  Every op time is scaled by REF_S over the kernel's best recent
# time, which cancels most of the host's 1.4-1.9x slow stretches (they
# slow the kernel and hyperdec alike); the run record keeps the unscaled
# figures too.
REF_S = 260e-6
GAUGE_EVERY_S = 0.02    # gauge sampling period; longer ops sample after too
SETUP_PROBES = 11
# The reference child of each set-up probe: a fresh interpreter that
# imports a fixed set of standard-library modules, start-up work of the
# same kind as the probe's.  Set-up time does not follow the Fraction
# gauge, but it does follow this child (on a shared 2-core x86 VM,
# correlation 0.81 over 80 rounds of three probes, against -0.26 for the
# gauge); REF_SETUP_S is the child's time there in the fast state.
REF_SETUP = ("import argparse, dataclasses, decimal, fractions, json, random,"
             " urllib.request, xml.sax.saxutils; print('ready', flush=True)")
REF_SETUP_S = 0.1
IMPORT_PROBES = 3
TRACED_PASSES = 2

MODULES = ("errors", "hyperfield", "transfer", "hypercalc", "lightstone",
           "expr", "microscope", "cli")


def _load_workload(name: str):
    """Import a workload module, with src/ on the path; exit 2 without src/hyperdec."""
    if not (SRC / "hyperdec" / "__init__.py").is_file():
        sys.stderr.write(f"no hyperdec package under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return importlib.import_module(name)


def pool_size(mod, workload: str, seconds: int) -> int:
    cycle = len(mod.PLAN)
    return math.ceil(POOL_PER_SECOND[workload] * seconds / cycle) * cycle


# --------------------------------------------------------------------------
# timed passes
# --------------------------------------------------------------------------

class Judge:
    """Runs the oracle over answers, outside the timed region."""

    def __init__(self, mod, ops):
        self.mod, self.ops = mod, ops
        self.attempted = self.failed = self.defects = 0
        self.notes: list[str] = []

    def feed(self, answers) -> None:
        for i, ans in answers:
            self.attempted += 1
            if isinstance(ans, Exception):
                ok, defect, note = False, False, f"raised {type(ans).__name__}: {ans}"
            else:
                try:
                    v = self.mod.check(self.ops[i], ans)
                    ok, defect, note = v.ok, v.truncation_defect, v.note
                except Exception as exc:  # noqa: BLE001 - an unreadable answer fails the op
                    ok, defect, note = False, False, f"oracle could not read the answer: {exc!r}"
            if ok:
                continue
            self.defects += defect
            self.failed += not defect
            if len(self.notes) < 20:
                self.notes.append(("truncation defect: " if defect else "") + note)


def reference_kernel() -> dict:
    """Fixed pure-Python Fraction and dict work: the host's speed gauge."""
    acc = {}
    for i in range(1, 60):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    return acc


class Gauge:
    """Times reference_kernel() next to the timed work.

    scale() is REF_S over the best of the last three kernel times, the
    factor that takes a time measured now to the host's fast state.
    """

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=3)
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.recent.append(self.last - t0)

    def sample_if_stale(self) -> None:
        if time.perf_counter() - self.last > GAUGE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REF_S / min(self.recent)


def run_passes(mod, ops, best, raw, gauge: Gauge, rng: random.Random, sink,
               deadline: float = 0.0, passes: int | None = None, tracer=None,
               between=None) -> int:
    """Time every op in fresh orders until the deadline, or for `passes` passes.

    Keeps each op's best time in `best` (seconds at the gauge's reference
    speed) and in `raw` (seconds as measured).  The first pass always
    completes; each pass's [(op index, answer)] goes to sink() after the
    pass; between(), if given, runs after each op, outside its timing.
    Ops repeat back to back only in deadline mode, so passes counted by
    `passes` (the traced run) do the same work on every host.
    Returns the number of passes begun.
    """
    repeats = MAX_REPEATS if passes is None else 1
    clock = time.perf_counter
    order = list(range(len(ops)))
    done = 0
    while passes is None or done < passes:
        rng.shuffle(order)
        answers = []
        for i in order:
            if tracer is not None:
                tracer.op_id = i
            gauge.sample_if_stale()
            spent = 0.0
            fastest = math.inf
            for rep in range(repeats):
                t0 = clock()
                try:
                    ans = mod.run_op(ops[i])
                except Exception as exc:  # noqa: BLE001 - a raw exception is a failed op
                    ans = exc
                dt = clock() - t0
                if rep == 0:
                    answers.append((i, ans))
                fastest = min(fastest, dt)
                spent += dt
                if spent >= REPEAT_UNTIL_S:
                    break
            if spent > GAUGE_EVERY_S:
                gauge.sample()
            raw[i] = min(raw[i], fastest)
            best[i] = min(best[i], fastest * gauge.scale())
            if between is not None:
                between()
            if done and passes is None and clock() > deadline:
                break
        sink(answers)
        done += 1
        if passes is None and clock() > deadline:
            break
    return done


def _quantile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


# --------------------------------------------------------------------------
# setup and import probes (child interpreters, one at a time)
# --------------------------------------------------------------------------

def ready_time(argv) -> float:
    """Seconds from starting a child interpreter until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{argv[1:]} failed (exit {code}): {line!r}")
    return t1 - t0


def import_profile(probes: int) -> dict:
    """Median cumulative import time per module, from python -X importtime."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    samples: dict[str, list[float]] = {}
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperdec"],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name == "hyperdec" or name.startswith("hyperdec."):
                samples.setdefault(name, []).append(int(parts[1]) / 1000)
    out = {"import.hyperdec_ms": (statistics.median(samples["hyperdec"]), "ms")}
    for mod in MODULES:
        out[f"import.{mod}_ms"] = (statistics.median(samples.get(f"hyperdec.{mod}", [0.0])), "ms")
    return out


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "hyperdec").rglob("*.py")))


def write_record(name: str, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool = False):
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run, so the gauge and the ops it scales
        # share it (the two CPUs of a VM can be in different states)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    mod = _load_workload(workload)
    count = len(mod.PLAN) if smoke else pool_size(mod, workload, seconds)

    ops = mod.make_inputs(seed, count)
    rng = random.Random(seed)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": _git_commit(), "src_lines": _src_lines(),
        "input_shape": mod.shape(ops),
    }
    judge = Judge(mod, ops)
    gauge = Gauge()
    gauge.sample()
    if not trace:
        # set-up probes start at even intervals of the timed window, so
        # their median spans the host's fast and slow stretches
        probes = 1 if smoke else SETUP_PROBES
        setup, ref = [], []
        probe_argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(count)]

        def probe():
            setup.append(ready_time(probe_argv))
            ref.append(ready_time([sys.executable, "-c", REF_SETUP]))

        best, raw = [math.inf] * len(ops), [math.inf] * len(ops)
        start = time.perf_counter()
        probe_at = [start + seconds * (k + 0.5) / probes for k in range(probes)]

        def between():
            if len(setup) < probes and time.perf_counter() >= probe_at[len(setup)]:
                probe()

        passes = run_passes(mod, ops, best, raw, gauge, rng, judge.feed,
                            deadline=start + seconds, passes=1 if smoke else None,
                            between=between)
        wall = time.perf_counter() - start
        while len(setup) < probes:
            probe()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ms = [b * 1000 for b in best]
        raw_ms = [r * 1000 for r in raw]
        metrics = {
            "setup_s": (statistics.median(setup) * REF_SETUP_S / statistics.median(ref), "s"),
            "throughput_ops_s": (len(ops) / sum(best), "ops/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (_quantile(ms, 90), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        record.update(setup_probes_s=setup, setup_reference_s=ref, pool_ops=len(ops), passes=passes, wall_s=wall,
                      samples_beyond_p90=sum(m > metrics["latency_p90_ms"][0] for m in ms),
                      unscaled={"setup_s": statistics.median(setup),
                                "throughput_ops_s": len(ops) / sum(raw),
                                "latency_p50_ms": statistics.median(raw_ms),
                                "latency_p90_ms": _quantile(raw_ms, 90)})
    else:
        import tracing

        tracer = tracing.Tracer()
        plain_best, traced_best, raw = ([math.inf] * len(ops) for _ in range(3))
        for _ in range(1 if smoke else TRACED_PASSES):
            run_passes(mod, ops, plain_best, raw, gauge, rng, judge.feed, passes=1)
            traced = []
            with tracer:
                run_passes(mod, ops, traced_best, raw, gauge, rng, traced.extend, passes=1,
                           tracer=tracer)
            judge.feed(traced)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["hyperfield.truncation_defect_ratio"] = (judge.defects / judge.attempted, "fraction")
        metrics.update(import_profile(1 if smoke else IMPORT_PROBES))
        metrics["trace.overhead_ratio"] = (sum(traced_best) / sum(plain_best) - 1, "fraction")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(spans_path)
        record.update(pool_ops=len(ops), spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)))

    record.update(attempted=judge.attempted, failed=judge.failed,
                  truncation_defects=judge.defects,
                  failed_ratio=judge.failed / judge.attempted, failure_notes=judge.notes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    path = write_record(f"{workload}-seed{seed}-trace{int(trace)}.json", record)
    return metrics, judge, path


def _print_metrics(workload: str, metrics, judge: Judge) -> None:
    print(f"[{workload}]")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<42} {judge.failed / judge.attempted:>14.6g} fraction"
          f" ({judge.failed} of {judge.attempted} op runs)")
    print(f"  {'known truncation defect':<42} {judge.defects / judge.attempted:>14.6g} fraction"
          f" ({judge.defects} of {judge.attempted} op runs)")


def smoke() -> int:
    """Tiny pools, every metric name with its unit, exit 1 on a failed op."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            metrics, judge, _ = run(workload, 1, 1, trace, smoke=True)
            _print_metrics(workload + (" traced" if trace else ""), metrics, judge)
            bad += judge.failed
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = p.parse_args(argv)

    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    metrics, judge, path = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_metrics(args.workload, metrics, judge)
    print(f"  run record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
