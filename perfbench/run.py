"""posat benchmark: run one workload for a fixed time, check every answer
outside the timed region, and print one JSON line of metrics last.

    python3 perfbench/run.py --workload exact_panel --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each run imports ``posat`` from ``src/`` of this checkout.  A run makes one
full pass over the workload's tasks, then runs single tasks in turn while the
low median of their earlier runs still fits before the deadline.  ``wall_s``
is the time of one pass, estimated as the sum over tasks of each task's low
median.  With ``--trace 1`` every task runs untraced and traced in turn, and the
per-layer metrics replace the end-to-end ones.

Every time is reported in reference seconds.  The speed of a shared machine
swings by more than half over minutes, so between task runs the benchmark
times a fixed pure-Python loop, and scales each measured time by the loop's
reference time over its median time in the run.  The loop does not touch
posat, so a change to posat moves reference seconds as it moves seconds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 15
# The calibration loop runs at most every CAL_EVERY_S seconds, and takes
# CAL_REFERENCE_S at reference speed (about its time on a shared 2-core
# Intel Xeon virtual machine at 2.1 GHz).
CAL_LOOPS = 100_000
CAL_EVERY_S = 0.5
CAL_REFERENCE_S = 0.0125

END_TO_END_UNITS = {"wall_s": "s", "solved_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric == "io.bytes_parsed":
        return "bytes"
    return "ratio"


def import_posat():
    """Import posat afresh from src/ of this checkout."""
    for key in [k for k in sys.modules if k == "posat" or k.startswith("posat.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    posat = importlib.import_module("posat")
    importlib.import_module("posat.io")  # not imported by the package itself
    if Path(posat.__file__).resolve().parent != SRC / "posat":
        raise ImportError(f"posat was imported from {posat.__file__}")
    return posat


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop of integer, bit and list work,
    the kind of work the library's inner loops do."""
    t0 = perf_counter()
    x, out = 0, []
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) & 0xFFFF
        if x & 7 == 0:
            out.append(x >> 3)
    return perf_counter() - t0


class Clock:
    """Machine speed during one run, from the calibration loop timed between
    turns of tasks, at most every CAL_EVERY_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append(calibration_loop())
            self._last = perf_counter()

    def factor(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REFERENCE_S / statistics.median(self.samples)


def setup(workload: str, seed: int) -> tuple[float, float, list[workloads.Task]]:
    """Import posat and generate the inputs SETUP_REPS times.  Returns the
    median time in measured seconds, the median in reference seconds (each
    repetition scaled by the calibration loop timed just before it), and the
    tasks of the last repetition."""
    measured, reference = [], []
    for _ in range(SETUP_REPS):
        cal = calibration_loop()
        gc.collect()
        t0 = perf_counter()
        posat = import_posat()
        tasks = workloads.WORKLOADS[workload](posat, random.Random(seed))
        measured.append(perf_counter() - t0)
        reference.append(measured[-1] * CAL_REFERENCE_S / cal)
    return statistics.median(measured), statistics.median(reference), tasks


class Sample(NamedTuple):
    seconds: float
    problem: str | None  # what is wrong with the output, or the error raised
    solved: bool
    profile: dict[str, float] | None


def execute(task: workloads.Task, trace: tracer.Tracer | None) -> Sample:
    """Run the task once, timed (and traced), then check its output."""
    gc.collect()
    if trace is not None:
        trace.begin()
    t0 = perf_counter()
    try:
        output, problem = task.run(), None
    except Exception:
        output, problem = None, traceback.format_exc().strip().splitlines()[-1]
    seconds = perf_counter() - t0
    profile = trace.end(task.name) if trace is not None else None
    if problem is None:
        problem = task.check(output)
    return Sample(seconds, problem, problem is None and task.solved(output), profile)


def run_for(tasks, seconds: float, clock: Clock,
            trace: tracer.Tracer | None = None) -> list[list[list[Sample]]]:
    """Samples per mode and task: untraced, and with a tracer also traced.

    Each turn of a task runs it once in every mode, back to back, so both
    modes see the same state of a shared machine.  After one full pass the
    turns go, while any task's median so far fits before the deadline, to
    the fitting task with the fewest turns (longest first): every task gets
    a second sample before any gets a third.
    """
    modes = (None,) if trace is None else (None, trace)
    samples = [[[] for _ in tasks] for _ in modes]
    estimate = [0.0] * len(tasks)

    def turn(j):
        clock.sample()
        for mode, t in enumerate(modes):
            samples[mode][j].append(execute(tasks[j], t))
        estimate[j] = sum(task_seconds(runs[j]) for runs in samples)

    deadline = perf_counter() + seconds
    for j in range(len(tasks)):
        turn(j)
    while True:
        left = deadline - perf_counter()
        fitting = [j for j in range(len(tasks)) if estimate[j] <= left]
        if not fitting:
            return samples
        turn(min(fitting, key=lambda j: (len(samples[0][j]), -estimate[j])))


def task_seconds(runs) -> float:
    """Low median: with two samples the faster one, since contention on a
    shared machine only ever slows a run down."""
    return statistics.median_low(s.seconds for s in runs)


def pass_seconds(samples) -> float:
    return sum(task_seconds(runs) for runs in samples)


def median_profiles(samples) -> list[dict[str, float]]:
    out = []
    for runs in samples:
        keys = set().union(*(s.profile for s in runs))
        out.append({k: statistics.median_low(s.profile.get(k, 0) for s in runs) for k in keys})
    return out


def gate(tasks, phases) -> tuple[int, int, list[str]]:
    """Print each wrong output by task name.  Returns the executions
    attempted, the executions failed, and the tasks not solved (wrong,
    raised, or cut short by a time limit)."""
    attempted = failed = 0
    unsolved = []
    for j, task in enumerate(tasks):
        runs = [s for samples in phases for s in samples[j]]
        attempted += len(runs)
        for problem, count in Counter(s.problem for s in runs if s.problem).items():
            print(f"MISMATCH {task.name}: {problem} ({count}x)")
            failed += count
        if not all(s.solved for s in runs):
            unsolved.append(task.name)
    return attempted, failed, unsolved


def run_workload(workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    setup_measured, setup_s, tasks = setup(workload, seed)
    clock = Clock()
    t0 = perf_counter()
    trace = tracer.Tracer() if trace_on else None
    phases = run_for(tasks, seconds, clock, trace)
    elapsed = perf_counter() - t0
    attempted, failed, unsolved = gate(tasks, phases)

    print(f"{workload} seed={seed}: {len(tasks)} tasks, {attempted} runs in {elapsed:.1f} s")
    if unsolved:
        print(f"  not solved: {', '.join(unsolved)}")
    factor = clock.factor()
    print(f"  calibration loop {statistics.median(clock.samples) * 1e3:.3f} ms (median of "
          f"{len(clock.samples)}): {factor:.4f} reference s per measured s")
    if trace_on:
        untraced, traced = phases
        metrics = tracer.layer_metrics(
            median_profiles(traced), pass_seconds(untraced), pass_seconds(traced))
        metrics = {name: value * factor if unit_of(name) == "s" else value for name, value in metrics.items()}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        trace.write_spans(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        wall = pass_seconds(phases[0])
        metrics = {
            "wall_s": wall * factor,
            "solved_frac": 1 - len(unsolved) / len(tasks),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"  measured: wall {wall:.6f} s, setup {setup_measured:.6f} s; "
              f"failed_frac {len(unsolved) / len(tasks):.4f} ({len(unsolved)}/{len(tasks)} tasks"
              " wrong, raised or not solved)")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6f} {unit_of(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in turn, each in a process of its own."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    # No run writes a bytecode cache, so every set-up compiles posat from
    # source and setup_s measures the same work in every run.
    sys.dont_write_bytecode = True
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"cannot import posat from {SRC}: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
