"""Compare two checkouts of this repository on the benchmark and on the
search frontier, and write the result as one JSON file.

For each seed, ``perfbench/run.py --workload all --seconds S --trace 0`` runs
in each checkout in turn, ``--runs`` times, the parent first on even runs
and the change first on odd ones, and the medians of the end-to-end metrics
are kept with every run.  Then ``tools/frontier.py`` of this checkout runs
``--runs`` times on each checkout's ``src``, in the same alternating order:
each task keeps the record of its median-seconds pass with every
pass's seconds and bounds and the tightest bounds over the passes, and the
script fails when the bounds of a task's passes on one side contradict
each other, or when the two sides' tightest bounds share no value.  For a
task that both sides settle exactly, ``frontier_agreement`` records
whether they returned the same witness, and, when both settle it by a
search, whether every such search walked the same tree (the same nodes,
leaves and symmetry prunes in its stats).  The report also gives each
side's line count of ``src/posat/*.py``.  One process runs at a time.

    python3 tools/compare.py PARENT CHANGE --seeds 41 1009 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

FRONTIER = Path(__file__).resolve().parent / "frontier.py"
METRICS = ("wall_s", "solved_frac", "setup_s", "peak_rss_mb", "failed")


def perfbench(checkout: Path, seed: int, seconds: float) -> dict:
    """{workload: {metric: value}} from one run over every workload."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    result = {}
    for i, line in enumerate(lines):
        if line.startswith("{"):
            workload = next(l for l in reversed(lines[:i]) if " seed=" in l).split()[0]
            record = json.loads(line)
            result[workload] = {k: v["value"] for k, v in record["metrics"].items()}
            result[workload]["failed"] = record["failed"]
    return result


def frontier(checkout: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, str(FRONTIER)], check=True, capture_output=True, text=True, env=env).stdout
    return [json.loads(line) for line in out.splitlines()]


def frontier_medians(passes: list[list[dict]]) -> list[dict]:
    """One record per task from several frontier passes of one checkout:
    the record of the pass with the median seconds, with ``seconds`` the
    median, ``seconds_runs`` and ``bounds_runs`` every pass's seconds and
    bounds, ``tightest`` the largest lower and the smallest upper bound
    over the passes, and ``tightest_exact`` true when those meet, as they
    do when some pass proved the value.  A pass cut by its time limit stops
    at bounds that depend on the machine's speed, so passes may differ, but
    every pass's bounds must contain the true value: the script fails when
    they share none."""
    table = []
    for records in zip(*passes):
        bounds = [(r["lower"], r["upper"]) for r in records]
        lower, upper = max(lo for lo, _ in bounds), min(up for _, up in bounds)
        if lower > upper:
            raise SystemExit(f"frontier {records[0]['poset']} at n = {records[0]['n']}: "
                             f"the bounds of the runs contradict each other: {bounds}")
        seconds = [r["seconds"] for r in records]
        median = records[seconds.index(statistics.median_low(seconds))]
        table.append(dict(median, seconds=statistics.median(seconds), seconds_runs=seconds, bounds_runs=bounds,
                          tightest=[lower, upper], tightest_exact=lower == upper))
    return table


def frontier_agreement(parent: list[list[dict]], change: list[list[dict]]) -> list[dict]:
    """One record per task from the frontier passes of both checkouts: the
    task, ``tightest``, the bounds that both sides' tightest bounds allow,
    ``same_witness``, for a task that a pass of each side settles exactly,
    true when every exact pass of both sides returned the same witness
    (None otherwise), and ``same_tree``, for a task that a pass of each
    side settles exactly by a search, true when every such pass walked the
    same tree: the same nodes, leaves and symmetry prunes (None
    otherwise).  Each side's tightest bounds contain the true value, so
    the script fails when the two sides' share none."""
    table = []
    for records in zip(*parent, *change):
        lower, upper = max(r["lower"] for r in records), min(r["upper"] for r in records)
        task = f"{records[0]['poset']} at n = {records[0]['n']}"
        if lower > upper:
            raise SystemExit(f"frontier {task}: the parent's and the change's tightest bounds share no value")
        sides = records[:len(parent)], records[len(parent):]
        exact = [r for r in records if r["exact"]]
        same = None
        if all(any(r["exact"] for r in side) for side in sides):
            same = all(r["witness"] == exact[0]["witness"] for r in exact)
        searched = [(r["stats"]["nodes"], r["stats"]["leaves"], r["stats"]["symmetry_prunes"])
                    for r in exact if r.get("stats")]
        same_tree = None
        if all(any(r["exact"] and r.get("stats") for r in side) for side in sides):
            same_tree = all(t == searched[0] for t in searched)
        table.append({"poset": records[0]["poset"], "n": records[0]["n"], "tightest": [lower, upper],
                      "same_witness": same, "same_tree": same_tree})
    return table


def in_turn(sides: dict, r: int) -> list:
    """The (side, checkout) pairs of run r in the order they run: the parent
    first on even runs and the change first on odd runs, so a drift within
    a pair lands on each side in turn."""
    items = list(sides.items())
    return items if r % 2 == 0 else items[::-1]


def src_lines(checkout: Path) -> int:
    """The line count of ``src/posat/*.py``, as ``wc -l`` counts it."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "posat").glob("*.py"))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[41])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "what": f"medians of {args.runs} alternating parent/change runs of `python3 perfbench/run.py "
                f"--workload all --seed SEED --seconds {args.seconds:g} --trace 0` (times in reference "
                f"seconds), then the medians of {args.runs} alternating passes of tools/frontier.py",
        "hardware": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                    f"Python {platform.python_version()}, one process at a time",
        "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
        "perfbench": {},
    }
    for seed in args.seeds:
        runs = {side: [] for side in sides}
        for r in range(args.runs):
            for side, checkout in in_turn(sides, r):
                runs[side].append(perfbench(checkout, seed, args.seconds))
                print(f"seed {seed} run {r} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
        table = {}
        for workload in runs["parent"][0]:
            table[workload] = {}
            for metric in METRICS:
                entry = {}
                for side in sides:
                    values = [run[workload][metric] for run in runs[side]]
                    entry[side] = statistics.median(values)
                    entry[f"{side}_runs"] = values
                table[workload][metric] = entry
        report["perfbench"][f"seed {seed}"] = table
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    passes = {side: [] for side in sides}
    for r in range(args.runs):
        for side, checkout in in_turn(sides, r):
            passes[side].append(frontier(checkout))
            print(f"frontier run {r} {side} done", file=sys.stderr, flush=True)
    report["frontier"] = {}
    try:
        for side in sides:
            report["frontier"][side] = frontier_medians(passes[side])
        report["frontier_agreement"] = frontier_agreement(passes["parent"], passes["change"])
    finally:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
