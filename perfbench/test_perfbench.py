"""Self-tests of the benchmark: metric names, bypass predictions, exact
repetition of call counts, the correctness gate, and failure without the
program.  Run with ``python3 -m pytest perfbench -q`` (about a minute)."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_calls(workload: str, seed: int) -> dict[str, int]:
    """Call counts of one traced pass, without the time-limited tasks."""
    *_, tasks = run.setup(workload, seed)
    trace = tracer.Tracer()
    total = Counter()
    for task in tasks:
        if not task.time_limited:
            sample = run.execute(task, trace)
            assert sample.problem is None, (task.name, sample.problem)
            total.update({k: v for k, v in sample.profile.items() if k.endswith(".calls")})
    return {name: total[name] for name in tracer.metric_names() if name.endswith(".calls")}


@pytest.fixture(scope="module")
def calls():
    """Two traced passes per workload, both with seed 7."""
    return {w: [traced_calls(w, 7), traced_calls(w, 7)] for w in workloads.WORKLOADS}


def test_benchmark_json_names_every_reported_metric():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracer.metric_names()
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_bypass_predictions(calls):
    pair = calls["pair_certificates"][0]
    assert pair["family.iter_induced_embeddings.calls"] == 0
    for workload in ("saturation_check", "pair_certificates"):
        assert calls[workload][0]["search.exact_sat_star.calls"] == 0
    exact = calls["exact_panel"][0]
    assert exact["search.exact_sat_star.calls"] == 37
    for name, n in exact.items():
        if name.startswith("digraph."):
            assert n == 0, name


def test_call_counts_repeat_with_the_same_seed(calls):
    for workload, (first, second) in calls.items():
        assert first == second, workload
        assert any(first.values()), workload


def test_every_traced_function_is_reached(calls):
    reached = {name for runs in calls.values() for name, n in runs[0].items() if n}
    assert reached == {name for name in tracer.metric_names() if name.endswith(".calls")}


def test_generators_follow_the_seed():
    def inputs(seed):
        rng = random.Random(seed)
        return (workloads.pair_covered_family(25, rng), workloads.tc_free_with_cycle(rng),
                workloads.permute_ground_set(range(64), 6, rng))

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_gate_reports_wrong_answers():
    *_, tasks = run.setup("exact_panel", 3)
    task = next(t for t in tasks if t.name == "exact fork n=3")
    result = task.run()
    assert task.check(result) is None
    wrong = dataclasses.replace(result, lower_bound=5, upper_bound=5)
    assert "expected 4" in task.check(wrong)

    *_, tasks = run.setup("pair_certificates", 3)
    task = next(t for t in tasks if t.name == "digraph #0 random")
    D, witness, cycle, contracted = task.run()
    assert witness is not None and task.check((D, witness, cycle, contracted)) is None
    assert "not a transitive cycle" in task.check((D, witness[::-1], cycle, contracted))


def test_transitive_cycle_oracle():
    # 0 -> 1 -> 2 with chord 0 -> 2; a 2-cycle is not transitive.
    assert workloads.transitive_cycle(3, {(0, 1), (1, 2), (0, 2)}) == [0, 1, 2]
    assert workloads.transitive_cycle(2, {(0, 1), (1, 0)}) is None
    assert workloads.is_transitive_cycle({(0, 1), (1, 2), (0, 2)}, [0, 1, 2])
    assert not workloads.is_transitive_cycle({(0, 1), (1, 2)}, [0, 1, 2])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(Path(run.BENCH_DIR.name) / "run.py"), "--workload", "pair_certificates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
