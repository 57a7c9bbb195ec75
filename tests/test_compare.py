"""tools/compare.py: the frontier summary, the saturation agreement and the
line count; tools/frontier.py: the stats records of both kinds;
tools/saturation.py: its cases."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from posat.search import SearchStats

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
_spec = importlib.util.spec_from_file_location("frontier", ROOT / "tools" / "frontier.py")
frontier = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frontier)
_spec = importlib.util.spec_from_file_location("saturation", ROOT / "tools" / "saturation.py")
saturation_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(saturation_tool)


def bench15_passes() -> list[list[dict]]:
    """The change side's frontier passes of BENCH_15.json, rebuilt from each
    task's record and its per-pass seconds and bounds."""
    records = json.loads((ROOT / "BENCH_15.json").read_text())["frontier"]["change"]
    return [[dict(r, lower=r["bounds_runs"][i][0], upper=r["bounds_runs"][i][1],
                  exact=r["bounds_runs"][i][0] == r["bounds_runs"][i][1], seconds=r["seconds_runs"][i])
             for r in records] for i in range(3)]


def test_frontier_medians_report_the_tightest_bounds_over_the_passes():
    table = compare.frontier_medians(bench15_passes())
    diamond7 = next(r for r in table if r["poset"] == "diamond" and r["n"] == 7)
    # the median pass stops at 7..8, but one pass proved 8
    assert (diamond7["lower"], diamond7["upper"], diamond7["exact"]) == (7, 8, False)
    assert diamond7["bounds_runs"] == [(7, 8), (8, 8), (7, 8)]
    assert diamond7["tightest"] == [8, 8] and diamond7["tightest_exact"]
    N6 = next(r for r in table if r["poset"] == "N" and r["n"] == 6)
    assert N6["tightest"] == [10, 12] and not N6["tightest_exact"]
    for r in table:
        assert r["tightest"] == [max(lo for lo, _ in r["bounds_runs"]), min(up for _, up in r["bounds_runs"])]
        assert r["seconds"] == sorted(r["seconds_runs"])[1]


def test_frontier_medians_reject_contradicting_passes():
    task = {"poset": "diamond", "n": 5, "seconds": 1.0}
    passes = [[dict(task, lower=7, upper=7)], [dict(task, lower=5, upper=6)]]
    with pytest.raises(SystemExit, match="contradict"):
        compare.frontier_medians(passes)


def made_up_pass(lower, upper, witness=(0, 1, 2)) -> list[dict]:
    """One frontier pass with one task, the diamond at n = 5."""
    return [{"poset": "diamond", "n": 5, "seconds": 1.0, "lower": lower, "upper": upper,
             "exact": lower == upper, "witness": list(witness)}]


def test_frontier_agreement_rejects_sides_whose_tightest_bounds_are_apart():
    # each side is consistent on its own (6..7 and 8), but they share no value
    parent = [made_up_pass(6, 7), made_up_pass(6, 9)]
    change = [made_up_pass(8, 8), made_up_pass(7, 9)]
    with pytest.raises(SystemExit, match="share no value"):
        compare.frontier_agreement(parent, change)


def test_frontier_agreement_flags_the_witnesses_of_exact_tasks():
    parent = [made_up_pass(6, 6), made_up_pass(5, 6)]
    (same,) = compare.frontier_agreement(parent, [made_up_pass(5, 6), made_up_pass(6, 6)])
    assert same == {"poset": "diamond", "n": 5, "tightest": [6, 6], "same_witness": True, "same_tree": None,
                    "same_stats": None}
    (other,) = compare.frontier_agreement(parent, [made_up_pass(6, 6, (0, 1, 4)), made_up_pass(6, 6)])
    assert other["same_witness"] is False
    # one side never settles the task: no flag
    (open_,) = compare.frontier_agreement(parent, [made_up_pass(5, 6), made_up_pass(5, 7)])
    assert open_["tightest"] == [6, 6] and open_["same_witness"] is None


def searched_pass(lower, upper, nodes, leaves=4, symmetry_prunes=1) -> list[dict]:
    """``made_up_pass`` with the stats of a search."""
    stats = {"nodes": nodes, "leaves": leaves, "symmetry_prunes": symmetry_prunes, "queries": nodes}
    return [dict(made_up_pass(lower, upper)[0], stats=stats)]


def test_frontier_agreement_flags_the_trees_of_searched_tasks():
    parent = [searched_pass(6, 6, 9), searched_pass(5, 6, 7)]
    (same,) = compare.frontier_agreement(parent, [searched_pass(6, 6, 9), made_up_pass(6, 6)])
    assert same["same_witness"] is True and same["same_tree"] is True
    # the queries may differ; the nodes, leaves or symmetry prunes may not
    change = [[dict(searched_pass(6, 6, 9)[0], stats=dict(parent[0][0]["stats"], queries=3))]]
    assert compare.frontier_agreement(parent[:1], change)[0]["same_tree"] is True
    for tree in [(8, 4, 1), (9, 3, 1), (9, 4, 2)]:
        (other,) = compare.frontier_agreement(parent, [searched_pass(6, 6, *tree), searched_pass(6, 6, 9)])
        assert other["same_witness"] is True and other["same_tree"] is False, tree
    # no exact pass with stats on one side (certified, or cut by the limit): no flag
    (open_,) = compare.frontier_agreement(parent, [made_up_pass(6, 6), searched_pass(5, 6, 7)])
    assert open_["same_witness"] is True and open_["same_tree"] is None


def test_frontier_agreement_flags_the_stats_of_searched_tasks():
    parent = [searched_pass(6, 6, 9), searched_pass(5, 6, 7)]
    (same,) = compare.frontier_agreement(parent, [searched_pass(6, 6, 9), made_up_pass(6, 6)])
    assert same["same_tree"] is True and same["same_stats"] is True
    # the seconds may differ; no other field may
    timed = dict(parent[0][0]["stats"], level_seconds=[[5, 0.5]], build_seconds=0.25)
    assert compare.frontier_agreement(parent[:1], [[dict(parent[0][0], stats=timed)]])[0]["same_stats"] is True
    queries = dict(parent[0][0]["stats"], queries=3)
    (other,) = compare.frontier_agreement(parent[:1], [[dict(parent[0][0], stats=queries)]])
    assert other["same_tree"] is True and other["same_stats"] is False
    # no exact pass with stats on one side: no flag
    (open_,) = compare.frontier_agreement(parent, [made_up_pass(6, 6), searched_pass(5, 6, 7)])
    assert open_["same_stats"] is None


def test_src_lines_counts_the_package_sources():
    want = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "posat").glob("*.py"))
    assert compare.src_lines(ROOT) == want > 0


def test_main_alternates_which_side_runs_first(monkeypatch, tmp_path):
    calls = []

    def fake_perfbench(checkout, seed, seconds):
        calls.append(("perfbench", checkout.name))
        return {"pair_certificates": {metric: 1.0 for metric in compare.METRICS}}

    def fake_frontier(checkout):
        calls.append(("frontier", checkout.name))
        return [{"poset": "fork", "n": 4, "lower": 5, "upper": 5, "exact": True, "witness": [0], "seconds": 1.0}]

    def fake_saturation(checkout):
        calls.append(("saturation", checkout.name))
        return [{"n": 3, "family": "empty", "poset": "chain(2)", "saturated": True}]

    monkeypatch.setattr(compare, "perfbench", fake_perfbench)
    monkeypatch.setattr(compare, "frontier", fake_frontier)
    monkeypatch.setattr(compare, "saturation", fake_saturation)
    parent, change = tmp_path / "parent", tmp_path / "change"
    compare.main([str(parent), str(change), "--runs", "3", "--out", str(tmp_path / "bench.json")])
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == ([("saturation", "parent"), ("saturation", "change")] + [("perfbench", side) for side in order]
                     + [("frontier", side) for side in order])
    assert json.loads((tmp_path / "bench.json").read_text())["saturation_agreement"] == {"cases": 1, "differing": 0}


def test_saturation_agreement_counts_the_differing_cases(monkeypatch, tmp_path):
    case = {"n": 3, "family": "empty", "poset": "chain(2)", "saturated": True, "addable": None}
    other = dict(case, saturated=False, addable=1)
    assert compare.saturation_agreement([case, other], [case, other]) == {"cases": 2, "differing": 0}
    assert compare.saturation_agreement([case, other], [case, case]) == {"cases": 2, "differing": 1}
    assert compare.saturation_agreement([case, other], [case]) == {"cases": 2, "differing": 1}
    # main fails before any benchmark run, with the report written
    sides = {"parent": [case, other], "change": [case, case]}
    monkeypatch.setattr(compare, "saturation", lambda checkout: sides[checkout.name])
    monkeypatch.setattr(compare, "perfbench", lambda *args: pytest.fail("a benchmark ran"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match="1 of 2 saturation reports differ"):
        compare.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)])
    assert json.loads(out.read_text())["saturation_agreement"] == {"cases": 2, "differing": 1}


def test_saturation_tool_prints_one_record_per_case():
    records = list(saturation_tool.cases(3, 4))
    # 4 constructions and their complements at n = 3, the wedge of 2 too at n = 4
    assert len(records) == (8 + 10) * 17
    assert records[0] == {"n": 3, "family": "empty", "poset": "chain(2)", "saturated": True,
                          "forbidden_copy": None, "addable": None}
    x = next(r for r in records if (r["n"], r["family"], r["poset"]) == (4, "x_upper", "X"))
    assert x["saturated"] and list(saturation_tool.cases(3, 4)) == records


@dataclasses.dataclass(frozen=True)
class DataclassStats:
    """A stand-in for ``SearchStats`` as a frozen dataclass, as in checkouts
    before it became a named tuple (``tools/compare.py`` runs this
    frontier script on both)."""

    nodes: int
    leaves: int
    symmetry_prunes: int
    lookahead_prunes: int
    queries: int
    level_seconds: tuple[tuple[int, float], ...]
    copies: int
    build_seconds: float


def test_frontier_stats_record_reads_both_kinds_of_record():
    values = (9, 4, 1, 2, 30, ((3, 0.25), (4, 0.5)), 77, 0.125)
    want = {"nodes": 9, "leaves": 4, "symmetry_prunes": 1, "lookahead_prunes": 2, "queries": 30,
            "level_seconds": [[3, 0.25], [4, 0.5]], "copies": 77, "build_seconds": 0.125}
    assert json.loads(json.dumps(frontier.stats_record(DataclassStats(*values)))) == want
    # this checkout's record ends with need_prunes
    assert json.loads(json.dumps(frontier.stats_record(SearchStats(*values, 3)))) == dict(want, need_prunes=3)
    assert frontier.stats_record(None) is None
