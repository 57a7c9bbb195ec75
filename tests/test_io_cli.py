"""Text-format round trips, DOT export, and the CLI surface."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posat import (
    Digraph,
    SetFamily,
    catalog,
    certified_bounds,
    exact_sat_star,
    from_cover_relations,
    is_induced_saturated,
    verify,
)
from posat.cli import main
from posat.digraph import BRUTEFORCE_CAP
from posat.errors import ParseError, PosatError
from posat.family import elems_of, mask_of
from posat.io import (
    digraph_dot,
    family_dot,
    format_digraph,
    format_family,
    format_poset,
    parse_digraph,
    parse_family,
    parse_poset,
    parse_poset_spec,
    poset_dot,
)

from conftest import plain_parse_digraph, plain_parse_family


def cover_sets(max_p=6):
    return st.integers(2, max_p).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.sets(
                st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=p * 2,
            ),
        )
    )


# -- round trips --------------------------------------------------------------

@given(cover_sets())
def test_poset_roundtrip(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    assert parse_poset(format_poset(P)).up == P.up


@given(st.integers(1, 6), st.data())
def test_family_roundtrip(n, data):
    members = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    F = SetFamily.of(n, members)
    assert parse_family(format_family(F)) == F


@given(st.integers(1, 6), st.data())
def test_digraph_roundtrip(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            )
        )
    )
    D = Digraph.of(n, edges)
    assert parse_digraph(format_digraph(D)).edges == D.edges


def test_comments_and_blank_lines_ignored():
    F = parse_family("# header\nn=3\n\n{1,3}  # a member\n{}\n{ }\n{ 1 , 3 }\n")
    assert F == SetFamily.of(3, [0, 0b101])


def test_poset_name_line():
    assert parse_poset("name=wedge:3\n").size == 5
    assert parse_poset_spec("diamond").name == "diamond"
    with pytest.raises(ParseError):
        parse_poset("name=wedge:x\n")
    with pytest.raises(ParseError):
        parse_poset("name=diamond\nelements=2\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_family("")
    with pytest.raises(ParseError):
        parse_family("n=2\n{3}\n")
    with pytest.raises(ParseError):
        parse_poset("elements=2\n1 << 2\n")
    with pytest.raises(ParseError):
        parse_digraph("vertices=2\n1 - 2\n")


@pytest.mark.parametrize("member", ["{1,,2}", "{1 2}", "{1,}", "{,}", "{,1}"])
def test_malformed_family_members_are_parse_errors(tmp_path, capsys, member):
    with pytest.raises(ParseError):
        parse_family(f"n=3\n{member}\n")
    fam = write(tmp_path, "bad.txt", f"n=3\n{member}\n")
    assert main(["check-saturated", "--family", fam, "--poset", "name=X"]) == 3
    assert "parse error" in capsys.readouterr().err


MALFORMED_MEMBERS = ["{1,,2}", "{1 2}", "{1,}", "{,}", "{,1}", "1,2", "{1,2", "(1,2}", "{1,2)", "{{1}}", "{}}", "{a}", "{-1}", "{"]


@st.composite
def member_lines(draw, n: int) -> str:
    elems = draw(st.lists(st.integers(0, n + 2), max_size=6))
    spell = draw(st.sampled_from(["canonical", "raw", "spaced", "zeros", "malformed", "blank"]))
    if spell == "canonical":
        line = "{" + ",".join(str(e) for e in sorted(set(elems)) if 1 <= e <= n) + "}"
    elif spell == "raw":  # unordered, repeats, 0 and elements above n
        line = "{" + ",".join(map(str, elems)) + "}"
    elif spell == "spaced":
        line = "{ " + " , ".join(map(str, elems)) + " }"
    elif spell == "zeros":
        line = "{" + ",".join(f"0{e}" for e in elems) + "}"
    elif spell == "malformed":
        line = draw(st.sampled_from(MALFORMED_MEMBERS))
    else:
        line = ""
    return draw(st.sampled_from(["", "  ", "\t"])) + line + draw(st.sampled_from(["", " ", "  # note"]))


@st.composite
def family_texts(draw) -> str:
    n = draw(st.integers(0, 12))
    header = draw(st.sampled_from([f"n={n}", f" n={n}  # ground set", "n=x"]))
    lines = draw(st.lists(member_lines(n), max_size=12))
    return "\n".join(["# a family", header, *lines]) + "\n"


def parse_outcome(parse, text: str):
    try:
        F = parse(text)
    except PosatError as exc:
        return type(exc).__name__, str(exc)
    return F.n, F.members


@settings(max_examples=400, deadline=None)
@given(family_texts())
def test_parse_family_matches_the_plain_parser(text):
    # the same family, or the same error and message, for every spelling
    assert parse_outcome(parse_family, text) == parse_outcome(plain_parse_family, text)


@pytest.mark.parametrize("text", [
    "n=3\n{1,1}\n{3,1}\n{02}\n{ 2 }\n{ }\n{}\n",
    "n=3\n{1,2,3}\n{4}\n",
    "n=3\n{0}\n",
    "n=80\n{70}\n",
    "n=80\n{1,,2}\n",
    *(f"n=3\n{{1}}\n{member}\n" for member in MALFORMED_MEMBERS),
])
def test_parse_family_matches_the_plain_parser_on_hand_texts(text):
    assert parse_outcome(parse_family, text) == parse_outcome(plain_parse_family, text)


MALFORMED_EDGES = ["1 - 2", "1->", "-> 2", "1 -> 2 -> 3", "a -> 1", "1 -> -2", "1 => 2", "1 <- 2", "->", "1,2"]


@st.composite
def edge_lines(draw, n: int) -> str:
    # vertices 0..n + 2 (out of range at both ends) and loops, in every spelling
    u, v = draw(st.integers(0, n + 2)), draw(st.integers(0, n + 2))
    spell = draw(st.sampled_from(["canonical", "tight", "wide", "zeros", "malformed", "blank"]))
    if spell == "canonical":
        line = f"{u} -> {v}"
    elif spell == "tight":
        line = f"{u}->{v}"
    elif spell == "wide":
        line = f"{u}  ->\t{v}"
    elif spell == "zeros":
        line = f"0{u} -> {v}"
    elif spell == "malformed":
        line = draw(st.sampled_from(MALFORMED_EDGES))
    else:
        line = ""
    return draw(st.sampled_from(["", "  ", "\t"])) + line + draw(st.sampled_from(["", " ", "  # note"]))


@st.composite
def digraph_texts(draw) -> str:
    # 300 vertices outgrow the lookup table of a short text: the high ones
    # take the validating path
    n = draw(st.one_of(st.integers(0, 12), st.just(300)))
    header = draw(st.sampled_from([f"vertices={n}", f" vertices={n}  # size", "vertices=x"]))
    lines = draw(st.lists(edge_lines(n), max_size=12))
    return "\n".join(["# a digraph", header, *lines]) + "\n"


def digraph_outcome(parse, text: str):
    try:
        D = parse(text)
    except PosatError as exc:
        return type(exc).__name__, str(exc)
    return D.vertex_count, D.edges


@settings(max_examples=400, deadline=None)
@given(digraph_texts())
def test_parse_digraph_matches_the_plain_parser(text):
    # the same digraph, or the same error and message, for every spelling
    assert digraph_outcome(parse_digraph, text) == digraph_outcome(plain_parse_digraph, text)


@pytest.mark.parametrize("text", [
    "vertices=3\n1 -> 2\n2 -> 1\n1 -> 2\n3->1\n02 -> 3\n",
    "vertices=3\n2 -> 2\n",
    "vertices=3\n1 -> 4\n",
    "vertices=3\n0 -> 1\n",
    "vertices=0\n1 -> 2\n",
    "vertices=300\n1 -> 299\n",
    "vertices=20\n1 2 -> 3\n",
    *(f"vertices=3\n1 -> 2\n{edge}\n" for edge in MALFORMED_EDGES),
])
def test_parse_digraph_matches_the_plain_parser_on_hand_texts(text):
    assert digraph_outcome(parse_digraph, text) == digraph_outcome(plain_parse_digraph, text)


def test_dot_outputs_are_wellformed():
    assert poset_dot(catalog("diamond")).startswith("digraph")
    assert 'label="{1,2}"' in family_dot(SetFamily.of(2, [0b11, 0b01]))
    assert "v1 -> v2" in digraph_dot(Digraph.of(2, [(0, 1)]))


def test_dot_outputs_keep_their_exact_text():
    assert poset_dot(catalog("diamond")) == (
        'digraph hasse {\n  rankdir=BT;\n  v1 [label="1"];\n  v2 [label="2"];\n  v3 [label="3"];\n'
        '  v4 [label="4"];\n  v1 -> v2;\n  v1 -> v3;\n  v2 -> v4;\n  v3 -> v4;\n}\n')
    assert family_dot(SetFamily.of(2, [0b01, 0b11])) == (
        'digraph family {\n  rankdir=BT;\n  v0 [label="{1}"];\n  v1 [label="{1,2}"];\n  v0 -> v1;\n}\n')
    assert digraph_dot(Digraph.of(2, [(0, 1)])) == 'digraph d {\n  v1 [label="1"];\n  v2 [label="2"];\n  v1 -> v2;\n}\n'


# -- CLI ----------------------------------------------------------------------

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_check_saturated_verdicts(tmp_path, capsys):
    sat = write(tmp_path, "sat.txt", "n=3\n{}\n{1}\n{1,2}\n{1,2,3}\n")
    assert main(["check-saturated", "--family", sat, "--poset", "name=antichain:2"]) == 0
    assert "saturated=true" in capsys.readouterr().out
    unsat = write(tmp_path, "unsat.txt", "n=3\n{}\n{1,2,3}\n")
    assert main(["check-saturated", "--family", unsat, "--poset", "name=antichain:2"]) == 1
    assert "addable=" in capsys.readouterr().out


def test_cli_satstar_exact(tmp_path, capsys):
    assert main(["satstar", "--n", "3", "--poset", "name=fork"]) == 0
    out = capsys.readouterr().out
    # fork's dual has legs: n + 1 = 4 meets the greedy family
    assert "lower=4 kind=legs" in out
    assert "upper=4 kind=greedy" in out and "exact=true" in out and "witness:" in out


def test_cli_satstar_stats(capsys):
    # the same output with the counters after it, one key=value per line
    argv = ["satstar", "--n", "4", "--poset", "name=diamond"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--stats"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)
    stats = dict(line.split("=", 1) for line in out[len(plain):].splitlines())
    assert list(stats) == ["nodes", "leaves", "symmetry_prunes", "lookahead_prunes", "queries",
                           "level_seconds", "copies", "build_seconds", "need_prunes"]
    assert int(stats["nodes"]) >= int(stats["leaves"]) > 0 and int(stats["copies"]) > 0
    # no search ran: no counters
    assert main(["satstar", "--n", "3", "--poset", "name=fork", "--stats"]) == 0
    assert capsys.readouterr().out.endswith("stats=none\n")


def test_cli_satstar_json(tmp_path, capsys):
    # one JSON object with the fields of the API result
    diamond = catalog("diamond")
    assert main(["satstar", "--n", "4", "--poset", "name=diamond", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    res = exact_sat_star(4, [diamond])
    assert list(got) == ["n", "lower_bound", "lower_kind", "upper_bound", "upper_kind", "exact", "witness", "stats"]
    assert (got["n"], got["lower_bound"], got["lower_kind"], got["upper_bound"], got["upper_kind"], got["exact"]) == (
        res.n, res.lower_bound, res.lower_kind, res.upper_bound, res.upper_kind, res.exact)
    witness = SetFamily.of(4, [mask_of(elems) for elems in got["witness"]])
    assert witness == res.witness and is_induced_saturated(witness, [diamond]).saturated
    assert list(got["stats"]) == list(res.stats._fields)
    assert got["stats"]["level_seconds"] and all(len(pair) == 2 for pair in got["stats"]["level_seconds"])
    seconds = {"level_seconds", "build_seconds"}
    assert {k: v for k, v in got["stats"].items() if k not in seconds} == {
        k: v for k, v in res.stats._asdict().items() if k not in seconds}
    # no search ran: null stats, and --out takes the object
    out = tmp_path / "bounds.json"
    assert main(["satstar", "--n", "4", "--poset", "name=Yinv", "--bounds", "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    got = json.loads(out.read_text())
    assert got["stats"] is None and (got["lower_bound"], got["upper_bound"], got["exact"]) == (5, 6, False)
    assert got["witness"] == [elems_of(m) for m in certified_bounds(4, [catalog("Yinv")]).witness.members]


def test_cli_satstar_json_and_stats_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["satstar", "--n", "3", "--poset", "name=fork", "--json", "--stats"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_satstar_bounds(capsys):
    assert main(["satstar", "--n", "4", "--poset", "name=X", "--bounds"]) == 0
    out = capsys.readouterr().out
    # the double-legs bound 2n + 2 meets the verified x_upper family
    assert "lower=10 kind=double_legs" in out and "upper=10 kind=x_upper" in out
    assert "exact=true" in out
    assert main(["satstar", "--n", "4", "--poset", "name=Yinv", "--bounds"]) == 0
    out = capsys.readouterr().out
    assert "lower=5 kind=legs" in out and "upper=6 kind=complement:y_upper" in out
    assert "exact=false" in out


def test_cli_satstar_too_large_exit_code(capsys):
    # diamond's certified bounds at n = 9 (1..10) stay open, and the exact
    # search stops at n = 8 (SEARCH_CAP): resource limit, exit 4
    assert main(["satstar", "--n", "9", "--poset", "name=diamond"]) == 4
    assert "resource limit" in capsys.readouterr().err
    # over 2^20 sets greedy is left out, and no construction is saturated
    assert main(["satstar", "--n", "21", "--poset", "name=diamond"]) == 4
    assert "resource limit" in capsys.readouterr().err


def test_cli_satstar_negative_n_exit_code(capsys):
    # a negative ground-set size is a usage error, with or without --bounds
    for extra in ([], ["--bounds"]):
        assert main(["satstar", "--n", "-1", "--poset", "name=fork", *extra]) == 2
        assert "ground-set size" in capsys.readouterr().err


def test_cli_satstar_certified_beyond_the_lane_cap(capsys):
    # fork's certified bounds meet at n = 9, so no search is needed
    assert main(["satstar", "--n", "9", "--poset", "name=fork"]) == 0
    out = capsys.readouterr().out
    assert "lower=10" in out and "exact=true" in out


def test_cli_check_saturated_sweep_cap_exit_code(tmp_path, capsys):
    # a maximal chain over [21] has no twins: 2^21 orbits, over the cap
    chain = "".join("{" + ",".join(map(str, range(1, k + 1))) + "}\n" for k in range(22))
    fam = write(tmp_path, "chain.txt", "n=21\n" + chain)
    assert main(["check-saturated", "--family", fam, "--poset", "name=antichain:2"]) == 4
    assert "resource limit" in capsys.readouterr().err


def test_cli_construct_roundtrips(tmp_path, capsys):
    out_file = str(tmp_path / "fam.txt")
    assert main(["construct", "--name", "x-upper", "--n", "5", "--out", out_file]) == 0
    F = parse_family((tmp_path / "fam.txt").read_text())
    assert len(F) == 12
    assert main(["construct", "--name", "wedge", "--n", "6"]) == 2  # missing --l
    assert main(["construct", "--name", "unique-pairs", "--n", "9"]) == 0
    # --l is taken by wedge and xell only
    for name in ("unique-pairs", "y-upper", "x-upper"):
        assert main(["construct", "--name", name, "--n", "4", "--l", "7"]) == 2
        assert "--l not taken" in capsys.readouterr().err
    assert main(["construct", "--name", "wedge", "--n", "6", "--l", "2"]) == 0


def test_cli_blowup(tmp_path, capsys):
    fam = write(tmp_path, "f.txt", "n=2\n{1}\n{2}\n")
    assert main(["blowup", "--family", fam, "--i", "1"]) == 0
    out = capsys.readouterr().out
    assert "n=3" in out and "{1,3}" in out and "{2}" in out


def test_cli_digraph_actions(tmp_path, capsys):
    fam = write(tmp_path, "f.txt", "n=2\n{1}\n{2}\n")
    assert main(["digraph", "aux", "--family", fam]) == 0
    assert "vertices=2" in capsys.readouterr().out
    good = write(tmp_path, "d.txt", "vertices=3\n1 -> 2\n2 -> 3\n")
    assert main(["digraph", "tc-check", "--digraph", good]) == 0
    assert "transitive_cycle=none" in capsys.readouterr().out
    bad = write(tmp_path, "tc.txt", "vertices=3\n1 -> 2\n2 -> 3\n1 -> 3\n")
    assert main(["digraph", "tc-check", "--digraph", bad]) == 1
    assert "transitive_cycle=1,2,3" in capsys.readouterr().out
    cyc = write(tmp_path, "cyc.txt", "vertices=3\n1 -> 2\n2 -> 3\n3 -> 1\n")
    assert main(["digraph", "contract", "--digraph", cyc, "--cycle", "1,2,3"]) == 0
    assert "vertices=1" in capsys.readouterr().out
    assert main(["digraph", "turan", "--n", "4"]) == 0
    assert main(["digraph", "brute-max", "--n", "3"]) == 0
    assert "max_edges=4" in capsys.readouterr().out


@pytest.mark.parametrize("edge, message", [
    ("0 -> 1", "vertex out of range in '0 -> 1'"),
    ("1 -> 3", "vertex out of range in '1 -> 3'"),
    ("1 -> 1", "loop in '1 -> 1'"),
])
def test_cli_bad_digraph_edges_are_parse_errors(tmp_path, capsys, edge, message):
    bad = write(tmp_path, "bad.txt", f"vertices=2\n{edge}\n")
    assert main(["digraph", "tc-check", "--digraph", bad]) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_cli_legs_and_dual(capsys):
    assert main(["legs", "--poset", "name=X"]) == 0
    assert "legs=1,2 hip=3" in capsys.readouterr().out
    assert main(["legs", "--poset", "name=diamond"]) == 1
    capsys.readouterr()
    assert main(["dual", "--poset", "name=Yinv"]) == 0
    assert main(["dot", "--poset", "name=fork"]) == 0
    out = capsys.readouterr().out
    assert "elements=4" in out


def test_cli_export_dot(tmp_path, capsys):
    assert main(["export-dot", "--poset", "name=diamond"]) == 0
    assert "digraph" in capsys.readouterr().out
    fam = write(tmp_path, "f.txt", "n=2\n{1}\n{1,2}\n")
    assert main(["export-dot", "--family", fam]) == 0
    d = write(tmp_path, "d.txt", "vertices=2\n1 -> 2\n")
    assert main(["export-dot", "--digraph", d]) == 0


def test_cli_error_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.txt", "nonsense\n")
    assert main(["check-saturated", "--family", bad, "--poset", "name=X"]) == 3
    assert main(["legs", "--poset", str(tmp_path / "missing.txt")]) == 3
    assert main(["digraph", "brute-max", "--n", str(BRUTEFORCE_CAP + 1)]) == 4
    assert main(["satstar", "--n", "3", "--poset", "name=chain:1"]) == 2


def test_cli_verify_fast(capsys):
    labels = [c.label for c in verify.CHECKS]
    assert len(set(labels)) == len(labels)
    assert main(["verify", "--fast"]) == 0
    k = sum(c.fast for c in verify.CHECKS)
    assert capsys.readouterr().out.splitlines()[-1] == f"{k}/{k} checks passed"


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["satstar", "--poset", "name=X"])  # missing --n
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_digraph_usage_error_exit_code(tmp_path, capsys):
    # each action takes only its own inputs; a missing or malformed one is a
    # usage error, not a traceback
    d = write(tmp_path, "cyc.txt", "vertices=3\n1 -> 2\n2 -> 3\n3 -> 1\n")
    for argv in (
        [],
        ["aux"],
        ["tc-check"],
        ["tc-check", "--digraph", d, "--out", str(tmp_path / "out.txt")],
        ["contract", "--cycle", "1,2,3"],
        ["contract", "--digraph", d],
        ["contract", "--digraph", d, "--cycle", "1,a"],
        ["turan"],
        ["brute-max"],
        ["brute-max", "--n", "3", "--family", d],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["digraph", *argv])
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_cli_time_limit_env(monkeypatch, capsys):
    monkeypatch.setenv("POSAT_TIME_LIMIT_SECS", "0.000001")
    assert main(["satstar", "--n", "4", "--poset", "name=N"]) == 4
    out = capsys.readouterr().out
    assert "exact=false" in out


def test_cli_bad_time_limit_is_a_usage_error(monkeypatch, tmp_path, capsys):
    # the environment's limit is read only by satstar: a malformed one is a
    # usage error there and ignored by every other command
    monkeypatch.setenv("POSAT_TIME_LIMIT_SECS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["satstar", "--n", "3", "--poset", "name=fork"])
    assert exc.value.code == 2
    assert main(["dual", "--poset", "name=fork", "--out", str(tmp_path / "dual.txt")]) == 0
    monkeypatch.delenv("POSAT_TIME_LIMIT_SECS")
    for value in ("nan", "inf", "-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["satstar", "--n", "3", "--poset", "name=fork", "--time-limit", value])
        assert exc.value.code == 2, value
    assert "finite number of seconds" in capsys.readouterr().err
    # a limit of 0 is a limit; the certified bounds settle the fork at n = 3
    assert main(["satstar", "--n", "3", "--poset", "name=fork", "--time-limit", "0"]) == 0
