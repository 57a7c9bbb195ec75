"""Digraphs: auxiliary construction, transitive cycles, contraction, and
the extremal oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posat import (
    Digraph,
    SetFamily,
    auxiliary_digraph,
    contract_cycle,
    digraph_lower_bound_check,
    find_induced_oriented_cycle,
    has_transitive_cycle,
    is_tc_free,
    max_tc_free_edges_bruteforce,
    turan_bipartite,
    unique_pair_family,
)
from posat.digraph import BRUTEFORCE_CAP, is_induced_oriented_cycle
from posat.errors import BadParam, HypothesisFails, NotAnInducedCycle, TooLarge

from conftest import (
    brute_first_transitive_cycle,
    brute_max_tc_free,
    brute_singleton_difference_pairs,
    plain_max_tc_free,
)


def digraphs(max_v=6):
    return st.integers(1, max_v).flatmap(
        lambda v: st.builds(
            Digraph.of,
            st.just(v),
            st.sets(
                st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=v * (v - 1),
            ),
        )
    )


# -- dataclass ----------------------------------------------------------------

def test_digraph_validation():
    with pytest.raises(BadParam):
        Digraph.of(2, [(0, 0)])
    with pytest.raises(BadParam):
        Digraph.of(2, [(0, 5)])


# -- auxiliary digraph --------------------------------------------------------

def test_auxiliary_digraph_hand_family():
    # members sort to {1}, {2}, {1,2}; both ground elements pick the
    # singleton pair over the pair through {1,2}
    F = SetFamily.of(2, [0b01, 0b11, 0b10])
    D = auxiliary_digraph(F)
    assert D.vertex_count == 3
    assert D.edges == frozenset({(0, 1), (1, 0)})


def test_auxiliary_digraph_picks_lex_smallest_pair():
    # element 1 has pairs ({1},{2}) and ({1,3},{2,3}); indices (0,1) win
    F = SetFamily.of(3, [0b001, 0b010, 0b101, 0b110])
    D = auxiliary_digraph(F)
    assert (0, 1) in D.edges


def test_auxiliary_digraph_reports_failing_element():
    F = SetFamily.of(3, [0, 0b111])
    with pytest.raises(HypothesisFails) as exc:
        auxiliary_digraph(F)
    assert exc.value.index == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.builds(SetFamily.of, st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=8))
    )
)
def test_auxiliary_digraph_matches_a_naive_pair_scan(F):
    pairs = [brute_singleton_difference_pairs(F.members, i) for i in range(1, F.n + 1)]
    uncovered = next((i for i, p in enumerate(pairs, 1) if not p), None)
    assert digraph_lower_bound_check(F).failing_i == uncovered
    if uncovered is None:
        assert auxiliary_digraph(F).edges == frozenset(p[0] for p in pairs)
    else:
        with pytest.raises(HypothesisFails) as exc:
            auxiliary_digraph(F)
        assert exc.value.index == uncovered


def test_auxiliary_digraph_has_n_edges_when_defined():
    F = unique_pair_family(9)
    D = auxiliary_digraph(F)
    assert D.edge_count() == 9
    assert is_tc_free(D)


# -- transitive cycles --------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(digraphs(5))
def test_tc_detection_matches_bruteforce(D):
    witness = has_transitive_cycle(D)
    first = brute_first_transitive_cycle(D)
    assert (witness is None) == (first is None) == is_tc_free(D)
    if witness is not None:
        k = len(witness)
        assert k >= 3
        assert (witness[0], witness[-1]) in D.edges
        assert all((witness[j], witness[j + 1]) in D.edges for j in range(k - 1))
        # the first chord in sorted edge order, closed by a shortest path
        assert first == ((witness[0], witness[-1]), k)


def test_double_edge_is_not_a_transitive_cycle():
    assert is_tc_free(Digraph.of(2, [(0, 1), (1, 0)]))


def test_smallest_transitive_cycle():
    D = Digraph.of(3, [(0, 1), (1, 2), (0, 2)])
    assert has_transitive_cycle(D) == [0, 1, 2]


# -- induced cycles and contraction ------------------------------------------

def test_find_induced_cycle_prefers_shortest():
    D = Digraph.of(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    C = find_induced_oriented_cycle(D)
    assert sorted(C) == [0, 1]
    assert is_induced_oriented_cycle(D, C)


def test_contract_cycle_hand_case():
    # triangle 0 -> 1 -> 2 -> 0 with a pendant edge 3 -> 0
    D = Digraph.of(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    C = find_induced_oriented_cycle(D)
    assert sorted(C) == [0, 1, 2]
    D2 = contract_cycle(D, C)
    assert D2.vertex_count == 2
    assert D2.edges == frozenset({(0, 1)})  # pendant vertex -> contracted vertex


def test_contract_rejects_chorded_cycle():
    D = Digraph.of(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    with pytest.raises(NotAnInducedCycle):
        contract_cycle(D, [0, 1, 2])


@settings(max_examples=120, deadline=None)
@given(digraphs(6))
def test_contraction_drops_exactly_the_cycle_edges(D):
    if has_transitive_cycle(D) is not None:
        return
    C = find_induced_oriented_cycle(D)
    if C is None:
        return
    D2 = contract_cycle(D, C)
    assert D2.vertex_count == D.vertex_count - len(C) + 1
    assert D2.edge_count() == D.edge_count() - len(C)
    assert is_tc_free(D2)


# -- extremal oracles ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_turan_bipartite_is_extreme_and_free(n):
    D = turan_bipartite(n)
    assert D.edge_count() == n * n // 4
    assert is_tc_free(D)


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 2), (3, 4)])
def test_brute_max_matches_independent_enumeration(n, expected):
    count, witness = max_tc_free_edges_bruteforce(n)
    # the count and the lexicographically smallest maximizer
    assert brute_max_tc_free(n) == (expected, witness.sorted_edges())
    assert count == expected
    assert witness.edge_count() == count
    assert is_tc_free(witness)


def test_brute_max_n4_against_full_enumeration():
    # the count and the lexicographically smallest maximizer
    count, witness = max_tc_free_edges_bruteforce(4)
    assert (count, witness.sorted_edges()) == brute_max_tc_free(4)
    assert count == 6


def test_brute_max_n5_attains_the_plus_two():
    count, witness = max_tc_free_edges_bruteforce(5)
    assert count == 8 == 5 * 5 // 4 + 2
    assert is_tc_free(witness) and witness.edge_count() == 8


@pytest.mark.parametrize("n", range(2, 7))
def test_brute_max_matches_the_plain_branch_and_bound(n):
    # the symmetry and degree-floor prunes keep the count and the witness
    count, witness = max_tc_free_edges_bruteforce(n)
    assert (count, witness.sorted_edges()) == plain_max_tc_free(n)


@pytest.mark.parametrize("n,expected", [(6, 10), (7, 12), (8, 16), (9, 20)])
def test_brute_max_pinned_values(n, expected):
    # 2(n - 1) up to n = 7, floor(n^2/4) from n = 7 on
    count, witness = max_tc_free_edges_bruteforce(n)
    assert count == expected
    assert witness.vertex_count == n and witness.edge_count() == count
    assert is_tc_free(witness)
    if n >= 8:
        # the lexicographically smallest maximizer: 0 -> {1..m} -> {m+1..n-1}
        middle, top = range(1, (n + 1) // 2 + 1), range((n + 1) // 2 + 1, n)
        assert witness.sorted_edges() == [(0, b) for b in middle] + [(a, b) for a in middle for b in top]


def test_brute_max_is_capped():
    with pytest.raises(TooLarge):
        max_tc_free_edges_bruteforce(BRUTEFORCE_CAP + 1)
