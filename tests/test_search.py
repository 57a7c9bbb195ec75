"""Greedy and exact minimum-saturated-size search, plus the certificates."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from posat import (
    SearchConfig,
    SetFamily,
    blow_up,
    boundedness_witness_check,
    catalog,
    catalog_small,
    digraph_lower_bound_check,
    dual,
    exact_sat_star,
    greedy_saturate,
    is_induced_saturated,
    isomorphism_classes,
    legs_lower_bound,
    legs_witness_map,
    unique_pair_family,
    x_upper_family,
    y_upper_family,
)
from posat import search
from posat.errors import BadN, BadParam, NoLegs, NotSaturated, TooLarge
from posat.family import InclusionRows, SaturationReport
from posat.poset import EmbeddingWitness, LegsWitness, has_pinned_copy, induced_copies
from posat.search import SatStarResult, TranspositionLanes, _CopyTable, _deepen, certified_bounds

from conftest import (
    all_posets,
    brute_first_saturated_n3,
    brute_has_induced_copy,
    brute_sat_star_n3,
    counted_greedy,
)


# -- greedy -------------------------------------------------------------------

def test_greedy_result_is_saturated():
    for name in ("fork", "diamond", "Yinv", "N"):
        P = catalog(name)
        F = greedy_saturate(3, [P])
        assert is_induced_saturated(F, [P]).saturated


def test_greedy_is_the_ascending_scan():
    # a mask joins iff it completes no copy with the members below it
    for P in isomorphism_classes(catalog_small(5)):
        F = greedy_saturate(3, [P])
        for s in range(8):
            below = tuple(m for m in F.members if m < s)
            assert (s in F.members) == (not brute_has_induced_copy(below + (s,), P, pinned=len(below))), (P, s)


@pytest.mark.parametrize("n", range(3, 9))
def test_greedy_matches_the_counted_scan(n):
    # the blocked test writes no row, so greedy pushes only what it keeps
    lists = [[P] for P in isomorphism_classes(catalog_small(5))]
    lists.append([catalog("chain", 3), catalog("antichain", 3)])
    for forbidden in lists:
        assert greedy_saturate(n, forbidden).members == counted_greedy(n, forbidden), forbidden


def test_greedy_sweep_is_capped():
    # 2^21 sets are over SWEEP_CAP = 2^20: raised before any scan
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        greedy_saturate(21, [catalog("diamond")])
    # above the cap the certified bounds try the constructions only
    res = certified_bounds(64, [catalog("X")])
    assert res.exact and res.lower_bound == res.upper_bound == 130
    assert (res.lower_kind, res.upper_kind) == ("double_legs", "x_upper")
    res = certified_bounds(21, [catalog("Yinv")])
    assert (res.lower_bound, res.upper_bound, res.upper_kind) == (22, 23, "complement:y_upper")
    # greedy's place goes to {∅} and ∅ plus the singletons, the diamond's n + 1
    res = certified_bounds(21, [catalog("diamond")])
    assert (res.lower_bound, res.upper_bound, res.upper_kind) == (1, 22, "star")
    assert time.monotonic() - t0 < 1


def test_negative_n_is_bad_n():
    for run in (greedy_saturate, certified_bounds, exact_sat_star):
        with pytest.raises(BadN):
            run(-1, [catalog("fork")])


# -- exact search -------------------------------------------------------------

@pytest.mark.parametrize("name", ["fork", "diamond", "Yinv", "N"])
def test_exact_matches_full_enumeration_at_n3(name):
    P = catalog(name)
    res = exact_sat_star(3, [P])
    assert res.exact
    assert res.lower_bound == res.upper_bound == brute_sat_star_n3(P)
    assert is_induced_saturated(res.witness, [P]).saturated
    assert len(res.witness) == res.upper_bound


def test_exact_witness_attains_the_bound():
    res = exact_sat_star(3, [catalog("X")])
    assert res.exact and len(res.witness) == res.lower_bound


SELF_DUAL = {"N": catalog("N"), "chain(3)": catalog("chain", 3), "antichain(3)": catalog("antichain", 3)}


@pytest.mark.parametrize("name", ["fork", "diamond", "Yinv", *SELF_DUAL])
def test_symmetry_reduction_changes_nothing(name):
    # the diamond, N, chain(3) and antichain(3) are self-dual: their search
    # also prunes by complementation
    P = SELF_DUAL.get(name) or catalog(name)
    plain = _deepen(4, [P], certified_bounds(4, [P]), symmetry=False)
    pruned = exact_sat_star(4, [P])
    assert plain.lower_bound == pruned.lower_bound
    assert plain.exact and pruned.exact
    # the first maximal free set in lex order is the smallest in its orbit
    assert plain.witness == pruned.witness


def test_symmetry_reduction_keeps_the_witness_at_n3():
    for P in isomorphism_classes(catalog_small(5)):
        plain = _deepen(3, [P], certified_bounds(3, [P]), symmetry=False)
        pruned = exact_sat_star(3, [P])
        assert plain.exact and pruned.exact
        assert plain.witness == pruned.witness


def permuted(perm, masks):
    """The masks with ground element i renamed perm[i], sorted."""
    return sorted(sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1) for m in masks)


def complemented(n, masks):
    """The masks with every member complemented in [n], sorted."""
    return sorted(m ^ (1 << n) - 1 for m in masks)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_packed_lanes_match_sorting_under_every_permutation(n):
    swaps = []
    for i, j in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[i], perm[j] = j, i
        swaps.append(perm)
    rng = random.Random(n)
    for complement in (False, True):
        lanes = TranspositionLanes.build(n, complement)
        maps = [lambda masks, perm=perm: permuted(perm, masks) for perm in swaps]
        if complement:
            # complementation, then complementation after each (i j)
            maps += [lambda masks, perm=perm: complemented(n, permuted(perm, masks))
                     for perm in [list(range(n))] + swaps]
        assert len(lanes.image) == 1 << n and lanes.ones.bit_count() == len(maps)
        assert len(swaps) == n * (n - 1) // 2

        def sample():
            # masks below a random 2^j, so that some sets are smallest in
            # their orbit; with complementation, also above 2^n - 2^j
            span = 1 << rng.randint(1, n)
            chosen = sorted(rng.sample(range(span), rng.randint(1, min(8, span))))
            if complement and rng.random() < 0.5:
                chosen = sorted(set(chosen) | set(complemented(n, rng.sample(chosen, rng.randint(1, len(chosen))))))
            return chosen

        # at n = 5 complementation alone maps this set lower, no other lane
        only_complement = [[0, 3, 5, 11, 21, 26, 28, 31]] if complement and n == 5 else []
        for chosen in only_complement + [sample() for _ in range(300)]:
            images = marks = 0
            for m in chosen:
                images |= lanes.image[m]
                marks |= lanes.ones << m
            passes = lanes.canonical(images, marks)
            assert passes == all(g(chosen) >= chosen for g in maps), (complement, chosen)
            assert not (passes and chosen in only_complement)
            # the soundness the witnesses rely on: a set that is smallest under
            # all n! permutations (and their complements) passes, so a set that
            # fails is not smallest
            images = (permuted(perm, chosen) for perm in itertools.permutations(range(n)))
            assert passes or any(g < chosen or complement and complemented(n, g) < chosen for g in images)


def test_time_limit_returns_sound_bounds():
    res = exact_sat_star(4, [catalog("N")], SearchConfig(time_limit=1e-9))
    assert not res.exact
    assert 1 <= res.lower_bound <= res.upper_bound
    assert is_induced_saturated(res.witness, [catalog("N")]).saturated


def test_time_limit_holds_inside_the_lookahead():
    # N at n = 6 stays open after 90 s; the deadline is checked per query
    t0 = time.monotonic()
    res = exact_sat_star(6, [catalog("N")], SearchConfig(time_limit=0.5))
    assert time.monotonic() - t0 < 1.5
    assert not res.exact
    assert res.lower_bound <= 12 <= res.upper_bound
    assert len(res.witness) == res.upper_bound
    assert is_induced_saturated(res.witness, [catalog("N")]).saturated
    assert res.stats is not None and res.stats.nodes > 0


def test_time_limit_covers_the_copy_table_build():
    # the diamond has no legs on either side, so its bounds at n = 7 (1..8)
    # leave a search; the limit is shorter than the copy-table build (about
    # 0.7 s on a 2-core x86_64 box), and whichever phase it cuts, the bounds
    # stay sound: 6 is searched out and 8 is greedy's n + 1
    t0 = time.monotonic()
    res = exact_sat_star(7, [catalog("diamond")], SearchConfig(time_limit=0.2))
    assert time.monotonic() - t0 < 1.5
    assert not res.exact
    assert res.lower_bound <= 7 and res.upper_bound == len(res.witness) == 8
    assert is_induced_saturated(res.witness, [catalog("diamond")]).saturated
    # fork's dual has legs: n + 1 = 9 meets greedy, so no search starts
    res = exact_sat_star(8, [catalog("fork")], SearchConfig(time_limit=1))
    assert res.exact and res.lower_bound == res.upper_bound == 9
    assert res.lower_kind == "legs" and res.upper_kind == "greedy"


def test_copy_table_cap_stops_the_diamond_at_n8():
    # the diamond's copies in 2^[8] cross SWEEP_CAP memberships during the
    # enumeration, with no time limit set
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        exact_sat_star(8, [catalog("diamond")])
    assert time.monotonic() - t0 < 5


def test_copy_table_is_capped():
    # N has 388,206 copies in 2^[7] and more in 2^[8]: their memberships
    # cross SWEEP_CAP early in the enumeration, with no time limit set
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        exact_sat_star(8, [catalog("N")])
    assert time.monotonic() - t0 < 5


def test_symmetry_tables_are_capped_before_any_work():
    # the cap (n <= SEARCH_CAP = 8) applies only when a search is left:
    # fork's legs bound n + 1 meets the complement of ∅ plus the singletons
    res = exact_sat_star(9, [catalog("fork")])
    assert res.exact and res.lower_bound == res.upper_bound == 10 and res.lower_kind == "legs"
    # the time limits turn a missing cap into a fast failure, not a hang
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        exact_sat_star(9, [catalog("diamond")], SearchConfig(time_limit=3))
    assert time.monotonic() - t0 < 0.1
    # above the cap lex greedy never runs: with no legs certificate and
    # {∅} not saturated the bounds stay apart at n = 12
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        exact_sat_star(12, [catalog("diamond")], SearchConfig(time_limit=3))
    assert time.monotonic() - t0 < 0.5
    # the cap does not depend on the symmetry reduction
    bounds = certified_bounds(9, [catalog("diamond")])
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        _deepen(9, [catalog("diamond")], bounds, SearchConfig(time_limit=1e-9), symmetry=False)
    assert time.monotonic() - t0 < 0.1


def test_exact_search_never_runs_greedy_above_the_cap(monkeypatch):
    # above SEARCH_CAP only a family with exactly the lower bound's members
    # settles sat*, so the bounds come from the constructions alone
    def no_greedy(n, forbidden):
        raise AssertionError("greedy ran")

    monkeypatch.setattr(search, "greedy_saturate", no_greedy)
    for P in isomorphism_classes(catalog_small(5)):
        for Q in (P, dual(P)):
            for n in (9, 20):
                try:
                    res = exact_sat_star(n, [Q])
                except TooLarge:
                    continue
                assert res.exact and is_induced_saturated(res.witness, [Q]).saturated, (P, n)


def test_constructions_settle_the_bounds_above_the_cap():
    # a full greedy scan of the 2^20 masks took 16 s for Y and 5 min for
    # wedge(3); no construction meets their legs bound n + 1
    t0 = time.monotonic()
    for P in (catalog("Y"), catalog("Yinv"), catalog("wedge", 3), catalog("vee", 3)):
        with pytest.raises(TooLarge, match="no construction meets the lower bound 21"):
            exact_sat_star(20, [P])
    assert time.monotonic() - t0 < 2
    # {∅} for chain(2); ∅ plus the singletons for wedge(1) and its
    # complement for fork (dual(wedge(1))) meet the legs bound n + 1
    for n in (20, 64):
        t0 = time.monotonic()
        for P, value, kind in ((catalog("chain", 2), 1, "empty"), (catalog("fork"), n + 1, "complement:star"),
                               (catalog("wedge", 1), n + 1, "star")):
            res = exact_sat_star(n, [P])
            assert res.exact and res.lower_bound == res.upper_bound == len(res.witness) == value, (P, n)
            assert res.upper_kind == kind and res.stats is None, (P, n)
            assert is_induced_saturated(res.witness, [P]).saturated, (P, n)
        assert time.monotonic() - t0 < 0.5
    res = exact_sat_star(64, [catalog("X")])
    assert res.exact and res.lower_bound == res.upper_bound == 130 and res.upper_kind == "x_upper"


def test_constructions_above_the_cap_agree_with_greedy_on_every_small_poset():
    # at n = 9 greedy still runs in certified_bounds: wherever it lets the
    # bounds meet, the constructions alone settle the same value, and
    # everywhere else the exact search raises TooLarge
    for p in range(2, 6):
        for P in all_posets(p):
            want = certified_bounds(9, [P])
            if not want.exact:
                with pytest.raises(TooLarge):
                    exact_sat_star(9, [P])
                continue
            res = exact_sat_star(9, [P])
            assert res.exact and res.lower_bound == want.lower_bound == len(res.witness), P
            assert is_induced_saturated(res.witness, [P]).saturated, P


def test_all_posets_counts_the_classes():
    # 1, 2, 5, 16, 63 posets on 1..5 elements (OEIS A000112)
    assert [len(all_posets(p)) for p in range(1, 6)] == [1, 2, 5, 16, 63]


def test_the_search_keeps_no_member_rows(monkeypatch):
    # the DFS runs on the fixed rows of the cube: every mask is pushed once,
    # in order, when the rows are built
    P = catalog("N")
    bounds = search._greedy_bounds(4, [P])
    pushed = []
    push = InclusionRows.push

    def counting_push(self, m):
        pushed.append(m)
        push(self, m)

    # the cube's rows are built once per (n, closed): clear them so this
    # search builds its own
    search._cube.cache_clear()
    monkeypatch.setattr(InclusionRows, "push", counting_push)
    res = _deepen(4, [P], bounds)
    assert res.exact and res.lower_bound == 8 and res.witness == bounds.witness
    assert pushed == list(range(16))


def test_multiple_forbidden_posets_exact():
    chain3, anti3 = catalog("chain", 3), catalog("antichain", 3)
    res = exact_sat_star(3, [chain3, anti3])
    assert res.exact
    assert is_induced_saturated(res.witness, [chain3, anti3]).saturated


# The exact results of the 17 classes of catalog_small(5), as (lower_kind,
# upper_kind, witness); the bounds are the witness size.  Recorded before
# the search moved to the fixed rows of the cube, which must not change them.
EXACT_WITNESSES = {
    ('chain(2)', 3): ('trivial', 'greedy', (0,)),
    ('chain(2)', 4): ('trivial', 'greedy', (0,)),
    ('antichain(2)', 3): ('exhaustive', 'greedy', (0, 1, 3, 7)),
    ('antichain(2)', 4): ('exhaustive', 'greedy', (0, 1, 3, 7, 15)),
    ('chain(3)', 3): ('exhaustive', 'exhaustive', (0, 7)),
    ('chain(3)', 4): ('exhaustive', 'exhaustive', (0, 15)),
    ('antichain(3)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 5, 7)),
    ('antichain(3)', 4): ('exhaustive', 'greedy', (0, 1, 2, 3, 5, 7, 11, 15)),
    ('chain(4)', 3): ('exhaustive', 'exhaustive', (0, 1, 6, 7)),
    ('chain(4)', 4): ('exhaustive', 'exhaustive', (0, 1, 14, 15)),
    ('antichain(4)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('antichain(4)', 4): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7, 11, 13, 15)),
    ('chain(5)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('chain(5)', 4): ('exhaustive', 'exhaustive', (0, 1, 2, 3, 12, 13, 14, 15)),
    ('antichain(5)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('antichain(5)', 4): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15)),
    ('fork', 3): ('legs', 'greedy', (0, 1, 3, 7)),
    ('fork', 4): ('legs', 'greedy', (0, 1, 3, 7, 15)),
    ('diamond', 3): ('exhaustive', 'greedy', (0, 1, 2, 4)),
    ('diamond', 4): ('exhaustive', 'greedy', (0, 1, 2, 4, 8)),
    ('N', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 7)),
    ('N', 4): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 7, 8, 15)),
    ('Y', 3): ('exhaustive', 'y_upper', (0, 3, 5, 6, 7)),
    ('Y', 4): ('exhaustive', 'y_upper', (0, 7, 11, 13, 14, 15)),
    ('Yinv', 3): ('exhaustive', 'complement:y_upper', (0, 1, 2, 4, 7)),
    ('Yinv', 4): ('exhaustive', 'complement:y_upper', (0, 1, 2, 4, 8, 15)),
    # x_upper(3) is the whole cube, greedy's family, and meets the double
    # legs bound 8, so it settles sat* before greedy runs
    ('X', 3): ('double_legs', 'x_upper', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('X', 4): ('double_legs', 'x_upper', (0, 1, 2, 4, 7, 8, 11, 13, 14, 15)),
    ('wedge(1)', 3): ('legs', 'greedy', (0, 1, 2, 4)),
    ('wedge(1)', 4): ('legs', 'greedy', (0, 1, 2, 4, 8)),
    ('wedge(3)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('wedge(3)', 4): ('exhaustive', 'wedge_upper:2', (0, 1, 2, 3, 4, 8, 13, 14, 15)),
    ('vee(3)', 3): ('exhaustive', 'greedy', (0, 1, 2, 3, 4, 5, 6, 7)),
    ('vee(3)', 4): ('exhaustive', 'complement:wedge_upper:2', (0, 1, 2, 7, 11, 12, 13, 14, 15)),
}


def test_exact_witnesses_are_unchanged():
    classes = {P.name: P for P in isomorphism_classes(catalog_small(5))}
    assert {name for name, _ in EXACT_WITNESSES} == set(classes)
    for (name, n), (lower_kind, upper_kind, members) in EXACT_WITNESSES.items():
        res = exact_sat_star(n, [classes[name]])
        assert res.exact and res.lower_bound == res.upper_bound == len(members), (name, n)
        assert (res.lower_kind, res.upper_kind, res.witness.members) == (lower_kind, upper_kind, members), (name, n)


def open_bounds(n, forbidden):
    """Start bounds that prune nothing: 1 up to 2^n + 1, with no witness."""
    return SatStarResult(n, tuple(forbidden), 1, "trivial", (1 << n) + 1, "none", None, False)


def test_search_returns_the_brute_lex_first_family_at_n3():
    # the search returns the first maximal free family in (size, lex)
    # order, with or without the symmetry pruning, for the catalog classes
    # and every poset on 2..4 elements
    posets = catalog_small(5) + [P for p in range(2, 5) for P in all_posets(p)]
    for P in isomorphism_classes(posets):
        for Q in (P, dual(P)):
            brute = brute_first_saturated_n3(Q)
            for symmetry in (True, False):
                res = _deepen(3, [Q], open_bounds(3, [Q]), symmetry=symmetry)
                assert res.exact and res.witness.members == brute, (Q, symmetry)


@pytest.mark.parametrize("name", ["wedge", "vee"])
def test_wedge3_and_vee3_are_exact_at_n5(name):
    P = catalog(name, 3)
    res = exact_sat_star(5, [P])
    assert res.exact and res.lower_bound == res.upper_bound == 10
    assert res.lower_kind == "exhaustive"
    assert len(res.witness) == 10
    assert is_induced_saturated(res.witness, [P]).saturated


def test_search_stats_count_the_work():
    # no search, no stats: the certified bounds meet for X at n = 5
    assert exact_sat_star(5, [catalog("X")]).stats is None
    res = _deepen(4, [catalog("N")], open_bounds(4, [catalog("N")]), symmetry=False)
    st = res.stats
    assert res.exact and st is not None
    assert [k for k, _ in st.level_seconds] == list(range(1, res.lower_bound + 1))
    assert all(s >= 0 for _, s in st.level_seconds)
    assert st.symmetry_prunes == 0
    assert 1 <= st.leaves <= st.nodes
    # a lookahead prune is a node, a leaf that is not maximal included,
    # whose query found no copy, so never the witness leaf; each costs a
    # query
    assert 0 < st.lookahead_prunes < st.nodes
    assert st.lookahead_prunes <= st.queries
    pruned = _deepen(4, [catalog("N")], open_bounds(4, [catalog("N")])).stats
    assert pruned.symmetry_prunes > 0 and pruned.nodes < st.nodes


@pytest.mark.parametrize("name, n, tree, witness", [
    ("diamond", 6, (3_798, 167, 10_068), (0, 1, 2, 4, 8, 16, 32)),
    ("diamond", 5, (274, 43, 808), (0, 1, 2, 4, 8, 16)),
    ("Yinv", 5, (325, 0, 454), (0, 1, 2, 4, 8, 16, 31)),
    ("N", 4, (250, 9, 252), (0, 1, 2, 3, 4, 7, 8, 15)),
], ids=["diamond-6", "diamond-5", "Yinv-5", "N-4"])
def test_the_search_tree_is_pinned(name, n, tree, witness):
    # the tree a search walks: its nodes (leaves included), its leaves (the
    # need-0 nodes that the lookahead above them let through, maximal or
    # not) and its symmetry prunes; a change that keeps the lookahead's
    # answers keeps these, while its queries and the prunes it counts may
    # move
    res = exact_sat_star(n, [catalog(name)])
    st = res.stats
    assert res.exact and res.witness.members == witness
    assert (st.nodes, st.leaves, st.symmetry_prunes) == tree


@pytest.mark.parametrize("name, param", [("chain", 5), ("antichain", 4), ("antichain", 5), ("wedge", 3), ("vee", 3)])
def test_a_cube_with_no_copy_settles_without_a_search(name, param):
    # 2^[3] holds no copy, so it is free and the only maximal family
    res = exact_sat_star(3, [catalog(name, param)])
    assert res.exact and res.lower_bound == res.upper_bound == 8 and res.lower_kind == "exhaustive"
    assert res.witness.members == tuple(range(8))
    assert (res.stats.nodes, res.stats.copies, res.stats.level_seconds) == (0, 0, ())


def test_antichain5_is_exact_at_n5():
    P = catalog("antichain", 5)
    res = exact_sat_star(5, [P])
    assert res.exact and res.lower_bound == res.upper_bound == 18
    assert res.lower_kind == "exhaustive"
    assert len(res.witness) == 18
    assert is_induced_saturated(res.witness, [P]).saturated


# -- the copy table -----------------------------------------------------------

def test_copy_table_counts_the_copies_of_the_diamond_at_n4():
    P = catalog("diamond")
    brute = sum(brute_has_induced_copy(members, P) for members in itertools.combinations(range(16), 4))
    assert brute == 151
    st = exact_sat_star(4, [P]).stats
    assert st.copies == brute and st.build_seconds >= 0


@pytest.mark.parametrize("n, names", [(3, None), (4, None), (5, ("diamond", "N"))])
def test_copy_table_lists_the_copies_of_induced_copies(n, names):
    # the table reads the matcher's images: through[x] lists, in ascending
    # order, the copies through x that the mappings of induced_copies give
    total = 1 << n
    cube = InclusionRows(range(total))
    posets = isomorphism_classes(catalog_small(5)) if names is None else [catalog(name) for name in names]
    for P in posets:
        want = [[] for _ in range(total)]
        for w in induced_copies(P, cube.up, cube.down):
            for x in w.mapping:
                want[x].append(sum(1 << m for m in w.mapping))
        assert _CopyTable([P], cube, None).through == [sorted(copies) for copies in want], P


@pytest.mark.parametrize("n", range(5))
def test_copy_table_agrees_with_the_pinned_query(n):
    # the search's one query: a copy through x inside ``within`` exists iff
    # has_pinned_copy finds one through x on the rows of the masks in
    # ``within``, and the copy returned is an induced copy of a forbidden
    # poset through x inside ``within``; up to n = 3 it is the highest one
    # as a bitset of masks
    rng = random.Random(n)
    total = 1 << n
    cube = InclusionRows(range(total))
    lists = [[P] for P in isomorphism_classes(catalog_small(5))]
    lists.append([catalog("chain", 3), catalog("antichain", 3)])
    for forbidden in lists:
        table = _CopyTable(forbidden, cube, None)
        p = max(P.size for P in forbidden)  # every copy counts
        for x in range(total):
            # the whole cube, then dense and sparse draws
            draws = [(1 << total) - 1]
            for _ in range(8):
                draws += [rng.getrandbits(total), rng.getrandbits(total) & rng.getrandbits(total)]
            for within in draws:
                within |= 1 << x
                inside = [m for m in range(total) if within >> m & 1]
                rows = InclusionRows(inside)
                copy = table.small_copy_through(x, within, 0, p)
                assert bool(copy) == has_pinned_copy(forbidden, rows.up, rows.down, inside.index(x)), (forbidden, x)
                if copy:
                    assert copy & ~within == 0 and copy >> x & 1
                    members = tuple(m for m in range(total) if copy >> m & 1)
                    assert any(P.size == len(members) and brute_has_induced_copy(members, P) for P in forbidden)
                if n <= 3:
                    assert copy == max((sum(1 << m for m in members) for P in forbidden
                                        for members in itertools.combinations(inside, P.size)
                                        if x in members and brute_has_induced_copy(members, P)), default=0)
                # with a count: the highest copy through x inside ``within``
                # with at most ``most`` masks outside ``chosen`` and x
                chosen = rng.getrandbits(total) & within & ~(1 << x)
                for most in range(p):
                    want = max((c for c in table.through[x] if not c & ~within and (c & ~chosen).bit_count() <= most + 1),
                               default=0)
                    assert table.small_copy_through(x, within, chosen, most) == want, (forbidden, x, chosen, most)


def ascending_blocked(forbidden, total, members):
    """The members plus every mask that completes a copy with the members
    below it, by one blocked test per mask on the rows of those members."""
    ms = [m for m in range(total) if members >> m & 1]
    return members | sum(1 << x for x in range(total)
                         if not members >> x & 1 and InclusionRows(m for m in ms if m < x).blocks(x, forbidden))


@pytest.mark.parametrize("n", range(5))
def test_blocked_by_agrees_with_the_pinned_query(n):
    # for M with highest member c, m is in blocked_by(c, M) iff m is above c
    # and M + m has a copy through c; and the DFS invariant: blocked(M) =
    # blocked(M - c) | c | blocked_by(c, M), with blocked(M) the members
    # plus every mask that completes a copy with the members below it
    rng = random.Random(n)
    total = 1 << n
    cube = InclusionRows(range(total))
    lists = [[P] for P in isomorphism_classes(catalog_small(5))]
    lists.append([catalog("chain", 3), catalog("antichain", 3)])
    for forbidden in lists:
        table = _CopyTable(forbidden, cube, None)
        for _ in range(12):
            # a random free family: masks in random order, each kept with
            # probability 1/2 while it completes no copy
            rows = InclusionRows()
            for x in rng.sample(range(total), total):
                if rng.random() < 0.5 and not rows.blocks(x, forbidden):
                    rows.push(x)
            family = sum(1 << m for m in rows.members)
            # each member c with the members up to it
            for c in (m for m in range(total) if family >> m & 1):
                members = family & (2 << c) - 1
                below = [m for m in rows.members if members >> m & 1]
                want = 0
                for m in range(c + 1, total):
                    grown = InclusionRows(below + [m])
                    want |= has_pinned_copy(forbidden, grown.up, grown.down, below.index(c)) << m
                got = table.blocked_by(c, members)
                assert got == want, (forbidden, c, members)
                before = ascending_blocked(forbidden, total, members & ~(1 << c))
                assert ascending_blocked(forbidden, total, members) == before | 1 << c | got


# -- certified bounds ---------------------------------------------------------

def test_certified_start_matches_the_unassisted_deepening():
    for P in isomorphism_classes(catalog_small(5)):
        brute = brute_sat_star_n3(P)  # also the dual's value: sat* is self-dual
        for Q in (P, dual(P)):
            for n in (3, 4):
                res = exact_sat_star(n, [Q])
                oracle = _deepen(n, [Q], search._greedy_bounds(n, [Q]))
                assert res.exact and oracle.exact
                assert res.lower_bound == res.upper_bound == oracle.lower_bound, (Q, n)
                assert len(res.witness) == res.upper_bound
                assert is_induced_saturated(res.witness, [Q]).saturated
                if n == 3:
                    assert res.lower_bound == brute


def test_certified_bounds_close_x_at_n5_without_search():
    t0 = time.monotonic()
    res = exact_sat_star(5, [catalog("X")])
    assert time.monotonic() - t0 < 0.1
    assert res.exact and res.lower_bound == res.upper_bound == 12
    assert (res.lower_kind, res.upper_kind) == ("double_legs", "x_upper")
    assert res.witness == x_upper_family(5)
    # Yinv: the complement of y_upper(5) caps the search at 7 members
    bounds = certified_bounds(5, [catalog("Yinv")])
    assert (bounds.lower_bound, bounds.upper_bound) == (6, 7)
    assert bounds.upper_kind == "complement:y_upper" and not bounds.exact


def test_unsaturated_candidate_is_never_the_upper_bound(monkeypatch):
    # a one-member "construction" beats every real candidate on size, but
    # it is not saturated, so it must be rejected
    monkeypatch.setattr(search, "x_upper_family", lambda n: SetFamily.of(n, [0]))
    for name in ("X", "fork", "diamond"):
        P = catalog(name)
        bounds = certified_bounds(4, [P])
        assert bounds.upper_kind != "x_upper" and bounds.upper_bound > 1
        assert is_induced_saturated(bounds.witness, [P]).saturated
        assert len(bounds.witness) == bounds.upper_bound


def test_certified_bounds_need_one_forbidden_poset_for_legs():
    bounds = certified_bounds(4, [catalog("X"), catalog("chain", 5)])
    assert (bounds.lower_bound, bounds.lower_kind) == (1, "trivial")
    assert bounds.upper_bound >= exact_sat_star(4, [catalog("X"), catalog("chain", 5)]).lower_bound


def test_certified_bounds_take_the_legs_of_p_or_of_its_dual():
    # legs on both sides (X), on P only (Yinv), on dual(P) only (Y), on neither (diamond)
    for name, want in [("X", (22, "double_legs")), ("Yinv", (11, "legs")), ("Y", (11, "legs")),
                       ("diamond", (1, "trivial"))]:
        bounds = certified_bounds(10, [catalog(name)])
        assert (bounds.lower_bound, bounds.lower_kind) == want, name


# -- certificates -------------------------------------------------------------

def test_legs_lower_bounds():
    assert legs_lower_bound(catalog("Yinv"), 10).bound == 11
    assert legs_lower_bound(catalog("Yinv"), 10).kind == "legs"
    cert = legs_lower_bound(catalog("X"), 10)
    assert cert.bound == 22 and cert.kind == "double_legs"
    assert cert.dual_witness is not None
    assert legs_lower_bound(catalog("diamond"), 10) is None
    with pytest.raises(BadParam):
        legs_lower_bound(catalog("X"), 2)


def test_legs_bounds_never_exceed_exact_values():
    for name in ("Yinv", "X"):
        P = catalog(name)
        res = exact_sat_star(3, [P])
        assert legs_lower_bound(P, 3).bound <= res.lower_bound


def test_digraph_lower_bound_check():
    F = unique_pair_family(16)
    rep = digraph_lower_bound_check(F)
    assert rep.hypothesis_holds and rep.failing_i is None
    assert len(F) >= rep.bound
    G = SetFamily.of(4, [0, 0b1111])
    rep = digraph_lower_bound_check(G)
    assert not rep.hypothesis_holds and rep.failing_i == 1


def test_boundedness_witness_and_blow_up():
    # the 3-chain minimizer over [3] is a 2-chain of sets; some ground
    # element appears in no singleton-difference pair, certifying a
    # ground-set-independent constant bound
    P = catalog("chain", 3)
    res = exact_sat_star(3, [P])
    wit = boundedness_witness_check(res.witness, [P])
    assert wit is not None
    i, bound = wit
    assert bound == len(res.witness) == 2
    lifted = blow_up(res.witness, i)
    assert is_induced_saturated(lifted, [P]).saturated


def test_boundedness_witness_none_when_pairs_cover():
    P = catalog("fork")
    res = exact_sat_star(3, [P])
    assert boundedness_witness_check(res.witness, [P]) is None


def test_boundedness_requires_saturation():
    with pytest.raises(NotSaturated):
        boundedness_witness_check(SetFamily.of(3, [0]), [catalog("fork")])


def test_legs_witness_map_on_minimizers():
    for name, n in (("Yinv", 3), ("X", 3), ("Yinv", 4)):
        P = catalog(name)
        res = exact_sat_star(n, [P])
        mapping = legs_witness_map(res.witness, P)
        assert len(mapping) == n
        assert len(set(mapping.values())) == n  # injective
        assert 0 not in mapping.values()  # avoids the empty set
        members = set(res.witness.members)
        for i, m in mapping.items():
            assert m in members
            assert m >> (i - 1) & 1  # the image contains i


def test_legs_witness_map_rejects_bad_inputs():
    with pytest.raises(NoLegs):
        legs_witness_map(y_upper_family(3), catalog("diamond"))
    with pytest.raises(NotSaturated):
        legs_witness_map(SetFamily.of(3, [0]), catalog("Yinv"))


def test_exact_value_is_self_dual():
    for name in ("fork", "N", "Yinv"):
        P = catalog(name)
        a = exact_sat_star(3, [P])
        b = exact_sat_star(3, [dual(P)])
        assert a.exact and b.exact and a.lower_bound == b.lower_bound


# -- plain records --------------------------------------------------------------

# the fields and defaults each record had as a frozen dataclass, and
# SearchStats' need_prunes, appended since
PLAIN_RECORDS = [
    (LegsWitness, ("leg1", "leg2", "hip"), {}),
    (EmbeddingWitness, ("mapping",), {}),
    (SaturationReport, ("saturated", "forbidden_copy", "addable"), {"forbidden_copy": None, "addable": None}),
    (SearchConfig, ("time_limit",), {"time_limit": None}),
    (search.SearchStats, ("nodes", "leaves", "symmetry_prunes", "lookahead_prunes", "queries", "level_seconds",
                          "copies", "build_seconds", "need_prunes"), {}),
    (TranspositionLanes, ("image", "ones", "spare"), {}),
    (search.LegsCertificate, ("bound", "kind", "witness", "dual_witness"), {"dual_witness": None}),
    (search.PairCoverReport, ("hypothesis_holds", "failing_i", "bound"), {}),
]


@pytest.mark.parametrize("record, fields, defaults", PLAIN_RECORDS, ids=[r[0].__name__ for r in PLAIN_RECORDS])
def test_plain_records_keep_their_fields_and_defaults(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    value = record(*range(len(fields)))
    # a named tuple: equal to the plain tuple, read-only, repr by field name
    assert value == tuple(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(value, fields[0], -1)
    assert repr(value) == f"{record.__name__}(" + ", ".join(f"{f}={i}" for i, f in enumerate(fields)) + ")"
