"""Set families: masks, structure maps, induced copies, saturation,
and the explicit constructions."""

from __future__ import annotations

import itertools
import random
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posat import (
    SetFamily,
    addable_sets,
    isomorphism_classes,
    blow_up,
    catalog,
    catalog_small,
    complement_family,
    contains_induced_copy,
    from_cover_relations,
    inclusion_poset,
    is_induced_saturated,
    is_induced_subposet,
    unique_pair_family,
    wedge_upper_family,
    x_upper_family,
    xell_upper_family,
    y_upper_family,
)
from posat.errors import (
    BadIndex,
    BadN,
    BadParam,
    BadParams,
    NotPerfectSquare,
    TooLarge,
)
from posat.family import (
    SWEEP_CAP,
    InclusionRows,
    elems_of,
    full_mask,
    iter_induced_embeddings,
    mask_of,
    orbit,
    orbit_count,
    orbit_representatives,
    singleton_difference_pairs,
    singleton_difference_table,
    twin_classes,
)
from posat import family
from posat.digraph import auxiliary_digraph
from posat.io import format_family, parse_family
from posat.poset import _plan, has_pinned_copy
from posat.search import digraph_lower_bound_check

from conftest import (
    brute_has_induced_copy,
    brute_singleton_difference_pairs,
    counted_report,
    counted_rows,
    vf2_embeddings,
)


def families(max_n=5, max_members=10):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            SetFamily.of,
            st.just(n),
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_members),
        )
    )


def posets(max_p=5):
    """Random posets: closures of random covers (a, b) with a < b."""
    def of_size(p):
        pair = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(lambda e: e[0] < e[1])
        return st.sets(pair, max_size=2 * p).map(lambda covers: from_cover_relations(p, sorted(covers)))

    return st.integers(1, max_p).flatmap(of_size)


def proper_subset_pairs(members):
    return [
        (a, b)
        for a, b in itertools.permutations(range(len(members)), 2)
        if members[a] != members[b] and members[a] & ~members[b] == 0
    ]


# -- masks and the dataclass --------------------------------------------------

@given(st.sets(st.integers(1, 12)))
def test_mask_roundtrip(elems):
    assert set(elems_of(mask_of(elems))) == elems


def test_full_mask():
    assert full_mask(3) == 0b111
    assert full_mask(0) == 0


def test_family_validation():
    with pytest.raises(BadN):
        SetFamily.of(65, [0])
    with pytest.raises(BadIndex):
        SetFamily(2, (0b100,))
    with pytest.raises(BadParam):
        SetFamily(2, (1, 1))
    assert len(SetFamily.of(2, [1, 1, 2])) == 2  # .of dedupes


# -- structure maps -----------------------------------------------------------

@given(families())
def test_complement_is_an_involution(F):
    assert complement_family(complement_family(F)) == F
    assert len(complement_family(F)) == len(F)


@given(families(), st.data())
def test_blow_up_preserves_all_relations(F, data):
    i = data.draw(st.integers(1, F.n))
    G = blow_up(F, i)
    assert G.n == F.n + 1
    assert len(G) == len(F)
    # the lift keeps subset order and incomparability pairwise intact
    lift = {}
    bit_i, bit_new = 1 << (i - 1), 1 << F.n
    for m in F.members:
        lift[m] = m | bit_new if m & bit_i else m
    for a, b in itertools.permutations(F.members, 2):
        assert (a & ~b == 0) == (lift[a] & ~lift[b] == 0)


def test_blow_up_index_checked():
    with pytest.raises(BadIndex):
        blow_up(SetFamily.of(2, [1]), 3)


@given(families())
def test_inclusion_poset_matches_subset_order(F):
    P, members = inclusion_poset(F)
    assert members == F.members
    for a, b in itertools.permutations(range(len(members)), 2):
        want = members[a] != members[b] and members[a] & ~members[b] == 0
        assert P.below(a, b) == want


# -- induced copies -----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(families(max_n=4, max_members=7), st.sampled_from(["fork", "diamond", "N", "Y", "Yinv", "X"]))
def test_contains_copy_matches_bruteforce(F, name):
    P = catalog(name)
    got = contains_induced_copy(F, P)
    assert (got is not None) == brute_has_induced_copy(F.members, P)
    if got is not None:
        for a, b in itertools.permutations(range(P.size), 2):
            ma, mb = F.members[got.mapping[a]], F.members[got.mapping[b]]
            assert P.below(a, b) == (ma != mb and ma & ~mb == 0)


@settings(max_examples=150, deadline=None)
@given(families(max_n=4, max_members=8), posets())
def test_embeddings_match_vf2(nx, F, P):
    # one embedding per copy, of the same copies as VF2's embeddings, and
    # |Aut(P)| of those per copy
    got = [w.mapping for w in iter_induced_embeddings(F.members, P)]
    every = vf2_embeddings(nx, len(F), proper_subset_pairs(F.members), P)
    images = [frozenset(m) for m in got]
    assert len(set(images)) == len(images)
    assert set(images) == {frozenset(m) for m in every}
    assert set(got) <= every
    automorphisms = vf2_embeddings(nx, P.size, [(a, b) for a in range(P.size) for b in range(P.size) if P.below(a, b)], P)
    assert len(got) * len(automorphisms) == len(every)
    assert (contains_induced_copy(F, P) is not None) == bool(got)


@settings(max_examples=100, deadline=None)
@given(families(max_n=4, max_members=8), posets(), posets(6))
def test_first_copy_is_the_least_vf2_embedding_in_placement_order(nx, F, P, Q):
    # contains_induced_copy and is_induced_subposet return the embedding
    # whose targets, read in P's placement order, are least
    order = _plan(P.up, None).order

    def least(every):
        return min(every, key=lambda m: [m[a] for a in order], default=None)

    got = contains_induced_copy(F, P)
    assert (got and got.mapping) == least(vf2_embeddings(nx, len(F), proper_subset_pairs(F.members), P))
    Q_pairs = [(a, b) for a in range(Q.size) for b in range(Q.size) if Q.below(a, b)]
    got = is_induced_subposet(P, Q)
    assert (got and got.mapping) == least(vf2_embeddings(nx, Q.size, Q_pairs, P))


@settings(max_examples=100, deadline=None)
@given(families(max_n=4, max_members=8), posets(4))
def test_pinned_embeddings_are_the_unpinned_ones_using_the_pin(F, P):
    # the pinned query finds a copy iff some unpinned copy uses the pin
    unpinned = [w.mapping for w in iter_induced_embeddings(F.members, P)]
    rows = InclusionRows(F.members)
    for j in range(len(F)):
        assert has_pinned_copy([P], rows.up, rows.down, j) == any(j in m for m in unpinned)


@given(st.lists(st.integers(0, 31), unique=True, max_size=10))
def test_pushed_rows_are_the_proper_inclusions(masks):
    rows = InclusionRows()
    for m in masks:
        above, below = rows.relations(m)
        rows.push(m)
        assert (rows.up[-1], rows.down[-1]) == (above, below)
    assert rows.members == masks
    assert (rows.up, rows.down) == counted_rows(masks)
    for a, b in proper_subset_pairs(masks):
        assert rows.up[a] >> b & 1 and rows.down[b] >> a & 1
    assert sum(r.bit_count() for r in rows.up) == len(proper_subset_pairs(masks))


@pytest.mark.parametrize("n", range(7))
def test_cube_rows_equal_the_rows_of_every_mask(n):
    # the rows the exact search builds: indexed by the mask, bit x of up[m]
    # (down[m]) set iff x is a proper superset (subset) of m
    rows = InclusionRows(range(1 << n))
    assert rows.members == list(range(1 << n))
    for m in range(1 << n):
        for x in range(1 << n):
            assert rows.up[m] >> x & 1 == (x != m and m & ~x == 0)
            assert rows.down[m] >> x & 1 == (x != m and x & ~m == 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, (1 << (1 << n)) - 1))),
       st.lists(st.sampled_from(catalog_small(5)), min_size=1, max_size=3))
def test_pinned_query_on_several_posets_is_any_single_query(n_within, forbidden):
    # one query over the forbidden list, on the rows of the cube and on the
    # rows of the masks drawn, is the OR of the queries for each poset alone
    n, within = n_within
    cube = InclusionRows(range(1 << n))
    drawn = InclusionRows(m for m in range(1 << n) if within >> m & 1)
    for rows in (cube, drawn):
        for j in range(len(rows.members)):
            single = any(has_pinned_copy([P], rows.up, rows.down, j) for P in forbidden)
            assert has_pinned_copy(forbidden, rows.up, rows.down, j) == single


@settings(max_examples=100, deadline=None)
@given(families(max_n=4, max_members=8), st.sampled_from(catalog_small(5)))
def test_orbit_pinned_query_matches_every_placement(F, P):
    rows = InclusionRows(F.members)
    for j in range(len(F)):
        assert bool(has_pinned_copy([P], rows.up, rows.down, j)) == brute_has_induced_copy(F.members, P, pinned=j)


CLASSES = isomorphism_classes(catalog_small(5))


@settings(max_examples=40, deadline=None)
@given(families(max_n=4, max_members=6), st.data())
def test_pinned_query_on_an_extra_row_the_others_leave_out(F, data):
    # the pin s as a last row that the members' rows do not count: the
    # pinned plans' floors leave the pin out, so the query stays exact,
    # and blocks writes no row
    outside = [m for m in range(1 << F.n) if m not in F.members]
    if not outside:
        return
    s = data.draw(st.sampled_from(outside))
    rows = InclusionRows(F.members)
    before = (list(rows.up), list(rows.down))
    above, below = rows.relations(s)
    for P in CLASSES:
        want = brute_has_induced_copy(F.members + (s,), P, pinned=len(F))
        assert has_pinned_copy([P], [*rows.up, above], [*rows.down, below], len(F)) == want, P
        assert rows.blocks(s, [P]) == want, P
    assert (rows.up, rows.down) == before and rows.members == list(F.members)


def test_blocks_counts_the_pin_its_rows_leave_out():
    # with the floor not lowered, the up row of ∅ in F = {∅}, empty, would
    # reject ∅ as the target below the pin {1}
    rows = InclusionRows([0])
    assert rows.blocks(1, [catalog("chain", 2)])
    assert (rows.members, rows.up, rows.down) == ([0], [0], [0])


@settings(max_examples=100, deadline=None)
@given(families(max_n=4, max_members=7), st.data(), st.sampled_from(catalog_small(5)))
def test_blocked_masks_stay_blocked(F, data, P):
    # an induced copy through s survives adding t, so s stays blocked
    outside = [s for s in range(1 << F.n) if s not in F.members]
    if len(outside) < 2:
        return
    s, t = data.draw(st.lists(st.sampled_from(outside), min_size=2, max_size=2, unique=True))
    rows = InclusionRows(F.members)
    if rows.blocks(s, [P]):
        rows.push(t)
        assert rows.blocks(s, [P])


# -- saturation ---------------------------------------------------------------

def test_saturation_rejects_degenerate_inputs():
    F = SetFamily.of(3, [0])
    with pytest.raises(BadParam):
        is_induced_saturated(F, [])
    with pytest.raises(BadParam):
        is_induced_saturated(F, [catalog("chain", 1)])


def test_chain_families_saturate_the_two_antichain():
    # forbidding two incomparable sets, the free families are chains in the
    # subset order and the saturated ones are the maximal chains
    anti = catalog("antichain", 2)
    maximal = SetFamily.of(3, [0, 1, 3, 7])
    assert is_induced_saturated(maximal, [anti]).saturated
    rep = is_induced_saturated(SetFamily.of(3, [0, 1, 7]), [anti])
    assert not rep.saturated and rep.addable in (0b011, 0b101)
    rep = is_induced_saturated(SetFamily.of(3, [1, 2]), [anti])
    assert not rep.saturated and rep.forbidden_copy is not None


@settings(max_examples=60, deadline=None)
@given(families(max_n=3, max_members=5), st.sampled_from(["fork", "diamond", "N", "Y"]))
def test_addable_sets_match_bruteforce(F, name):
    P = catalog(name)
    if brute_has_induced_copy(F.members, P):
        return
    want = [s for s in range(1 << F.n) if s not in F.members and not brute_has_induced_copy(F.members + (s,), P)]
    assert list(addable_sets(F, [P])) == want
    report = is_induced_saturated(F, [P])
    assert report.saturated == (not want) and report.addable == (want[0] if want else None)


def full_sweep(F, forbidden):
    """Every missing mask that no forbidden copy through it blocks, one
    pinned query per mask."""
    rows = InclusionRows(F.members)
    return [s for s in range(1 << F.n) if s not in F.members and not rows.blocks(s, forbidden)]


def permuted(F, rng):
    """F with its ground elements renamed by a random permutation."""
    perm = list(range(F.n))
    rng.shuffle(perm)
    return SetFamily.of(F.n, (sum(1 << perm[i] for i in range(F.n) if m >> i & 1) for m in F.members))


def swapped(F, i, j):
    """F with the 1-based ground elements i and j exchanged."""
    swap = 1 << (i - 1) | 1 << (j - 1)
    return SetFamily.of(F.n, (m ^ swap if (m & swap).bit_count() == 1 else m for m in F.members))


@settings(max_examples=150, deadline=None)
@given(families(max_n=6, max_members=12))
def test_twin_classes_are_the_swaps_that_fix_the_family(F):
    classes = twin_classes(F)
    assert sum(classes) == full_mask(F.n) and sum(c.bit_count() for c in classes) == F.n
    assert all(c for c in classes) and list(classes) == sorted(classes, key=lambda c: c & -c)
    class_of = {e: k for k, c in enumerate(classes) for e in elems_of(c)}
    for i, j in itertools.combinations(range(1, F.n + 1), 2):
        assert (swapped(F, i, j) == F) == (class_of[i] == class_of[j])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_orbit_representatives_are_the_smallest_masks(labels):
    # any partition of [n] into classes; group 2^[n] by per-class counts
    n = len(labels)
    by_label = defaultdict(int)
    for i, label in enumerate(labels):
        by_label[label] |= 1 << i
    classes = sorted(by_label.values(), key=lambda c: c & -c)
    orbits = defaultdict(list)
    for m in range(1 << n):
        orbits[tuple((m & c).bit_count() for c in classes)].append(m)
    assert orbit_count(classes) == len(orbits)
    assert orbit_representatives(classes) == sorted(min(o) for o in orbits.values())
    for o in orbits.values():
        assert sorted(orbit(min(o), classes)) == o


# (construction, its number of twin classes) at n <= 10
CONSTRUCTIONS = {
    **{f"x_upper({n})": (x_upper_family(n), 1) for n in (4, 7, 10)},
    **{f"y_upper({n})": (y_upper_family(n), 1) for n in (4, 7, 10)},
    **{f"wedge_upper({n},{ell})": (wedge_upper_family(n, ell), 2) for n, ell in ((5, 2), (7, 3), (10, 3))},
    **{f"xell_upper({n},{ell})": (xell_upper_family(n, ell), 2) for n, ell in ((5, 2), (7, 3), (9, 2))},
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_orbit_sweep_matches_the_full_sweep_on_permuted_constructions(name):
    F, r = CONSTRUCTIONS[name]
    rng = random.Random(name)
    G = permuted(F, rng)
    assert len(twin_classes(G)) == r
    for P in (catalog("X"), catalog("Y"), catalog("fork"), catalog("wedge", 3), catalog("Xell", 2)):
        want = full_sweep(G, [P])
        assert list(addable_sets(G, [P])) == want
        if contains_induced_copy(G, P) is None:
            assert is_induced_saturated(G, [P]).addable == (want[0] if want else None)


@settings(max_examples=100, deadline=None)
@given(families(max_n=6, max_members=10), st.sampled_from(catalog_small(5)))
def test_orbit_sweep_matches_the_full_sweep(F, P):
    want = full_sweep(F, [P])
    assert list(addable_sets(F, [P])) == want
    report = is_induced_saturated(F, [P])
    if report.forbidden_copy is None:
        assert report.addable == (want[0] if want else None)


def constructions(n):
    """Every family ``certified_bounds`` tries at n >= 3 but greedy's."""
    named = [SetFamily.of(n, [0]), SetFamily.of(n, [0] + [1 << j for j in range(n)]),
             x_upper_family(n), y_upper_family(n)] + [wedge_upper_family(n, ell) for ell in range(2, n - 1)]
    return named + [complement_family(F) for F in named]


@pytest.mark.parametrize("n", range(3, 9))
def test_saturation_reports_match_the_counted_sweep_on_the_constructions(n):
    for F in constructions(n):
        for P in CLASSES:
            assert tuple(is_induced_saturated(F, [P])) == counted_report(F, [P]), (F, P)


@settings(max_examples=100, deadline=None)
@given(families(max_n=6, max_members=10), st.lists(st.sampled_from(CLASSES), min_size=1, max_size=2))
def test_saturation_reports_match_the_counted_sweep(F, forbidden):
    assert tuple(is_induced_saturated(F, forbidden)) == counted_report(F, forbidden)


def test_sweep_is_capped_by_the_orbit_count():
    # a maximal chain has no twins: 2^n orbits, counted without enumerating
    def chain(n):
        return SetFamily.of(n, [full_mask(k) for k in range(n + 1)])

    assert twin_classes(chain(20)) == tuple(1 << i for i in range(20))
    assert orbit_count(twin_classes(chain(20))) == SWEEP_CAP
    anti = catalog("antichain", 2)
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        is_induced_saturated(chain(21), [anti])
    with pytest.raises(TooLarge):
        next(addable_sets(chain(21), [anti]))
    assert time.monotonic() - t0 < 0.1


def test_two_chain_forbidden_forces_antichains():
    # forbidding the 2-chain, saturated families are the maximal antichains
    two = catalog("chain", 2)
    layer = SetFamily.of(3, [0b011, 0b101, 0b110])
    assert is_induced_saturated(layer, [two]).saturated
    assert not is_induced_saturated(SetFamily.of(3, [0b011, 0b101]), [two]).saturated


def test_multiple_forbidden_posets():
    # with both the 3-chain and the 3-antichain forbidden over [2], the
    # whole cube is not free, but {0, {1}, {1,2}} has a 3-chain
    chain3, anti3 = catalog("chain", 3), catalog("antichain", 3)
    rep = is_induced_saturated(SetFamily.of(2, [0, 1, 3]), [chain3, anti3])
    assert not rep.saturated and rep.forbidden_copy is not None
    rep = is_induced_saturated(SetFamily.of(2, [0, 1]), [chain3, anti3])
    assert rep.saturated or rep.addable is not None


# -- constructions ------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_y_upper_family_is_y_saturated(n):
    F = y_upper_family(n)
    assert len(F) == n + 2
    assert 0 in F.members
    assert all(m == 0 or m.bit_count() >= n - 1 for m in F.members)
    assert is_induced_saturated(F, [catalog("Y")]).saturated


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_x_upper_family_is_x_saturated(n):
    F = x_upper_family(n)
    assert len(F) == 2 * n + 2
    assert all(m.bit_count() <= 1 or m.bit_count() >= n - 1 for m in F.members)
    assert is_induced_saturated(F, [catalog("X")]).saturated
    assert complement_family(F) == F


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_wedge_upper_family_is_wedge_saturated(n, ell):
    F = wedge_upper_family(n, ell)
    assert len(F) == n + 2 ** (ell + 1) - ell - 1
    assert is_induced_saturated(F, [catalog("wedge", ell + 1)]).saturated


def test_constructions_list_the_filtered_cube():
    for n in range(3, 17):
        top = [m for m in range(1 << n) if m.bit_count() >= n - 1]
        assert y_upper_family(n) == SetFamily.of(n, [0] + top)
        assert x_upper_family(n) == SetFamily.of(n, [0] + [1 << j for j in range(n)] + top)


def test_wedge_family_parameter_bounds():
    with pytest.raises(BadParams):
        wedge_upper_family(3, 2)
    with pytest.raises(BadParams):
        wedge_upper_family(6, 1)


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_xell_upper_family_shape(n, ell):
    F = xell_upper_family(n, ell)
    assert len(F) == 2 * n + 2 ** (ell + 1) - 2 * ell
    assert complement_family(F) == F
    base = wedge_upper_family(n, ell)
    assert set(base.members) <= set(F.members)
    # the family is at least free of the target poset
    assert contains_induced_copy(F, catalog("Xell", ell)) is None


def test_unique_pair_family_shape():
    F = unique_pair_family(9)
    assert len(F) == 6
    assert mask_of([1, 2, 3]) in F.members
    assert full_mask(9) ^ mask_of([1, 4, 7]) in F.members
    with pytest.raises(NotPerfectSquare):
        unique_pair_family(8)
    with pytest.raises(NotPerfectSquare):
        unique_pair_family(1)


@pytest.mark.parametrize("n", [9, 16, 25])
def test_unique_pair_family_has_unique_pairs(n):
    F = unique_pair_family(n)
    for i in range(1, n + 1):
        pairs = singleton_difference_pairs(F, i)
        assert len(pairs) == 1
        a, b = pairs[0]
        assert F.members[a] & ~F.members[b] == 1 << (i - 1)


@given(families(max_n=4, max_members=6), st.integers(1, 4))
def test_singleton_difference_pairs_match_definition(F, i):
    if i > F.n:
        return
    assert singleton_difference_pairs(F, i) == brute_singleton_difference_pairs(F.members, i)


@pytest.mark.parametrize("n,members", [
    (0, []),
    (0, [0]),
    (5, []),
    (5, [0b10110]),
    # bit 63 is the top bit of a lane, just below its guard
    (64, [0, 1 << 63, 1 << 63 | 1, (1 << 64) - 1, (1 << 64) - 1 ^ 1 << 63, 1 << 62]),
    # five or six pairs in every row
    (3, [0, 0b001, 0b010, 0b011, 0b100, 0b101]),
])
def test_singleton_difference_table_edge_cases(n, members):
    F = SetFamily.of(n, members)
    table = singleton_difference_table(F)
    assert table == [brute_singleton_difference_pairs(F.members, i) for i in range(1, n + 1)]
    if n == 3:
        assert [len(pairs) for pairs in table] == [5, 6, 6]


def test_each_family_object_builds_its_pair_table_once(monkeypatch):
    builds = []

    def counting(n, members):
        builds.append(members)
        return real(n, members)

    real = family._pair_table
    monkeypatch.setattr(family, "_pair_table", counting)
    text = format_family(unique_pair_family(16))
    F = parse_family(text)
    rows = [singleton_difference_pairs(F, i) for i in range(1, F.n + 1)]
    assert digraph_lower_bound_check(F).hypothesis_holds
    assert auxiliary_digraph(F).edges == {pairs[0] for pairs in rows}
    assert singleton_difference_table(F) == rows
    assert len(builds) == 1
    # the answers are copies: mutating one leaves the next intact
    rows[0].append((0, 0))
    singleton_difference_table(F)[1].clear()
    assert singleton_difference_table(F) == [brute_singleton_difference_pairs(F.members, i) for i in range(1, 17)]
    # an equal family from another parse builds its own table
    G = parse_family(text)
    assert G == F and G is not F
    assert singleton_difference_pairs(G, 1) == rows[0][:-1]
    assert len(builds) == 2


def test_singleton_difference_pairs_rejects_out_of_range_index():
    F = unique_pair_family(9)
    for i in (0, -1, 10):
        with pytest.raises(BadIndex, match=r"i must be in 1\.\.9"):
            singleton_difference_pairs(F, i)
