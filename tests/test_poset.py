"""Poset construction, catalog, legs, and induced-subposet embedding."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posat import (
    Poset,
    catalog,
    catalog_small,
    dot_extension,
    dual,
    from_cover_relations,
    has_legs,
    is_induced_subposet,
    isomorphic,
)
from posat.errors import BadParam, CycleInCovers, IndexOutOfRange, UnknownName
from posat.family import InclusionRows
from posat.poset import _automorphisms, induced_copies, iter_legs_witnesses

from conftest import vf2_embeddings


def cover_sets(max_p=6):
    """Random acyclic cover sets: only pairs (a, b) with a < b as indices."""
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


# -- construction and validation ---------------------------------------------

def test_rejects_reflexive_row():
    with pytest.raises(BadParam):
        Poset(2, (0b01, 0))


def test_rejects_antisymmetry_violation():
    with pytest.raises(BadParam):
        Poset(2, (0b10, 0b01))


def test_rejects_missing_transitivity():
    # 0 < 1 and 1 < 2 but not 0 < 2
    with pytest.raises(BadParam):
        Poset(3, (0b010, 0b100, 0))


def test_rejects_out_of_range_bits():
    with pytest.raises(IndexOutOfRange):
        Poset(2, (0b100, 0))


def test_cover_cycle_detected():
    with pytest.raises(CycleInCovers):
        from_cover_relations(3, [(0, 1), (1, 2), (2, 0)])


def test_cover_out_of_range():
    with pytest.raises(IndexOutOfRange):
        from_cover_relations(2, [(0, 5)])


def test_closure_adds_implied_relations():
    P = from_cover_relations(3, [(0, 1), (1, 2)])
    assert P.below(0, 2)
    assert P.cover_pairs() == [(0, 1), (1, 2)]


def test_diamond_covers_drop_transitive_edge():
    P = from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    assert (0, 3) not in P.cover_pairs()
    assert P.below(0, 3)


@given(cover_sets())
def test_cover_pairs_regenerate_the_poset(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    assert from_cover_relations(p, P.cover_pairs()).up == P.up


@given(cover_sets(), st.randoms(use_true_random=False))
def test_relabel_is_an_isomorphism(pc, rnd):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    perm = list(range(p))
    rnd.shuffle(perm)
    Q = P.relabel(tuple(perm))
    assert isomorphic(P, Q)
    for a, b in itertools.permutations(range(p), 2):
        assert P.below(a, b) == Q.below(perm[a], perm[b])


# -- catalog ------------------------------------------------------------------

def test_catalog_fixed_shapes():
    assert catalog("chain", 4).cover_pairs() == [(0, 1), (1, 2), (2, 3)]
    assert catalog("antichain", 3).cover_pairs() == []
    assert catalog("fork").cover_pairs() == [(0, 1), (0, 2)]
    assert catalog("diamond").size == 4
    assert catalog("N").size == 4
    assert catalog("X").size == 5


def test_catalog_parameter_identities():
    assert isomorphic(catalog("Xell", 1), catalog("X"))
    assert isomorphic(catalog("wedge", 2), catalog("Yinv"))
    assert isomorphic(catalog("vee", 2), catalog("Y"))
    assert isomorphic(catalog("vee", 3), dual(catalog("wedge", 3)))
    assert catalog("wedge", 4).size == 6
    assert catalog("Xell", 3).size == 7


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("pentagon")
    with pytest.raises(BadParam):
        catalog("fork", 2)
    with pytest.raises(BadParam):
        catalog("chain")
    with pytest.raises(BadParam):
        catalog("wedge", 0)


def test_catalog_small_sizes_capped():
    assert all(P.size <= 5 for P in catalog_small(5))
    assert any(P.name == "X" for P in catalog_small(5))
    assert not any(P.name == "X" for P in catalog_small(4))


# -- transforms ---------------------------------------------------------------

@given(cover_sets())
def test_dual_is_an_involution(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    assert dual(dual(P)).up == P.up


@given(cover_sets())
def test_dual_reverses_every_relation(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    D = dual(P)
    for a, b in itertools.permutations(range(p), 2):
        assert P.below(a, b) == D.below(b, a)


@given(cover_sets())
def test_dot_extension_adds_a_maximum(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    Q = dot_extension(P)
    assert Q.size == p + 1
    assert all(Q.below(a, p) for a in range(p))
    for a, b in itertools.permutations(range(p), 2):
        assert Q.below(a, b) == P.below(a, b)


def test_dot_extension_of_fork_is_the_diamond():
    assert isomorphic(dot_extension(catalog("fork")), catalog("diamond"))


# -- legs ---------------------------------------------------------------------

def test_legs_verdicts_on_catalog():
    for name in ("X", "Yinv"):
        assert has_legs(catalog(name)) is not None
    for param in (1, 2, 3):
        assert has_legs(catalog("wedge", param)) is not None
        assert has_legs(catalog("Xell", param)) is not None
        assert has_legs(dual(catalog("Xell", param))) is not None
    for name in ("diamond", "Y", "N", "fork"):
        assert has_legs(catalog(name)) is None
    assert has_legs(catalog("chain", 3)) is None
    assert has_legs(catalog("antichain", 3)) is None


@given(cover_sets())
def test_legs_witnesses_satisfy_the_definition(pc):
    p, covers = pc
    P = from_cover_relations(p, sorted(covers))
    for w in iter_legs_witnesses(P):
        assert not P.comparable(w.leg1, w.leg2)
        assert P.below(w.leg1, w.hip) and P.below(w.leg2, w.hip)
        for a in range(p):
            if a not in (w.leg1, w.leg2, w.hip):
                assert P.below(w.hip, a)


def test_legs_witness_of_x():
    w = has_legs(catalog("X"))
    assert (w.leg1, w.leg2, w.hip) == (0, 1, 2)


# -- induced subposet embedding ----------------------------------------------

def brute_embeds(P: Poset, Q: Poset) -> bool:
    for combo in itertools.permutations(range(Q.size), P.size):
        if all(
            P.below(a, b) == Q.below(combo[a], combo[b])
            for a in range(P.size)
            for b in range(P.size)
            if a != b
        ):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(cover_sets(4), cover_sets(6))
def test_embedding_matches_bruteforce(pc_small, pc_big):
    p, covers = pc_small
    q, covers_q = pc_big
    P = from_cover_relations(p, sorted(covers))
    Q = from_cover_relations(q, sorted(covers_q))
    w = is_induced_subposet(P, Q)
    assert (w is not None) == brute_embeds(P, Q)
    if w is not None:
        for a in range(P.size):
            for b in range(P.size):
                if a != b:
                    assert P.below(a, b) == Q.below(w.mapping[a], w.mapping[b])


@settings(max_examples=150, deadline=None)
@given(cover_sets(5), cover_sets(7))
def test_embedding_matches_vf2(nx, pc_small, pc_big):
    P = from_cover_relations(pc_small[0], sorted(pc_small[1]))
    Q = from_cover_relations(pc_big[0], sorted(pc_big[1]))
    below = [(a, b) for a in range(Q.size) for b in range(Q.size) if Q.below(a, b)]
    copies = vf2_embeddings(nx, Q.size, below, P)
    w = is_induced_subposet(P, Q)
    assert (w is not None) == bool(copies)
    if w is not None:
        assert w.mapping in copies
    # the first copy the one-per-copy enumerator yields
    assert w == next(induced_copies(P, Q.up, Q.down_masks()), None)


def test_embedding_hand_cases():
    assert is_induced_subposet(catalog("fork"), catalog("diamond")) is not None
    assert is_induced_subposet(catalog("antichain", 3), catalog("diamond")) is None
    assert is_induced_subposet(catalog("chain", 3), catalog("diamond")) is not None
    assert is_induced_subposet(catalog("fork"), catalog("X")) is not None
    assert is_induced_subposet(catalog("diamond"), catalog("X")) is None


def test_first_embedding_lists_no_automorphisms():
    # antichain(9) has 9! automorphisms; the first embedding needs none
    _automorphisms.cache_clear()
    w = is_induced_subposet(catalog("antichain", 9), catalog("antichain", 10))
    assert w is not None and w.mapping == tuple(range(9))
    assert isomorphic(catalog("antichain", 9), catalog("antichain", 9))
    assert _automorphisms.cache_info().currsize == 0


def test_isomorphic_distinguishes_catalog():
    posets = [catalog(nm) for nm in ("fork", "diamond", "N", "Y", "Yinv")]
    for A, B in itertools.combinations(posets, 2):
        assert not isomorphic(A, B)
    assert isomorphic(catalog("Y"), dual(catalog("Yinv")))


def automorphism_count(P: Poset) -> int:
    """The permutations of P's elements that keep every relation, by scan."""
    return sum(all(P.below(f[a], f[b]) == P.below(a, b) for a in range(P.size) for b in range(P.size))
               for f in itertools.permutations(range(P.size)))


@pytest.mark.parametrize("n", range(5))
def test_induced_copies_yield_one_embedding_per_copy(nx, n):
    # against VF2's embeddings: the same images, |Aut(P)| embeddings each
    cube = InclusionRows(range(1 << n))
    below = [(a, b) for a in range(1 << n) for b in range(1 << n) if a != b and a & ~b == 0]
    # two disjoint 2-chains: the one automorphism swaps both chains at
    # once, so its group is no product of symmetric groups on its orbits
    two_chains = from_cover_relations(4, [(0, 1), (2, 3)])
    for P in catalog_small(5) + [P.relabel(tuple(reversed(range(P.size)))) for P in catalog_small(5)] + [two_chains]:
        every = vf2_embeddings(nx, 1 << n, below, P)
        copies = [w.mapping for w in induced_copies(P, cube.up, cube.down)]
        images = [frozenset(m) for m in copies]
        assert len(set(images)) == len(images), (P, n)
        assert set(images) == {frozenset(m) for m in every}, (P, n)
        assert set(copies) <= every, (P, n)
        assert len(copies) * automorphism_count(P) == len(every), (P, n)
