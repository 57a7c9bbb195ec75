"""End-to-end acceptance checks.

One test (or a small group) per headline criterion, in order.  Two groups
check a construction against the property its own docstring states, which is
weaker than the test name suggests:

* ``test_03_xell_family_is_saturated`` -- the complement-closed wedge
  family is Xell(l)-free but not maximal.  With H = [n] \\ [l], the freely
  addable sets are exactly those that meet both [l] and H and contain
  neither, (2^l - 2)(2^(n-l) - 2) of them (e.g. {1,3} at n=5, l=2).  The
  library's verdict on every missing set is checked against that class, and
  at (5, 2) the naive permutation scan of ``conftest`` confirms one set
  inside the class and one outside it.
* ``test_04_unique_pair_family_n4`` -- at n=4 the block/co-transversal
  construction degenerates: all members are 2-sets and every ground element
  lies in two singleton-difference pairs, one block over a co-transversal
  and one co-transversal over a block.  That 2*sqrt(n) members still suffice
  for unique pairs at n=4 is checked by enumerating every 4-member family
  over [4] with no library code.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from posat import (
    addable_sets,
    auxiliary_digraph,
    blow_up,
    boundedness_witness_check,
    catalog,
    catalog_small,
    contains_induced_copy,
    contract_cycle,
    digraph_lower_bound_check,
    dual,
    exact_sat_star,
    find_induced_oriented_cycle,
    greedy_saturate,
    has_legs,
    is_induced_saturated,
    is_tc_free,
    legs_lower_bound,
    legs_witness_map,
    max_tc_free_edges_bruteforce,
    turan_bipartite,
    unique_pair_family,
    wedge_upper_family,
    x_upper_family,
    xell_upper_family,
    y_upper_family,
)
from posat.family import SetFamily, mask_of, singleton_difference_pairs
from posat.io import format_member
from posat.search import _deepen
from posat.verify import random_hypothesis_family, random_tc_free_with_cycle

from conftest import brute_has_induced_copy, isomorphism_classes


# 1 -- exact minimum sizes for the four-element legged posets


def test_01_exact_minimum_yinv_and_x():
    assert exact_sat_star(3, [catalog("Yinv")]).lower_bound == 5
    assert exact_sat_star(4, [catalog("Yinv")]).lower_bound == 6
    assert exact_sat_star(3, [catalog("X")]).lower_bound == 8
    for res in (exact_sat_star(3, [catalog("Yinv")]), exact_sat_star(3, [catalog("X")])):
        assert res.exact


# 2 -- exact minimum size for the fork


def test_02_exact_minimum_fork():
    r3 = exact_sat_star(3, [catalog("fork")])
    r4 = exact_sat_star(4, [catalog("fork")])
    assert r3.exact and r3.lower_bound == 4
    assert r4.exact and r4.lower_bound == 5


# 3 -- the explicit constructions


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_03_upper_constructions_are_saturated(n):
    fy = y_upper_family(n)
    assert len(fy) == n + 2
    assert is_induced_saturated(fy, [catalog("Y")]).saturated
    fx = x_upper_family(n)
    assert len(fx) == 2 * n + 2
    assert is_induced_saturated(fx, [catalog("X")]).saturated


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_03_wedge_family_is_saturated(n, ell):
    F = wedge_upper_family(n, ell)
    assert len(F) == n + 2 ** (ell + 1) - ell - 1
    assert is_induced_saturated(F, [catalog("wedge", ell + 1)]).saturated


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_03_xell_family_is_saturated(n, ell):
    # The family is free but not maximal (see the module docstring): the
    # freely addable sets are exactly those meeting both [ell] and
    # H = [n] \ [ell] while containing neither.
    F = xell_upper_family(n, ell)
    assert len(F) == 2 * n + 2 ** (ell + 1) - 2 * ell
    P = catalog("Xell", ell)
    assert contains_induced_copy(F, P) is None
    low = (1 << ell) - 1
    high = ((1 << n) - 1) ^ low
    documented = {
        s for s in range(1 << n)
        if s & low not in (0, low) and s & high not in (0, high)
    }
    assert len(documented) == (2**ell - 2) * (2 ** (n - ell) - 2)
    report = is_induced_saturated(F, [P])
    assert not report.saturated and report.forbidden_copy is None
    assert report.addable in documented, format_member(report.addable)
    # The sweep whose first value is_induced_saturated reports.
    addable = set(addable_sets(F, [P]))
    assert addable == documented
    if (n, ell) == (5, 2):
        assert not brute_has_induced_copy(F.members + (mask_of((1, 3)),), P)
        assert brute_has_induced_copy(F.members + (mask_of((1, 2, 3)),), P)


# 4 -- the 2*sqrt(n) unique-pair family and its auxiliary digraph


@pytest.mark.parametrize("n", [9, 16, 25])
def test_04_unique_pair_family(n):
    F = unique_pair_family(n)
    r = math.isqrt(n)
    assert len(F) == 2 * r
    for i in range(1, n + 1):
        assert len(singleton_difference_pairs(F, i)) == 1
    D = auxiliary_digraph(F)
    blocks = [j for j, m in enumerate(F.members) if m.bit_count() == r]
    others = [j for j, m in enumerate(F.members) if m.bit_count() == n - r]
    assert D.edge_count() == n
    assert D.edges == frozenset((a, b) for a in blocks for b in others)
    assert is_tc_free(D)


def _naive_pairs_per_element(members, n):
    return [
        sum(1 for a in members for b in members if a & ~b == 1 << (i - 1))
        for i in range(1, n + 1)
    ]


def test_04_unique_pair_family_n4():
    # The n=4 instance is degenerate: blocks and co-transversals are all
    # 2-sets and each ground element lies in two singleton-difference pairs.
    F = unique_pair_family(4)
    assert len(F) == 4
    assert all(m.bit_count() == 2 for m in F.members)
    blocks = {mask_of((1, 2)), mask_of((3, 4))}
    co_transversals = {mask_of((2, 4)), mask_of((1, 3))}
    assert set(F.members) == blocks | co_transversals
    for i in range(1, 5):
        kinds = sorted(
            (F.members[a] in blocks, F.members[b] in blocks)
            for a, b in singleton_difference_pairs(F, i)
        )
        assert kinds == [(False, True), (True, False)], (i, kinds)
    # Four members are still enough for unique pairs at n=4.
    unique = [
        members for members in itertools.combinations(range(16), 4)
        if _naive_pairs_per_element(members, 4) == [1] * 4
    ]
    assert len(unique) == 54
    for members in unique:
        G = SetFamily.of(4, members)
        assert all(len(singleton_difference_pairs(G, i)) == 1 for i in range(1, 5))


# 5 -- the singleton-difference hypothesis forces the sqrt lower bound


def test_05_pair_hypothesis_random_suite():
    rng = random.Random(20240905)
    for t in range(1000):
        n = (9, 16, 25)[t % 3]
        F = random_hypothesis_family(n, rng)
        rep = digraph_lower_bound_check(F)
        assert rep.hypothesis_holds
        assert len(F) >= 2 * math.sqrt(n - 2)
        assert is_tc_free(auxiliary_digraph(F))


# 6 -- extremal transitive-cycle-free edge counts


def test_06_bruteforce_respects_the_edge_bound():
    for n in range(1, 6):
        count, witness = max_tc_free_edges_bruteforce(n)
        assert count <= n * n // 4 + 2
        assert witness.edge_count() == count and is_tc_free(witness)


def test_06_bipartite_construction_attains_the_floor():
    for n in range(1, 21):
        D = turan_bipartite(n)
        assert D.edge_count() == n * n // 4
        assert is_tc_free(D)


# 7 -- cycle contraction invariants


def test_07_contraction_invariants_random_suite():
    rng = random.Random(1234321)
    for _ in range(500):
        D = random_tc_free_with_cycle(rng)
        C = find_induced_oriented_cycle(D)
        D2 = contract_cycle(D, C)
        assert D2.edge_count() == D.edge_count() - len(C)
        assert is_tc_free(D2)


# 8 -- blow-up of constant-bound witnesses


def test_08_blow_up_keeps_witnesses_saturated():
    checked = 0
    for P in isomorphism_classes(catalog_small(5)):
        res = exact_sat_star(3, [P])
        wit = boundedness_witness_check(res.witness, [P])
        if wit is None:
            continue
        checked += 1
        i, bound = wit
        assert bound == len(res.witness)
        lifted = blow_up(res.witness, i)
        assert len(lifted) == len(res.witness)
        for a, b in zip(res.witness.members, lifted.members):
            assert a.bit_count() in (b.bit_count(), b.bit_count() - 1)
        assert is_induced_saturated(lifted, [P]).saturated
    assert checked > 0


# 9 -- legs machinery


def test_09_legs_verdicts():
    for P in (catalog("X"), catalog("Yinv"), catalog("wedge", 1), catalog("wedge", 3),
              catalog("Xell", 1), catalog("Xell", 2), dual(catalog("Xell", 2))):
        assert has_legs(P) is not None
    for P in (catalog("diamond"), catalog("Y"), catalog("N")):
        assert has_legs(P) is None


def test_09_legs_injection_on_minimizers():
    for name, n in (("Yinv", 3), ("X", 3), ("Yinv", 4)):
        P = catalog(name)
        res = exact_sat_star(n, [P])
        mapping = legs_witness_map(res.witness, P)  # asserts H' = L' | {i}
        assert len(set(mapping.values())) == n
        assert 0 not in mapping.values()


# 10 -- consistency web across all engines


@pytest.mark.parametrize("n", [3, 4])
def test_10_consistency_web(n):
    for P in isomorphism_classes(catalog_small(5)):
        res = exact_sat_star(n, [P])
        res_dual = exact_sat_star(n, [dual(P)])
        assert res.exact and res_dual.exact
        assert res.lower_bound == res_dual.lower_bound
        # exact search starts at the legs bound, so check that bound against
        # the deepening from size 1, which uses no certificate
        oracle = _deepen(n, [P])
        assert oracle.exact and oracle.lower_bound == res.lower_bound
        for Q in (P, dual(P)):
            cert = legs_lower_bound(Q, n)
            if cert is not None:
                assert cert.bound <= oracle.lower_bound
        greedy = greedy_saturate(n, [P])
        assert len(greedy) >= res.lower_bound
