"""Self-verification suite: re-runs every headline check from the CLI.

Each check returns (label, passed, detail).  ``--fast`` trims the random
sample sizes and the larger exact searches; the 5-vertex digraph
enumeration only runs with ``--slow``.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from . import digraph as dg
from . import family as fam
from . import search
from .io import format_member
from .poset import Poset, catalog, catalog_small, dual, has_legs, isomorphic


def _dedupe_isomorphic(posets):
    out = []
    for P in posets:
        if not any(isomorphic(P, Q) for Q in out):
            out.append(P)
    return out


def random_hypothesis_family(n: int, rng: random.Random) -> fam.SetFamily:
    """Random family repaired so every i in [n] has a pair A \\ B = {i}."""
    full = fam.full_mask(n)
    members = {rng.randrange(1 << n) for _ in range(rng.randrange(2, 6))}
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        if any(a & ~b == bit for a in members for b in members):
            continue
        b = rng.randrange(1 << n) & ~bit & full
        members.add(b)
        members.add(b | bit)
    return fam.SetFamily.of(n, members)


def random_tc_free_with_cycle(rng: random.Random) -> dg.Digraph:
    """Random transitive-cycle-free digraph containing an induced oriented
    cycle, built by deleting chord edges until freeness holds."""
    while True:
        v = rng.randrange(4, 9)
        p = rng.uniform(0.2, 0.5)
        edges = {
            (a, b)
            for a in range(v)
            for b in range(v)
            if a != b and rng.random() < p
        }
        D = dg.Digraph.of(v, edges)
        while True:
            witness = dg.has_transitive_cycle(D)
            if witness is None:
                break
            edges.discard((witness[0], witness[-1]))
            D = dg.Digraph.of(v, edges)
        if dg.find_induced_oriented_cycle(D) is not None:
            return D


def _check_xell_upper(n: int, ell: int):
    """The complement-closed wedge family is Xell(ell)-free but not maximal:
    with H = [n] \\ [ell], the freely addable sets are exactly those meeting
    both [ell] and H and containing neither, (2^ell - 2)(2^(n-ell) - 2) of
    them."""
    F = fam.xell_upper_family(n, ell)
    P = catalog("Xell", ell)
    low = fam.full_mask(ell)
    high = fam.full_mask(n) ^ low
    documented = {
        s for s in range(1 << n)
        if s & low not in (0, low) and s & high not in (0, high)
    }
    addable = set(fam.addable_sets(F, [P]))
    report = fam.is_induced_saturated(F, [P])
    ok = (
        len(F) == 2 * n + 2 ** (ell + 1) - 2 * ell
        and report.addable in documented
        and addable == documented
        and len(addable) == (2**ell - 2) * (2 ** (n - ell) - 2)
    )
    first = format_member(min(addable)) if addable else "none"
    return ok, f"free, not maximal: {len(addable)} addable sets, first {first}"


def _pairs_per_element(members, n: int) -> list[int]:
    return [
        sum(1 for a in members for b in members if a & ~b == 1 << (i - 1))
        for i in range(1, n + 1)
    ]


def _check_unique_pairs(n: int):
    """For n >= 9 every i lies in exactly one singleton-difference pair, a
    block over a co-transversal, and those pairs orient the complete
    bipartite digraph.  At n = 4 every member is a 2-set and every i lies in
    two pairs, one of each orientation; four members still suffice there, as
    an enumeration of all 4-member families over [4] shows."""
    F = fam.unique_pair_family(n)
    r = math.isqrt(n)
    blocks = {fam.mask_of(range(s * r + 1, s * r + r + 1)) for s in range(r)}
    ok = len(F) == 2 * r
    kinds = set()
    for i in range(1, n + 1):
        pairs = fam.singleton_difference_pairs(F, i)
        kinds.add(tuple(sorted((F.members[a] in blocks, F.members[b] in blocks) for a, b in pairs)))
    if n == 4:
        unique = sum(
            _pairs_per_element(members, 4) == [1] * 4
            for members in itertools.combinations(range(16), 4)
        )
        ok = ok and all(m.bit_count() == 2 for m in F.members)
        ok = ok and kinds == {((False, True), (True, False))} and unique > 0
        detail = f"2 pairs per element, one each way; {unique} four-member families have unique pairs"
        return ok, detail
    D = dg.auxiliary_digraph(F)
    side_a = [j for j, m in enumerate(F.members) if m in blocks]
    side_b = [j for j, m in enumerate(F.members) if m not in blocks]
    expected = frozenset((a, b) for a in side_a for b in side_b)
    ok = ok and kinds == {((True, False),)} and D.edges == expected and dg.is_tc_free(D)
    return ok, "1 pair per element, block over co-transversal"


def run_checks(fast: bool = False, slow: bool = False):
    checks = []

    def add(label, passed, detail=""):
        checks.append((label, bool(passed), detail))

    yinv = catalog("Yinv")
    x = catalog("X")
    fork = catalog("fork")

    # 1: exact values for Yinv and X
    r1 = search.exact_sat_star(3, [yinv])
    add("exact-yinv-n3", r1.exact and r1.lower_bound == 5, f"got {r1.lower_bound}")
    r2 = search.exact_sat_star(3, [x])
    add("exact-x-n3", r2.exact and r2.lower_bound == 8, f"got {r2.lower_bound}")
    if not fast:
        r3 = search.exact_sat_star(4, [yinv])
        add("exact-yinv-n4", r3.exact and r3.lower_bound == 6, f"got {r3.lower_bound}")
    t0 = time.perf_counter()
    rx = search.exact_sat_star(5, [x])  # 2n + 2 meets x_upper_family(5): no search
    took = time.perf_counter() - t0
    ok = rx.exact and rx.lower_bound == 12 and rx.lower_kind == "double_legs" and took < 0.1
    add("certified-x-n5", ok, f"got {rx.lower_bound} ({rx.lower_kind}) in {took:.3f} s")

    # 2: fork values
    r4 = search.exact_sat_star(3, [fork])
    add("exact-fork-n3", r4.exact and r4.lower_bound == 4, f"got {r4.lower_bound}")
    if not fast:
        r5 = search.exact_sat_star(4, [fork])
        add("exact-fork-n4", r5.exact and r5.lower_bound == 5, f"got {r5.lower_bound}")

    # 3: constructions are saturated with the right sizes; --slow adds the
    # paper's scale, where the twin-class sweep tests n + 1 or (l + 1)(n - l + 1)
    # orbit representatives
    y = catalog("Y")
    sizes = (3, 4) if fast else (3, 4, 5, 6)
    if slow:
        sizes += (32, 64)
    for n in sizes:
        fy = fam.y_upper_family(n)
        ok = len(fy) == n + 2 and fam.is_induced_saturated(fy, [y]).saturated
        add(f"y-upper-n{n}", ok)
        fx = fam.x_upper_family(n)
        ok = len(fx) == 2 * n + 2 and fam.is_induced_saturated(fx, [x]).saturated
        add(f"x-upper-n{n}", ok)
    params = ((5, 2),) if fast else ((5, 2), (6, 2), (7, 3))
    wedges = params + ((32, 3), (64, 3)) if slow else params
    for n, ell in wedges:
        fw = fam.wedge_upper_family(n, ell)
        ok = len(fw) == n + 2 ** (ell + 1) - ell - 1 and fam.is_induced_saturated(
            fw, [catalog("wedge", ell + 1)]
        ).saturated
        add(f"wedge-upper-n{n}-l{ell}", ok)
    for n, ell in params:  # the oracle enumerates 2^n sets
        add(f"xell-upper-n{n}-l{ell}", *_check_xell_upper(n, ell))

    # 4: the unique-pair family and its auxiliary digraph
    for n in (4, 9, 16, 25):
        add(f"unique-pairs-n{n}", *_check_unique_pairs(n))

    # 5: the singleton-difference hypothesis forces the size bound
    rng = random.Random(20240905)
    trials = 60 if fast else 1000
    bad = 0
    for t in range(trials):
        n = (9, 16, 25)[t % 3]
        F = random_hypothesis_family(n, rng)
        rep = search.digraph_lower_bound_check(F)
        if not rep.hypothesis_holds or len(F) < rep.bound:
            bad += 1
        elif not dg.is_tc_free(dg.auxiliary_digraph(F)):
            bad += 1
    add("pair-hypothesis-suite", bad == 0, f"{bad} violations in {trials}")

    # 6: extremal digraph bounds
    top = 4 if not slow else 5
    for n in range(1, top + 1):
        count, witness = dg.max_tc_free_edges_bruteforce(n)
        ok = count <= n * n // 4 + 2 and witness.edge_count() == count and dg.is_tc_free(witness)
        add(f"brute-max-n{n}", ok, f"max={count}")
    for n in range(1, 21):
        D = dg.turan_bipartite(n)
        ok = D.edge_count() == n * n // 4 and dg.is_tc_free(D)
        if not ok:
            add(f"turan-n{n}", False)
            break
    else:
        add("turan-1..20", True)

    # 7: contraction invariants on random inputs
    trials = 40 if fast else 500
    bad = 0
    for _ in range(trials):
        D = random_tc_free_with_cycle(rng)
        C = dg.find_induced_oriented_cycle(D)
        D2 = dg.contract_cycle(D, C)
        if D2.edge_count() != D.edge_count() - len(C) or not dg.is_tc_free(D2):
            bad += 1
    add("contraction-suite", bad == 0, f"{bad} violations in {trials}")

    # 8: blow-up of constant-bound witnesses stays saturated
    checked = 0
    ok = True
    for P in _dedupe_isomorphic(catalog_small(5)):
        res = search.exact_sat_star(3, [P])
        wit = search.boundedness_witness_check(res.witness, [P])
        if wit is None:
            continue
        checked += 1
        i, bound = wit
        lifted = fam.blow_up(res.witness, i)
        if len(lifted) != len(res.witness) or bound != len(res.witness):
            ok = False
        if not fam.is_induced_saturated(lifted, [P]).saturated:
            ok = False
    add("blow-up-suite", ok and checked > 0, f"{checked} witnesses checked")

    # 9: legs verdicts and the legs-based injection
    legged = [x, yinv, catalog("wedge", 1), catalog("wedge", 2), catalog("wedge", 3),
              catalog("Xell", 1), dual(catalog("Xell", 1))]
    legless = [catalog("diamond"), y, catalog("N")]
    ok = all(has_legs(P) is not None for P in legged)
    ok = ok and all(has_legs(P) is None for P in legless)
    add("legs-verdicts", ok)
    ok = True
    pairs = [(r1, yinv), (r2, x)]
    if not fast:
        pairs.append((search.exact_sat_star(4, [yinv]), yinv))
    for res, P in pairs:
        m = search.legs_witness_map(res.witness, P)
        if len(set(m.values())) != res.n or 0 in m.values():
            ok = False
    add("legs-injection", ok)
    if slow:
        m = search.legs_witness_map(fam.x_upper_family(32), x)
        ok = m == {i: 1 << (i - 1) for i in range(1, 33)}  # every singleton is a member
        add("legs-injection-x-upper-n32", ok)

    # 10: duality of exact values; certified bounds around the deepening
    # from size 1 (exact search itself starts from them)
    ok = True
    ns = (3,) if fast else (3, 4)
    for P in _dedupe_isomorphic(catalog_small(5)):
        for n in ns:
            res = search.exact_sat_star(n, [P])
            res_dual = search.exact_sat_star(n, [dual(P)])
            if res.lower_bound != res_dual.lower_bound or not (res.exact and res_dual.exact):
                ok = False
            oracle = search._deepen(n, [P])
            bounds = search.certified_bounds(n, [P])  # upper: at most the greedy size
            lo, hi = bounds.lower_bound, bounds.upper_bound
            if not oracle.exact or not lo <= oracle.lower_bound == res.lower_bound <= hi:
                ok = False
    add("consistency-web", ok)

    return checks
