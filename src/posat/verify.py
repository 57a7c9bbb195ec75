"""The headline checks, one definition each.

``CHECKS`` is an ordered registry.  Every ``Check`` has a label, a ``fast``
tag and a zero-argument ``run`` that returns ``(passed, detail)``.
``posat verify`` runs every check (``--fast``: only the fast ones), and the
acceptance tests run each one by label through ``check``.  A check's sample
never depends on which checks run: a randomised check owns its seeded
generator and its size.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import digraph as dg
from . import family as fam
from . import search
from .io import format_member
from .poset import Poset, catalog, catalog_small, dual, has_legs, isomorphism_classes


class _Failed(Exception):
    """A check's condition does not hold; the message is the check's detail."""


def _require(condition, detail: str) -> None:
    # not ``assert``: ``python -O`` strips asserts
    if not condition:
        raise _Failed(detail)


@dataclass(frozen=True)
class Check:
    """A named headline check.  ``body`` returns the detail of a pass and
    calls ``_require`` for each condition; the first one that fails gives
    the detail of a fail."""

    label: str
    fast: bool
    body: Callable[[], str]

    def run(self) -> tuple[bool, str]:
        try:
            return True, self.body()
        except _Failed as exc:
            return False, str(exc)


def check(label: str) -> tuple[bool, str]:
    """Run the check registered under ``label``."""
    for c in CHECKS:
        if c.label == label:
            return c.run()
    raise KeyError(label)


# -- random inputs ------------------------------------------------------------

def random_hypothesis_family(n: int, rng: random.Random) -> fam.SetFamily:
    """Random family repaired so every i in [n] has a pair A \\ B = {i}."""
    members: set[int] = set()
    covered = 0  # bit i - 1 is set once some member pair has A \ B = {i}

    def add(x: int) -> None:
        nonlocal covered
        if x not in members:
            for y in members:
                for d in (x & ~y, y & ~x):
                    if d & (d - 1) == 0:
                        covered |= d
            members.add(x)

    for _ in range(rng.randrange(2, 6)):
        add(rng.randrange(1 << n))
    for i in range(n):
        if not covered >> i & 1:
            b = rng.randrange(1 << n) & ~(1 << i)
            add(b)
            add(b | 1 << i)
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


# -- the checks ---------------------------------------------------------------

def _exact(name: str, n: int, value: int) -> str:
    res = search.exact_sat_star(n, [catalog(name)])
    detail = f"got {res.lower_bound}"
    _require(res.exact and res.lower_bound == value, f"{detail}, exact={res.exact}, expected {value}")
    return detail


def _certified_x_n5() -> str:
    """2n + 2 meets x_upper_family(5), so the answer needs no search."""
    t0 = time.perf_counter()
    res = search.exact_sat_star(5, [catalog("X")])
    took = time.perf_counter() - t0
    detail = f"got {res.lower_bound} ({res.lower_kind}) in {took:.3f} s"
    _require(res.exact and res.lower_bound == 12 and res.lower_kind == "double_legs" and took < 0.1, detail)
    return detail


def _saturated(F: fam.SetFamily, P: Poset, size: int) -> str:
    _require(len(F) == size, f"{len(F)} members, expected {size}")
    _require(fam.is_induced_saturated(F, [P]).saturated, "not induced saturated")
    return ""


def _upper(kind: str, n: int) -> str:
    if kind == "y":
        return _saturated(fam.y_upper_family(n), catalog("Y"), n + 2)
    return _saturated(fam.x_upper_family(n), catalog("X"), 2 * n + 2)


def _star_upper(n: int) -> str:
    """∅ plus the singletons meets the legs bound n + 1 for wedge(1), and
    its complement for fork (dual(wedge(1))); it is also the diamond's
    n + 1 family."""
    F = fam.SetFamily.of(n, [0] + [1 << j for j in range(n)])
    _saturated(F, catalog("diamond"), n + 1)
    _saturated(F, catalog("wedge", 1), n + 1)
    return _saturated(fam.complement_family(F), catalog("fork"), n + 1)


def _wedge_upper(n: int, ell: int) -> str:
    return _saturated(fam.wedge_upper_family(n, ell), catalog("wedge", ell + 1), n + 2 ** (ell + 1) - ell - 1)


def _xell_upper(n: int, ell: int) -> str:
    """The complement-closed wedge family is Xell(ell)-free but not maximal:
    with H = [n] \\ [ell], the freely addable sets are exactly those meeting
    both [ell] and H and containing neither, (2^ell - 2)(2^(n-ell) - 2) of
    them (e.g. {1,3} at n = 5, ell = 2)."""
    F = fam.xell_upper_family(n, ell)
    P = catalog("Xell", ell)
    _require(len(F) == 2 * n + 2 ** (ell + 1) - 2 * ell, f"{len(F)} members")
    _require(fam.contains_induced_copy(F, P) is None, "contains an induced copy")
    low = fam.full_mask(ell)
    high = fam.full_mask(n) ^ low
    documented = {
        s for s in range(1 << n)
        if s & low not in (0, low) and s & high not in (0, high)
    }
    _require(len(documented) == (2**ell - 2) * (2 ** (n - ell) - 2), f"{len(documented)} sets in the class")
    report = fam.is_induced_saturated(F, [P])
    _require(not report.saturated and report.forbidden_copy is None, "reported saturated or not free")
    _require(report.addable in documented, f"addable {format_member(report.addable)} is outside the class")
    # the sweep whose first value is_induced_saturated reports
    addable = set(fam.addable_sets(F, [P]))
    _require(addable == documented, f"{len(addable)} addable sets, {len(documented)} in the class")
    return f"free, not maximal: {len(addable)} addable sets, first {format_member(min(addable))}"


def _unique_pairs(n: int) -> str:
    """For n >= 9 every i lies in exactly one singleton-difference pair, a
    block over a co-transversal, and those pairs orient the complete
    bipartite digraph from the blocks to the co-transversals, n edges.

    At n = 4 the construction degenerates: the members are the blocks
    {1,2}, {3,4} and the co-transversals {1,3}, {2,4}, all 2-sets, and every
    i lies in two pairs, one of each orientation.  Four members still
    suffice for unique pairs at n = 4: counting pairs naively over every
    4-member family over [4] finds 54 with one pair per element, each
    confirmed by ``singleton_difference_table``."""
    F = fam.unique_pair_family(n)
    r = math.isqrt(n)
    _require(len(F) == 2 * r, f"{len(F)} members, expected {2 * r}")
    blocks = {fam.mask_of(range(s * r + 1, s * r + r + 1)) for s in range(r)}
    expected = [(False, True), (True, False)] if n == 4 else [(True, False)]
    for i, pairs in enumerate(fam.singleton_difference_table(F), 1):
        pairs = sorted((F.members[a] in blocks, F.members[b] in blocks) for a, b in pairs)
        _require(pairs == expected, f"element {i}: pairs {pairs} (A, B a block?), expected {expected}")
    if n == 4:
        return _unique_pairs_n4(F, blocks)
    D = dg.auxiliary_digraph(F)
    side_a = [j for j, m in enumerate(F.members) if m in blocks]
    side_b = [j for j, m in enumerate(F.members) if m not in blocks]
    _require(D.edge_count() == n, f"{D.edge_count()} auxiliary edges, expected {n}")
    _require(D.edges == frozenset((a, b) for a in side_a for b in side_b), "auxiliary digraph is not blocks -> rest")
    _require(dg.is_tc_free(D), "auxiliary digraph has a transitive cycle")
    return "1 pair per element, block over co-transversal"


def _unique_pairs_n4(F: fam.SetFamily, blocks: set[int]) -> str:
    _require(set(F.members) == blocks | {fam.mask_of((1, 3)), fam.mask_of((2, 4))}, "members are not the 2-sets")
    unique = [
        members for members in itertools.combinations(range(16), 4)
        if [sum(a & ~b == 1 << i for a in members for b in members) for i in range(4)] == [1] * 4
    ]
    _require(len(unique) == 54, f"{len(unique)} four-member families have unique pairs, expected 54")
    for members in unique:
        table = fam.singleton_difference_table(fam.SetFamily.of(4, members))
        _require(all(len(pairs) == 1 for pairs in table), f"{members} disagrees")
    return f"2 pairs per element, one each way; {len(unique)} four-member families have unique pairs"


def _pair_hypothesis_suite() -> str:
    """1000 random families over [9], [16] and [25] in which every i has a
    pair A \\ B = {i}: each has at least 2 sqrt(n - 2) members and a
    transitive-cycle-free auxiliary digraph."""
    rng = random.Random(20240905)
    trials = 1000
    for t in range(trials):
        n = (9, 16, 25)[t % 3]
        F = random_hypothesis_family(n, rng)
        rep = search.digraph_lower_bound_check(F)
        _require(rep.hypothesis_holds, f"family {t}: no pair for {rep.failing_i}")
        _require(len(F) >= 2 * math.sqrt(n - 2), f"family {t}: {len(F)} members over [{n}]")
        _require(dg.is_tc_free(dg.auxiliary_digraph(F)), f"family {t}: transitive cycle")
    return f"0 violations in {trials}"


# ex(n), the most edges of a transitive-cycle-free digraph on n vertices,
# n = 1..8, from max_tc_free_edges_bruteforce
EX_TC = (0, 2, 4, 6, 8, 10, 12, 16)


def _brute_max(n: int) -> str:
    """The exhaustive maximum is the known ex(n), between floor(n^2/4) (the
    bipartite construction) and floor(n^2/4) + 2, and within the averaging
    bound: each edge survives the deletion of n - 2 of the n vertices, so
    (n - 2) ex(n) <= n ex(n - 1)."""
    count, witness = dg.max_tc_free_edges_bruteforce(n)
    detail = f"max={count}"
    _require(count == EX_TC[n - 1], f"{detail}, expected {EX_TC[n - 1]}")
    _require(n * n // 4 <= count <= n * n // 4 + 2, f"{detail}, outside n^2/4 .. n^2/4 + 2")
    _require(n < 3 or count <= n * EX_TC[n - 2] // (n - 2), f"{detail}, over the averaging bound")
    _require(witness.edge_count() == count and dg.is_tc_free(witness), f"{detail}, bad witness")
    return detail


def _turan() -> str:
    for n in range(1, 21):
        D = dg.turan_bipartite(n)
        _require(D.edge_count() == n * n // 4 and dg.is_tc_free(D), f"fails at n = {n}")
    return ""


def _contraction_suite() -> str:
    """Contracting an induced oriented cycle C of a random transitive-cycle-
    free digraph drops exactly |C| edges and keeps it transitive-cycle-free."""
    rng = random.Random(1234321)
    trials = 500
    for t in range(trials):
        D = random_tc_free_with_cycle(rng)
        C = dg.find_induced_oriented_cycle(D)
        D2 = dg.contract_cycle(D, C)
        _require(D2.edge_count() == D.edge_count() - len(C), f"digraph {t}: wrong edge count")
        _require(dg.is_tc_free(D2), f"digraph {t}: transitive cycle after contraction")
    return f"0 violations in {trials}"


def _blow_up_suite() -> str:
    """Every exact witness at n = 3 with an element i in no singleton-
    difference pair stays saturated, at the same size, blown up at i."""
    checked = 0
    for P in isomorphism_classes(catalog_small(5)):
        res = search.exact_sat_star(3, [P])
        wit = search.boundedness_witness_check(res.witness, [P])
        if wit is None:
            continue
        checked += 1
        i, bound = wit
        lifted = fam.blow_up(res.witness, i)
        _require(bound == len(res.witness) == len(lifted), f"{P.name}: sizes differ")
        _require(
            all(a.bit_count() in (b.bit_count(), b.bit_count() - 1) for a, b in zip(res.witness.members, lifted.members)),
            f"{P.name}: a lifted member is not the member or the member plus one",
        )
        _require(fam.is_induced_saturated(lifted, [P]).saturated, f"{P.name}: blow-up is not saturated")
    _require(checked > 0, "no witness checked")
    return f"{checked} witnesses checked"


def _legs_verdicts() -> str:
    legged = [catalog("X"), catalog("Yinv")] + [catalog("wedge", ell) for ell in (1, 2, 3)]
    for ell in (1, 2):
        legged += [catalog("Xell", ell), dual(catalog("Xell", ell))]
    for P in legged:
        _require(has_legs(P) is not None, f"{P.name or 'a dual Xell'} has no legs")
    for name in ("diamond", "Y", "N"):
        _require(has_legs(catalog(name)) is None, f"{name} has legs")
    return ""


def _legs_injection() -> str:
    for name, n in (("Yinv", 3), ("X", 3), ("Yinv", 4)):
        P = catalog(name)
        res = search.exact_sat_star(n, [P])
        m = search.legs_witness_map(res.witness, P)
        _require(len(set(m.values())) == n and 0 not in m.values(), f"{name} at n = {n}")
    return ""


def _legs_injection_x_upper_n32() -> str:
    m = search.legs_witness_map(fam.x_upper_family(32), catalog("X"))
    _require(m == {i: 1 << (i - 1) for i in range(1, 33)}, "not every singleton maps to itself")
    return ""


def _consistency_web(n: int) -> str:
    """For each class of ``catalog_small(5)``: P and dual(P) have the same
    exact value; the deepening from size 1, which uses no certificate,
    agrees; the legs certificates of P and dual(P) and the certified bounds
    sandwich it; lex greedy is no smaller."""
    for P in isomorphism_classes(catalog_small(5)):
        res = search.exact_sat_star(n, [P])
        res_dual = search.exact_sat_star(n, [dual(P)])
        _require(res.exact and res_dual.exact, f"{P.name}: not exact")
        _require(res.lower_bound == res_dual.lower_bound, f"{P.name}: dual differs")
        oracle = search._deepen(n, [P], search._greedy_bounds(n, [P]))
        _require(oracle.exact and oracle.lower_bound == res.lower_bound, f"{P.name}: deepening from 1 differs")
        for Q in (P, dual(P)):
            cert = search.legs_lower_bound(Q, n)
            _require(cert is None or cert.bound <= oracle.lower_bound, f"{P.name}: legs bound too high")
        bounds = search.certified_bounds(n, [P])
        _require(bounds.lower_bound <= oracle.lower_bound <= bounds.upper_bound, f"{P.name}: outside the certified bounds")
        _require(len(search.greedy_saturate(n, [P])) >= res.lower_bound, f"{P.name}: greedy below the minimum")
    return ""


CHECKS = [
    Check("exact-yinv-n3", True, partial(_exact, "Yinv", 3, 5)),
    Check("exact-x-n3", True, partial(_exact, "X", 3, 8)),
    Check("exact-yinv-n4", False, partial(_exact, "Yinv", 4, 6)),
    Check("certified-x-n5", True, _certified_x_n5),
    Check("exact-fork-n3", True, partial(_exact, "fork", 3, 4)),
    Check("exact-fork-n4", False, partial(_exact, "fork", 4, 5)),
    # n = 32 and 64 are the paper's scale: the twin-class sweep tests only
    # n + 1 or (ell + 1)(n - ell + 1) orbit representatives there
    *(Check(f"{kind}-upper-n{n}", n <= 4, partial(_upper, kind, n)) for n in (3, 4, 5, 6, 32, 64) for kind in "yx"),
    *(Check(f"star-upper-n{n}", True, partial(_star_upper, n)) for n in (3, 4, 5, 6, 32, 64)),
    *(
        Check(f"wedge-upper-n{n}-l{ell}", n == 5, partial(_wedge_upper, n, ell))
        for n, ell in ((5, 2), (6, 2), (7, 3), (32, 3), (64, 3))
    ),
    # the xell class is enumerated over all 2^n sets
    *(Check(f"xell-upper-n{n}-l{ell}", n == 5, partial(_xell_upper, n, ell)) for n, ell in ((5, 2), (6, 2), (7, 3))),
    *(Check(f"unique-pairs-n{n}", True, partial(_unique_pairs, n)) for n in (4, 9, 16, 25)),
    Check("pair-hypothesis-suite", False, _pair_hypothesis_suite),
    # n = 9 (about 1.5 s) is left to the tests
    *(Check(f"brute-max-n{n}", n <= 6, partial(_brute_max, n)) for n in range(1, 9)),
    Check("turan-1..20", True, _turan),
    Check("contraction-suite", True, _contraction_suite),
    Check("blow-up-suite", True, _blow_up_suite),
    Check("legs-verdicts", True, _legs_verdicts),
    Check("legs-injection", True, _legs_injection),
    Check("legs-injection-x-upper-n32", False, _legs_injection_x_upper_n32),
    *(Check(f"consistency-web-n{n}", n == 3, partial(_consistency_web, n)) for n in (3, 4)),
]
