"""Shared independent oracles for the test suite.

Everything here is deliberately naive: permutation scans and full
enumeration with no pruning, no bit tricks beyond mask containment, and no
code shared with the library internals.  Five exceptions: networkx VF2,
an independent matcher used only in tests; ``plain_max_tc_free``, a plain
branch-and-bound that reaches further than full enumeration and keeps the
library's transitive-chord test (itself checked against
``brute_first_transitive_cycle``); and ``plain_parse_family`` and
``plain_parse_digraph``, the family and digraph formats read with one regex,
``int`` and range checks per line and no lookup table, which build the
library's ``SetFamily`` and ``Digraph`` and raise its ``ParseError``; and
``all_posets``, which deduplicates its relations with the library's
``isomorphic`` (its class counts are pinned to the known ones).  The
library is checked against these, never the other way around.
"""

from __future__ import annotations

import itertools
import re

import pytest

from posat import Digraph, Poset, SetFamily, isomorphic
from posat.digraph import _transitive_chord
from posat.errors import ParseError


def brute_has_induced_copy(members: tuple[int, ...], P: Poset, pinned: int | None = None) -> bool:
    """Scan every injective assignment of poset elements to member masks
    (with ``pinned``, only those using that member index)."""
    for combo in itertools.permutations(range(len(members)), P.size):
        if pinned is not None and pinned not in combo:
            continue
        ok = True
        for a in range(P.size):
            for b in range(P.size):
                if a == b:
                    continue
                ma, mb = members[combo[a]], members[combo[b]]
                strictly_below = ma != mb and ma & ~mb == 0
                if P.below(a, b) != strictly_below:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@pytest.fixture(scope="module")
def nx():
    """networkx, a test-only dependency: the tests using it skip without it."""
    return pytest.importorskip("networkx")


def vf2_embeddings(nx, size: int, below, P: Poset) -> set[tuple[int, ...]]:
    """Every induced copy of P among targets 0..size-1 ordered by the
    ``below`` pairs, from networkx VF2 on the transitive relation digraphs:
    a node-induced subgraph isomorphic to P's digraph is an induced copy.
    Each copy is a tuple whose entry a is the target of element a."""
    G = nx.DiGraph()
    G.add_nodes_from(range(size))
    G.add_edges_from(below)
    H = nx.DiGraph()
    H.add_nodes_from(range(P.size))
    H.add_edges_from((a, b) for a in range(P.size) for b in range(P.size) if P.below(a, b))
    out = set()
    for iso in nx.algorithms.isomorphism.DiGraphMatcher(G, H).subgraph_isomorphisms_iter():
        mapping = [0] * P.size
        for target, a in iso.items():
            mapping[a] = target
        out.add(tuple(mapping))
    return out


def all_posets(p: int) -> list[Poset]:
    """Every poset on p elements up to isomorphism, one per class: every
    poset has a linear extension, so labelling along it puts each relation
    a < b on indices a < b, and the transitive sets of such index pairs
    cover every class; they are deduplicated with ``isomorphic``."""
    pairs = list(itertools.combinations(range(p), 2))
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pair for j, pair in enumerate(pairs) if bits >> j & 1}
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
            continue
        P = Poset(p, tuple(sum(1 << b for a2, b in rel if a2 == a) for a in range(p)))
        if not any(isomorphic(P, Q) for Q in out):
            out.append(P)
    return out


def brute_first_saturated_n3(P: Poset) -> tuple[int, ...]:
    """The first maximal induced-P-free family over [3], as sorted masks,
    by checking all families in order of size and, within a size, in
    lexicographic order: a smallest one, and the lex-first of those."""
    universe = range(8)
    for k in range(1, 9):
        for members in itertools.combinations(universe, k):
            if brute_has_induced_copy(members, P):
                continue
            if all(
                brute_has_induced_copy(tuple(sorted(members + (s,))), P)
                for s in universe
                if s not in members
            ):
                return members
    return tuple(universe)


def brute_sat_star_n3(P: Poset) -> int:
    """Smallest maximal induced-P-free family size over [3]."""
    return len(brute_first_saturated_n3(P))


def brute_first_transitive_cycle(D: Digraph) -> tuple[tuple[int, int], int] | None:
    """The first edge in sorted order that is the chord of a transitive
    cycle, and the fewest vertices of such a cycle, by scanning every vertex
    sequence from its tail to its head; None when there is no such edge."""
    n = D.vertex_count
    for u, v in sorted(D.edges):
        for k in range(3, n + 1):
            for inner in itertools.permutations(set(range(n)) - {u, v}, k - 2):
                seq = (u, *inner, v)
                if all((seq[j], seq[j + 1]) in D.edges for j in range(k - 1)):
                    return (u, v), k
    return None


def brute_singleton_difference_pairs(members: tuple[int, ...], i: int) -> list[tuple[int, int]]:
    """Every ordered index pair (a, b) with members[a] \\ members[b] = {i},
    in lexicographic order."""
    return [
        (a, b)
        for a, b in itertools.permutations(range(len(members)), 2)
        if members[a] & ~members[b] == 1 << (i - 1)
    ]


def brute_max_tc_free(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Maximum edges of a transitive-cycle-free digraph on n vertices, and
    the lexicographically smallest maximizer as a sorted edge list, by
    checking every edge subset."""
    all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    best, first = 0, []
    for bits in range(1 << len(all_edges)):
        chosen = [e for j, e in enumerate(all_edges) if bits >> j & 1]
        if len(chosen) < best or (len(chosen) == best and chosen >= first):
            continue
        if brute_first_transitive_cycle(Digraph.of(n, chosen)) is None:
            best, first = len(chosen), chosen
    return best, first


def plain_max_tc_free(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Maximum edges of a transitive-cycle-free digraph on n >= 2 vertices,
    and the lexicographically smallest maximizer as a sorted edge list, by a
    branch-and-bound over edge subsets in lexicographic order with a
    best-so-far bound and the first edge fixed to (0, 1), and no other
    pruning."""
    all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    all_edges.sort()
    ecount = len(all_edges)
    # seed: the bipartite construction's count, witness filled in by search
    best = n * n // 4
    best_edges: list[tuple[int, int]] | None = None

    def dfs(idx, chosen, adj):
        nonlocal best, best_edges
        count = len(chosen)
        if count > best or (count == best and best_edges is None):
            best = count
            best_edges = list(chosen)
        target = best if best_edges is None else best + 1
        for j in range(idx, ecount):
            if count + (ecount - j) < target:
                break
            u, v = all_edges[j]
            new_adj = adj.copy()
            new_adj[u] |= 1 << v
            # the new edge first: it is the most likely chord
            if _transitive_chord(new_adj, [(u, v)] + chosen) is None:
                dfs(j + 1, chosen + [(u, v)], new_adj)

    # force the first edge (0, 1); the empty digraph never beats the seed
    adj0 = [0] * n
    adj0[0] = 1 << 1
    dfs(1, [(0, 1)], adj0)
    return best, sorted(best_edges)


def plain_parse_family(text: str) -> SetFamily:
    """The family text format read line by line with one regex, ``int`` and
    a range check per element: ``n=<int>`` then one member per line, with
    ``#`` comments and blank lines skipped."""
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ParseError("empty family file")
    m = re.fullmatch(r"n=(\d+)", lines[0])
    if not m:
        raise ParseError(f"expected n=<int>, got {lines[0]!r}")
    n = int(m.group(1))
    members = []
    for line in lines[1:]:
        sm = re.fullmatch(r"\{([\d,\s]*)\}", line)
        if not sm:
            raise ParseError(f"expected a set like {{1,3}}, got {line!r}")
        body = sm.group(1).strip()
        try:
            elems = [int(x) for x in body.split(",")] if body else []
        except ValueError:
            raise ParseError(f"empty or space-separated item in {line!r}")
        if any(not 1 <= e <= n for e in elems):
            raise ParseError(f"element out of range in {line!r}")
        mask = 0
        for e in elems:
            mask |= 1 << (e - 1)
        members.append(mask)
    return SetFamily.of(n, members)


def plain_parse_digraph(text: str) -> Digraph:
    """The digraph text format read line by line with one regex, ``int`` and
    range and loop checks per edge: ``vertices=<n>`` then one ``u -> v`` per
    line, with ``#`` comments and blank lines skipped."""
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ParseError("empty digraph file")
    m = re.fullmatch(r"vertices=(\d+)", lines[0])
    if not m:
        raise ParseError(f"expected vertices=<n>, got {lines[0]!r}")
    n = int(m.group(1))
    edges = []
    for line in lines[1:]:
        em = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
        if not em:
            raise ParseError(f"expected `u -> v`, got {line!r}")
        u, v = int(em.group(1)), int(em.group(2))
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range in {line!r}")
        if u == v:
            raise ParseError(f"loop in {line!r}")
        edges.append((u - 1, v - 1))
    return Digraph.of(n, edges)
