"""Directed graphs: the auxiliary digraph of a family, transitive-cycle
detection, cycle contraction, and small exhaustive extremal oracles.

A transitive cycle on k >= 3 vertices is a directed path v1..vk plus the
chord edge v1 -> vk.  Double edges (u <-> v) are not transitive cycles.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import BadParam, HypothesisFails, NotAnInducedCycle, TooLarge
from .family import SetFamily
from .search import TranspositionLanes


@dataclass(frozen=True)
class Digraph:
    """Loop-free digraph; at most one edge per ordered pair."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise BadParam(f"loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise BadParam(f"edge ({u}, {v}) out of range")

    @classmethod
    def of(cls, vertex_count: int, edges) -> "Digraph":
        return cls(vertex_count, frozenset(edges))

    def edge_count(self) -> int:
        return len(self.edges)

    def out_adj(self) -> list[int]:
        """Per-vertex bitmask of out-neighbours."""
        adj = [0] * self.vertex_count
        for u, v in self.edges:
            adj[u] |= 1 << v
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def auxiliary_digraph(F: SetFamily) -> Digraph:
    """Digraph on the family members with, for every ground element i, the
    lexicographically smallest member pair (A, B) with A \\ B = {i} as the
    edge A -> B.

    Raises HypothesisFails(i) when some i admits no such pair; that failing i
    is exactly the witness needed for the constant-bound blow-up argument.
    Distinct i always pick distinct pairs, so the result has exactly n edges.
    """
    edges = []
    for i, pairs in enumerate(F._pair_rows, 1):
        if not pairs:
            raise HypothesisFails(i)
        edges.append(pairs[0])
    return Digraph.of(len(F.members), edges)


# -- transitive cycles -------------------------------------------------------

def _bfs_path(adj: list[int], src: int, dst: int) -> list[int] | None:
    """Shortest directed path src -> dst (list of vertices), or None."""
    parent = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        m = adj[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if v not in parent:
                parent[v] = u
                if v == dst:
                    path = [v]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(v)
    return None


def _transitive_chord(adj: list[int], edges) -> tuple[int, int] | None:
    """The first of ``edges`` (u, v), in the order given, whose endpoints are
    joined by a path that avoids it in the digraph with out-neighbour rows
    ``adj``, or None.  Such a path has length >= 2, so the edge is the chord
    of a transitive cycle.  ``adj`` is left as it was."""
    for u, v in edges:
        row = adj[u]
        adj[u] = row & ~(1 << v)
        # vertices reachable from u, one bitset frontier per BFS level
        seen = frontier = adj[u]
        while frontier and not seen >> v & 1:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        adj[u] = row
        if seen >> v & 1:
            return u, v
    return None


def has_transitive_cycle(D: Digraph) -> list[int] | None:
    """A transitive-cycle witness [v1, ..., vk] (the path; the chord is
    v1 -> vk), or None.

    The chord is the first edge in sorted order that closes a transitive
    cycle, and the path is a shortest one from v1 to vk that avoids it.
    """
    adj = D.out_adj()
    chord = _transitive_chord(adj, D.sorted_edges())
    if chord is None:
        return None
    u, v = chord
    adj[u] &= ~(1 << v)
    return _bfs_path(adj, u, v)


def find_induced_oriented_cycle(D: Digraph) -> list[int] | None:
    """Vertices of a shortest directed cycle (length >= 2), or None.

    A shortest directed cycle has no chord in either direction (a chord
    would close a shorter cycle), so it is automatically induced.
    """
    adj = D.out_adj()
    best: list[int] | None = None
    for u, v in D.sorted_edges():
        # cycle = path v -> u plus the edge u -> v
        path = _bfs_path(adj, v, u)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def is_induced_oriented_cycle(D: Digraph, cycle: list[int]) -> bool:
    """Check that the induced subgraph on the listed vertices is exactly the
    oriented cycle in the listed order."""
    k = len(cycle)
    if k < 2 or len(set(cycle)) != k:
        return False
    want = {(cycle[j], cycle[(j + 1) % k]) for j in range(k)}
    cyc = set(cycle)
    have = {(u, v) for u, v in D.edges if u in cyc and v in cyc}
    return have == want


def contract_cycle(D: Digraph, cycle: list[int]) -> Digraph:
    """Contract an induced oriented cycle into a single vertex.

    Surviving vertices keep their relative order and are renumbered
    0..m-1; the contracted vertex is the last one (index m).
    """
    if not is_induced_oriented_cycle(D, cycle):
        raise NotAnInducedCycle(f"{cycle} is not an induced oriented cycle")
    cyc = set(cycle)
    outside = [v for v in range(D.vertex_count) if v not in cyc]
    index = {v: j for j, v in enumerate(outside)}
    c = len(outside)
    edges = set()
    for u, v in D.edges:
        if u in cyc and v in cyc:
            continue
        if u in cyc:
            edges.add((c, index[v]))
        elif v in cyc:
            edges.add((index[u], c))
        else:
            edges.add((index[u], index[v]))
    return Digraph.of(c + 1, edges)


# -- extremal constructions and oracles --------------------------------------

def turan_bipartite(n: int) -> Digraph:
    """All edges from a class of size floor(n/2) to the other ceil(n/2)
    vertices; floor(n^2/4) edges and no transitive cycle."""
    if n < 1:
        raise BadParam("need n >= 1")
    a = n // 2
    edges = [(u, v) for u in range(a) for v in range(a, n)]
    return Digraph.of(n, edges)


# Largest vertex count of the exhaustive search: on a 2-core VM n = 7 took
# about 0.15 s, n = 8 about 0.3 s and n = 9 about 1.5 s (each with the
# smaller sizes it runs first).
BRUTEFORCE_CAP = 9


def max_tc_free_edges_bruteforce(n: int) -> tuple[int, Digraph]:
    """Exact maximum edge count of a transitive-cycle-free digraph on n
    vertices, plus the lexicographically smallest maximizer.

    Exhaustive branch-and-bound over edge subsets, for n <= ``BRUTEFORCE_CAP``,
    run for k = 2, ..., n vertices in turn, each run taking the maximum on
    k - 1 vertices from the run before (nothing is kept between calls).
    Since freeness is closed under taking subgraphs, the search only ever
    extends transitive-cycle-free sets, with a best-so-far bound and, for
    n >= 2, the first edge fixed to (0, 1) by vertex relabelling (the
    lexicographically smallest maximizer must contain it).  An edge joins
    the set iff ``_transitive_chord`` finds no chord among the extended set.

    Two more prunes keep the witness.  Symmetry: a child is dropped when
    some vertex transposition maps its edge set to a lexicographically
    smaller one (``TranspositionLanes.canonical`` on the lanes of the edges,
    as in ``exact_sat_star``); such a map keeps freeness and the edge count,
    so the smallest maximizer is no larger than its images, and so is every
    prefix of it.  Degree floor: deleting a vertex leaves a free digraph, so
    in a free digraph with e edges every vertex has in- plus out-degree at
    least e - ex(k - 1); an edge is tried only when, with it, every vertex's
    degree plus its edges after it can still reach that floor for the
    smallest count the search still records.
    """
    if n > BRUTEFORCE_CAP:
        raise TooLarge(f"exhaustive search capped at {BRUTEFORCE_CAP} vertices")
    if n < 1:
        raise BadParam("need n >= 1")
    best, edges = 0, []
    for k in range(2, n + 1):
        best, edges = _max_tc_free(k, best)
    return best, Digraph.of(n, edges)


def _max_tc_free(n: int, below: int) -> tuple[int, list[tuple[int, int]]]:
    """The search on n >= 2 vertices, given ``below``, the maximum on n - 1."""
    all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    ecount = len(all_edges)
    index = {e: j for j, e in enumerate(all_edges)}
    maps = []
    for i, j in itertools.combinations(range(n), 2):
        swap = list(range(n))
        swap[i], swap[j] = j, i
        maps.append([index[swap[u], swap[v]] for u, v in all_edges])
    lanes = TranspositionLanes.of_maps(maps, ecount)
    # read once: a named tuple field costs more per read than a local
    image, ones = lanes.image, lanes.ones
    # reach[w][r - 1]: the position of the r-th last edge at vertex w, the
    # last cursor from which w can still gain r edges (-1 past its edges)
    reach = [[j for j in range(ecount - 1, -1, -1) if w in all_edges[j]] + [-1] * ecount for w in range(n)]
    # the first edge is forced to (0, 1); the empty digraph never beats the seed
    chosen = [(0, 1)]
    adj = [1 << 1] + [0] * (n - 1)
    degree = [1, 1] + [0] * (n - 2)
    # seed: the bipartite construction's count, witness filled in by search
    best = n * n // 4
    best_edges: list[tuple[int, int]] | None = None

    def stop() -> int:
        """One past the last edge worth trying next: past it, too few edges
        are left for a count the search still records, or some vertex could
        not reach the degree floor of that count with every edge left."""
        target = best if best_edges is None else best + 1
        floor = target - below
        last = ecount - (target - len(chosen))
        for w in range(n):
            short = floor - degree[w]
            if short > 0:
                last = min(last, reach[w][short - 1])
        return last + 1

    def dfs(idx, images, marks):
        nonlocal best, best_edges
        count = len(chosen)
        if count > best or (count == best and best_edges is None):
            best = count
            best_edges = list(chosen)
        end = stop()
        for j in range(idx, ecount):
            if j >= end:
                break
            j_images, j_marks = images | image[j], marks | ones << j
            if not lanes.canonical(j_images, j_marks):
                continue
            u, v = all_edges[j]
            row = adj[u]
            adj[u] = row | 1 << v
            chosen.append((u, v))
            # the new edge first: it is the most likely chord
            if _transitive_chord(adj, chosen[::-1]) is None:
                degree[u] += 1
                degree[v] += 1
                recorded = best_edges
                dfs(j + 1, j_images, j_marks)
                degree[u] -= 1
                degree[v] -= 1
                if best_edges is not recorded:
                    end = stop()
            chosen.pop()
            adj[u] = row

    dfs(1, image[0], ones)
    assert best_edges is not None
    return best, best_edges


def is_tc_free(D: Digraph) -> bool:
    return _transitive_chord(D.out_adj(), D.edges) is None
