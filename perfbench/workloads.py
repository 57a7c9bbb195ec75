"""Seeded inputs, tasks and answer checks for the three benchmark workloads.

Every input is generated here from the run's seed; the library receives only
the generated inputs (posets, or families and digraphs as text).  Each task
carries a check that runs after it, outside the timed region, and returns
``None`` for a right answer or a one-line description of what is wrong.

Nothing here is taken from ``posat.verify``: its generators call library
functions (``has_transitive_cycle``), which would put library time into
input generation and library logic into the checks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # False when the output is right but not a final answer (a time-limited
    # search that returned sound bounds with exact=False).
    solved: Callable[[object], bool] = lambda out: True
    # Work depends on the clock, so its call counts do not repeat.
    time_limited: bool = False


# -- exact_panel ---------------------------------------------------------------

# sat*(n, P) for the 17 isomorphism classes in catalog_small(5), at n = 3 and 4.
EXACT_N3_N4 = {
    "chain:2": (1, 1), "chain:3": (2, 2), "chain:4": (4, 4), "chain:5": (8, 8),
    "antichain:2": (4, 5), "antichain:3": (6, 8),
    "antichain:4": (8, 11), "antichain:5": (8, 14),
    "fork": (4, 5), "diamond": (4, 5), "N": (6, 8), "Y": (5, 6), "Yinv": (5, 6),
    "X": (8, 10), "wedge:1": (4, 5), "wedge:3": (8, 9), "vee:3": (8, 9),
}
EXACT_N5 = {"fork": 6, "diamond": 6, "Yinv": 7}
# sat*(5, X) = 12: the double-legs bound 2n+2 meets the 12-member
# x_upper_family(5).  The current search does not reach it in the limit.
X_N5 = 12
X_N5_TIME_LIMIT = 1.0


def catalog_poset(posat, spec: str):
    name, _, param = spec.partition(":")
    return posat.catalog(name, int(param) if param else None)


def relabel(posat, P, rng: random.Random):
    """P with its elements renamed by a seeded permutation (same poset up to
    isomorphism, so every answer is unchanged)."""
    perm = list(range(P.size))
    rng.shuffle(perm)
    up = [0] * P.size
    for a in range(P.size):
        for b in range(P.size):
            if P.up[a] >> b & 1:
                up[perm[a]] |= 1 << perm[b]
    return posat.Poset(P.size, tuple(up), P.name)


def _exact_task(posat, spec, P, n, expected, time_limit=None) -> Task:
    search = posat.search
    config = search.SearchConfig(time_limit=time_limit)

    def check(res):
        if res.exact:
            if res.lower_bound != expected or res.upper_bound != expected:
                return f"sat*={res.lower_bound}..{res.upper_bound}, expected {expected}"
        elif time_limit is None:
            return "exact=False without a time limit"
        elif not res.lower_bound <= expected <= res.upper_bound:
            return f"bounds {res.lower_bound}..{res.upper_bound} exclude {expected}"
        if res.witness is None or len(res.witness) != res.upper_bound:
            return f"witness size differs from upper bound {res.upper_bound}"
        if not posat.is_induced_saturated(res.witness, [P]).saturated:
            return "witness is not induced saturated"
        return None

    return Task(
        f"exact {spec} n={n}",
        lambda: search.exact_sat_star(n, [P], config),
        check,
        solved=lambda res: res.exact,
        time_limited=time_limit is not None,
    )


def exact_panel(posat, rng: random.Random) -> list[Task]:
    tasks = []
    for col, n in enumerate((3, 4)):
        for spec, values in EXACT_N3_N4.items():
            P = relabel(posat, catalog_poset(posat, spec), rng)
            tasks.append(_exact_task(posat, spec, P, n, values[col]))
    for spec, value in EXACT_N5.items():
        P = relabel(posat, catalog_poset(posat, spec), rng)
        tasks.append(_exact_task(posat, spec, P, 5, value))
    P = relabel(posat, posat.catalog("X"), rng)
    tasks.append(_exact_task(posat, "X", P, 5, X_N5, time_limit=X_N5_TIME_LIMIT))
    return tasks


# -- text inputs -----------------------------------------------------------------

def permute_ground_set(masks, n: int, rng: random.Random) -> list[int]:
    """The members with the ground elements renamed by a seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for m in masks:
        t = 0
        for i in range(n):
            if m >> i & 1:
                t |= 1 << perm[i]
        out.append(t)
    return sorted(out)


def family_text(n: int, masks) -> str:
    lines = [f"n={n}"]
    for m in masks:
        lines.append("{" + ",".join(str(i + 1) for i in range(n) if m >> i & 1) + "}")
    return "\n".join(lines) + "\n"


def digraph_text(v: int, edges) -> str:
    return "\n".join([f"vertices={v}"] + [f"{a + 1} -> {b + 1}" for a, b in sorted(edges)]) + "\n"


def _parsed_family_mismatch(F, n, masks) -> str | None:
    if F.n != n or list(F.members) != list(masks):
        return "parsed family differs from the generated one"
    return None


# -- saturation_check ------------------------------------------------------------

def _is_induced_copy(P, masks, mapping) -> bool:
    """mapping sends P's elements to member indices, injectively, so that
    a < b in P exactly when the image of a is a proper subset of that of b."""
    if len(set(mapping)) != P.size or not all(0 <= j < len(masks) for j in mapping):
        return False
    for a in range(P.size):
        for b in range(P.size):
            ma, mb = masks[mapping[a]], masks[mapping[b]]
            subset = ma != mb and ma & ~mb == 0
            if a != b and bool(P.up[a] >> b & 1) != subset:
                return False
    return True


def _saturation_task(posat, label, n, masks, P, expected: str) -> Task:
    text = family_text(n, masks)
    io, family = posat.io, posat.family

    def run():
        F = io.parse_family(text)
        return F, family.is_induced_saturated(F, [P])

    def check(out):
        F, report = out
        bad = _parsed_family_mismatch(F, n, masks)
        if bad:
            return bad
        got = ("saturated" if report.saturated
               else "addable" if report.addable is not None
               else "forbidden_copy")
        if got != expected:
            return f"verdict {got}, expected {expected}"
        if got == "addable" and (report.addable in masks or not 0 <= report.addable < 1 << n):
            return f"reported addable set {report.addable:#x} is not missing from the family"
        if got == "forbidden_copy" and not _is_induced_copy(P, masks, report.forbidden_copy[1]):
            return f"reported copy {report.forbidden_copy} is not an induced copy"
        return None

    return Task(f"saturated? {label}", run, check)


def saturation_check(posat, rng: random.Random) -> list[Task]:
    fam = posat.family
    cases = []  # (label, family, forbidden poset, expected verdict)
    for n in (10, 12, 14):
        cases.append((f"x_upper({n}) vs X", fam.x_upper_family(n), "X", "saturated"))
    for n in (10, 12):
        cases.append((f"y_upper({n}) vs Y", fam.y_upper_family(n), "Y", "saturated"))
    for n, ell in ((8, 3), (10, 3)):
        cases.append((f"wedge_upper({n},{ell}) vs wedge({ell + 1})",
                      fam.wedge_upper_family(n, ell), f"wedge:{ell + 1}", "saturated"))
    # Free of Xell(ell) but not maximal: the documented by-design finding.
    for n, ell in ((5, 2), (6, 2), (7, 3)):
        cases.append((f"xell_upper({n},{ell}) vs Xell({ell})",
                      fam.xell_upper_family(n, ell), f"Xell:{ell}", "addable"))
    # A singleton on top of y_upper: {} < {i} < two (n-1)-sets holding i is a Y.
    Fy = fam.y_upper_family(10)
    with_singleton = posat.SetFamily.of(10, Fy.members + (1 << rng.randrange(10),))
    cases.append(("y_upper(10)+singleton vs Y", with_singleton, "Y", "forbidden_copy"))

    tasks = []
    for label, F, spec, expected in cases:
        masks = permute_ground_set(F.members, F.n, rng)
        tasks.append(_saturation_task(posat, label, F.n, masks, catalog_poset(posat, spec), expected))
    return tasks


# -- pair_certificates -----------------------------------------------------------

PAIR_SIZES = (9, 16, 25, 36)
FAMILIES_PER_SIZE = 3
UNIQUE_PAIR_SIZES = (4, 9, 16, 25, 36, 49)
DIGRAPH_PAIRS = 10
# Which catalog posets have legs, and whether their duals do too.
LEGS_KIND = {"Yinv": "legs", "wedge:1": "legs", "wedge:3": "legs", "X": "double_legs"}
BRUTE_MAX_5 = 8


def pair_covered_family(n: int, rng: random.Random) -> list[int]:
    """A few random members, plus a pair (B, B + {i}) for every i in [n]
    that no two members have as their difference A \\ B = {i}."""
    members = {rng.getrandbits(n) for _ in range(rng.randrange(2, 6))}
    covered = 0
    for a in members:
        for b in members:
            d = a & ~b
            if d and d & (d - 1) == 0:
                covered |= d
    for i in range(n):
        bit = 1 << i
        if not covered & bit:
            b = rng.getrandbits(n) & ~bit
            members.update((b, b | bit))
    return sorted(members)


def _adjacency(v: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(v)]
    for a, b in edges:
        adj[a].add(b)
    return adj


def transitive_cycle(v: int, edges) -> list[int] | None:
    """A path v1..vk (k >= 3) whose chord v1 -> vk is also an edge, or None:
    for each edge (u, w), a breadth-first u -> w path that avoids it."""
    adj = _adjacency(v, edges)
    for u, w in sorted(edges):
        parent = {u: None}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if (x, y) == (u, w) or y in parent:
                    continue
                parent[y] = x
                if y == w:
                    path = [w]
                    while path[-1] != u:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(y)
    return None


def is_transitive_cycle(edges, path) -> bool:
    """Edge by edge: a simple path of >= 3 vertices plus its chord."""
    return (
        len(path) >= 3
        and len(set(path)) == len(path)
        and all((a, b) in edges for a, b in zip(path, path[1:]))
        and (path[0], path[-1]) in edges
    )


def has_directed_cycle(v: int, edges) -> bool:
    indegree = [0] * v
    for _, b in edges:
        indegree[b] += 1
    adj = _adjacency(v, edges)
    ready = [x for x in range(v) if indegree[x] == 0]
    removed = 0
    while ready:
        x = ready.pop()
        removed += 1
        for y in adj[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return removed < v


def is_induced_oriented_cycle(edges, cycle) -> bool:
    k = len(cycle)
    if k < 2 or len(set(cycle)) != k:
        return False
    want = {(cycle[j], cycle[(j + 1) % k]) for j in range(k)}
    on = set(cycle)
    return {(a, b) for a, b in edges if a in on and b in on} == want


def tc_free_with_cycle(rng: random.Random):
    """A random digraph on 6-12 vertices, and its subgraph left after deleting
    chords until no transitive cycle remains; redrawn until that subgraph
    still has a directed cycle."""
    while True:
        v = rng.randrange(6, 13)
        p = rng.uniform(0.15, 0.35)
        dense = {(a, b) for a in range(v) for b in range(v) if a != b and rng.random() < p}
        edges = set(dense)
        while (path := transitive_cycle(v, edges)) is not None:
            edges.discard((path[0], path[-1]))
        if has_directed_cycle(v, edges):
            return v, dense, edges


def _tc_mismatch(v, edges, witness) -> str | None:
    if witness is None:
        if transitive_cycle(v, edges) is not None:
            return "missed a transitive cycle"
    elif not is_transitive_cycle(edges, witness):
        return f"witness {witness} is not a transitive cycle"
    return None


def _aux_mismatch(n, masks, D) -> str | None:
    """n edges A -> B, one for each i, with A \\ B = {i}."""
    if D.edge_count() != n:
        return f"auxiliary digraph has {D.edge_count()} edges, expected {n}"
    diffs = {masks[a] & ~masks[b] for a, b in D.edges}
    if diffs != {1 << i for i in range(n)}:
        return "auxiliary digraph edges are not one singleton difference per element"
    return None


def _family_task(posat, label, n, masks) -> Task:
    text = family_text(n, masks)
    io, search, digraph = posat.io, posat.search, posat.digraph

    def run():
        F = io.parse_family(text)
        report = search.digraph_lower_bound_check(F)
        D = digraph.auxiliary_digraph(F)
        return F, report, D, digraph.has_transitive_cycle(D)

    def check(out):
        F, report, D, witness = out
        if not report.hypothesis_holds or len(F) < report.bound:
            return f"pair hypothesis reported as failing at i={report.failing_i}"
        return (_parsed_family_mismatch(F, n, masks) or _aux_mismatch(n, masks, D)
                or _tc_mismatch(len(masks), D.edges, witness))

    return Task(f"pairs {label}", run, check)


def _unique_pair_task(posat, n, masks) -> Task:
    text = family_text(n, masks)
    io, family, digraph = posat.io, posat.family, posat.digraph
    # The construction degenerates at n = 4: every i has two pairs there.
    per_i = 2 if n == 4 else 1

    def run():
        F = io.parse_family(text)
        counts = [len(family.singleton_difference_pairs(F, i)) for i in range(1, n + 1)]
        D = digraph.auxiliary_digraph(F)
        return F, counts, D, digraph.has_transitive_cycle(D)

    def check(out):
        F, counts, D, witness = out
        if counts != [per_i] * n:
            return f"pairs per element {sorted(set(counts))}, expected {per_i}"
        return (_parsed_family_mismatch(F, n, masks) or _aux_mismatch(n, masks, D)
                or _tc_mismatch(len(masks), D.edges, witness))

    return Task(f"unique_pair({n})", run, check)


def _digraph_task(posat, label, v, edges) -> Task:
    text = digraph_text(v, edges)
    io, digraph = posat.io, posat.digraph

    def run():
        D = io.parse_digraph(text)
        witness = digraph.has_transitive_cycle(D)
        cycle = digraph.find_induced_oriented_cycle(D)
        contracted = None
        if witness is None and cycle is not None:
            contracted = digraph.contract_cycle(D, cycle)
        return D, witness, cycle, contracted

    def check(out):
        D, witness, cycle, contracted = out
        if D.vertex_count != v or D.edges != frozenset(edges):
            return "parsed digraph differs from the generated one"
        bad = _tc_mismatch(v, edges, witness)
        if bad:
            return bad
        if cycle is None:
            return "missed a directed cycle" if has_directed_cycle(v, edges) else None
        if not is_induced_oriented_cycle(edges, cycle):
            return f"{cycle} is not an induced oriented cycle"
        # Without transitive cycles no outside vertex has two edges in the
        # same direction to the cycle, so contraction loses exactly |C| edges.
        if witness is None and contracted.edge_count() != len(edges) - len(cycle):
            return f"contraction kept {contracted.edge_count()} of {len(edges)} edges, |C|={len(cycle)}"
        return None

    return Task(f"digraph {label}", run, check)


def _brute_max_task(posat) -> Task:
    digraph = posat.digraph

    def check(out):
        count, D = out
        if count != BRUTE_MAX_5 or D.edge_count() != count:
            return f"brute-max(5)={count} with {D.edge_count()} edges, expected {BRUTE_MAX_5}"
        if transitive_cycle(5, D.edges) is not None:
            return "brute-max(5) witness has a transitive cycle"
        return None

    return Task("brute-max(5)", lambda: digraph.max_tc_free_edges_bruteforce(5), check)


def _legs_task(posat, spec, P, n) -> Task:
    search = posat.search
    kind = LEGS_KIND.get(spec)
    bound = {None: None, "legs": n + 1, "double_legs": 2 * n + 2}[kind]

    def check(cert):
        got = (None, None) if cert is None else (cert.kind, cert.bound)
        if got != (kind, bound):
            return f"legs bound {got}, expected {(kind, bound)}"
        return None

    return Task(f"legs {spec} n={n}", lambda: search.legs_lower_bound(P, n), check)


def pair_certificates(posat, rng: random.Random) -> list[Task]:
    tasks = []
    for n in PAIR_SIZES:
        for j in range(FAMILIES_PER_SIZE):
            tasks.append(_family_task(posat, f"n={n} #{j}", n, pair_covered_family(n, rng)))
    for n in UNIQUE_PAIR_SIZES:
        masks = permute_ground_set(posat.unique_pair_family(n).members, n, rng)
        tasks.append(_unique_pair_task(posat, n, masks))
    for j in range(DIGRAPH_PAIRS):
        v, dense, free = tc_free_with_cycle(rng)
        tasks.append(_digraph_task(posat, f"#{j} random", v, dense))
        tasks.append(_digraph_task(posat, f"#{j} tc-free", v, free))
    tasks.append(_brute_max_task(posat))
    for spec in EXACT_N3_N4:
        P = relabel(posat, catalog_poset(posat, spec), rng)
        tasks.append(_legs_task(posat, spec, P, rng.randrange(3, 12)))
    return tasks


WORKLOADS = {
    "exact_panel": exact_panel,
    "saturation_check": saturation_check,
    "pair_certificates": pair_certificates,
}
