"""Bounds and exact values for the minimum induced saturated family size.

The minimum is computed as the smallest size of a maximal induced-free
family in 2^[n], which is the same thing as the smallest induced saturated
family: a free family is saturated exactly when nothing can be added to it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import BadN, BadParam, NoLegs, NotSaturated, TooLarge
from .family import (
    SWEEP_CAP,
    InclusionRows,
    SetFamily,
    blow_up,
    check_forbidden,
    complement_family,
    is_induced_saturated,
    iter_induced_embeddings,
    wedge_upper_family,
    x_upper_family,
    y_upper_family,
)
from .poset import (
    LegsWitness,
    Poset,
    _copy_plan,
    dual,
    has_legs,
    isomorphic,
    isomorphism_classes,
    iter_legs_witnesses,
)


class SearchConfig(NamedTuple):
    time_limit: float | None = None


class SearchStats(NamedTuple):
    """The work of one exact search: the DFS nodes visited (the families
    of the target size tested for maximality included), those families
    (leaves), the children the symmetry lanes pruned, the nodes pruned by
    the lookahead on the dead masks (at every node before ``blocked_by``,
    and after it at need = 1 or need >= p - 1, p the largest forbidden
    size; leaves rejected as not maximal included), the copy-table queries
    (``small_copy_through`` calls of the lookahead and ``blocked_by``
    calls, one per child and one per mask a leaf test reads), the seconds
    spent on each target size k searched, as (k, seconds) pairs, the
    distinct forbidden copies in 2^[n] the copy table indexes (0 when the
    time limit fell before it was built), the seconds its build took, and
    the nodes pruned, or whose children were cut, by the lookahead on
    every unblocked mask after ``blocked_by`` at 2 <= need < p - 1."""

    nodes: int
    leaves: int
    symmetry_prunes: int
    lookahead_prunes: int
    queries: int
    level_seconds: tuple[tuple[int, float], ...]
    copies: int
    build_seconds: float
    need_prunes: int


@dataclass(frozen=True)
class SatStarResult:
    """Bounds on the minimum saturated family size, with certificates.

    ``lower_kind`` is exhaustive, legs, double_legs or trivial; ``upper_kind``
    is exhaustive (the search), greedy or a construction such as empty
    ({∅}), star (∅ plus the singletons), x_upper, complement:y_upper or
    wedge_upper:2.  An exact witness attains the lower bound.
    ``stats`` is set iff a search ran.
    """

    n: int
    forbidden: tuple[Poset, ...]
    lower_bound: int
    lower_kind: str
    upper_bound: int
    upper_kind: str
    witness: SetFamily | None
    exact: bool
    stats: SearchStats | None = None

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise BadParam("lower bound exceeds upper bound")


class _TimeUp(Exception):
    pass


# The largest ground set the exact search starts on when the certified bounds
# stay apart: the tree grows with the 2^n masks, and every leaf checks them all.
SEARCH_CAP = 8


def greedy_saturate(n: int, forbidden) -> SetFamily:
    """A maximal induced-free family: scan the 2^n sets in ascending mask
    order and add each one that completes no forbidden copy.  Above
    ``SWEEP_CAP`` sets it raises TooLarge before any work."""
    if n < 0:
        raise BadN(f"ground-set size must be >= 0, got {n}")
    if 1 << n > SWEEP_CAP:
        raise TooLarge(f"greedy scans all 2^{n} sets, over the cap of {SWEEP_CAP}")
    forbidden = check_forbidden(forbidden)
    rows = InclusionRows()
    for s in range(1 << n):
        if not rows.blocks(s, forbidden):
            rows.push(s)
    return SetFamily.of(n, rows.members)


class TranspositionLanes(NamedTuple):
    """The image of every point under every map of a list (one lane per
    map), packed into one int per point: lane t of ``image[p]`` has bit
    g_t(p) + 1 set, and bit 0 of every lane is spare.  ``build`` gives the
    lanes of the masks of 2^[n] under the transpositions of the ground set;
    the maps of other point sets (the edges of a digraph under the vertex
    transpositions) go through ``of_maps``."""

    image: tuple[int, ...]
    ones: int  # the bit of point 0 in every lane
    spare: int  # bit 0 of every lane

    def canonical(self, images: int, marks: int) -> bool:
        """True iff no lane's map takes the point set S to a
        lexicographically smaller set, given ``images``, the OR of
        ``image[p]`` over p in S, and ``marks``, S copied into every lane
        (``ones << p`` for each p).

        For equal-size sets, sorted(g(S)) < sorted(S) iff the lowest point
        of S xor g(S) lies in g(S), so S passes iff in every lane of
        x = images ^ marks the lowest set bit, if any, is marked.  The spare
        bit 0 of each lane of x is clear (a map need not fix point 0):
        subtracting ``spare``, plus the borrow out of a clear lane below,
        clears the lowest set bit of each nonzero lane and borrows no
        further.
        """
        x = images ^ marks
        return not x & ~(x - self.spare) & ~marks

    @classmethod
    def of_maps(cls, maps, points: int) -> "TranspositionLanes":
        """The lanes of the maps of points 0..points-1 in ``maps`` (map t
        takes p to ``maps[t][p]``), in that order, of points + 1 bits (whole
        bytes) each."""
        one_hot = [(2 << p).to_bytes((points + 8) // 8, "little") for p in range(points)]
        image = tuple(int.from_bytes(b"".join([one_hot[g[p]] for g in maps]), "little") for p in range(points))
        ones = int.from_bytes(one_hot[0] * len(maps), "little")
        return cls(image, ones, ones >> 1)

    @classmethod
    def build(cls, n: int, complement: bool = False) -> "TranspositionLanes":
        """The lanes of every mask over [n] under every transposition (i j),
        i < j, in lexicographic order, then, with ``complement``, under
        complementation and under complementation after each (i j), in the
        same order: C(n, 2) lanes, and C(n, 2) + 1 more with ``complement``."""
        # (i j) moves m iff m has exactly one of the two bits
        swaps = [1 << i | 1 << j for i, j in itertools.combinations(range(n), 2)]
        masks = range(1 << n)
        maps = [[m ^ s if 0 < m & s < s else m for m in masks] for s in swaps]
        if complement:
            top = (1 << n) - 1
            maps += [[g ^ top for g in lane] for lane in [masks] + maps]
        return cls.of_maps(maps, 1 << n)


@functools.lru_cache(maxsize=2 * (SEARCH_CAP + 1))
def _cube(n: int, closed: bool) -> tuple[InclusionRows, TranspositionLanes]:
    """The ``InclusionRows`` of every mask of 2^[n] and the lanes of the
    masks (``TranspositionLanes.build(n, closed)``), built once per
    (n, closed), as ``poset._plan`` is: the search only reads them, and
    runs at n <= ``SEARCH_CAP`` only."""
    return InclusionRows(range(1 << n)), TranspositionLanes.build(n, complement=closed)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _TimeUp


class _CopyTable:
    """Every induced copy of a forbidden poset among the masks of 2^[n], as
    a bitset of masks, indexed for ``small_copy_through`` and
    ``blocked_by``: ``through[x]`` lists the copies containing mask x
    in ascending order, and ``keep[x][c][v]`` has bit i set iff copy
    ``through[x][i]`` avoids every mask 4c + b with bit b set in v (the
    "four Russians" tables of Arlazarov et al., 1970), the 16 rows of a
    chunk built from its four one-mask rows by 11 ANDs.  ``tail[x][c]`` is
    the AND of rows 15 of the chunks from c on: the copies through x that
    avoid every mask from 4c on; ``tail_one[x][c]`` has those with exactly
    one mask from 4c on."""

    def __init__(self, forbidden, rows: InclusionRows, deadline: float | None):
        """Enumerate the copies on the cube ``rows`` (the cached rows of
        the search, only read), each as the bitset and the targets that the
        ``copies`` kernel of the ``_copy_plan`` that ``induced_copies`` runs
        yields (isomorphic posets in the list share their copies, so each
        class is enumerated once), and build the tables, checking
        ``deadline`` as it goes; raises TooLarge as soon as the memberships
        (sum of the copy sizes) cross ``SWEEP_CAP``."""
        total = len(rows.up)
        self.full = (1 << total) - 1
        self.smallest = min(P.size for P in forbidden)
        through = [[] for _ in range(total)]
        self.copies = memberships = 0
        for P in isomorphism_classes(forbidden):
            copies = _copy_plan(P.up).copies(rows.up, rows.down, self.full) if P.size <= total else ()
            for bits, image in copies:
                if not self.copies & 1023:
                    _check_deadline(deadline)
                self.copies += 1
                memberships += P.size
                if memberships > SWEEP_CAP:
                    raise TooLarge(f"the forbidden copies among the {total} masks hold over "
                                   f"{SWEEP_CAP} memberships, over the cap")
                for j in image:
                    through[j].append(bits)
        self.through = through
        self.chunks = (total + 3) >> 2
        self.keep, self.tail, self.tail_one = [], [], []
        stride = max(total, 8)  # bits per copy in the grid below, whole bytes
        for x, copies in enumerate(through):
            _check_deadline(deadline)
            copies.sort()
            # the copies side by side, copy i at bit i * stride, read as one
            # string of '1' where the copy avoids the mask: the column of
            # mask t read in base 2 has bit i for copy i
            ones = (1 << len(copies)) - 1
            packed = int.from_bytes(b"".join(c.to_bytes(stride // 8, "big") for c in reversed(copies)), "big")
            grid = format(packed ^ (1 << len(copies) * stride) - 1, f"0{len(copies) * stride}b")
            # below n = 2 the one chunk runs past the masks: pad it
            avoid = [int(grid[stride - 1 - t::stride] or "0", 2) for t in range(total)] + [ones] * 3
            chunks = []
            for c in range(0, total, 4):
                a0, a1, a2, a3 = avoid[c:c + 4]
                chunks.append([ones, a0, a1, a01 := a0 & a1, a2, a02 := a0 & a2, a12 := a1 & a2, a012 := a01 & a2,
                               a3, a0 & a3, a1 & a3, a01 & a3, a2 & a3, a02 & a3, a12 & a3, a012 & a3])
            self.keep.append(chunks)
            tail, tail_one = [ones], [0]
            for row in reversed(chunks):
                single = (row[7] | row[11] | row[13] | row[14]) & ~row[15]  # one mask of the chunk
                tail_one.append(tail_one[-1] & row[15] | tail[-1] & single)
                tail.append(tail[-1] & row[15])
            self.tail.append(tail[::-1])
            self.tail_one.append(tail_one[::-1])

    def small_copy_through(self, x: int, within: int, members: int, most: int) -> int:
        """The highest copy through mask x inside the masks set in
        ``within`` (which must contain x) with at most ``most`` masks
        outside ``members`` and x (x must be outside ``members``), as a
        bitset of masks; 0 when there is none.  Every mask above the highest
        one in ``within`` is outside it, so the chunks from ``top`` on are
        one ``tail`` lookup.  When ``most`` + 1 is below the smallest
        forbidden size a copy with no member fails the count, so the rows of
        the members' pattern in their chunks drop the copies that avoid
        every member.  The copies left are scanned from the highest.  (In an
        ascending search a copy whose masks lie high stays inside the live
        masks longest, so it makes the best watch.)"""
        top = (within.bit_length() + 3) >> 2
        alive = self.tail[x][top]
        out = self.full ^ within
        chunks = self.keep[x]
        for row in chunks if top >= self.chunks else chunks[:top]:
            alive &= row[out & 15]
            if not alive:
                return 0
            out >>= 4
        if most + 1 < self.smallest:
            none, inside = alive, members
            for row in chunks[:(members.bit_length() + 3) >> 2]:
                none &= row[inside & 15]
                if not none:
                    break
                inside >>= 4
            alive ^= none
        through = self.through[x]
        while alive:
            i = alive.bit_length() - 1
            copy = through[i]
            if (copy & ~members).bit_count() <= most + 1:
                return copy
            alive ^= 1 << i
        return 0

    def blocked_by(self, c: int, members: int) -> int:
        """The masks outside ``members``, a free family, each lying in a
        copy through c whose other masks are all members (c must be a
        member), as a bitset: the outside masks of the copies through c
        with exactly one outside mask.  Every mask above the highest member
        is outside, so the chunks from ``top`` on are one ``tail`` and
        ``tail_one`` lookup; each chunk below moves a copy from no outside
        mask to one when it has one outside mask there, and drops the
        others.  The copies left are read one outside mask at a time, the
        one of the highest copy, which drops every copy through it."""
        top = (members.bit_length() + 3) >> 2
        zero, one = self.tail[c][top], self.tail_one[c][top]
        out = self.full ^ members
        chunks = self.keep[c]
        for chunk in chunks if top >= self.chunks else chunks[:top]:
            v = out & 15
            z = chunk[v]
            fresh = zero & ~z
            if fresh:
                single = 0
                for w in _ALL_BUT_ONE[v]:
                    single |= chunk[w]
                one = one & z | fresh & single
                zero ^= fresh
                if not zero and not one:
                    return 0
            else:
                one &= z
            out >>= 4
        blocked = 0
        through = self.through[c]
        while one:
            m = (through[one.bit_length() - 1] & ~members).bit_length() - 1
            blocked |= 1 << m
            one &= chunks[m >> 2][1 << (m & 3)]
        return blocked


# per outside pattern v of a chunk: the patterns with one of its set bits
# cleared, whose rows together hold the copies with at most one outside
# mask there
_ALL_BUT_ONE = [tuple(v ^ b for b in (1, 2, 4, 8) if v & b) for v in range(16)]


def certified_bounds(n: int, forbidden) -> SatStarResult:
    """Bounds on the minimum saturated family size known without search.
    Lower: the legs certificate of the single forbidden poset P, else of
    dual(P), at n >= 3, else 1, trivial.  Upper: the first of the X, Y and
    wedge constructions and their complements that meets the lower bound
    and that ``is_induced_saturated`` accepts, else the smallest, and
    earliest on ties, of lex greedy and those constructions.  Above 2^n =
    ``SWEEP_CAP`` greedy and the wedges (2^(ell+1) members) are left out,
    {∅} (empty) and ∅ plus the singletons (star) and their complements
    come first in greedy's place, and TooLarge is raised when no candidate
    is saturated."""
    return _certified_bounds(n, forbidden, False)


def _certified_bounds(n: int, forbidden, settle: bool) -> SatStarResult:
    """``certified_bounds``; with ``settle`` only a family with exactly the
    lower bound's members counts, since only such a family settles sat*:
    greedy is left out at every n, empty and star take its place, and
    TooLarge is raised when no candidate that small is saturated."""
    if n < 0:
        raise BadN(f"ground-set size must be >= 0, got {n}")
    forbidden = check_forbidden(forbidden)
    # complementing every member turns a P-saturated family into a
    # dual(P)-saturated one; when both have legs either gives 2n + 2
    P = forbidden[0]
    cert = legs_lower_bound(P, n) or legs_lower_bound(dual(P), n) if len(forbidden) == 1 and n >= 3 else None
    lower, lower_kind = (cert.bound, cert.kind) if cert else (1, "trivial")
    swept = 1 << n <= SWEEP_CAP
    greedy = swept and not settle

    def named(most: int):
        """The candidate constructions with fewer than ``most`` members."""
        out = [] if greedy else [("empty", SetFamily.of(n, [0])),
                                 ("star", SetFamily.of(n, [0] + [1 << j for j in range(n)]))]
        out += [("x_upper", x_upper_family(n)), ("y_upper", y_upper_family(n))] if n >= 3 else []
        # the wedge of ell has more than 2^(ell+1) members
        out += [(f"wedge_upper:{ell}", wedge_upper_family(n, ell)) for ell in range(2, n - 1) if swept and 2 << ell < most]
        out += [(f"complement:{kind}", complement_family(F)) for kind, F in out]
        return [(kind, F) for kind, F in out if len(F) < most]

    # a saturated family meeting the lower bound settles sat*, and no scan
    # can do better, so greedy runs only when no construction does
    for kind, F in named(lower + 1):
        if is_induced_saturated(F, forbidden).saturated:
            return SatStarResult(n, forbidden, lower, lower_kind, len(F), kind, F, True)
    if settle:
        raise TooLarge(f"no construction meets the lower bound {lower} at n = {n}, over the search cap of {SEARCH_CAP}")
    witness, upper_kind, size = None, None, math.inf
    if greedy:
        witness = greedy_saturate(n, forbidden)
        upper_kind, size = "greedy", len(witness)
    for kind, F in named(size):
        if lower < len(F) < size and is_induced_saturated(F, forbidden).saturated:
            witness, upper_kind, size = F, kind, len(F)
    if witness is None:
        raise TooLarge(f"no construction is saturated at n = {n}, and greedy scans at most {SWEEP_CAP} sets")
    return SatStarResult(n, forbidden, lower, lower_kind, size, upper_kind, witness, lower >= size)


def exact_sat_star(n: int, forbidden, config: SearchConfig | None = None) -> SatStarResult:
    """Smallest maximal induced-free family in 2^[n], by iterative deepening
    on the target size between the ``certified_bounds`` (none if they meet).

    Partial families are extended in ascending mask order and carried as
    one bitset of masks.  Before the first node, every induced forbidden
    copy in 2^[n] is listed once, on the ``InclusionRows`` of the cube (one
    image per copy, from the matcher's ``induced_copies`` plan), and indexed
    by mask in a copy table that answers two queries by a few ANDs of
    precomputed bitsets over the copies: ``small_copy_through``, a copy
    through a mask inside a set of masks with at most a given number of
    masks outside a given family, or none (with no count limit, the answer
    of ``has_pinned_copy`` on the rows of the masks in the set), and
    ``blocked_by``, the masks that one member blocks together with the
    others.  Building the table keeps the time limit, and raises TooLarge
    as soon as the copies hold more than ``SWEEP_CAP`` memberships (N at
    n = 7 and the diamond at n = 8 do).  A table with no copy settles sat*
    at 2^n before the first node: 2^[n] is then free, so it is the only
    maximal family.  The cube's rows and lanes are built once per n (and
    closure under duals) and shared by every search.

    Each node carries its blocked masks exactly: the members plus every
    mask lying in a copy with members only (adding it would complete that
    copy).  A child adding m gets those of its parent, m and
    ``blocked_by(m, ...)``, since a copy completed by the child's mask
    either avoids m or passes through it.  So the children of a node are
    the unblocked masks of its candidate range, with no test.  They are
    pruned when some transposition of the ground set, or, when every
    forbidden poset's dual is isomorphic to one in the list,
    complementation or complementation after a transposition, maps the
    extended family to a lexicographically smaller one; the test is
    ``TranspositionLanes.canonical`` on the images the search carries, one
    OR per push.  That is weaker than full orbit canonicity, and sound:
    each such map takes saturated families to saturated families of the
    same size, so the witness returned, the lexicographically first
    maximal family, is no larger than its image, and so is every prefix
    of it.

    Before its children a node runs the lookahead.  Its live masks are
    the members plus every unblocked mask at or above the cursor; its
    leaves are chosen | R with R a set of ``need`` live masks.  In a
    maximal leaf every unblocked non-member x outside R is blocked by a
    copy through x whose other masks lie in chosen | R: a copy inside the
    live masks plus x with at most ``need`` masks outside the members and
    x, a small live copy (from need = p - 1 on, p the largest forbidden
    size, every copy through x is small).  So a dead x (unblocked, below
    the cursor, never in R) with no small live copy prunes the node, and a
    live x with none must be in R: more than ``need`` such x prune the
    node, and otherwise the next member, the lowest of R, lies at or below
    the lowest of them, so the children above it go.  Only subtrees with no
    maximal leaf go, so the witness and the bounds stay the same.  The dead
    masks are tested before the node's own blocked masks are known, and
    again after only when those remove a live mask; live masks are tested
    only at 2 <= need < p - 1 (a node one member short asks for any copy).
    The query is ``small_copy_through`` on the live masks plus x, and each
    mask watches the targets of the copy last found through it (the
    two-watched-literal idea of Moskewicz et al., "Chaff", DAC 2001): it is
    queried again only once a target is no longer live or the copy has
    more than the count allows outside the members.  A watch is never
    restored on backtrack, as every use checks it.  A node one member
    short tests its leaves together: the family plus m is maximal iff, for
    every other unblocked mask x, m lies in a copy through x with members
    only, so the leaves left are the candidates intersected with
    ``blocked_by(x, chosen | x)`` for every such x (the intersection is
    what restricts the answer to the candidates), lowest x first, which
    stops as soon as none is left.

    On hitting the time limit, in the table build or in the search, the
    result carries the best sound bounds so far with ``exact=False``.
    Every result of a search carries its ``SearchStats``.  Above
    ``SEARCH_CAP`` only a family with exactly the lower bound's members
    settles sat*, so greedy is left out there: {∅} (empty) settles
    chain(2), ∅ plus the singletons (star) wedge(1), its complement fork,
    and x_upper X; otherwise TooLarge is raised before any search.
    """
    bounds = _certified_bounds(n, forbidden, settle=n > SEARCH_CAP)
    return bounds if bounds.exact else _deepen(n, forbidden, bounds, config)


def _greedy_bounds(n: int, forbidden) -> SatStarResult:
    greedy = greedy_saturate(n, forbidden)
    return SatStarResult(n, forbidden, 1, "trivial", len(greedy), "greedy", greedy, len(greedy) == 1)


def _deepen(n: int, forbidden, bounds: SatStarResult, config=None, symmetry=True) -> SatStarResult:
    """The search between ``bounds``; bounds other than the certified ones
    (``_greedy_bounds``, 1 up to lex greedy) and ``symmetry=False`` (no
    transposition pruning) are test oracles.  Above ``SEARCH_CAP`` it
    raises TooLarge before any work."""
    if n > SEARCH_CAP:
        raise TooLarge(f"bounds {bounds.lower_bound}..{bounds.upper_bound} leave a search at n = {n}, over the cap of {SEARCH_CAP}")
    forbidden = check_forbidden(forbidden)
    config = config or SearchConfig()
    deadline = None
    if config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit
    upper = bounds.upper_bound

    total = 1 << n
    full = (1 << total) - 1
    table = None
    # the targets of the copy through x found last by the lookahead; the
    # initial bit lies outside the cube, so it is never live and the first
    # test queries
    watch = [1 << total] * total
    # a copy has at most p - 1 masks besides x, so from need = p - 1 on
    # every copy through x is small
    p = max(P.size for P in forbidden)
    nodes = leaves = symmetry_prunes = lookahead_prunes = queries = need_prunes = 0
    build_seconds = 0.0

    def lookahead(live: int, masks: int, chosen: int, most: int) -> int | None:
        """The live masks x of ``masks`` with no copy through x inside
        ``live | x`` with at most ``most`` masks outside ``chosen`` and x
        (must), or None when a dead mask has none or more than ``most``
        masks have none."""
        nonlocal queries
        must = 0
        while masks:
            low = masks & -masks
            masks ^= low
            x = low.bit_length() - 1
            within = live | low
            copy = watch[x]
            if copy & ~within or (copy & ~chosen).bit_count() > most + 1:
                _check_deadline(deadline)
                queries += 1
                copy = table.small_copy_through(x, within, chosen, most)
                if not copy:
                    must |= low
                    if not low & live or must.bit_count() > most:
                        return None
                    continue
                watch[x] = copy
        return must

    def dfs(start: int, need: int, chosen: int, blocked: int, images: int, marks: int) -> int | None:
        """The lex-first maximal free family of ``need`` > 0 more members
        above ``start`` extending ``chosen``, as a bitset of masks, or None;
        ``blocked`` is the members plus every mask the members below the
        highest one, start - 1, block."""
        nonlocal nodes, leaves, symmetry_prunes, lookahead_prunes, queries, need_prunes
        _check_deadline(deadline)
        nodes += 1
        # a maximal leaf blocks every unblocked non-member outside its last
        # need members by a small live copy (see exact_sat_star).  The masks
        # the highest member blocks only shrink the live ones, so the dead
        # masks are tested first without them (a prune then is a prune with
        # them, and costs no blocked_by), and again only when they remove a
        # live mask; below need = p - 1 the second test takes every
        # unblocked mask
        live = chosen | full >> start << start & ~blocked
        most = need if need >= 2 else p
        if lookahead(live, full & ~blocked & ~live, chosen, most) is None:
            lookahead_prunes += 1
            return None
        masks = 0
        if chosen:
            queries += 1
            fresh = table.blocked_by(start - 1, chosen) & ~blocked
            blocked |= fresh
            if fresh & live:
                live &= ~fresh
                masks = full & ~blocked & ~live
        wide = 2 <= need < p - 1
        if wide:
            masks = full & ~blocked
        must = lookahead(live, masks, chosen, most)
        if must is None:
            if wide:
                need_prunes += 1
            else:
                lookahead_prunes += 1
            return None
        free = live & ~chosen & (1 << total - need + 1) - 1
        if must:
            cut = free & ((must & -must) << 1) - 1
            if cut != free:
                need_prunes += 1
                free = cut
        if need == 1:
            # leaf chosen + m is maximal iff it blocks every other unblocked
            # mask x, iff m lies in a copy through x with members only
            tested = free.bit_count()
            leaves += tested
            nodes += tested
            rest = full & ~blocked
            while rest and free:
                x = rest & -rest
                rest ^= x
                queries += 1
                free &= table.blocked_by(x.bit_length() - 1, chosen | x) | x
            lookahead_prunes += tested - free.bit_count()
        while free:
            low = free & -free
            free ^= low
            m = low.bit_length() - 1
            m_images, m_marks = images | image[m], marks | ones << m
            if not lanes.canonical(m_images, m_marks):
                symmetry_prunes += 1
                continue
            if need == 1:
                return chosen | low
            found = dfs(m + 1, need - 1, chosen | low, blocked | low, m_images, m_marks)
            if found is not None:
                return found
        return None

    # complementing every member maps a P-saturated family to a
    # dual(P)-saturated one: a symmetry when the list is closed under duals
    closed = all(any(isomorphic(dual(P), Q) for Q in forbidden) for P in forbidden)
    cube, lanes = _cube(n, closed)
    if not symmetry:
        # lanes with no lane: every set is canonical
        lanes = TranspositionLanes((0,) * total, 0, 0)
    # read once: a named tuple field costs more per read than a local
    image, ones = lanes.image, lanes.ones
    proven, proven_kind = bounds.lower_bound, bounds.lower_kind
    levels = []

    def stats() -> SearchStats:
        copies = table.copies if table is not None else 0
        return SearchStats(nodes, leaves, symmetry_prunes, lookahead_prunes, queries, tuple(levels),
                           copies, build_seconds, need_prunes)

    try:
        t0 = time.monotonic()
        try:
            table = _CopyTable(forbidden, cube, deadline)
        finally:
            build_seconds = time.monotonic() - t0
        if not table.copies:
            # 2^[n] itself is free, so it is the only maximal family
            proven, proven_kind = total, "exhaustive"
        for k in range(proven, upper):
            t0 = time.monotonic()
            try:
                found = dfs(0, k, 0, 0, 0, 0)
            finally:
                levels.append((k, time.monotonic() - t0))
            if found is not None:
                fam = SetFamily.of(n, (m for m in range(total) if found >> m & 1))
                return SatStarResult(n, forbidden, k, proven_kind, k, "exhaustive", fam, True, stats())
            proven, proven_kind = k + 1, "exhaustive"
    except _TimeUp:
        pass
    # exact iff every size below the upper bound was searched out
    return replace(bounds, lower_bound=proven, lower_kind=proven_kind, exact=proven >= upper, stats=stats())


# -- certificates ------------------------------------------------------------

class LegsCertificate(NamedTuple):
    """A lower bound on the minimum saturated family size that follows from
    the legs structure alone."""

    bound: int
    kind: str  # "legs" (n+1) or "double_legs" (2n+2)
    witness: LegsWitness
    dual_witness: LegsWitness | None = None


def legs_lower_bound(P: Poset, n: int) -> LegsCertificate | None:
    """n+1 when P has legs; 2n+2 when both P and its dual do; else None."""
    if n < 3:
        raise BadParam("the legs bounds are stated for n >= 3")
    w = has_legs(P)
    if w is None:
        return None
    wd = has_legs(dual(P))
    if wd is not None:
        return LegsCertificate(2 * n + 2, "double_legs", w, wd)
    return LegsCertificate(n + 1, "legs", w)


class PairCoverReport(NamedTuple):
    """Outcome of the singleton-difference hypothesis check.

    If every i in [n] has a member pair (A, B) with A \\ B = {i}, the family
    size is at least 2*sqrt(n-2); otherwise ``failing_i`` is the smallest
    index with no such pair (the constant-bound witness condition).
    """

    hypothesis_holds: bool
    failing_i: int | None
    bound: float


def digraph_lower_bound_check(F: SetFamily) -> PairCoverReport:
    """The smallest i in [n] with no member pair (A, B) with A \\ B = {i},
    read from ``singleton_difference_table``; when there is none, the bound
    len(F) >= 2*sqrt(n-2) that the pairs imply through the transitive-cycle-
    free auxiliary digraph.  That bound is a theorem and is asserted."""
    bound = 2.0 * math.sqrt(max(F.n - 2, 0))
    for i, pairs in enumerate(F._pair_rows, 1):
        if not pairs:
            return PairCoverReport(False, i, bound)
    assert len(F) >= bound, (len(F), F.n)
    return PairCoverReport(True, None, bound)


def boundedness_witness_check(F: SetFamily, forbidden) -> tuple[int, int] | None:
    """Smallest i in [n] with no member pair A \\ B = {i}, plus the implied
    constant upper bound len(F) valid for every larger ground set.

    Verifies that F is saturated and that its blow-up at i stays saturated
    over [n+1].  Returns None when every i has a pair.
    """
    forbidden = check_forbidden(forbidden)
    if not is_induced_saturated(F, list(forbidden)).saturated:
        raise NotSaturated("family is not induced saturated for the given posets")
    i = digraph_lower_bound_check(F).failing_i
    if i is None:
        return None
    assert is_induced_saturated(blow_up(F, i), list(forbidden)).saturated
    return i, len(F)


def legs_witness_map(F: SetFamily, P: Poset) -> dict[int, int]:
    """The injective map i -> member built from the legs structure: the
    singleton {i} when present, otherwise the hip of a copy of P in
    F + {i} chosen with the largest other leg, then the smallest hip.

    Every chosen hip H' satisfies H' = L' | {i} for its other leg L', the
    map avoids the empty set, and it is injective; all three facts are
    asserted.
    """
    if has_legs(P) is None:
        raise NoLegs("poset has no legs")
    report = is_induced_saturated(F, [P])
    if not report.saturated:
        raise NotSaturated("family is not induced saturated for this poset")
    legs_triples = list(iter_legs_witnesses(P))
    out: dict[int, int] = {}
    members_set = set(F.members)
    for i in range(1, F.n + 1):
        bit = 1 << (i - 1)
        if bit in members_set:
            out[i] = bit
            continue
        extended = tuple(sorted(F.members + (bit,)))
        pin = extended.index(bit)
        best = None  # (-|L'|, |H'|, H', L')
        # F is free, so every copy of P in F + {i} uses {i}
        for w in iter_induced_embeddings(extended, P):
            for t in legs_triples:
                if w.mapping[t.leg1] == pin:
                    other = t.leg2
                elif w.mapping[t.leg2] == pin:
                    other = t.leg1
                else:
                    continue
                lmask = extended[w.mapping[other]]
                hmask = extended[w.mapping[t.hip]]
                key = (-lmask.bit_count(), hmask.bit_count(), hmask, lmask)
                if best is None or key < best:
                    best = key
        if best is None:
            raise NotSaturated(f"no copy with {{{i}}} as a leg")
        hmask, lmask = best[2], best[3]
        assert hmask == (lmask | bit), (i, lmask, hmask)
        out[i] = hmask
    assert 0 not in out.values()
    assert len(set(out.values())) == F.n
    return out
