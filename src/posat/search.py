"""Bounds and exact values for the minimum induced saturated family size.

The minimum is computed as the smallest size of a maximal induced-free
family in 2^[n], which is the same thing as the smallest induced saturated
family: a free family is saturated exactly when nothing can be added to it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

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
    singleton_difference_table,
    wedge_upper_family,
    x_upper_family,
    y_upper_family,
)
from .poset import LegsWitness, Poset, dual, has_legs, induced_copies, isomorphic, isomorphism_classes, iter_legs_witnesses


@dataclass(frozen=True)
class SearchConfig:
    time_limit: float | None = None


@dataclass(frozen=True)
class SearchStats:
    """The work of one exact search: the DFS nodes visited (the families
    of the target size tested for maximality included), those families
    (leaves), the children the symmetry lanes pruned, the nodes the
    dead-mask lookahead pruned (leaves rejected as not maximal included),
    the copy-table queries (``copy_through`` calls of the lookahead and
    ``blocked_by`` calls, one per child and one per mask a leaf test
    reads), the seconds spent on each target size k searched, as
    (k, seconds) pairs, the distinct forbidden copies in 2^[n] the copy
    table indexes (0 when the time limit fell before it was built), and
    the seconds its build took."""

    nodes: int
    leaves: int
    symmetry_prunes: int
    lookahead_prunes: int
    queries: int
    level_seconds: tuple[tuple[int, float], ...]
    copies: int
    build_seconds: float


@dataclass(frozen=True)
class SatStarResult:
    """Bounds on the minimum saturated family size, with certificates.

    ``lower_kind`` is exhaustive, legs, double_legs or trivial; ``upper_kind``
    is exhaustive (the search), greedy or a construction such as x_upper,
    complement:y_upper or wedge_upper:2.  An exact witness attains the lower bound.
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


@dataclass(frozen=True)
class TranspositionLanes:
    """The image of every mask under every transposition (i j), i < j, of
    the ground set, in lexicographic order, then, with complement lanes,
    under complementation and under complementation after each (i j), in
    the same order, packed into one int per mask: lane t of ``image[m]``
    has bit g_t(m) + 1 set, and bit 0 of every lane is spare."""

    image: tuple[int, ...]
    ones: int  # the bit of mask 0 in every lane
    spare: int  # bit 0 of every lane

    def canonical(self, images: int, marks: int) -> bool:
        """True iff no lane's map takes the mask set S to a
        lexicographically smaller set, given ``images``, the OR of
        ``image[m]`` over m in S, and ``marks``, S copied into every lane
        (``ones << m`` for each m).

        For equal-size sets, sorted(g(S)) < sorted(S) iff the lowest mask of
        S xor g(S) lies in g(S), so S passes iff in every lane of
        x = images ^ marks the lowest set bit, if any, is marked.  The spare
        bit 0 of each lane of x is clear (a transposition fixes mask 0, but
        complementation does not): subtracting ``spare``, plus the borrow
        out of a clear lane below, clears the lowest set bit of each nonzero
        lane and borrows no further.
        """
        x = images ^ marks
        return not x & ~(x - self.spare) & ~marks

    @classmethod
    def build(cls, n: int, complement: bool = False) -> "TranspositionLanes":
        """The lanes of every mask over [n]: C(n, 2) lanes, and C(n, 2) + 1
        more with ``complement``, of 2^n + 1 bits (whole bytes) each."""
        # (i j) moves m iff m has exactly one of the two bits
        swaps = [1 << i | 1 << j for i, j in itertools.combinations(range(n), 2)]
        top = (1 << n) - 1
        one_hot = [(2 << v).to_bytes(((1 << n) + 8) // 8, "little") for v in range(1 << n)]
        image = []
        for m in range(1 << n):
            moved = [m ^ s if 0 < m & s < s else m for s in swaps]
            if complement:
                moved += [g ^ top for g in [m] + moved]
            image.append(int.from_bytes(b"".join(map(one_hot.__getitem__, moved)), "little"))
        ones = int.from_bytes(one_hot[0] * (len(swaps) + (len(swaps) + 1 if complement else 0)), "little")
        return cls(tuple(image), ones, ones >> 1)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _TimeUp


class _CopyTable:
    """Every induced copy of a forbidden poset among the masks of 2^[n], as
    a bitset of masks, indexed for ``copy_through`` and ``blocked_by``:
    ``through[x]`` lists the copies containing mask x in ascending order,
    and ``keep[x][c][v]`` has bit i set iff copy ``through[x][i]`` avoids
    every mask 4c + b with bit b set in v (the "four Russians" tables of
    Arlazarov et al., 1970).  Row v is row v minus its lowest bit, ANDed
    with the row of that one mask.  ``tail[x][c]`` is the AND of rows 15 of
    the chunks from c on: the copies through x that avoid every mask from
    4c on; ``tail_one[x][c]`` has those with exactly one mask from 4c on."""

    def __init__(self, forbidden, rows: InclusionRows, deadline: float | None):
        """Enumerate the copies on the cube ``rows``, one embedding each
        (``induced_copies``; isomorphic posets in the list share their
        copies, so each class is enumerated once), and build the tables,
        checking ``deadline`` as it goes; raises TooLarge as soon as the
        memberships (sum of the copy sizes) cross ``SWEEP_CAP``."""
        total = len(rows.up)
        self.full = (1 << total) - 1
        pow2 = [1 << j for j in range(total)]
        through = [[] for _ in range(total)]
        self.copies = memberships = 0
        for P in isomorphism_classes(forbidden):
            for w in induced_copies(P, rows.up, rows.down):
                if not self.copies & 1023:
                    _check_deadline(deadline)
                self.copies += 1
                memberships += P.size
                if memberships > SWEEP_CAP:
                    raise TooLarge(f"the forbidden copies among the {total} masks hold over "
                                   f"{SWEEP_CAP} memberships, over the cap")
                bits = sum(map(pow2.__getitem__, w.mapping))
                for j in w.mapping:
                    through[j].append(bits)
        self.through = through
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
                row = [ones] * 16
                for v in range(1, 16):
                    low = v & -v
                    row[v] = row[v ^ low] & avoid[c + low.bit_length() - 1]
                chunks.append(row)
            self.keep.append(chunks)
            tail, tail_one = [ones], [0]
            for row in reversed(chunks):
                single = (row[7] | row[11] | row[13] | row[14]) & ~row[15]  # one mask of the chunk
                tail_one.append(tail_one[-1] & row[15] | tail[-1] & single)
                tail.append(tail[-1] & row[15])
            self.tail.append(tail[::-1])
            self.tail_one.append(tail_one[::-1])

    def copy_through(self, x: int, within: int) -> int:
        """The highest copy through mask x inside the masks set in
        ``within`` (which must contain x), as a bitset of masks; 0 when
        there is none.  Every mask above the highest one in ``within`` is
        outside it, so the chunks from ``top`` on are one ``tail`` lookup.
        (In an ascending search a copy whose masks lie high stays inside
        the live masks longest, so it makes the best watch.)"""
        top = (within.bit_length() + 3) >> 2
        alive = self.tail[x][top]
        out = self.full ^ within
        for row in self.keep[x][:top]:
            alive &= row[out & 15]
            if not alive:
                return 0
            out >>= 4
        return self.through[x][alive.bit_length() - 1]

    def blocked_by(self, c: int, members: int, among: int) -> int:
        """The masks of ``among``, outside ``members``, a free family that
        contains c, each lying in a copy through c whose other masks are
        all members, as a bitset: the outside masks of the copies through c
        with exactly one outside mask, which is in ``among``.  Every mask
        above the highest one in ``members | among`` is outside it, so the
        chunks from ``top`` on are one ``tail`` lookup; each chunk below
        moves a copy from no outside mask to one when it has one outside
        mask there and that mask is in ``among``, and drops the others."""
        top = (members.bit_length() + 3) >> 2
        if among >> 4 * top == self.full >> 4 * top:
            zero, one = self.tail[c][top], self.tail_one[c][top]
        else:
            top = ((members | among).bit_length() + 3) >> 2
            zero, one = self.tail[c][top], 0
        out = self.full ^ members
        for chunk in self.keep[c][:top]:
            v = out & 15
            z = chunk[v]
            fresh = zero & ~z
            if fresh:
                single = 0
                for w in _ALL_BUT_ONE[v & among & 15 | v << 4]:
                    single |= chunk[w]
                one = one & z | fresh & single
                zero ^= fresh
                if not zero and not one:
                    return 0
            else:
                one &= z
            out >>= 4
            among >>= 4
        blocked = 0
        through = self.through[c]
        while one:
            low = one & -one
            one ^= low
            blocked |= through[low.bit_length() - 1]
        return blocked & ~members


# per outside pattern v and pattern a inside it, at index v << 4 | a: the
# patterns v with one set bit of a cleared
_ALL_BUT_ONE = [tuple(v ^ b for b in (1, 2, 4, 8) if v & a & b) for v in range(16) for a in range(16)]


def certified_bounds(n: int, forbidden) -> SatStarResult:
    """Bounds on the minimum saturated family size known without search.
    Lower: the larger legs certificate of the single forbidden poset P and
    of dual(P) (complementing every member turns a P-saturated family into
    a dual(P)-saturated one), else 1, trivial.  Upper: the smallest, and
    earliest on ties, of lex greedy, the X, Y and wedge constructions and
    their complements that ``is_induced_saturated`` accepts.  Above
    2^n = ``SWEEP_CAP`` greedy and the wedges (2^(ell+1) members) are left
    out, and TooLarge is raised when no X or Y candidate is saturated."""
    if n < 0:
        raise BadN(f"ground-set size must be >= 0, got {n}")
    forbidden = check_forbidden(forbidden)
    lower, lower_kind = 1, "trivial"
    for P in (forbidden[0], dual(forbidden[0])) if len(forbidden) == 1 and n >= 3 else ():
        cert = legs_lower_bound(P, n)
        if cert is not None and cert.bound > lower:
            lower, lower_kind = cert.bound, cert.kind
    swept = 1 << n <= SWEEP_CAP
    witness, upper_kind = (greedy_saturate(n, forbidden), "greedy") if swept else (None, None)
    named = [("x_upper", x_upper_family(n)), ("y_upper", y_upper_family(n))] if n >= 3 else []
    named += [(f"wedge_upper:{ell}", wedge_upper_family(n, ell)) for ell in range(2, n - 1) if swept]
    named += [(f"complement:{kind}", complement_family(F)) for kind, F in named]
    for kind, F in named:
        if (witness is None or len(F) < len(witness)) and is_induced_saturated(F, forbidden).saturated:
            witness, upper_kind = F, kind
    if witness is None:
        raise TooLarge(f"no X or Y construction is saturated at n = {n}, and greedy scans at most {SWEEP_CAP} sets")
    upper = len(witness)
    return SatStarResult(n, forbidden, lower, lower_kind, upper, upper_kind, witness, lower >= upper)


def exact_sat_star(n: int, forbidden, config: SearchConfig | None = None) -> SatStarResult:
    """Smallest maximal induced-free family in 2^[n], by iterative deepening
    on the target size between the ``certified_bounds`` (none if they meet).

    Partial families are extended in ascending mask order and carried as
    one bitset of masks.  Before the first node, every induced forbidden
    copy in 2^[n] is listed once, on the ``InclusionRows`` of the cube (one
    embedding per copy, from ``induced_copies``), and indexed by mask in a
    copy table that answers two queries by a few ANDs of precomputed
    bitsets over the copies: ``copy_through``, a copy through a mask inside
    a set of masks, or none (the answer of ``has_pinned_copy`` on the same
    rows), and ``blocked_by``, the masks that one member blocks together
    with the others.  Building the table keeps the time limit, and
    raises TooLarge as soon as the copies hold more than ``SWEEP_CAP``
    memberships (N at n = 7 and the diamond at n = 8 do).

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

    Before its children a node runs the dead-mask lookahead.  Its live
    masks are the members plus every unblocked mask at or above the cursor;
    every later member is one of them.  An unblocked mask below the cursor
    is never added below this node, so a maximal leaf must block it with
    live members: the node is pruned when the table has no copy through
    the mask within the live masks.  Only subtrees with no maximal leaf go,
    so the witness and the bounds stay the same.  Each mask watches the
    targets of the copy last found through it (the two-watched-literal
    idea of Moskewicz et al., "Chaff", DAC 2001) and is queried again only
    once a target is no longer live; a watch is never restored on
    backtrack, as every use checks it against the live masks.  A node one
    member short tests its leaves together: the family plus m is maximal
    iff, for every other unblocked mask x, m lies in a copy through x with
    members only, so the leaves left are the candidates in
    ``blocked_by(x, ...)`` of every such x, lowest x first, which stops as
    soon as none is left.

    On hitting the time limit, in the table build or in the search, the
    result carries the best sound bounds so far with ``exact=False``.
    Every result of a search carries its ``SearchStats``.  With the bounds
    apart, n > ``SEARCH_CAP`` raises TooLarge before any search.
    """
    return _deepen(n, forbidden, config, certified_bounds)


def _greedy_bounds(n: int, forbidden) -> SatStarResult:
    greedy = greedy_saturate(n, forbidden)
    return SatStarResult(n, forbidden, 1, "trivial", len(greedy), "greedy", greedy, len(greedy) == 1)


def _deepen(n: int, forbidden, config=None, start_bounds=_greedy_bounds, symmetry=True) -> SatStarResult:
    """The search from ``start_bounds``; the default, 1 up to lex greedy, and
    ``symmetry=False`` (no transposition pruning) are test oracles."""
    forbidden = check_forbidden(forbidden)
    config = config or SearchConfig()
    deadline = None
    if config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit

    bounds = start_bounds(n, forbidden)
    if bounds.exact:
        return bounds
    if n > SEARCH_CAP:
        raise TooLarge(f"bounds {bounds.lower_bound}..{bounds.upper_bound} leave a search at n = {n}, over the cap of {SEARCH_CAP}")
    upper = bounds.upper_bound

    total = 1 << n
    full = (1 << total) - 1
    table = None
    # the targets of the copy through x found last; the initial bit lies
    # outside the cube, so it is never live and the first test queries
    watch = [1 << total] * total
    nodes = leaves = symmetry_prunes = lookahead_prunes = queries = 0
    build_seconds = 0.0

    def dead_end(live: int, dead: int) -> bool:
        """True iff some mask of ``dead`` lies in no copy with live masks."""
        nonlocal queries
        while dead:
            low = dead & -dead
            dead ^= low
            within = live | low
            x = low.bit_length() - 1
            if watch[x] & ~within:
                _check_deadline(deadline)
                queries += 1
                copy = table.copy_through(x, within)
                if not copy:
                    return True
                watch[x] = copy
        return False

    def dfs(start: int, need: int, chosen: int, blocked: int, images: int, marks: int) -> int | None:
        """The lex-first maximal free family of ``need`` > 0 more members
        above ``start`` extending ``chosen``, as a bitset of masks, or None;
        ``blocked`` is the members plus every mask the members below the
        highest one, start - 1, block."""
        nonlocal nodes, leaves, symmetry_prunes, lookahead_prunes, queries
        _check_deadline(deadline)
        nodes += 1
        # every later member is live, and a mask below the cursor that is
        # neither chosen nor blocked is never added, so a maximal leaf
        # below blocks it with live members.  The masks the highest member
        # blocks only shrink the live ones, so the test runs first without
        # them (a prune then is a prune with them, and costs no blocked_by),
        # and again only when they remove a live mask
        live = chosen | full >> start << start & ~blocked
        if dead_end(live, full & ~blocked & ~live):
            lookahead_prunes += 1
            return None
        if chosen:
            queries += 1
            fresh = table.blocked_by(start - 1, chosen, full & ~chosen) & ~blocked
            blocked |= fresh
            if fresh & live:
                live &= ~fresh
                if dead_end(live, full & ~blocked & ~live):
                    lookahead_prunes += 1
                    return None
        free = live & ~chosen & (1 << total - need + 1) - 1
        if need == 1:
            # leaf chosen + m is maximal iff it blocks every other unblocked
            # mask x, iff m lies in a copy through x with members only
            cands = free
            leaves += cands.bit_count()
            nodes += cands.bit_count()
            rest = full & ~blocked
            while rest and cands:
                x = rest & -rest
                rest ^= x
                queries += 1
                cands &= table.blocked_by(x.bit_length() - 1, chosen | x, cands & ~x) | x
            lookahead_prunes += free.bit_count() - cands.bit_count()
            while cands:
                low = cands & -cands
                cands ^= low
                m = low.bit_length() - 1
                if lanes is not None and not lanes.canonical(images | lanes.image[m], marks | lanes.ones << m):
                    symmetry_prunes += 1
                    continue
                return chosen | low
            return None
        while free:
            low = free & -free
            free ^= low
            m = low.bit_length() - 1
            m_images = m_marks = 0
            if lanes is not None:
                m_images, m_marks = images | lanes.image[m], marks | lanes.ones << m
                if not lanes.canonical(m_images, m_marks):
                    symmetry_prunes += 1
                    continue
            found = dfs(m + 1, need - 1, chosen | low, blocked | low, m_images, m_marks)
            if found is not None:
                return found
        return None

    # complementing every member maps a P-saturated family to a
    # dual(P)-saturated one: a symmetry when the list is closed under duals
    closed = all(any(isomorphic(dual(P), Q) for Q in forbidden) for P in forbidden)
    lanes = TranspositionLanes.build(n, complement=closed) if symmetry else None
    proven, proven_kind = bounds.lower_bound, bounds.lower_kind
    levels = []

    def stats() -> SearchStats:
        copies = table.copies if table is not None else 0
        return SearchStats(nodes, leaves, symmetry_prunes, lookahead_prunes, queries, tuple(levels),
                           copies, build_seconds)

    try:
        t0 = time.monotonic()
        try:
            table = _CopyTable(forbidden, InclusionRows(range(total)), deadline)
        finally:
            build_seconds = time.monotonic() - t0
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

@dataclass(frozen=True)
class LegsCertificate:
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


@dataclass(frozen=True)
class PairCoverReport:
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
    for i, pairs in enumerate(singleton_difference_table(F), 1):
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
