"""Families of subsets of [n] as bitmask collections.

A subset of [n] is a plain int bitmask: bit i-1 set iff i is in the subset.
Ground sets are capped at 64 elements; every desk-scale experiment fits in a
single machine word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    BadIndex,
    BadN,
    BadParam,
    BadParams,
    NotPerfectSquare,
    TooLarge,
)
from .poset import EmbeddingWitness, Poset, has_pinned_copy, induced_copies

MAX_GROUND = 64
# Orbit representatives a saturation sweep may test: a family with no twins
# over [20] has 2^20 orbits of missing sets.
SWEEP_CAP = 1 << 20


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elems, ) -> int:
    """Bitmask of a collection of 1-based ground elements."""
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def elems_of(mask: int) -> list[int]:
    """Ascending 1-based ground elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family over ground set [n], members in ascending
    bitmask order."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND:
            raise BadN(f"ground-set size must be in 0..{MAX_GROUND}")
        full = full_mask(self.n)
        prev = -1
        for m in self.members:
            if m & ~full:
                raise BadIndex(f"member {m:#x} has bits above position {self.n}")
            if m <= prev:
                raise BadParam("members must be strictly ascending (no duplicates)")
            prev = m

    @classmethod
    def of(cls, n: int, members) -> "SetFamily":
        return cls(n, tuple(sorted(set(members))))

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _pair_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The rows of ``singleton_difference_table``, built on first use
        and kept for the life of this object (the fields are frozen)."""
        return _pair_table(self.n, self.members)

    @cached_property
    def _rows(self) -> "InclusionRows":
        """The ``InclusionRows`` of the members, built on first use and kept
        for the life of this object: the freeness check and the saturation
        sweep read them, and nothing may push to them."""
        return InclusionRows(self.members)


# -- structure ---------------------------------------------------------------

def inclusion_poset(F: SetFamily) -> tuple[Poset, tuple[int, ...]]:
    """Abstract poset of the family under proper inclusion, plus the
    element-index -> member-mask map."""
    return Poset(len(F.members), tuple(F._rows.up)), F.members


def complement_family(F: SetFamily) -> SetFamily:
    """Replace each member by its complement in [n]; an involution."""
    full = full_mask(F.n)
    return SetFamily.of(F.n, (full ^ m for m in F.members))


def blow_up(F: SetFamily, i: int) -> SetFamily:
    """Lift F from [n] to [n+1]: members containing i also get n+1.

    Preserves size and every pairwise inclusion/incomparability relation.
    """
    if not 1 <= i <= F.n:
        raise BadIndex(f"i must be in 1..{F.n}")
    bit_i = 1 << (i - 1)
    bit_new = 1 << F.n
    return SetFamily.of(F.n + 1, (m | bit_new if m & bit_i else m for m in F.members))


# -- induced copies ----------------------------------------------------------

class InclusionRows:
    """Proper-inclusion rows of a list of distinct member masks, extended in
    O(k) per push: ``up[j]`` / ``down[j]`` have bit i set iff member i is a
    proper superset / subset of member j.  Built from ``range(1 << n)``,
    the rows of all of 2^[n] are indexed by the mask.  ``blocks`` only
    reads them."""

    def __init__(self, members=()):
        self.members, self.up, self.down = [], [], []
        for m in members:
            self.push(m)

    def relations(self, m: int) -> tuple[int, int]:
        """The rows m would get, ``above`` and ``below``: bit i set iff
        member i is a proper superset / subset of m (m not a member)."""
        above = below = 0
        for i, x in enumerate(self.members):
            if m & ~x == 0:
                above |= 1 << i
            elif x & ~m == 0:
                below |= 1 << i
        return above, below

    def push(self, m: int) -> None:
        """Append m: ``relations``, with the rows it relates to set in the
        same pass."""
        bit = 1 << len(self.members)
        up, down = self.up, self.down
        above = below = 0
        for i, x in enumerate(self.members):
            if m & ~x == 0:
                above |= 1 << i
                down[i] |= bit
            elif x & ~m == 0:
                below |= 1 << i
                up[i] |= bit
        self.members.append(m)
        up.append(above)
        down.append(below)

    def blocks(self, m: int, forbidden) -> bool:
        """True iff adding m would put it in an induced forbidden copy: the
        pinned test on the rows with m's two appended, which writes no row
        (the other rows do not count m, see ``has_pinned_copy``)."""
        above, below = self.relations(m)
        return has_pinned_copy(forbidden, [*self.up, above], [*self.down, below], len(self.members))


def iter_induced_embeddings(members: tuple[int, ...], P: Poset, rows: InclusionRows | None = None):
    """Yield one injective map per induced copy of P among the listed member
    masks, preserving and reflecting proper inclusion (``induced_copies``),
    on ``rows``, the ``InclusionRows`` of the members, if given."""
    if rows is None:
        rows = InclusionRows(members)
    yield from induced_copies(P, rows.up, rows.down)


def contains_induced_copy(F: SetFamily, P: Poset) -> EmbeddingWitness | None:
    """First induced copy of P in F (as member indices), or None."""
    return next(iter_induced_embeddings(F.members, P, F._rows), None)


def check_forbidden(forbidden) -> tuple[Poset, ...]:
    """The forbidden posets as a tuple; rejects an empty list and posets
    with fewer than 2 elements (freeness would force the empty family and
    the notion degenerates)."""
    forbidden = tuple(forbidden)
    if not forbidden:
        raise BadParam("forbidden poset list must be non-empty")
    for P in forbidden:
        if P.size < 2:
            raise BadParam("forbidden posets must have at least 2 elements")
    return forbidden


def twin_classes(F: SetFamily) -> tuple[int, ...]:
    """The classes of the twin relation on [n] as masks, ordered by their
    lowest elements: i and j are twins when swapping them maps F to F.

    The relation is an equivalence (conjugating a twin swap by another
    gives a twin swap), so each element is compared only with the lowest
    element of each class found so far.  The product of the symmetric
    groups of the classes lies in the automorphism group of F.
    """
    have = set(F.members)
    classes = []
    for i in range(F.n):
        bit = 1 << i
        for c, cls in enumerate(classes):
            swap = bit | cls & -cls
            if all(m ^ swap in have for m in F.members if (m & swap).bit_count() == 1):
                classes[c] |= bit
                break
        else:
            classes.append(bit)
    return tuple(classes)


def orbit_count(classes) -> int:
    """The number of orbits of 2^[n] under the twin-class symmetry: one per
    vector of per-class counts."""
    return math.prod(cls.bit_count() + 1 for cls in classes)


def orbit_representatives(classes) -> list[int]:
    """The smallest mask of every orbit, ascending: the c_i lowest elements
    of each class C_i, for every count vector (c_1, ..., c_r)."""
    reps = [0]
    for cls in classes:
        lows, low = [0], 0
        while cls:
            low |= cls & -cls
            cls &= cls - 1
            lows.append(low)
        reps = [r | low for r in reps for low in lows]
    return sorted(reps)


def orbit(rep: int, classes) -> list[int]:
    """Every mask with as many elements in each class as ``rep``."""
    masks = [0]
    for cls in classes:
        bits = [1 << (e - 1) for e in elems_of(cls)]
        picks = [sum(c) for c in itertools.combinations(bits, (rep & cls).bit_count())]
        masks = [m | p for m in masks for p in picks]
    return masks


def _free_representatives(F: SetFamily, forbidden, classes):
    """Yield, ascending, the representative S of every orbit of missing
    sets such that F + S has no forbidden copy using S.  A twin swap g fixes
    F, so it maps the copies in F + S using S onto those in F + g(S) using
    g(S): one test decides the whole orbit.  Raises TooLarge, before any
    test, when there are more than ``SWEEP_CAP`` orbits."""
    count = orbit_count(classes)
    if count > SWEEP_CAP:
        raise TooLarge(
            f"the saturation sweep would test {count} orbit representatives, "
            f"over the cap of {SWEEP_CAP}"
        )
    have = set(F.members)
    rows = F._rows
    for s in orbit_representatives(classes):
        if s not in have and not rows.blocks(s, forbidden):
            yield s


def addable_sets(F: SetFamily, forbidden):
    """Yield, ascending, every missing mask S such that F + S has no induced
    copy of a forbidden poset that uses S.  When F is free these are exactly
    the sets that can be added to F freely.  One set per orbit of the
    twin-class symmetry is tested (see ``is_induced_saturated``)."""
    forbidden = check_forbidden(forbidden)
    classes = twin_classes(F)
    yield from sorted(m for s in _free_representatives(F, forbidden, classes) for m in orbit(s, classes))


class SaturationReport(NamedTuple):
    """Verdict of the saturation check with a machine-checkable diagnostic.

    On failure exactly one of ``forbidden_copy`` (poset index, member-index
    tuple) or ``addable`` (a freely addable mask) is set.
    """

    saturated: bool
    forbidden_copy: tuple[int, tuple[int, ...]] | None = None
    addable: int | None = None


def is_induced_saturated(F: SetFamily, forbidden: list[Poset]) -> SaturationReport:
    """True iff F is free of every forbidden poset and no set can be added
    without creating a copy of one of them (see ``check_forbidden`` for the
    posets accepted).

    The missing sets are tested one per orbit of the twin-class symmetry,
    at the orbit's smallest mask and in ascending order, so ``addable`` is
    the smallest addable mask.  The freeness check and the sweep read the
    same member rows, built once per family object and never written.  A free family whose twin classes give more
    than ``SWEEP_CAP`` orbits raises TooLarge.
    """
    forbidden = check_forbidden(forbidden)
    for idx, P in enumerate(forbidden):
        w = contains_induced_copy(F, P)
        if w is not None:
            return SaturationReport(False, forbidden_copy=(idx, w.mapping))
    # F is free, so any copy in F + S must use S: the pinned sweep decides.
    s = next(_free_representatives(F, forbidden, twin_classes(F)), None)
    return SaturationReport(s is None, addable=s)


# -- explicit constructions --------------------------------------------------

def y_upper_family(n: int) -> SetFamily:
    """The empty set plus all sets of size >= n-1; n+2 members, induced
    Y-saturated."""
    if n < 3:
        raise BadN("construction needs n >= 3")
    full = full_mask(n)
    fam = SetFamily.of(n, [0, full] + [full ^ 1 << j for j in range(n)])
    assert len(fam) == n + 2
    return fam


def x_upper_family(n: int) -> SetFamily:
    """All sets of size <= 1 or >= n-1; 2n+2 members, induced X-saturated."""
    if n < 3:
        raise BadN("construction needs n >= 3")
    full = full_mask(n)
    fam = SetFamily.of(n, [0, full] + [b for j in range(n) for b in (1 << j, full ^ 1 << j)])
    assert len(fam) == 2 * n + 2
    return fam


def wedge_upper_family(n: int, ell: int) -> SetFamily:
    """Empty set, all singletons, all subsets of [ell], and all proper
    supersets of [n] \\ [ell].

    Has n + 2^(ell+1) - ell - 1 members and is induced saturated for
    wedge(ell+1).
    """
    if not (n - 1 > ell >= 2):
        raise BadParams("need n-1 > ell >= 2")
    low = full_mask(ell)
    high = full_mask(n) ^ low
    members = set()
    members.add(0)
    members.update(1 << j for j in range(n))
    for sub in range(low + 1):
        members.add(sub)
    for sub in range(1, low + 1):
        members.add(high | sub)
    fam = SetFamily.of(n, members)
    assert len(fam) == n + 2 ** (ell + 1) - ell - 1
    return fam


def xell_upper_family(n: int, ell: int) -> SetFamily:
    """The wedge family together with its complement family; has
    2n + 2^(ell+1) - 2*ell members and is closed under complementation.

    The family is free of Xell(ell), but it is not maximal: exactly the
    (2^ell - 2)(2^(n-ell) - 2) sets that meet both [ell] and its complement
    without containing either can still be added (e.g. {1,3} at n=5,
    ell=2), so it is not induced saturated for Xell(ell).  The
    ``xell-upper-*`` checks of ``posat.verify`` assert this.
    """
    base = wedge_upper_family(n, ell)
    fam = SetFamily.of(n, base.members + complement_family(base).members)
    assert len(fam) == 2 * n + 2 ** (ell + 1) - 2 * ell
    return fam


def unique_pair_family(n: int) -> SetFamily:
    """A 2*sqrt(n)-member family built from sqrt(n) consecutive blocks A_s
    and their transversal complements B_t.

    For n >= 9, every i in [n] lies in exactly one ordered member pair
    (A, B) with A \\ B = {i} (namely a block over a co-transversal).  At
    n = 4 the construction degenerates -- blocks and co-transversals are all
    2-sets and every i has two such pairs.
    """
    r = math.isqrt(n)
    if r * r != n or n < 4:
        raise NotPerfectSquare("n must be a perfect square >= 4")
    members = []
    for s in range(r):
        members.append(mask_of(range(s * r + 1, s * r + r + 1)))
    full = full_mask(n)
    for t in range(1, r + 1):
        members.append(full ^ mask_of(t + j * r for j in range(r)))
    fam = SetFamily.of(n, members)
    assert len(fam) == 2 * r
    return fam


def singleton_difference_table(F: SetFamily) -> list[list[tuple[int, int]]]:
    """At index i - 1, for every i in [n], all ordered member-index pairs
    (a, b) with A \\ B = {i}, in lexicographic index order.  Each family
    builds its table once (``_pair_table``); every call returns new lists."""
    return [list(row) for row in F._pair_rows]


def _pair_table(n: int, members: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of ``singleton_difference_table`` for these members.

    The members lie side by side in one int, B in lane b of n + 1 bits
    whose top bit is a guard, so each A takes a few big-int steps for every
    B at once: x = A & ~B in every lane; y = (x | guard) - 1 per lane keeps
    the guard iff x is not 0; x & y clears the lowest bit of x, and is 0 iff
    x has at most one bit.  The lanes with one bit left, read in ascending
    order, give the pairs (a, b) and the ground element of each."""
    width = n + 1
    table = [[] for _ in range(n)]
    lows = packed = 0
    for b, B in enumerate(members):
        lows |= 1 << width * b
        packed |= B << width * b
    guards = lows << n
    for a, A in enumerate(members):
        x = A * lows & ~packed
        y = (x | guards) - lows
        one = y & guards & ~((x & y & ~guards | guards) - lows)
        x &= one - (one >> n)
        while x:
            low = x & -x
            x ^= low
            b, i = divmod(low.bit_length() - 1, width)
            table[i].append((a, b))
    return tuple(map(tuple, table))


def singleton_difference_pairs(F: SetFamily, i: int) -> list[tuple[int, int]]:
    """All ordered member-index pairs (a, b) with A \\ B = {i} (1-based i),
    in lexicographic index order; row i - 1 of ``singleton_difference_table``."""
    if not 1 <= i <= F.n:
        raise BadIndex(f"i must be in 1..{F.n}")
    return list(F._pair_rows[i - 1])
