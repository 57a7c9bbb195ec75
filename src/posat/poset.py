"""Finite strict partial orders: construction, catalog, transforms, embedding.

Posets are stored abstractly (up to isomorphism) as a relation matrix packed
into per-element bitmasks.  Element indices are 0-based internally; the text
formats and the CLI speak 1-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import BadParam, CycleInCovers, IndexOutOfRange, UnknownName


@dataclass(frozen=True)
class Poset:
    """A finite strict partial order on elements 0..size-1.

    ``up[a]`` has bit ``b`` set iff ``a < b``.  Instances are immutable and
    validated on construction (irreflexive, antisymmetric, transitive).
    """

    size: int
    up: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        p = self.size
        if p < 0 or len(self.up) != p:
            raise BadParam(f"relation rows ({len(self.up)}) != size ({p})")
        full = (1 << p) - 1
        for a, row in enumerate(self.up):
            if row & ~full:
                raise IndexOutOfRange(f"relation row {a} references elements >= {p}")
            if row >> a & 1:
                raise BadParam(f"irreflexivity violated at {a}")
        for a in range(p):
            for b in _bits(self.up[a]):
                if self.up[b] >> a & 1:
                    raise BadParam(f"antisymmetry violated at ({a}, {b})")
                if self.up[b] & ~self.up[a]:
                    raise BadParam(f"transitivity violated at ({a}, {b})")

    # -- relation queries ------------------------------------------------

    def below(self, a: int, b: int) -> bool:
        """True iff a < b."""
        return bool(self.up[a] >> b & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.below(a, b) or self.below(b, a)

    def down_masks(self) -> tuple[int, ...]:
        """down[b] has bit a set iff a < b."""
        down = [0] * self.size
        for a, row in enumerate(self.up):
            for b in _bits(row):
                down[b] |= 1 << a
        return tuple(down)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The Hasse diagram: pairs (a, b) with a < b and nothing in between."""
        down = self.down_masks()
        covers = []
        for a in range(self.size):
            for b in _bits(self.up[a]):
                if not (self.up[a] & down[b]):
                    covers.append((a, b))
        return covers

    def relabel(self, perm: tuple[int, ...]) -> "Poset":
        """Poset with element a renamed to perm[a]."""
        up = [0] * self.size
        for a, row in enumerate(self.up):
            for b in _bits(row):
                up[perm[a]] |= 1 << perm[b]
        return Poset(self.size, tuple(up), self.name)


@dataclass(frozen=True)
class LegsWitness:
    """Two incomparable elements below a hip; all other elements above it."""

    leg1: int
    leg2: int
    hip: int


@dataclass(frozen=True)
class EmbeddingWitness:
    """An injective order-preserving-and-reflecting map.

    ``mapping[a]`` is the target index (poset element or family member) that
    source element ``a`` is sent to.
    """

    mapping: tuple[int, ...]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_cover_relations(p: int, covers: list[tuple[int, int]], name: str | None = None) -> Poset:
    """Build a poset as the transitive closure of cover pairs.

    Raises CycleInCovers if the closure would put an element below itself.
    """
    if p < 0:
        raise BadParam("element count must be >= 0")
    adj = [0] * p
    for a, b in covers:
        if not (0 <= a < p and 0 <= b < p):
            raise IndexOutOfRange(f"cover ({a}, {b}) out of range for {p} elements")
        adj[a] |= 1 << b
    # Warshall closure on bitmask rows.
    for k in range(p):
        row_k = adj[k]
        bit_k = 1 << k
        for a in range(p):
            if adj[a] & bit_k:
                adj[a] |= row_k
    for a in range(p):
        if adj[a] >> a & 1:
            raise CycleInCovers(f"element {a} ends up below itself")
    return Poset(p, tuple(adj), name)


# -- catalog -----------------------------------------------------------------

def catalog(name: str, param: int | None = None) -> Poset:
    """Named posets: chain(k), antichain(k), fork, diamond, N, Y, Yinv, X,
    wedge(l), vee(l), Xell(l)."""
    fixed = {
        "fork": (3, [(0, 1), (0, 2)]),
        "diamond": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        "N": (4, [(0, 2), (1, 2), (1, 3)]),
        "Y": (4, [(0, 1), (1, 2), (1, 3)]),
        "Yinv": (4, [(0, 2), (1, 2), (2, 3)]),
        "X": (5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
    }
    if name in fixed:
        if param is not None:
            raise BadParam(f"{name} takes no parameter")
        p, covers = fixed[name]
        return from_cover_relations(p, covers, name)
    if name in ("chain", "antichain", "wedge", "vee", "Xell"):
        if param is None:
            raise BadParam(f"{name} requires a parameter")
        if param < 1:
            raise BadParam(f"{name} parameter must be >= 1")
        label = f"{name}({param})"
        if name == "chain":
            return from_cover_relations(param, [(i, i + 1) for i in range(param - 1)], label)
        if name == "antichain":
            return from_cover_relations(param, [], label)
        if name == "wedge":
            # legs 0, 1 under the chain 2 < 3 < ... < param+1
            covers = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, param + 1)]
            return from_cover_relations(param + 2, covers, label)
        if name == "vee":
            return _with_name(dual(catalog("wedge", param)), label)
        # Xell: legs 0, 1 under chain 2..param+1 under incomparable tops.
        covers = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, param + 1)]
        covers += [(param + 1, param + 2), (param + 1, param + 3)]
        return from_cover_relations(param + 4, covers, label)
    raise UnknownName(f"unknown catalog name: {name!r}")


def _with_name(P: Poset, name: str) -> Poset:
    return Poset(P.size, P.up, name)


def catalog_small(max_size: int = 5) -> list[Poset]:
    """Every catalog poset with at most max_size elements (duplicates kept)."""
    out = []
    for k in range(2, max_size + 1):
        out.append(catalog("chain", k))
        out.append(catalog("antichain", k))
    for name in ("fork", "diamond", "N", "Y", "Yinv", "X"):
        if catalog(name).size <= max_size:
            out.append(catalog(name))
    ell = 1
    while ell + 2 <= max_size:
        out.append(catalog("wedge", ell))
        out.append(catalog("vee", ell))
        ell += 1
    ell = 1
    while ell + 4 <= max_size:
        out.append(catalog("Xell", ell))
        ell += 1
    return out


# -- transforms --------------------------------------------------------------

def dual(P: Poset) -> Poset:
    """Order-reversed poset."""
    down = P.down_masks()
    return Poset(P.size, down, None)


def dot_extension(P: Poset) -> Poset:
    """P plus one new element strictly above every element of P."""
    p = P.size
    top = 1 << p
    up = tuple(row | top for row in P.up) + (0,)
    return Poset(p + 1, up, None)


# -- legs --------------------------------------------------------------------

def iter_legs_witnesses(P: Poset):
    """All (leg1, leg2, hip) triples satisfying the legs definition,
    in lexicographic order with leg1 < leg2."""
    p = P.size
    for l1, l2 in itertools.combinations(range(p), 2):
        if P.comparable(l1, l2):
            continue
        for h in range(p):
            if h in (l1, l2):
                continue
            if not (P.below(l1, h) and P.below(l2, h)):
                continue
            if all(P.below(h, a) for a in range(p) if a not in (l1, l2, h)):
                yield LegsWitness(l1, l2, h)


def has_legs(P: Poset) -> LegsWitness | None:
    """Lexicographically smallest legs witness, or None."""
    for w in iter_legs_witnesses(P):
        return w
    return None


# -- induced embedding: the one matcher -------------------------------------

@functools.lru_cache(maxsize=1024)
def _plan(up: tuple[int, ...], first: int | None, less: tuple = ()):
    """For the poset with relation rows ``up``: its elements in placement
    order (``first``, if given, then most relations to the elements already
    placed, then most relations, then lowest index), and per step the
    earlier steps the element lies below, lies above and is incomparable
    to, its up- and down-degree, and the earlier steps whose targets must
    lie below its target: a pair (a, b) in ``less``, with a placed before
    b, puts the target of a below the target of b."""
    p = len(up)
    down = [sum(1 << b for b in range(p) if up[b] >> a & 1) for a in range(p)]
    rel = [up[a] | down[a] for a in range(p)]
    order = [] if first is None else [first]
    placed = sum(1 << a for a in order)
    while len(order) < p:
        a = max((b for b in range(p) if not placed >> b & 1),
                key=lambda b: ((rel[b] & placed).bit_count(), rel[b].bit_count(), -b))
        order.append(a)
        placed |= 1 << a
    steps = []
    for t, a in enumerate(order):
        below = tuple(s for s in range(t) if up[a] >> order[s] & 1)
        above = tuple(s for s in range(t) if down[a] >> order[s] & 1)
        apart = tuple(s for s in range(t) if not rel[a] >> order[s] & 1)
        after = tuple(s for s in range(t) if (order[s], a) in less)
        steps.append((below, above, apart, up[a].bit_count(), down[a].bit_count(), after))
    return tuple(order), tuple(steps)


def induced_embeddings(P: Poset, up, down):
    """Yield every induced copy of P, as an EmbeddingWitness, among targets
    0..k-1 ordered by the rows ``up[j]`` / ``down[j]`` (bit i set iff target
    i lies strictly above / below target j).  The rows must not change while
    the generator is in use.
    """
    k = len(up)
    if P.size > k:
        return
    every = (1 << k) - 1
    yield from _match(_plan(P.up, None), up, down, every, every)


def induced_copies(P: Poset, up, down):
    """Yield one induced copy of P per image, as an EmbeddingWitness, among
    the targets ordered by ``up`` / ``down`` (as for ``induced_embeddings``,
    which yields each image once per automorphism of P)."""
    k = len(up)
    if P.size > k:
        return
    every = (1 << k) - 1
    yield from _match(_copy_plan(P.up), up, down, every, every)


@functools.lru_cache(maxsize=1024)
def _automorphisms(up: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of the poset with relation rows ``up``: its induced
    copies in itself, as mappings."""
    p = len(up)
    down = [sum(1 << b for b in range(p) if up[b] >> a & 1) for a in range(p)]
    every = (1 << p) - 1
    return tuple(w.mapping for w in _match(_plan(up, None), up, down, every, every))


@functools.lru_cache(maxsize=1024)
def _copy_plan(up: tuple[int, ...]):
    """The placement plan of the poset with relation rows ``up`` that admits
    one embedding per image.  Along a stabilizer chain of the automorphism
    group G, in placement order, element a must take the lowest target of
    its orbit under the automorphisms fixing every element placed before
    a (so the rest of the orbit is placed after a).  Of the |G| embeddings
    f∘σ with one image, the first constraint keeps those with σ(a1) fixed,
    a coset of the stabilizer of a1, the next one a coset of the stabilizer
    of a1 and a2 within it, and so on: exactly one passes them all."""
    order = _plan(up, None)[0]
    less = []
    group = _automorphisms(up)
    for a in order:
        less += [(a, b) for b in sorted({f[a] for f in group}) if b != a]
        group = [f for f in group if f[a] == a]
    return _plan(up, None, tuple(less))


@functools.lru_cache(maxsize=1024)
def _pinned_plans(up: tuple[int, ...]) -> tuple:
    """The placement plans of the poset with relation rows ``up`` that place
    first the smallest element of each automorphism orbit."""
    plans, seen = [], 0
    for a in range(len(up)):
        if not seen >> a & 1:
            plans.append(_plan(up, a))
            for f in _automorphisms(up):
                seen |= 1 << f[a]
    return tuple(plans)


def has_pinned_copy(forbidden, up, down, pinned: int, within: int | None = None) -> int:
    """The targets, as bits, of an induced copy of some poset in
    ``forbidden`` through target ``pinned`` among the targets ordered by
    ``up`` / ``down`` (as for ``induced_embeddings``), using only targets
    whose bits are set in ``within`` (default: every target; ``within`` must
    contain the pin); 0 when there is none.  The bits include the pin, so a
    copy is never 0.  This is the one blocked test: adding a set to a free
    family breaks freeness iff the set lies in such a copy.

    An automorphism of P carries a copy with the pin at element a to one
    with the pin at any element of a's orbit, so the pin is tried as one
    element per orbit only.
    """
    if within is None:
        within = (1 << len(up)) - 1
    targets = within.bit_count()
    for P in forbidden:
        if P.size <= targets:
            for plan in _pinned_plans(P.up):
                for w in _match(plan, up, down, 1 << pinned, within):
                    bits = 0
                    for j in w.mapping:
                        bits |= 1 << j
                    return bits
    return 0


def _match(plan, up, down, first: int, within: int):
    """Backtracking over the plan's steps, on the targets in ``within``:
    the candidates of a step are the AND of the rows of the targets already
    placed, minus the used ones, above the targets its order constraints
    name, and the first step's are ``first``."""
    order, steps = plan
    p = len(order)
    if p == 0:
        yield EmbeddingWitness(())
        return
    image = [0] * p
    cands = [0] * p
    cands[0] = first
    used = 0
    t = 0
    while True:
        c = cands[t]
        if not c:
            if t == 0:
                return
            t -= 1
            used ^= 1 << image[t]
            continue
        low = c & -c
        cands[t] = c ^ low
        j = low.bit_length() - 1
        step = steps[t]
        if (up[j] & within).bit_count() < step[3] or (down[j] & within).bit_count() < step[4]:
            continue
        image[t] = j
        if t == p - 1:
            mapping = [0] * p
            for s, a in enumerate(order):
                mapping[a] = image[s]
            yield EmbeddingWitness(tuple(mapping))
            continue
        used |= low
        t += 1
        below, above, apart, _, _, after = steps[t]
        c = within & ~used
        for s in below:
            c &= down[image[s]]
        for s in above:
            c &= up[image[s]]
        for s in apart:
            c &= ~(up[image[s]] | down[image[s]])
        for s in after:
            c &= -2 << image[s]
        cands[t] = c


def is_induced_subposet(P: Poset, Q: Poset) -> EmbeddingWitness | None:
    """An injective map from P into Q preserving and reflecting the strict
    order, or None."""
    return next(induced_embeddings(P, Q.up, Q.down_masks()), None)


def isomorphic(P: Poset, Q: Poset) -> bool:
    """True iff P and Q are isomorphic as abstract posets."""
    return P.size == Q.size and is_induced_subposet(P, Q) is not None


def isomorphism_classes(posets) -> list[Poset]:
    """The first poset of each isomorphism class, in order."""
    out = []
    for P in posets:
        if not any(isomorphic(P, Q) for Q in out):
            out.append(P)
    return out
