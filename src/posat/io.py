"""Plain-text formats (1-based, round-trip exact) and DOT export."""

from __future__ import annotations

import re

from .digraph import Digraph
from .errors import ParseError
from .family import MAX_GROUND, SetFamily, elems_of, mask_of
from .poset import Poset, catalog, from_cover_relations


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


# -- poset -------------------------------------------------------------------

def parse_poset(text: str) -> Poset:
    """Format: `elements=<p>` then one `a < b` cover per line (1-based),
    or a single `name=<catalog>[:<param>]` line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty poset file")
    name_lines = [l for l in lines if l.startswith("name=")]
    if name_lines:
        if len(lines) != len(name_lines) or len(name_lines) != 1:
            raise ParseError("a name= line must be the only content")
        return parse_poset_spec(name_lines[0][len("name="):])
    m = re.fullmatch(r"elements=(\d+)", lines[0])
    if not m:
        raise ParseError(f"expected elements=<p>, got {lines[0]!r}")
    p = int(m.group(1))
    covers = []
    for line in lines[1:]:
        cm = re.fullmatch(r"(\d+)\s*<\s*(\d+)", line)
        if not cm:
            raise ParseError(f"expected `a < b`, got {line!r}")
        covers.append((int(cm.group(1)) - 1, int(cm.group(2)) - 1))
    return from_cover_relations(p, covers)


def parse_poset_spec(spec: str) -> Poset:
    """`<catalog>` or `<catalog>:<param>`."""
    if ":" in spec:
        name, param = spec.split(":", 1)
        try:
            return catalog(name, int(param))
        except ValueError:
            raise ParseError(f"bad catalog parameter {param!r}")
    return catalog(spec)


def format_poset(P: Poset) -> str:
    lines = [f"elements={P.size}"]
    for a, b in sorted(P.cover_pairs()):
        lines.append(f"{a + 1} < {b + 1}")
    return "\n".join(lines) + "\n"


def _dot(name: str, labels, edges, upward: bool, first: int = 1) -> str:
    """DOT of the graph ``name``: node i is ``v{first + i}`` labelled
    ``labels[i]``, one edge a -> b per pair of ``edges``, drawn from the
    bottom up when ``upward``."""
    lines = [f"digraph {name} {{"] + ["  rankdir=BT;"] * upward
    lines += [f'  v{first + i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  v{first + a} -> v{first + b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(P: Poset) -> str:
    """DOT of the Hasse diagram, edges drawn from lower to higher element."""
    return _dot("hasse", range(1, P.size + 1), sorted(P.cover_pairs()), upward=True)


# -- family ------------------------------------------------------------------

def parse_family(text: str) -> SetFamily:
    """Format: `n=<int>` then one member per line as `{}` or `{1,3,4}`.

    A line spelled as ``format_member`` spells it (canonical elements in
    1..n, no spaces, in any order) is read by table lookups: the sum of the
    elements' bits, whose popcount equals the item count iff no element
    repeats.  Every other line goes to ``_parse_member``."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty family file")
    m = re.fullmatch(r"n=(\d+)", lines[0])
    if not m:
        raise ParseError(f"expected n=<int>, got {lines[0]!r}")
    n = int(m.group(1))
    bits = {str(e): 1 << (e - 1) for e in range(1, min(n, MAX_GROUND) + 1)}
    members = []
    for line in lines[1:]:
        items = line[1:-1].split(",") if len(line) > 2 else ()
        try:
            mask = sum(map(bits.__getitem__, items))
        except KeyError:
            mask = None
        if mask is None or mask.bit_count() != len(items) or line[0] != "{" or line[-1] != "}":
            mask = _parse_member(line, n)
        members.append(mask)
    return SetFamily.of(n, members)


def _parse_member(line: str, n: int) -> int:
    """The mask of one member line in any spelling the format allows, or a
    ParseError that quotes the line."""
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
    return mask_of(elems)


def format_member(mask: int) -> str:
    return "{" + ",".join(map(str, elems_of(mask))) + "}"


def format_family(F: SetFamily) -> str:
    lines = [f"n={F.n}"]
    lines.extend(format_member(m) for m in F.members)
    return "\n".join(lines) + "\n"


def family_dot(F: SetFamily) -> str:
    """DOT of the family's inclusion order (cover edges only)."""
    from .family import inclusion_poset

    P, members = inclusion_poset(F)
    return _dot("family", map(format_member, members), sorted(P.cover_pairs()), upward=True, first=0)


# -- digraph -----------------------------------------------------------------

def parse_digraph(text: str) -> Digraph:
    """Format: `vertices=<n>` then one `u -> v` per line (1-based), with
    u != v both in 1..n.

    A line spelled as ``format_digraph`` spells it (`u -> v`, canonical
    vertices) is read by two lookups in a token -> index table of
    1..min(n, len(text)), so the table never outgrows the text.  Every
    other line goes to ``_parse_edge``."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty digraph file")
    m = re.fullmatch(r"vertices=(\d+)", lines[0])
    if not m:
        raise ParseError(f"expected vertices=<n>, got {lines[0]!r}")
    n = int(m.group(1))
    index = {str(v): v - 1 for v in range(1, min(n, len(text)) + 1)}
    edges = []
    for line in lines[1:]:
        a, _, b = line.partition(" -> ")
        u, v = index.get(a), index.get(b)
        if u is None or v is None or u == v:
            u, v = _parse_edge(line, n)
        edges.append((u, v))
    return Digraph.of(n, edges)


def _parse_edge(line: str, n: int) -> tuple[int, int]:
    """The 0-based ends of one edge line in any spelling the format allows,
    or a ParseError that quotes the line."""
    em = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
    if not em:
        raise ParseError(f"expected `u -> v`, got {line!r}")
    u, v = int(em.group(1)), int(em.group(2))
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"vertex out of range in {line!r}")
    if u == v:
        raise ParseError(f"loop in {line!r}")
    return u - 1, v - 1


def format_digraph(D: Digraph) -> str:
    lines = [f"vertices={D.vertex_count}"]
    for u, v in D.sorted_edges():
        lines.append(f"{u + 1} -> {v + 1}")
    return "\n".join(lines) + "\n"


def digraph_dot(D: Digraph) -> str:
    return _dot("d", range(1, D.vertex_count + 1), D.sorted_edges(), upward=False)


# -- results -----------------------------------------------------------------

def format_result(result) -> str:
    """Certificate block plus the witness family inline."""
    lines = [
        f"lower={result.lower_bound} kind={result.lower_kind}",
        f"upper={result.upper_bound} kind={result.upper_kind}",
        f"exact={str(result.exact).lower()}",
    ]
    if result.witness is not None:
        lines.append("witness:")
        lines.append(format_family(result.witness).rstrip("\n"))
    return "\n".join(lines) + "\n"
