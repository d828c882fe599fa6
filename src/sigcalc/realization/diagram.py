"""Dynamical diagrams: the ordered, labeled, directed graph of feet and bumps.

Vertices are the feet of a fast set in left-to-right order, with a right
foot of a function contracted with an immediately following left foot of
the same function.  Each bump is one edge between its feet, directed right
for positive bumps and left for negative ones, labeled by the owning
function.  The diagram determines the marked isomorphism type of the
generated group, and there is at most one isomorphism between two diagrams,
so isomorphism reduces to equality of a canonical form.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .genset import GenSet, _feet_of, is_fast, order_genset
from .marked import MarkedFn, RealizationError


class DynDiagram:
    """Canonical form: vertex count plus edges (src, dst, label), with labels
    renumbered by first appearance in sorted edge order."""

    __slots__ = ("num_vertices", "edges", "names")

    def __init__(self, num_vertices: int, raw_edges: Sequence[Tuple[int, int, int]],
                 names: Sequence[str] = ()):
        edges = sorted(raw_edges)
        relabel = {}
        canon = []
        for src, dst, label in edges:
            if label not in relabel:
                relabel[label] = len(relabel)
            canon.append((src, dst, relabel[label]))
        self.num_vertices = num_vertices
        self.edges = tuple(canon)
        self.names = tuple(names)

    def __eq__(self, other):
        if not isinstance(other, DynDiagram):
            return NotImplemented
        return (self.num_vertices, self.edges) == (other.num_vertices, other.edges)

    def __hash__(self):
        return hash((self.num_vertices, self.edges))

    def __repr__(self):
        return f"DynDiagram({self.num_vertices} vertices, {list(self.edges)})"


def diagram(fns: Sequence[MarkedFn]) -> DynDiagram:
    """The dynamical diagram of a fast set."""
    fns = order_genset(fns)
    if not is_fast(fns):
        raise RealizationError("dynamical diagram requires a fast set")
    feet = sorted(_feet_of(fns))  # (lo, hi, func index, bump index, side)
    # contract a right foot followed immediately by a left foot of the same function
    vertex_of = {}
    nv = 0
    i = 0
    while i < len(feet):
        cur = feet[i]
        vertex_of[(cur[2], cur[3], cur[4])] = nv
        if (i + 1 < len(feet) and cur[4] == "R" and feet[i + 1][4] == "L"
                and feet[i + 1][2] == cur[2]):
            nxt = feet[i + 1]
            vertex_of[(nxt[2], nxt[3], nxt[4])] = nv
            i += 2
        else:
            i += 1
        nv += 1
    raw_edges = []
    for fi, f in enumerate(fns):
        for bi, b in enumerate(f.bumps):
            lv = vertex_of[(fi, bi, "L")]
            rv = vertex_of[(fi, bi, "R")]
            if b.sign > 0:
                raw_edges.append((lv, rv, fi))
            else:
                raw_edges.append((rv, lv, fi))
    names = [f.name or str(i) for i, f in enumerate(fns)]
    return DynDiagram(nv, raw_edges, names)


def to_dot(d: DynDiagram) -> str:
    """DOT with the vertex order pinned by a same-rank invisible chain;
    positive bumps are forward edges and negative bumps back edges."""
    lines = ["digraph dynamical_diagram {", "  rankdir=LR;"]
    chain = "; ".join(f"v{i}" for i in range(d.num_vertices))
    lines.append("  { rank=same; " + chain + "; }")
    for i in range(d.num_vertices - 1):
        lines.append(f"  v{i} -> v{i + 1} [style=invis];")
    for src, dst, label in d.edges:
        name = d.names[label] if label < len(d.names) else str(label)
        lines.append(f'  v{src} -> v{dst} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- excision ------------------------------------------------------------------


def _isolated_bumps(fns: Sequence[MarkedFn]) -> List[Tuple[int, int]]:
    """Bumps whose support contains no transition point of the set."""
    pts = []
    for f in fns:
        pts.extend(f.transition_points())
    pts.sort()
    out = []
    for fi, f in enumerate(fns):
        for bi, b in enumerate(f.bumps):
            if not any(b.u < t < b.v for t in pts):
                out.append((fi, bi))
    return out


def _drop_bump(f: MarkedFn, bi: int) -> MarkedFn:
    from .plmap import PLMap

    bumps = f.bumps
    target = bumps[bi]
    pts = [(p, p) for p in (target.u, target.v)]
    pts += [(x, y) for x, y in f.map.points if not (target.u < x < target.v)]
    markers = [b.marker for j, b in enumerate(bumps) if j != bi]
    return MarkedFn(PLMap(pts), markers, f.name)


def excise(fns: Sequence[MarkedFn]) -> GenSet:
    """Iteratively remove extraneous bumps until none remain.

    An extraneous set consists of isolated bumps whose removal leaves every
    function with at least one bump.  One bump is removed per round: from a
    function with more positive than negative bumps, the rightmost isolated
    bump; with balanced counts, the leftmost.
    """
    fns = order_genset(fns)
    if not is_fast(fns):
        raise RealizationError("excision requires a fast set")
    fns = list(fns)
    while True:
        isolated = _isolated_bumps(fns)
        removable = [(fi, bi) for fi, bi in isolated if len(fns[fi].bumps) >= 2]
        if not removable:
            return order_genset(fns)
        by_fn = {}
        for fi, bi in removable:
            by_fn.setdefault(fi, []).append(bi)
        fi = min(by_fn)
        f = fns[fi]
        npos = sum(1 for b in f.bumps if b.sign > 0)
        nneg = len(f.bumps) - npos
        bi = max(by_fn[fi]) if npos > nneg else min(by_fn[fi])
        fns[fi] = _drop_bump(f, bi)
