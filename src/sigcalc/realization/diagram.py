"""Dynamical diagrams: the ordered, labeled, directed graph of feet and bumps.

Vertices are the feet of a fast set in left-to-right order, with a right
foot of a function contracted with an immediately following left foot of
the same function.  Each bump is one edge between its feet, directed right
for positive bumps and left for negative ones, labeled by the owning
function: the feet are those `genset._feet_of` sorts, read from each
function's stored `feet`, and the directions are the signs of its stored
orbitals.  The diagram determines the marked isomorphism type of the
generated group, and there is at most one isomorphism between two diagrams,
so isomorphism reduces to equality of a canonical form.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .genset import _fast_ordered
from .marked import MarkedFn


class DynDiagram:
    """Canonical form: vertex count plus edges (src, dst, label), with labels
    renumbered by first appearance in sorted edge order; `names`, if given,
    are reordered with them.  Equality ignores names."""

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
        self.names = tuple(names[label] for label in relabel) if names else ()

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
    fns, feet = _fast_ordered(fns, "dynamical diagram")  # feet: sorted (lo, hi, fi, bi, side)
    # a left foot immediately after a right foot of the same function shares its vertex
    vertex_of, nv, prev = {}, 0, None
    for *_, fi, bi, side in feet:
        if not (side == "L" and prev == (fi, "R")):
            nv += 1
        vertex_of[fi, bi, side] = nv - 1
        prev = (fi, side)
    raw_edges = []
    for fi, f in enumerate(fns):
        for bi, (_, _, sign) in enumerate(f.orbitals):
            lv, rv = vertex_of[fi, bi, "L"], vertex_of[fi, bi, "R"]
            raw_edges.append((lv, rv, fi) if sign > 0 else (rv, lv, fi))
    names = [f.name or str(i) for i, f in enumerate(fns)]
    return DynDiagram(nv, raw_edges, names)


def to_dot(d: DynDiagram) -> str:
    """DOT with the vertex order pinned by a same-rank invisible chain;
    positive bumps are forward edges and negative bumps back edges, labeled
    by function name with '"' and '\\' escaped."""
    lines = ["digraph dynamical_diagram {", "  rankdir=LR;"]
    chain = "; ".join(f"v{i}" for i in range(d.num_vertices))
    lines.append("  { rank=same; " + chain + "; }")
    for i in range(d.num_vertices - 1):
        lines.append(f"  v{i} -> v{i + 1} [style=invis];")
    for src, dst, label in d.edges:
        name = d.names[label] if label < len(d.names) else str(label)
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{src} -> v{dst} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
