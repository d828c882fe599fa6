"""Generating sets of marked functions: order, fastness, oscillation.

A generating set is an ordered list of marked functions; the order is by
maximum transition point, which for fast totally-nested-or-disjoint sets
agrees with the relation f < g given by f << g (disjoint, f left) or
f inside g (closure of extended support contained in extended support).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..signature import MAX_PAIR_VALUE, Signature, SignatureError
from .marked import MarkedFn, RealizationError, conjugate, is_standard_fn, square
from .plmap import PLMap

GenSet = List[MarkedFn]

LL, INSIDE, CONTAINS, GG, INCOMPARABLE = "<<", "in", "contains", ">>", "incomparable"


class NotSgenError(RealizationError):
    """A set that is not a standard generating set."""


class NotFastError(NotSgenError):
    """A set that is not fast, or not ordered by its maximum transition points."""


def order_genset(fns: Sequence[MarkedFn]) -> GenSet:
    """Sort by maximum transition point; a tie means the set is not fast."""
    out = sorted(fns, key=lambda f: f.max_transition)
    for f, g in zip(out, out[1:]):
        if f.max_transition == g.max_transition:
            raise NotFastError(f"tied maximum transition point {f.max_transition}")
    return out


def _feet_of(fns: Sequence[MarkedFn]):
    feet = []
    for fi, f in enumerate(fns):
        for bi, b in enumerate(f.bumps):
            left, right = b.feet
            feet.append((left[0], left[1], fi, bi, "L"))
            feet.append((right[0], right[1], fi, bi, "R"))
    return feet


def is_fast(fns: Sequence[MarkedFn]) -> bool:
    """All feet pairwise disjoint across bumps.  Two functions sharing a bump
    share the start of its left foot, so this also rules out shared bumps."""
    feet = sorted(_feet_of(fns))
    return all(max(lo1, lo2) >= min(hi1, hi2)
               for (lo1, hi1, *_), (lo2, hi2, *_) in zip(feet, feet[1:]))


def _fast_ordered(fns: Sequence[MarkedFn], what: str) -> GenSet:
    """fns in max-transition order, raising NotFastError unless fast."""
    fns = order_genset(fns)
    if not is_fast(fns):
        raise NotFastError(f"{what} requires a fast set")
    return fns


def pair_order(f: MarkedFn, g: MarkedFn) -> str:
    cf, cg = f.ext_components(), g.ext_components()
    if cf[-1][1] <= cg[0][0]:
        return LL
    if cg[-1][1] <= cf[0][0]:
        return GG
    if all(any(a < u and v < b for a, b in cg) for u, v in cf):
        return INSIDE
    if all(any(a < u and v < b for a, b in cf) for u, v in cg):
        return CONTAINS
    return INCOMPARABLE


def _inside_oscillation(small: MarkedFn, big: MarkedFn) -> int:
    """Orbitals of big containing a transition point of small."""
    pts = small.transition_points()
    return sum(1 for u, v, _ in big.orbitals if any(u < t < v for t in pts))


def oscillation(f: MarkedFn, g: MarkedFn) -> int:
    """Orbitals of the larger function containing a transition point of the
    smaller; 0 for disjoint extended supports."""
    rel = pair_order(f, g)
    if rel in (LL, GG):
        return 0
    if rel == INSIDE:
        return _inside_oscillation(f, g)
    if rel == CONTAINS:
        return _inside_oscillation(g, f)
    raise RealizationError("oscillation undefined for incomparable pair")


# A realized pair of oscillation v takes v rotations; the CLI bounds v by MAX_PAIR_VALUE.
_STANDARD_FUEL = MAX_PAIR_VALUE + 1


def _standard_walk(fns: Sequence[MarkedFn]) -> Tuple[GenSet, Dict[Tuple[int, int], str]]:
    """The ordered set and each pair's relation (LL or INSIDE) when fns is a
    standard generating set: fast, every function standard, and each pair
    f < g has f << g, or f inside g with (g rotated, f) again standard.
    Raises NotSgenError otherwise.  Rotation keeps a function standard and
    its feet inside the old ones, so neither is checked down the recursion."""
    fns = _fast_ordered(fns, "signature")
    for f in fns:
        if not is_standard_fn(f):
            raise NotSgenError(f"{f!r} is not standard")
    rels = {}
    for i, j in itertools.combinations(range(len(fns)), 2):
        f, g = fns[i], fns[j]
        rels[i, j] = rel = pair_order(f, g)
        for _ in range(_STANDARD_FUEL):
            if rel != INSIDE:
                break
            f, g = g.rotated, f
            rel = pair_order(f, g)
        else:
            raise RealizationError("standard-pair recursion did not terminate")
        if rel != LL:
            raise NotSgenError(f"pair ({fns[i]!r}, {fns[j]!r}) is not standard")
    return fns, rels


def is_sgen(fns: Sequence[MarkedFn]) -> bool:
    """Fast, and every function and every pair (in the max-transition order)
    standard."""
    try:
        _standard_walk(fns)
    except NotSgenError:
        return False
    return True


def signature_of(fns: Sequence[MarkedFn]) -> Signature:
    """The signature of a standard generating set; always satisfies (!).
    Each oscillation is read from the relation the walk found, LL or INSIDE."""
    fns, rels = _standard_walk(fns)
    vals = [0 if rel == LL else _inside_oscillation(fns[i], fns[j])
            for (i, j), rel in rels.items()]  # row-major, as the walk visits pairs
    try:
        return Signature(len(fns), vals, [f.name or str(i) for i, f in enumerate(fns)])
    except SignatureError as e:
        raise RealizationError(f"oscillation matrix of a standard set: {e}") from None


def set_rotate(fns: Sequence[MarkedFn]) -> GenSet:
    """Rotate the top element, or drop it when it oscillates with nothing."""
    fns = order_genset(fns)
    if not fns:
        return []
    top, rest = fns[-1], fns[:-1]
    if any(oscillation(f, top) > 0 for f in rest):
        return order_genset(list(rest) + [top.rotated])
    return list(rest)


def set_inflate(fns: Sequence[MarkedFn], index: int) -> GenSet:
    """Replace element a by a^2 and adjoin conjugates b^a for b below a."""
    fns = order_genset(fns)
    if not (0 <= index < len(fns)):
        raise RealizationError(f"no element at index {index}")
    a = fns[index]
    aname = a.name or str(index)
    out: List[MarkedFn] = []
    for i, b in enumerate(fns):
        if i == index:
            out.append(square(a, f"{aname}^2"))
        else:
            out.append(b)
            if i < index:
                bname = b.name or str(i)
                conj = conjugate(b, a.map, f"{bname}^{aname}")
                if conj.map != b.map:
                    out.append(conj)
    return order_genset(out)


# --- JSON codec ---------------------------------------------------------------


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def genset_to_json(fns: Sequence[MarkedFn]) -> str:
    doc = []
    for f in fns:
        entry = {
            "breakpoints": [[_rat_str(x), _rat_str(y)] for x, y in f.map.points],
            "markers": [_rat_str(s) for s in f.markers],
        }
        if f.name:
            entry["name"] = f.name
        doc.append(entry)
    return json.dumps(doc, indent=2)


def genset_from_json(text: str) -> GenSet:
    doc = json.loads(text)
    out = []
    for i, entry in enumerate(doc):
        pts = [(Fraction(x), Fraction(y)) for x, y in entry["breakpoints"]]
        markers = [Fraction(s) for s in entry["markers"]]
        name = entry.get("name", str(i))
        if not isinstance(name, str):
            raise TypeError(f'"name" of function {i} is not a string')
        out.append(MarkedFn(PLMap(pts), markers, name))
    return out
