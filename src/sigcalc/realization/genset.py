"""Generating sets of marked functions: order, fastness, oscillation.

A generating set is an ordered list of marked functions; the order is by
maximum transition point, which for fast totally-nested-or-disjoint sets
agrees with the relation f < g given by f << g (disjoint, f left) or
f inside g (closure of extended support contained in extended support).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Sequence

from ..signature import OscMatrix, Signature, SignatureError
from .marked import MarkedFn, RealizationError, conjugate, fn_rotate, is_standard_fn, square
from .plmap import PLMap

GenSet = List[MarkedFn]

LL, INSIDE, CONTAINS, GG, INCOMPARABLE = "<<", "in", "contains", ">>", "incomparable"


def order_genset(fns: Sequence[MarkedFn]) -> GenSet:
    """Sort by maximum transition point; ties are impossible for fast sets."""
    out = sorted(fns, key=lambda f: f.max_transition)
    for f, g in zip(out, out[1:]):
        if f.max_transition == g.max_transition:
            raise RealizationError(
                f"tied maximum transition point {f.max_transition}")
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
    """All feet pairwise disjoint across bumps, and no bump shared between
    two functions."""
    feet = sorted(_feet_of(fns))
    for (lo1, hi1, *_), (lo2, hi2, *_) in zip(feet, feet[1:]):
        if max(lo1, lo2) < min(hi1, hi2):
            return False
    for i, f in enumerate(fns):
        for g in fns[i + 1 :]:
            for bf in f.bumps:
                for bg in g.bumps:
                    if (bf.u, bf.v) == (bg.u, bg.v) and _same_on(f.map, g.map, bf.u, bf.v):
                        return False
    return True


def _same_on(a: PLMap, b: PLMap, u: Fraction, v: Fraction) -> bool:
    xs = {x for x, _ in a.points if u <= x <= v}
    xs |= {x for x, _ in b.points if u <= x <= v}
    return all(a(x) == b(x) for x in xs)


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


def oscillation(f: MarkedFn, g: MarkedFn) -> int:
    """Orbitals of the larger function containing a transition point of the
    smaller; 0 for disjoint extended supports."""
    rel = pair_order(f, g)
    if rel in (LL, GG):
        return 0
    if rel == INSIDE:
        small, big = f, g
    elif rel == CONTAINS:
        small, big = g, f
    else:
        raise RealizationError("oscillation undefined for incomparable pair")
    pts = small.transition_points()
    count = 0
    for u, v, _ in big.orbitals:
        if any(u < t < v for t in pts):
            count += 1
    return count


_STANDARD_FUEL = 200


def is_standard_pair(f: MarkedFn, g: MarkedFn, _fuel: int = _STANDARD_FUEL) -> bool:
    """The recursive test: {f,g} fast and either f << g, or f inside g with
    (g rotated, f) again standard."""
    if _fuel == 0:
        raise RealizationError("standard-pair recursion did not terminate")
    if not (is_standard_fn(f) and is_standard_fn(g)):
        return False
    if not is_fast([f, g]):
        return False
    rel = pair_order(f, g)
    if rel == LL:
        return True
    if rel == INSIDE:
        return is_standard_pair(fn_rotate(g), f, _fuel - 1)
    return False


def is_sgen(fns: Sequence[MarkedFn]) -> bool:
    """Every pair standard (in the max-transition order) and the whole set fast."""
    try:
        fns = order_genset(fns)
    except RealizationError:
        return False
    if not is_fast(fns):
        return False
    for i, f in enumerate(fns):
        if not is_standard_fn(f):
            return False
        for g in fns[i + 1 :]:
            if not is_standard_pair(f, g):
                return False
    return True


class NotSgenError(RealizationError):
    def __init__(self, f: MarkedFn, g: MarkedFn):
        super().__init__(f"pair ({f!r}, {g!r}) is not standard")
        self.pair = (f, g)


def oscillation_matrix(fns: Sequence[MarkedFn]) -> OscMatrix:
    """Raw pairwise oscillations for any fast totally ordered set."""
    fns = order_genset(fns)
    if not is_fast(fns):
        raise RealizationError("oscillation matrix requires a fast set")
    return _oscillations(fns)


def _oscillations(fns: GenSet) -> OscMatrix:
    """oscillation_matrix of a set already ordered and known to be fast."""
    n = len(fns)
    o = {}
    for i in range(n):
        for j in range(i + 1, n):
            rel = pair_order(fns[i], fns[j])
            if rel not in (LL, INSIDE):
                raise RealizationError(
                    f"set not totally ordered: relation {rel} between elements {i},{j}")
            o[(i, j)] = oscillation(fns[i], fns[j])
    labels = [f.name or str(i) for i, f in enumerate(fns)]
    return OscMatrix(n, o, labels)


def signature_of(fns: Sequence[MarkedFn]) -> Signature:
    """The signature of a standard generating set; always satisfies (!)."""
    fns = order_genset(fns)
    if not is_fast(fns):
        raise RealizationError("signature requires a fast set")
    for i, f in enumerate(fns):
        for g in fns[i + 1 :]:
            if not is_standard_pair(f, g):
                raise NotSgenError(f, g)
    m = _oscillations(fns)
    try:
        return Signature(m.n, m.vals, m.labels)
    except SignatureError as e:
        raise RealizationError(f"oscillation matrix of a standard set: {e}") from None


def set_rotate(fns: Sequence[MarkedFn]) -> GenSet:
    """Rotate the top element, or drop it when it oscillates with nothing."""
    fns = order_genset(fns)
    if not fns:
        return []
    top, rest = fns[-1], fns[:-1]
    if any(oscillation(f, top) > 0 for f in rest):
        return order_genset(list(rest) + [fn_rotate(top)])
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
        out.append(MarkedFn(PLMap(pts), markers, entry.get("name", str(i))))
    return out
