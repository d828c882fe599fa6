"""Generating sets of marked functions: order, fastness, standardness.

A generating set is an ordered list of marked functions; the order is by
maximum transition point, which for fast totally-nested-or-disjoint sets
agrees with the relation f < g given by f << g (disjoint, f left) or
f inside g (closure of extended support contained in extended support).

`_standard_walk` checks a set and computes its oscillations at once, each
as a count of rotation steps; `signature_of`, `set_rotate` and
`set_inflate` all start from it.

Everything here works on the functions' reduced integer pairs (see
`marked`): feet and maximum transition points sort on integer keys over one
common denominator, other comparisons cross-multiply, and the JSON writer
prints the pairs without building a Fraction.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Optional, Sequence, Tuple

from ..signature import MAX_PAIR_VALUE, Signature, SignatureError, _pair_index
from .marked import MarkedFn, RealizationError, conjugate, is_standard_fn, square
from .plmap import PLMap, _lt, _quads, fmt, keys

GenSet = List[MarkedFn]

LL, INSIDE = "<<", "in"


class NotSgenError(RealizationError):
    """A set that is not a standard generating set."""


class NotFastError(NotSgenError):
    """A set that is not fast, or not ordered by its maximum transition points."""


def order_genset(fns: Sequence[MarkedFn]) -> GenSet:
    """Sort by maximum transition point; a tie means the set is not fast."""
    _, k = keys([f.max_transition for f in fns])
    order = sorted(range(len(fns)), key=k.__getitem__)
    for i, j in zip(order, order[1:]):
        if k[i] == k[j]:
            raise NotFastError(f"tied maximum transition point {fmt(fns[i].max_transition)}")
    return [fns[i] for i in order]


def _feet_of(fns: Sequence[MarkedFn]):
    """Every foot as (lo, hi, function index, bump index, side), lo and hi
    integer keys over one common denominator, sorted; None when two feet
    overlap."""
    tags, ends = [], []
    for fi, f in enumerate(fns):
        for bi, b in enumerate(f.bumps):
            tags += ((fi, bi, "L"), (fi, bi, "R"))
            ends += (b.u, b.marker, b.tpoint, b.v)
    _, k = keys(ends)
    feet = sorted((lo, hi, *tag) for tag, lo, hi in zip(tags, k[0::2], k[1::2]))
    if all(max(lo1, lo2) >= min(hi1, hi2)
           for (lo1, hi1, *_), (lo2, hi2, *_) in zip(feet, feet[1:])):
        return feet
    return None


def is_fast(fns: Sequence[MarkedFn]) -> bool:
    """All feet pairwise disjoint across bumps.  Two functions sharing a bump
    share the start of its left foot, so this also rules out shared bumps."""
    return _feet_of(fns) is not None


def _fast_ordered(fns: Sequence[MarkedFn], what: str) -> Tuple[GenSet, list]:
    """fns in max-transition order with their sorted feet; NotFastError unless fast."""
    fns = order_genset(fns)
    feet = _feet_of(fns)
    if feet is None:
        raise NotFastError(f"{what} requires a fast set")
    return fns, feet


def pair_order(f: MarkedFn, g: MarkedFn) -> Optional[str]:
    """LL when f << g, INSIDE when f is inside g, None otherwise."""
    cf, cg = f.ext_components(), g.ext_components()
    if not _lt(cg[0][0], cf[-1][1]):
        return LL
    if all(any(_lt(a, u) and _lt(v, b) for a, b in cg) for u, v in cf):
        return INSIDE
    return None


# A standard pair of oscillation v takes exactly v rotations; the CLI bounds v by MAX_PAIR_VALUE.
_STANDARD_FUEL = MAX_PAIR_VALUE + 1


def _standard_walk(fns: Sequence[MarkedFn]) -> Tuple[GenSet, List[int]]:
    """The ordered set and its oscillations, row-major, when fns is a
    standard generating set: fast, every function standard, and each pair
    f < g has f << g, or f inside g with (g rotated, f) again standard;
    NotSgenError otherwise.  Rotation lowers each oscillation against the
    top by exactly one (`sig_rotate`: o(new, i) = o(i, n) - 1; arXiv:1711.10998,
    on the fast sets of arXiv:1701.08321), so o(f, g) is the number of
    INSIDE steps the walk takes before it reaches LL.  Rotation keeps a
    function standard and its feet inside the old ones, so neither is
    checked down the recursion."""
    fns, _ = _fast_ordered(fns, "a standard generating set")
    for f in fns:
        if not is_standard_fn(f):
            raise NotSgenError(f"{f!r} is not standard")
    vals = []
    for low, high in itertools.combinations(fns, 2):
        f, g = low, high
        for steps in range(_STANDARD_FUEL):
            rel = pair_order(f, g)
            if rel != INSIDE:
                break
            f, g = g.rotated, f
        else:
            raise RealizationError("standard-pair recursion did not terminate")
        if rel != LL:
            raise NotSgenError(f"pair ({low!r}, {high!r}) is not standard")
        vals.append(steps)
    return fns, vals


def is_sgen(fns: Sequence[MarkedFn]) -> bool:
    """Fast, and every function and every pair (in the max-transition order)
    standard."""
    try:
        _standard_walk(fns)
    except NotSgenError:
        return False
    return True


def signature_of(fns: Sequence[MarkedFn]) -> Signature:
    """The signature of a standard generating set; always satisfies (!)."""
    fns, vals = _standard_walk(fns)
    try:
        return Signature(len(fns), vals, [f.name or str(i) for i, f in enumerate(fns)])
    except SignatureError as e:
        raise RealizationError(f"oscillation matrix of a standard set: {e}") from None


def set_rotate(fns: Sequence[MarkedFn]) -> GenSet:
    """Rotate the top element of a standard generating set, or drop it when
    it oscillates with nothing."""
    fns, vals = _standard_walk(fns)
    n = len(fns)
    if any(vals[_pair_index(n, i, n - 1)] for i in range(n - 1)):
        return order_genset(fns[:-1] + [fns[-1].rotated])
    return fns[:-1]


def set_inflate(fns: Sequence[MarkedFn], index: int) -> GenSet:
    """Replace element a of a standard generating set by a^2 and adjoin b^a
    for each b below a that oscillates with it (the others have b^a = b)."""
    fns, vals = _standard_walk(fns)
    n = len(fns)
    if not (0 <= index < n):
        raise RealizationError(f"no element at index {index}")
    a = fns[index]
    aname = a.name or str(index)
    out: List[MarkedFn] = []
    for i, b in enumerate(fns):
        if i == index:
            out.append(square(a, f"{aname}^2"))
        else:
            out.append(b)
            if i < index and vals[_pair_index(n, i, index)]:
                out.append(conjugate(b, a.map, f"{b.name or str(i)}^{aname}"))
    return order_genset(out)


# --- JSON codec ---------------------------------------------------------------


def _layout(items: List[str], indent: str, brackets: str = "[]") -> str:
    """Rendered JSON items in brackets, laid out as json.dumps(indent=2) lays
    out a container whose first line is at the given indent."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def genset_to_json(fns: Sequence[MarkedFn]) -> str:
    """The set as `json.dumps(doc, indent=2)` prints it, doc a list of
    {"breakpoints": [[x, y], ...], "markers": [...], "name": ...} with each
    number a string "n" or "n/d", written from the integer pairs."""
    entries = []
    for f in fns:
        points = [_layout([f'"{fmt(q[:2])}"', f'"{fmt(q[2:])}"'], "      ")
                  for q in _quads(f.map._bp)]
        fields = ['"breakpoints": ' + _layout(points, "    "),
                  '"markers": ' + _layout([f'"{fmt(s)}"' for s in f.markers], "    ")]
        if f.name:
            fields.append('"name": ' + json.dumps(f.name))
        entries.append(_layout(fields, "  ", "{}"))
    return _layout(entries, "")


def genset_from_json(text: str) -> GenSet:
    """An array of objects with "breakpoints" (an array of [x, y] arrays),
    "markers" (an array) and optionally "name" (a string)."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise TypeError("not an array of functions")
    out = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise TypeError(f"function {i} is not an object")
        for key in ("breakpoints", "markers"):
            if key not in entry:
                raise TypeError(f'function {i} has no "{key}"')
        markers = entry["markers"]
        if not isinstance(markers, list):
            raise TypeError(f'"markers" of function {i} is not an array')
        name = entry.get("name", str(i))
        if not isinstance(name, str):
            raise TypeError(f'"name" of function {i} is not a string')
        points = entry["breakpoints"]
        if not (isinstance(points, list) and all(isinstance(p, list) and len(p) == 2
                                                 for p in points)):
            raise TypeError(f'"breakpoints" of function {i} is not an array of [x, y] arrays')
        out.append(MarkedFn(PLMap(points), markers, name))
    return out
