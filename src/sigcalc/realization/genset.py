"""Generating sets of marked functions: order, fastness, standardness.

A generating set is an ordered list of marked functions; the order is by
maximum transition point, the right end of the last orbital, which for fast
totally-nested-or-disjoint sets agrees with the relation f < g given by
f << g (disjoint, f left) or f inside g (closure of extended support
contained in extended support).  Fastness is checked once, by `_feet_of` on
the functions' stored feet, which also refuses a tie in that order.

`_standard_walk` checks a set and computes its oscillations at once, each
as a count of rotation steps; `signature_of`, `set_rotate` and
`set_inflate` all start from it.

Everything here works on the functions' reduced integer pairs (see
`marked`): feet and maximum transition points sort on integer keys over one
common denominator, other comparisons cross-multiply, and the JSON writer
prints the bytes of `json.dumps(doc, indent=2)` with one f-string per
breakpoint, read straight from the map's integer pairs.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import List, Sequence, Tuple

from ..signature import MAX_PAIR_VALUE, Signature, _pair_index, _trusted, quoted, short_int
from .marked import (
    MarkedFn, RealizationError, _rotation, conjugate, fn_rotate, is_standard_fn, square)
from .plmap import PLMap, _lt, _quads, keys

GenSet = List[MarkedFn]


class NotSgenError(RealizationError):
    """A set that is not a standard generating set."""


class NotFastError(NotSgenError):
    """A set that is not fast."""


def order_genset(fns: Sequence[MarkedFn]) -> GenSet:
    """Sort by maximum transition point, the right end of the last orbital;
    functions that tie are not fast, as their right feet [t, v) overlap."""
    _, k = keys([f.orbitals[-1][1] for f in fns])
    return [fns[i] for i in sorted(range(len(fns)), key=k.__getitem__)]


def _feet_of(fns: Sequence[MarkedFn]):
    """Every foot as (lo, hi, function index, bump index, side), lo and hi
    integer keys over one common denominator, sorted; None when two feet
    overlap."""
    tags, ends = [], []
    for fi, f in enumerate(fns):
        for bi, foot in enumerate(f.feet):
            tags += ((fi, bi, "L"), (fi, bi, "R"))
            ends += foot
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


# A standard pair of oscillation v takes exactly v rotations; the CLI bounds v by MAX_PAIR_VALUE.
_STANDARD_FUEL = MAX_PAIR_VALUE + 1


def _standard_walk(fns: Sequence[MarkedFn]) -> Tuple[GenSet, List[int]]:
    """The ordered set and its oscillations, row-major, when fns is a
    standard generating set: fast, every function standard, and each pair
    f < g has f << g, or f inside g with (g rotated, f) again standard;
    NotSgenError otherwise.  Rotation lowers each oscillation against the
    top by exactly one (`sig_rotate`: o(new, i) = o(i, n) - 1; arXiv:1711.10998,
    on the fast sets of arXiv:1701.08321), so o(f, g) is the number of
    inside steps before f << g.  Rotation keeps a function standard and its
    feet inside the old ones, so neither is checked down the recursion; a
    standard support is one interval, so each step compares orbital ends
    and rotates (orbitals, markers) with `_rotation`, building no map."""
    fns, _ = _fast_ordered(fns, "a standard generating set")
    for f in fns:
        if not is_standard_fn(f):
            raise NotSgenError(f"function {_named(fns, f)} is not standard")
    vals = []
    for low, high in itertools.combinations(fns, 2):
        (fo, fm), (go, gm) = (low.orbitals, low.markers), (high.orbitals, high.markers)
        for steps in range(_STANDARD_FUEL):
            if not _lt(go[0][0], fo[-1][1]):  # f << g
                break
            if not (_lt(go[0][0], fo[0][0]) and _lt(fo[-1][1], go[-1][1])):  # nor f inside g
                raise NotSgenError(f"pair ({_named(fns, low)}, {_named(fns, high)}) is not standard")
            (fo, fm), (go, gm) = _rotation(go, gm), (fo, fm)
        else:
            raise RealizationError(
                f"a pair oscillates more than signature.MAX_PAIR_VALUE ({MAX_PAIR_VALUE}) times")
        vals.append(steps)
    return fns, vals


def _named(fns: GenSet, f: MarkedFn) -> str:  # its name cut by `quoted`, else its index
    return quoted(f.name) if f.name else str(fns.index(f))


def is_sgen(fns: Sequence[MarkedFn]) -> bool:
    """Fast, and every function and every pair (in the max-transition order)
    standard."""
    try:
        _standard_walk(fns)
    except NotSgenError:
        return False
    return True


def signature_of(fns: Sequence[MarkedFn]) -> Signature:
    """The signature of a standard generating set, unchecked: its
    oscillations satisfy (!) by the paper's theorem (arXiv:1711.10998)."""
    fns, vals = _standard_walk(fns)
    return _trusted(len(fns), vals, tuple(f.name or str(i) for i, f in enumerate(fns)))


def set_rotate(fns: Sequence[MarkedFn]) -> GenSet:
    """Rotate the top element of a standard generating set, or drop it when
    it oscillates with nothing; the result is fast by the paper's theorem,
    so its order has no tie."""
    fns, vals = _standard_walk(fns)
    n = len(fns)
    if any(vals[_pair_index(n, i, n - 1)] for i in range(n - 1)):
        return order_genset(fns[:-1] + [fn_rotate(fns[-1])])
    return fns[:-1]


def set_inflate(fns: Sequence[MarkedFn], index: int) -> GenSet:
    """Replace element a of a standard generating set by a^2 and adjoin b^a
    for each b below a that oscillates with it (the others have b^a = b);
    the result is fast by the paper's theorem, so its order has no tie."""
    fns, vals = _standard_walk(fns)
    n = len(fns)
    if not (0 <= index < n):
        raise RealizationError(f"no element at index {short_int(index)}")
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


def genset_to_json(fns: Sequence[MarkedFn]) -> str:
    """The set as `json.dumps(doc, indent=2)` prints it, doc a list of
    {"breakpoints": [[x, y], ...], "markers": [...], "name": ...} with each
    number a string "n" or "n/d", written from the integer pairs."""
    entries = []
    for f in fns:
        points = ",\n      ".join([
            f'[\n        "{xn if xd == 1 else f"{xn}/{xd}"}",'
            f'\n        "{yn if yd == 1 else f"{yn}/{yd}"}"\n      ]'
            for xn, xd, yn, yd in _quads(f.map._bp)])
        markers = ",\n      ".join([  # one per orbital
            f'"{n if d == 1 else f"{n}/{d}"}"' for n, d in f.markers])
        name = f',\n    "name": {encode_basestring_ascii(f.name)}' if f.name else ""
        entries.append(f'{{\n    "breakpoints": [\n      {points}\n    ],'
                       f'\n    "markers": [\n      {markers}\n    ]{name}\n  }}')
    return "[\n  " + ",\n  ".join(entries) + "\n]" if entries else "[]"


def genset_from_json(text: str) -> GenSet:
    """An array of objects with "breakpoints" (an array of [x, y] arrays),
    "markers" (an array) and optionally "name" (a string), and no other member."""
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
        extra = [key for key in entry if key not in ("breakpoints", "markers", "name")]
        if extra:
            raise TypeError(f"function {i} has an unknown member {quoted(extra[0])}")
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
