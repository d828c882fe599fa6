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
common denominator, which the walk then compares and halves as integers,
and the JSON writer prints the bytes of `json.dumps(doc, indent=2)` with
one f-string per breakpoint, read straight from the map's integer pairs.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from typing import List, Sequence, Tuple

from ..signature import MAX_PAIR_VALUE, Signature, _JSON, _pair_index, _trusted, quoted, short_int
from .marked import MarkedFn, RealizationError, conjugate, fn_rotate, is_standard_fn, square
from .plmap import PLMap, _quads, keys

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


# A standard pair of oscillation v takes exactly v rotations (the CLI bounds v by
# MAX_PAIR_VALUE), each halving once: the walk shifts its keys this many bits.
_STANDARD_FUEL = MAX_PAIR_VALUE + 1


def _standard_walk(fns: Sequence[MarkedFn]) -> Tuple[GenSet, List[int]]:
    """The ordered set and its oscillations, row-major, when fns is a
    standard generating set: fast, every function standard, and each pair
    f < g has f << g, or f inside g with (g rotated, f) again standard;
    NotSgenError otherwise.  Rotation lowers each oscillation against the
    top by exactly one (`sig_rotate`: o(new, i) = o(i, n) - 1; arXiv:1711.10998,
    on the fast sets of arXiv:1701.08321), so o(f, g) is the number of
    inside steps before f << g.  Rotation keeps a function standard and its
    feet inside the old ones, so neither is checked down the recursion.

    Each orbital is read as (u, s, v), its ends and marker as `_feet_of`'s
    keys shifted left by _STANDARD_FUEL bits, and rotated by `fn_rotate`'s
    rule: (u, s) of the last orbital, marked at (u + s) >> 1.  Integer
    compares decide exactly what rational ones would, as every point compared
    is an orbital end or marker of an input function, a foot end that `keys`
    holds exactly over one denominator, or a midpoint of two such points,
    halved at most _STANDARD_FUEL times, once per rotation step."""
    fns, feet = _fast_ordered(fns, "a standard generating set")
    for f in fns:
        if not is_standard_fn(f):
            raise NotSgenError(f"function {_named(fns, f)} is not standard")
    ends = [[] for _ in fns]
    for lo, hi, fi, _, _ in feet:  # a function's (u, s) and [t, v), orbital by orbital
        ends[fi] += lo << _STANDARD_FUEL, hi << _STANDARD_FUEL
    orbs = [tuple(zip(e[0::4], e[1::4], e[3::4])) for e in ends]
    vals = []
    for (low, fo), (high, go) in itertools.combinations(zip(fns, orbs), 2):
        for steps in range(_STANDARD_FUEL):
            if go[0][0] >= fo[-1][2]:  # f << g
                break
            if not (go[0][0] < fo[0][0] and fo[-1][2] < go[-1][2]):  # nor f inside g
                raise NotSgenError(f"pair ({_named(fns, low)}, {_named(fns, high)}) is not standard")
            u, s, _ = go[-1]
            fo, go = (go[1:-1] if len(go) > 2 else ((u, (u + s) >> 1, s),)), fo
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
    "markers" (an array) and optionally "name" (a string), and no other member;
    a key repeated in any object raises SignatureParseError, as in a signature."""
    doc = _JSON.decode(text)
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
