"""Generating sets of marked functions: order, fastness, standardness.

A generating set is an ordered list of marked functions; the order is by
maximum transition point, the right end of the last orbital, which for fast
totally-nested-or-disjoint sets agrees with the relation f < g given by
f << g (disjoint, f left) or f inside g (closure of extended support
contained in extended support).  `_fast_ordered` keys an input's feet once,
for its order, its fastness check, the standardness walk and the diagram.

`_standard_walk` checks a set and computes its signature at once, each
oscillation a count of rotation steps; `signature_of` returns it, and
`set_rotate` and `set_inflate` place their output in its rotated or inflated
base order, which is the max-transition order (see their docstrings).

Everything here works on the functions' reduced integer pairs (see
`marked`): feet and maximum transition points sort on integer keys over one
common denominator, which the walk then compares and halves as integers,
and the JSON writer prints the bytes of `json.dumps(doc, indent=2)` with
one f-string per breakpoint, read straight from the map's integer pairs.
"""

import itertools
from json.encoder import encode_basestring_ascii
from collections.abc import Sequence

from ..signature import (
    MAX_PAIR_VALUE, RealizationError, Signature, _JSON, _inflated_base, _trusted, decompose, quoted,
    short_int)
from .marked import MarkedFn, conjugate, fn_rotate, is_standard_fn, square
from .plmap import PLMap, _quads, keys

GenSet = list[MarkedFn]


class NotSgenError(RealizationError):
    """A set that is not a standard generating set."""


class NotFastError(NotSgenError):
    """A set that is not fast."""


def _fast_ordered(fns: Sequence[MarkedFn], what: str) -> tuple[GenSet, list[list], list]:
    """One `keys` over every foot end, read three ways: fns sorted by the
    key of their last end v, the maximum transition point; each one's keys,
    (u, s, t, v) per orbital, in that order; and every foot as (lo, hi,
    index in that order, bump index, side), sorted.  NotFastError unless
    fast: two sorted feet overlap exactly when one starts before the one
    before it ends.  Functions that tie share v, so their right feet [t, v)
    overlap and a tie is refused too."""
    k = iter(keys([end for f in fns for foot in f.feet for end in foot])[1])
    ends = [list(itertools.islice(k, 4 * len(f.orbitals))) for f in fns]
    order = sorted(range(len(fns)), key=lambda fi: ends[fi][-1])
    ends = [ends[fi] for fi in order]
    feet = sorted((e[q], e[q + 1], fi, q // 4, "LR"[q // 2 % 2])
                  for fi, e in enumerate(ends) for q in range(0, len(e), 2))
    if any(lo2 < hi1 for (_, hi1, *_), (lo2, *_) in zip(feet, feet[1:])):
        raise NotFastError(f"{what} requires a fast set")
    return [fns[fi] for fi in order], ends, feet


def is_fast(fns: Sequence[MarkedFn]) -> bool:
    """All feet pairwise disjoint across bumps.  Two functions sharing a bump
    share the start of its left foot, so this also rules out shared bumps."""
    try:
        _fast_ordered(fns, "fastness")
    except NotFastError:
        return False
    return True


# A standard pair of oscillation v takes exactly v rotations (the CLI bounds v by
# MAX_PAIR_VALUE), each halving once: the walk shifts its keys this many bits.
_STANDARD_FUEL = MAX_PAIR_VALUE + 1


def _standard_walk(fns: Sequence[MarkedFn]) -> tuple[GenSet, Signature]:
    """The ordered set and its signature (see `signature_of`), labelled by
    names, else indices, when fns is a standard generating set: fast, every
    function standard, and each pair f < g has f << g, or f inside g with
    (g rotated, f) again standard; NotSgenError otherwise.  Rotation lowers
    each oscillation against the top by exactly one (`sig_rotate`: o(new, i)
    = o(i, n) - 1; arXiv:1711.10998, on the fast sets of arXiv:1701.08321),
    so o(f, g) is the number of inside steps before f << g.  Rotation keeps a
    function standard and its feet inside the old ones, so neither is
    checked down the recursion.

    Each orbital is read as (u, s, v), its ends and marker as `_fast_ordered`'s
    keys, shifted left by _STANDARD_FUEL bits, and rotated by `fn_rotate`'s
    rule: (u, s) of the last orbital, marked at (u + s) >> 1.  Integer
    compares decide exactly what rational ones would: every point compared
    is an orbital end or marker of an input function, a foot end that `keys`
    holds exactly over the one denominator of every foot end of the set, or
    a midpoint of two such points, halved at most _STANDARD_FUEL times, once
    per rotation step."""
    fns, ends, _ = _fast_ordered(fns, "a standard generating set")
    for f in fns:
        if not is_standard_fn(f):
            raise NotSgenError(f"function {_named(fns, f)} is not standard")
    orbs = [tuple(zip(e[0::4], e[1::4], e[3::4]))
            for e in ([x << _STANDARD_FUEL for x in e] for e in ends)]
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
    return fns, _trusted(len(fns), vals, tuple(f.name or str(i) for i, f in enumerate(fns)))


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
    return _standard_walk(fns)[1]


def set_rotate(fns: Sequence[MarkedFn]) -> GenSet:
    """Rotate the top g of a standard generating set, or drop it when it
    oscillates with nothing, as `sig_rotate` does: g^o goes to index k, where
    the last summand starts.  An element below k does not oscillate with g,
    so it lies left of g's support, and the walk checked (g^o, f) standard,
    g^o first, for every later f: that is the max-transition order."""
    fns, sig = _standard_walk(fns)
    parts = decompose(sig)
    if not parts or parts[-1].n == 1:
        return fns[:-1]
    k = len(fns) - parts[-1].n
    return fns[:k] + [fn_rotate(fns[-1])] + fns[k:-1]


def set_inflate(fns: Sequence[MarkedFn], index: int) -> GenSet:
    """Replace element a of a standard generating set by a^2 and adjoin b^a
    for each b below a that oscillates with it (the others have b^a = b), in
    `sig_inflate`'s base order, the max-transition order: with s_a, t_a the
    marker and transition point of a's last orbital, fastness gives such a b
    v_b > s_a, so b^a's maximum transition point a(v_b) lies in (t_a, v_a),
    above every element below a (at most t_a, by fastness); a^2 keeps v_a,
    and a is increasing, so the conjugates keep b's order."""
    fns, sig = _standard_walk(fns)
    if not (0 <= index < len(fns)):
        raise RealizationError(f"no element at index {short_int(index)}")
    a, names = fns[index], sig.labels
    return [conjugate(fns[x], a.map, f"{names[x]}^{names[index]}") if x_conj
            else square(a, f"{names[x]}^2") if x == index else fns[x]
            for x, x_conj in _inflated_base(sig, index)]


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
