"""Constructive realization of signatures as fast standard generating sets.

realize builds, for any valid signature, a generating set whose pairwise
oscillations reproduce it (arXiv:1711.10998).  It does not walk the set it
returns: `verify`, the tests and the realize sweep check the round trip.
Summands go into disjoint slots; an indecomposable signature is realized
by building its rotation into the middle third and wrapping a new top around
the function realizing the rotated top.  The wrap shape depends on the
largest oscillation against the top: a single positive bump when every value
is 1, a two-orbital function with its expansion point inside the rotated
top's support when the maximum is 2, and otherwise one new negative orbital
on the left and one new positive orbital on the right of the rotated top's
orbitals.

A build is two tuples: its functions, and one flat tuple of integers holding
each function's frame (a, b, c) in turn, as `PLMap` keeps its breakpoints.
Sub-builds are placed by composing affine frames, not copied, so builds share
the unit bump and the wrap tops, and a function is carried by its frame only
when `realize` hands it out.  Only the general wrap copies the rotated top's
breakpoints, so only it gets the rotated top transported.  The unit bump and
the single-bump top are built by `marked._bump`, the other tops unchecked
(`PLMap._make`, `MarkedFn._trusted`) with the orbitals they construct, and
no slopes: the general top's, which `_minimal` computes to drop collinear
points, are derived again only if the top is ever composed;
`test_placed_functions_match_checked_constructor` and the realize sweep
compare every top that builds keep with the checked constructors' rebuild.
New feet avoid the placed functions' feet, which `_obstacles` reads from
each function's stored `feet`, shared by all its placements.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from ..signature import MAX_BASE, Signature, _rows, decompose, sig_rotate
from .genset import GenSet
from .marked import UNIT, Frame, MarkedFn, RealizationError, _bump, _then, place, transport
from .plmap import Pair, PLMap, _lt, _minimal, _quads, _reduced, keys

Build = Tuple[Tuple[MarkedFn, ...], Tuple[int, ...]]  # functions, and their frames flat
Placed = Iterable[Tuple[MarkedFn, Frame]]  # functions zipped with their frames, read once
Orbital = Tuple[Pair, Pair, int]

# Signatures with n > 1 whose builds are kept, under their pair values (the
# bytes name the signature: their length gives n), least recently used dropped
# first.  Entries share functions: all 969 with n = 5, values <= 3 fill 1,124,
# retaining 1.3 MiB (tracemalloc).
BUILD_CACHE_SIZE = 4096
_memo: Dict[bytes, Tuple[Build, int]] = {}  # sig.vals -> (build, depth)

# Deepest build, in levels, one per rotation or decomposition down its longest
# path: the 2n - 1 builds that the chain 1*1*...*1 of n = MAX_BASE leaves nests
# (it is 2n - 2 levels deep).  E( around sums of ones this deep realize in at
# most 2.9 s, 1.9 MB of JSON and 71 MB peak, under CPython 3.11 on one x86-64 core.
MAX_BUILD_LEVELS = 2 * MAX_BASE - 1


def realize(sig: Signature) -> GenSet:
    """A standard generating set with the given signature, each function of
    its build carried by its frame and named by its label;
    RealizationError when the build is deeper than MAX_BUILD_LEVELS."""
    (fns, frames), _ = _build(sig)
    return [transport(f, frame, lbl)
            for f, frame, lbl in zip(fns, _triples(frames), sig.default_labels())]


def _triples(frames: Tuple[int, ...]) -> Iterator[Frame]:
    it = iter(frames)
    return zip(it, it, it)


def _then_all(frames: Tuple[int, ...], outer: Frame) -> List[int]:
    """Each frame followed by outer, flat."""
    out: List[int] = []
    for frame in _triples(frames):
        out += _then(frame, outer)
    return out


def _build(sig: Signature, level: int = 0) -> Tuple[Build, int]:
    """sig's build and depth, sig lying `level` levels below the signature
    realized.  An indecomposable signature's rotations descend in a loop and
    are wrapped on the way back up, so calls nest only at decompositions, whose
    parts are smaller: at most MAX_BASE deep.  Each level met, and each memo
    hit with its depth, is checked against MAX_BUILD_LEVELS on the way down.
    The bases of 0 and 1, whose pair values are both empty, are not kept."""
    rotated = []  # the indecomposable signatures rotated, top first
    while True:
        # a hit is put back below as the most recent; a hit refused stays out
        built, depth = _memo.pop(sig.vals, (None, 0)) if sig.n > 1 else (BASES[sig.n], 0)
        if level + depth > MAX_BUILD_LEVELS:
            raise RealizationError(
                f"signature too deep to realize: its build is more than {MAX_BUILD_LEVELS} levels deep")
        if built is not None or len(parts := decompose(sig)) > 1:
            break
        rotated.append(sig)
        sig, level = sig_rotate(sig), level + 1
    if built is None:  # a sum of parts, each placed in its slot
        fns, frames = [], []
        for i, part in enumerate(parts):
            (part_fns, part_frames), below = _build(part, level + 1)
            depth = max(depth, below + 1)
            slot = (4 * i + 1, 2, 4 * len(parts))  # onto ((4i + 1) / 4k, (4i + 3) / 4k)
            fns += part_fns
            frames += _then_all(part_frames, slot)
        built = tuple(fns), tuple(frames)
    while True:
        if sig.n > 1:
            _memo[sig.vals] = built, depth
            if len(_memo) > BUILD_CACHE_SIZE:
                del _memo[next(iter(_memo))]
        if not rotated:
            return built, depth
        sig = rotated.pop()  # wrap a new top around the build of its rotation
        fns, frames = built
        top, frame = fns[0], _then(frames[:3], MIDDLE)
        frames = tuple(_then_all(frames[3:], MIDDLE))
        others = zip(fns[1:], _triples(frames))
        maxrow = max(row[-1] for row in _rows(sig)[:-1])
        if maxrow > 2:
            top = _wrap_general(transport(top, frame), others)
        elif maxrow == 2:
            orbs = tuple((place(frame, u), place(frame, v), sign) for u, v, sign in top.orbitals)
            top = _wrap_two(orbs, others)
        else:
            # every value against the top is 1, so the rotated top's row is all
            # 0 and `decompose` put it alone in slot 0: it is the unit bump, left
            # of every retained function, and its support is the new bump's left foot
            (u, v, _), = top.orbitals
            top = _bump(place(frame, u), R0, place(frame, v), B_POS)
        built, depth = (fns[1:] + (top,), frames + UNIT), depth + 1


def _obstacles(placed: Placed, *points: Pair) -> Tuple[int, List[int], List[List[int]]]:
    """Closures of all feet of the placed functions, carried by their frames,
    merged and sorted, which new feet must avoid, and the given points, as
    integer keys over one denominator: (denominator, point keys, [lo, hi] spans).
    A foot's end is carried unreduced, (a d + b n, c d), as `keys` needs no
    reduced pair; the denominator may then hold a spare factor, which the
    wraps drop, as they reduce every point they make."""
    ends = [(a * d + b * n, c * d) for f, (a, b, c) in placed for foot in f.feet for n, d in foot]
    den, k = keys(list(points) + ends)
    merged: List[List[int]] = []
    for lo, hi in sorted(zip(k[len(points)::2], k[len(points) + 1::2])):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(hi, merged[-1][1])
        else:
            merged.append([lo, hi])
    return den, k[:len(points)], merged


M1, M2, L0, R0 = (1, 3), (2, 3), (1, 16), (15, 16)
MIDDLE = (1, 1, 3)  # onto (M1, M2)
UNIT_BUMP = _bump((1, 4), (3, 4), (9, 32), (23, 32))  # feet the orbital's outer sixteenths
BASES: Tuple[Build, Build] = (((), ()), ((UNIT_BUMP,), UNIT))  # the builds of n = 0 and 1
A_NEG, B_POS = (19, 96), (77, 96)  # (L0 + M1) / 2 and (M2 + R0) / 2


def _wrap_two(orbs: Tuple[Orbital, ...], others: Placed) -> MarkedFn:
    """Two-orbital top with expansion point inside the widest gap between
    the retained functions' feet in the rotated top's orbital, given its
    placed orbitals; used when the maximum oscillation against the top is 2.
    Canonical as written: reduced pairs, and no collinear point, as each
    point off the diagonal lies between two on it.  The rotated top is a
    unit bump: with values <= 1 after it and 0 before it at every level, it
    leads its summand until that is it alone.  The gap is not empty: the
    rotated build is fast, so no retained foot meets the left foot (u, s)."""
    (u, v, _), = orbs
    den, (u, v), spans = _obstacles(others, u, v)
    walls = sorted([(u, u), (v, v)]
                   + [(max(lo, u), min(hi, v)) for lo, hi in spans if hi > u and lo < v])
    x, y = max(((b, c) for (_, b), (c, _) in zip(walls, walls[1:])), key=lambda g: g[1] - g[0])
    # x + step, x + 2 step and x + 4 step for a step of (y - x) / 6
    b1, c = _reduced(5 * x + y, 6 * den), _reduced(2 * x + y, 3 * den)
    sa = _reduced(x + 2 * y, 3 * den)
    # a negative piece through (b1, A_NEG), then a positive one through (sa, B_POS)
    bp = (0, 1, 0, 1, *L0, *L0, *b1, *A_NEG, *c, *c, *sa, *B_POS, *R0, *R0, 1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(bp, None, ((L0, c, -1), (c, R0, 1))), (A_NEG, sa))


def _wrap_general(t: MarkedFn, others: Placed) -> MarkedFn:
    """New negative orbital left of, and positive orbital right of, the
    rotated top's orbitals; the middle reuses the rotated top verbatim.
    The rotated top fixes the ends of its support, which end the new
    orbitals; `_minimal` drops a junction there that is collinear (none
    seen from a realized signature, but a one-bump rotated top can give one).
    The rotated top is standard, as realized functions are, and each wall
    lies outside its support (u, v): a foot's end, or M1 or M2, as every
    build's supports lie in [L0, R0], so in (M1, M2) after MIDDLE."""
    u_t, v_t = t.orbitals[0][0], t.orbitals[-1][1]
    den, (u, v, m1, m2), spans = _obstacles(others, u_t, v_t, M1, M2)
    left_wall = max([hi for lo, hi in spans if hi < u], default=m1)
    right_wall = min([lo for lo, hi in spans if lo > v], default=m2)
    b_neg, a_pos = _reduced(left_wall + u, 2 * den), _reduced(v + right_wall, 2 * den)
    quads = [(0, 1, 0, 1), L0 + L0, b_neg + A_NEG]
    quads += [q for q in _quads(t.map._bp) if not (_lt(q[:2], u_t) or _lt(v_t, q[:2]))]
    quads += [a_pos + B_POS, R0 + R0, (1, 1, 1, 1)]
    orbs = ((L0, u_t, -1), *t.orbitals, (v_t, R0, 1))
    bp, _ = _minimal(quads)  # slopes are derived again if the top is ever composed
    return MarkedFn._trusted(PLMap._make(bp, None, orbs), (A_NEG, *t.markers, a_pos))
