"""Constructive realization of signatures as fast standard generating sets.

realize builds, for any valid signature, a generating set whose pairwise
oscillations reproduce it (arXiv:1711.10998).  It does not walk the set it
returns: `verify`, the tests and the realize sweep check the round trip.
Summands go side by side; an indecomposable signature is realized by
building its rotation and wrapping a new top around the function realizing
the rotated top.  The wrap shape depends on the largest oscillation against
the top: a single positive bump when every value is 1, a two-orbital
function with its expansion point inside the rotated top's support when
the maximum is 2, and otherwise one new negative orbital on the left and
one new positive orbital on the right of the rotated top's orbitals.

Everything read off a realized set, its order, fastness, standardness walk,
signature and dynamical diagram, depends only on the order of its points
(on fast sets the diagram fixes the marked isomorphism type,
arXiv:1701.08321).  So a build is that order: one flat tuple holding, for
each point in increasing order, the index of the function that owns it.  A
function's 3m + 1 points u1, s1, t1, v1 = u2, ..., vm are its occurrences in
that order, and as every function built is standard, its first m // 2
orbitals are negative and the rest positive.  `realize` alone assigns
coordinates: the i-th point of N goes to i / 2^e, e = N.bit_length(), and
each orbital is emitted as (u,u), (s,t), or (t,s) when negative, then (v,v),
marked at s; `_minimal` drops the junctions that fall collinear on the grid.

A sum concatenates its parts' owners in order, each offset by the index of
its part's first function.  A wrap drops the rotated top f0, so each
retained function moves down one index, and appends the new top; its points
go at the ends of the order and in place of f0's:
- every value 1: f0 is the unit bump, alone in the first summand of the
  rotation, so first in the order; its u and v become the top's u and s,
  and the top's t and v go last;
- maximum 2: f0 is the unit bump, and no retained point lies inside its
  support (`_build`'s wrap comment), so its four points give way in place
  to the top's t1, v1 = u2 and s2; the top's u1 and s1 go first and its t2
  and v2 last;
- otherwise: the top's u1 and s1 go first, its t1 just before f0's first
  point and its s_{m+2} just after f0's last point, f0's points are the
  top's middle orbitals, and its t_{m+2} and v_{m+2} go last.
No wrap reads a retained function.
"""

from ..signature import MAX_BASE, RealizationError, Signature, decompose, sig_rotate
from .genset import GenSet
from .marked import MarkedFn
from .plmap import PLMap, _minimal

Build = tuple[int, ...]  # the index of the function owning each point, in order

# Signatures with n > 1 whose builds are kept, under their pair values (the
# bytes name the signature: their length gives n), least recently used dropped
# first.  All 969 with n = 5, values <= 3 fill 1,124 entries, retaining
# 0.45 MiB (tracemalloc).
BUILD_CACHE_SIZE = 4096
_memo: dict[bytes, tuple[Build, int]] = {}  # sig.vals -> (build, depth)

# Deepest build, in levels, one per rotation or decomposition down its longest
# path: the 2n - 1 builds that the chain 1*1*...*1 of n = MAX_BASE leaves nests
# (it is 2n - 2 levels deep).  Of the E( around sums of ones this deep, the
# slowest known, E(E( around 250 ones, realizes in 0.20 s (0.18 to 0.26 s),
# 0.18 MB of JSON and 43 MB peak RSS: the whole `realize` process, median of 5
# fresh ones, under CPython 3.11.7 on a 2-vCPU x86-64 host.
MAX_BUILD_LEVELS = 2 * MAX_BASE - 1


def realize(sig: Signature) -> GenSet:
    """A standard generating set with the given signature, each function
    placed on the grid and named by its label;
    RealizationError when the build is deeper than MAX_BUILD_LEVELS."""
    owners, _ = _build(sig)
    den = 1 << len(owners).bit_length()
    at = [[] for _ in range(sig.n)]  # each function's points, in order
    for x, fi in enumerate(owners, 1):
        g = x & -x
        at[fi].append((x // g, den // g))
    out = []
    for pts, name in zip(at, sig.default_labels()):
        # m orbitals, the first m // 2 negative: the unit bump is (+), a sum
        # keeps its parts' functions, and a wrap's new top is (+), (-, +), or
        # (-, f0's signs, +)
        m = len(pts) // 3
        signs = (-1,) * (m // 2) + (1,) * (m - m // 2)
        quads = [(0, 1, 0, 1), pts[0] + pts[0]]
        for j, sign in enumerate(signs):
            s, t, v = pts[3 * j + 1:3 * j + 4]
            quads += s + t if sign > 0 else t + s, v + v
        quads.append((1, 1, 1, 1))
        orbs = tuple((pts[3 * j], pts[3 * j + 3], sign) for j, sign in enumerate(signs))
        # only (-, +) junctions can go: at (+, +) or (-, -) the slopes straddle 1
        out.append(MarkedFn._trusted(PLMap._make(*_minimal(quads), orbs), tuple(pts[1::3]), name))
    return out


def _build(sig: Signature, level: int = 0) -> tuple[Build, int]:
    """sig's build and depth, sig lying `level` levels below the signature
    realized.  An indecomposable signature's rotations descend in a loop and
    are wrapped on the way back up, so calls nest only at decompositions, whose
    parts are smaller: at most MAX_BASE deep.  Each level met, and each memo
    hit with its depth, is checked against MAX_BUILD_LEVELS on the way down,
    and each rotated level is kept with its largest value against the top.
    The bases of 0 and 1, whose pair values are both empty, are not kept."""
    rotated = []  # (signature, largest value against its top), top level first
    while True:
        # a hit is put back below as the most recent; a hit refused stays out
        built, depth = _memo.pop(sig.vals, (None, 0)) if sig.n > 1 else (BASES[sig.n], 0)
        if level + depth > MAX_BUILD_LEVELS:
            raise RealizationError(
                f"signature too deep to realize: its build is more than {MAX_BUILD_LEVELS} levels deep")
        if built is not None or len(parts := decompose(sig)) > 1:
            break
        rotation = sig_rotate(sig)  # its first row is o(i, top) - 1 for each i < top
        rotated.append((sig, max(rotation.vals[:sig.n - 1]) + 1))
        sig, level = rotation, level + 1
    if built is None:  # a sum of parts, side by side, each offset by its first index
        owners, base = [], 0
        for part in parts:
            part_owners, below = _build(part, level + 1)
            owners += [fi + base for fi in part_owners]
            depth, base = max(depth, below + 1), base + part.n
        built = tuple(owners)
    while True:
        if sig.n > 1:
            _memo[sig.vals] = built, depth
            if len(_memo) > BUILD_CACHE_SIZE:
                del _memo[next(iter(_memo))]
        if not rotated:
            return built, depth
        sig, maxrow = rotated.pop()  # wrap a new top around the build of its rotation
        top = sig.n - 1
        out = [fi - 1 if fi else top for fi in built]  # f0 dropped, each retained moved down one
        first = built.index(0)  # f0's u
        if maxrow == 1:
            # The rotated top is the unit bump.  Its values are o(i, top) - 1 <= 1, and
            # an element with 0 against each earlier one and at most 1 against each
            # later one is built as the unit bump: a part of a sum keeps both, and
            # a rotation, as o(0, top) >= 1 makes it not the top, moves it up one
            # place with 0 against the new least element.  When every value is 1,
            # `decompose` put it alone in the first part, left of every retained
            # function, and its support is the new bump's left foot.
            out = [top, top, *out[4:], top, top]
        elif maxrow == 2:
            # The rotated top f0 is the unit bump, and no retained point lies
            # inside its support (u, v).  The rotated build realizes
            # sig_rotate(sig), whose element 0 is f0, so f0 is least in
            # max-transition order of a fast standard set, and each retained g
            # has f0 << g or f0 inside g.  If f0 << g, every point of g is past
            # v.  If f0 is inside g, then o(f0, g) = 1, as the maximum is 2, so
            # the walk's next step has g^o << f0 (`fn_rotate`'s rule, for 1, 2
            # or more orbitals): g's orbitals before its last end at or before
            # u, and so does its last orbital's left foot, which would
            # otherwise meet f0's left foot (u, s0); and g's last orbital holds
            # [u, v], so its right foot starts at v or beyond, as it would
            # otherwise meet f0's right foot [t0, v).
            out = [top, top, *out[:first], top, top, top, *out[first + 4:], top, top]
        else:
            # f0's points become the top's middle orbitals; the new negative
            # orbital's t goes just before f0's u and the positive one's s just
            # after f0's v, so the new feet there hold no other point
            end = len(built) - built[::-1].index(0)  # just past f0's v
            out = [top, top, *out[:first], top, *out[first:end], top, *out[end:], top, top]
        built, depth = tuple(out), depth + 1


# the builds of n = 0 and 1, the unit bump: one orbital, its four points
BASES: tuple[Build, Build] = ((), (0, 0, 0, 0))
