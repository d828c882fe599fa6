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
each function's frame (a, b, c), the affine map x -> (a + b x) / c, in turn.
Sub-builds are placed by composing frames, not copied, so builds share the
unit bump and the wrap tops.  `transport` carries a function's breakpoints
and markers by its frame only when `realize` hands it out, or when the
general wrap copies the rotated top's breakpoints.  The unit bump and the
single-bump top are built by `marked._bump`, the other tops and the carried
copies unchecked (`PLMap._make`, `MarkedFn._trusted`), each top with the
orbitals it constructs and no slopes, derived only if it is ever composed;
`test_placed_functions_match_checked_constructor` and the realize sweep
compare every top that builds keep with the checked constructors' rebuild.
New feet avoid the placed functions' feet: only the general wrap reads their
ends, once (`_ends`), from each function's stored `feet`, shared by its
placements; the two-orbital wrap has no retained foot end inside its support.
"""

from itertools import chain
from math import gcd
from collections.abc import Iterable, Iterator

from ..signature import MAX_BASE, RealizationError, Signature, decompose, sig_rotate
from .genset import GenSet
from .marked import MarkedFn, _bump
from .plmap import Pair, PLMap, _quads, _reduced, keys

Frame = tuple[int, int, int]  # (a, b, c): x -> (a + b x) / c, onto (a/c, (a+b)/c) in (0,1)
UNIT: Frame = (0, 1, 1)
Build = tuple[tuple[MarkedFn, ...], tuple[int, ...]]  # functions, and their frames flat
Placed = Iterable[tuple[MarkedFn, Frame]]  # functions zipped with their frames, read once

# Signatures with n > 1 whose builds are kept, under their pair values (the
# bytes name the signature: their length gives n), least recently used dropped
# first.  Entries share functions: all 969 with n = 5, values <= 3 fill 1,124,
# retaining 1.3 MiB (tracemalloc).
BUILD_CACHE_SIZE = 4096
_memo: dict[bytes, tuple[Build, int]] = {}  # sig.vals -> (build, depth)

# Deepest build, in levels, one per rotation or decomposition down its longest
# path: the 2n - 1 builds that the chain 1*1*...*1 of n = MAX_BASE leaves nests
# (it is 2n - 2 levels deep).  Of the E( around sums of ones this deep, the
# slowest known, E(E( around 250 ones, realizes in 1.7 s (1.6 to 1.9 s), 1.9 MB
# of JSON and 56 MB peak RSS: the whole `realize` process, median of 5 fresh
# ones, under CPython 3.11.7 on a 2-vCPU x86-64 host.
MAX_BUILD_LEVELS = 2 * MAX_BASE - 1


def realize(sig: Signature) -> GenSet:
    """A standard generating set with the given signature, each function of
    its build carried by its frame and named by its label;
    RealizationError when the build is deeper than MAX_BUILD_LEVELS."""
    (fns, frames), _ = _build(sig)
    return [transport(f, frame, lbl)
            for f, frame, lbl in zip(fns, _triples(frames), sig.default_labels())]


def _then(inner: Frame, outer: Frame) -> Frame:
    """The frame that applies inner, then outer, reduced by the gcd."""
    a, b, c = outer[0] * inner[2] + outer[1] * inner[0], outer[1] * inner[1], outer[2] * inner[2]
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def place(frame: Frame, p: Pair) -> Pair:
    """The reduced pair p carried by the frame."""
    a, b, c = frame
    return _reduced(a * p[1] + b * p[0], c * p[1])


def transport(f: MarkedFn, frame: Frame, name: str | None = None) -> MarkedFn:
    """f carried by the frame into (a/c, (a+b)/c), the identity outside;
    f must be the identity near 0 and 1, as every function a build keeps
    is.  The unit frame shares f's map and markers under the new name.
    Another frame places each breakpoint, reduced by one gcd, and (0,0)
    and (1,1) replace the images of (0,0) and (1,1)."""
    if frame == UNIT:
        return MarkedFn._trusted(f.map, f.markers, name)
    a, b, c = frame
    src, bp = f.map._bp, []
    for n, d in zip(src[0::2], src[1::2]):
        n, d = a * d + b * n, c * d
        g = gcd(n, d)
        bp += n // g, d // g
    bp[:4], bp[-4:] = (0, 1, 0, 1), (1, 1, 1, 1)
    markers = tuple(place(frame, s) for s in f.markers)
    return MarkedFn._trusted(PLMap._make(tuple(bp)), markers, name)


def _triples(frames: tuple[int, ...]) -> Iterator[Frame]:
    it = iter(frames)
    return zip(it, it, it)


def _then_all(frames: tuple[int, ...], outer: Frame) -> list[int]:
    """Each frame followed by outer, flat."""
    out: list[int] = []
    for frame in _triples(frames):
        out += _then(frame, outer)
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
        sig, maxrow = rotated.pop()  # wrap a new top around the build of its rotation
        fns, frames = built
        frame = _then(frames[:3], MIDDLE)
        frames = tuple(_then_all(frames[3:], MIDDLE))
        if maxrow > 2:
            top = _wrap_general(fns[0], frame, zip(fns[1:], _triples(frames)))
        else:
            # The rotated top is UNIT_BUMP.  Its values are o(i, top) - 1 <= 1, and
            # an element with 0 against each earlier one and at most 1 against each
            # later one is built as the unit bump: a part of a sum keeps both, and
            # a rotation, as o(0, top) >= 1 makes it not the top, moves it up one
            # place with 0 against the new least element.  When every value is 1,
            # `decompose` put it alone in slot 0, left of every retained function,
            # and its support is the new bump's left foot.
            u, v = place(frame, UNIT_U), place(frame, UNIT_V)
            top = _wrap_two(u, v) if maxrow == 2 else _bump(u, R0, v, B_POS)
        built, depth = (fns[1:] + (top,), frames + UNIT), depth + 1


def _ends(placed: Placed) -> Iterator[Pair]:
    """The placed functions' foot ends, carried by their frames unreduced."""
    return ((a * d + b * n, c * d) for f, (a, b, c) in placed for foot in f.feet for n, d in foot)


M1, M2, L0, R0 = (1, 3), (2, 3), (1, 16), (15, 16)
MIDDLE = (1, 1, 3)  # onto (M1, M2)
UNIT_U, UNIT_V = (1, 4), (3, 4)
UNIT_BUMP = _bump(UNIT_U, UNIT_V, (9, 32), (23, 32))  # feet the orbital's outer sixteenths
BASES: tuple[Build, Build] = (((), ()), ((UNIT_BUMP,), UNIT))  # the builds of n = 0 and 1
A_NEG, B_POS = (19, 96), (77, 96)  # (L0 + M1) / 2 and (M2 + R0) / 2


def _wrap_two(u: Pair, v: Pair) -> MarkedFn:
    """Two-orbital top with expansion point inside (u, v), the placed
    support of the rotated top, the unit bump; used when the maximum
    oscillation against the top is 2.  Canonical as written: reduced pairs,
    and no collinear point, as each point off the diagonal lies between two
    on it.  No retained foot end lies inside (u, v), so no foot is read.
    The rotated build realizes sig_rotate(sig), whose element 0 is the
    rotated top f0, so f0 is least in max-transition order of a fast
    standard set, and each retained g has f0 << g or f0 inside g.  If
    f0 << g, every end of g is at v or beyond.  If f0 is inside g, then
    o(f0, g) = 1, as the maximum is 2, so the walk's next step has
    g^o << f0 (`fn_rotate`'s rule, for 1, 2 or more orbitals): g's
    orbitals before its last end at or before u, and so does its last
    orbital's left foot, which would otherwise meet f0's left foot (u, s0);
    and g's last orbital holds [u, v], so its right foot starts at v or
    beyond, as it would otherwise meet f0's right foot [t0, v)."""
    den, (x, y) = keys([u, v])
    # x + step, x + 2 step and x + 4 step for a step of (y - x) / 6
    b1, c = _reduced(5 * x + y, 6 * den), _reduced(2 * x + y, 3 * den)
    sa = _reduced(x + 2 * y, 3 * den)
    # a negative piece through (b1, A_NEG), then a positive one through (sa, B_POS)
    bp = (0, 1, 0, 1, *L0, *L0, *b1, *A_NEG, *c, *c, *sa, *B_POS, *R0, *R0, 1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(bp, None, ((L0, c, -1), (c, R0, 1))), (A_NEG, sa))


def _wrap_general(f: MarkedFn, frame: Frame, others: Placed) -> MarkedFn:
    """New negative orbital left of, and positive orbital right of, the
    orbitals of t, the rotated top f carried by the frame, which places f's
    orbitals too, so no map is walked; the middle reuses t's breakpoints from
    (u_t, u_t) to (v_t, v_t), as a built function is the identity outside its
    support.  The rotated top is standard, as realized functions are.  Each
    wall is the nearest retained foot end outside (u_t, v_t), read in one
    pass, as no foot of the fast rotated build holds u_t or v_t; or M1 or M2,
    as every build's supports lie in [L0, R0], so in (M1, M2) after MIDDLE.

    Only the junction at u_t can be collinear: (u_t, u_t) goes when the
    slopes into and out of it agree.  (0,0) -> L0 has slope 1 and L0 ->
    (b_neg, A_NEG) below 1/2, as b_neg > M1; likewise at R0.  (b_neg, A_NEG)
    -> (u_t, u_t) has slope above 1, and t leaves u_t with slope below 1
    unless its first orbital is positive.  t reaches v_t with slope below 1,
    as its last orbital is positive, and leaves for (a_pos, B_POS) with slope
    above 1, as a_pos < M2.  A standard top with a positive first orbital has
    no negative one, so it is one positive bump; no realized one has been
    seen collinear, and `test_general_wrap_drops_a_collinear_junction`
    builds two that are."""
    t = transport(f, frame)
    orbs = tuple((place(frame, u), place(frame, v), sign) for u, v, sign in f.orbitals)
    u_t, v_t = orbs[0][0], orbs[-1][1]
    (un, ud), (vn, vd) = u_t, v_t
    lo, hi = M1, M2  # the nearest foot ends left of u_t and right of v_t
    for n, d in _ends(others):
        if n * ud < un * d and lo[0] * d < n * lo[1]:
            lo = n, d
        elif vn * d < n * vd and n * hi[1] < hi[0] * d:
            hi = n, d
    b_neg = bn, bd = _reduced(lo[0] * ud + un * lo[1], 2 * lo[1] * ud)
    a_pos = _reduced(vn * hi[1] + hi[0] * vd, 2 * vd * hi[1])
    middle = _quads(t.map._bp)[1:-1]  # (u_t, u_t), ..., (v_t, v_t)
    (an, ad), (xn, xd, yn, yd) = A_NEG, middle[1]
    # (u - A_NEG) / (u - b_neg) against (y - u) / (x - u), each side positive
    if ((un * ad - an * ud) * bd * (xn * ud - un * xd) * yd
            == (yn * ud - un * yd) * xd * (un * bd - bn * ud) * ad):
        del middle[0]
    bp = (0, 1, 0, 1, *L0, *L0, *b_neg, *A_NEG, *chain.from_iterable(middle),
          *a_pos, *B_POS, *R0, *R0, 1, 1, 1, 1)
    orbs = ((L0, u_t, -1), *orbs, (v_t, R0, 1))
    return MarkedFn._trusted(PLMap._make(bp, None, orbs), (A_NEG, *t.markers, a_pos))
