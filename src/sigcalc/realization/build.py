"""Constructive realization of signatures as fast standard generating sets.

realize builds, for any valid signature, a generating set whose pairwise
oscillations reproduce it, then verifies the round trip before returning.
The construction is recursive: summands go into disjoint slots; an
indecomposable signature is realized by building its rotation into the
middle third and wrapping a new top around the function realizing the
rotated top.  The wrap shape depends on the largest oscillation against the
top: a single positive bump when every value is 1, a two-orbital function
with its expansion point inside the rotated top's support when the maximum
is 2, and otherwise one new negative orbital on the left and one new
positive orbital on the right of the rotated top's orbitals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..signature import Signature, decompose, sig_rotate
from .genset import GenSet, order_genset, pair_order, signature_of
from .marked import (
    MarkedFn,
    RealizationError,
    canonical_bump,
    is_standard_fn,
    rescale_fn,
)
from .plmap import PLMap

F = Fraction

_build_cache: Dict[Signature, GenSet] = {}


def realize(sig: Signature) -> GenSet:
    """A standard generating set with the given signature, self-verified."""
    fns = [f.rename(lbl) for f, lbl in zip(_build(sig), sig.default_labels())]
    got = signature_of(fns)  # checks fastness and standardness too
    if got != sig:
        raise RealizationError(
            f"realization round trip failed: built {got!r} for {sig!r}")
    return fns


def _build(sig: Signature) -> GenSet:
    if sig in _build_cache:
        return _build_cache[sig]
    fns = _build_uncached(sig)
    _build_cache[sig] = fns
    return fns


def _scaled(fns: Sequence[MarkedFn], lo: Fraction, hi: Fraction) -> GenSet:
    return [rescale_fn(f, lo, hi) for f in fns]


def _build_uncached(sig: Signature) -> GenSet:
    n = sig.n
    if n == 0:
        return []
    if n == 1:
        return [canonical_bump(F(1, 4), F(3, 4))]
    parts = decompose(sig)
    if len(parts) > 1:
        out: GenSet = []
        k = len(parts)
        for i, part in enumerate(parts):
            out += _scaled(_build(part), F(4 * i + 1, 4 * k), F(4 * i + 3, 4 * k))
        return out
    inner = _scaled(_build(sig_rotate(sig)), F(1, 3), F(2, 3))
    t, others = inner[0], list(inner[1:])
    maxrow = max(sig.val(i, n - 1) for i in range(n - 1))
    if maxrow == 1:
        top = _wrap_single(t, others)
    elif maxrow == 2:
        top = _wrap_two(t, others)
    else:
        top = _wrap_general(t, others)
    return others + [top]


def _obstacles(fns: Sequence[MarkedFn]) -> List[Tuple[Fraction, Fraction]]:
    """Closures of all feet, merged and sorted; new feet must avoid these."""
    spans = []
    for f in fns:
        for b in f.bumps:
            for lo, hi in b.feet:
                spans.append((lo, hi))
    spans.sort()
    merged: List[Tuple[Fraction, Fraction]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


M1, M2, L0, R0 = F(1, 3), F(2, 3), F(1, 16), F(15, 16)


def _wrap_single(t: MarkedFn, others: Sequence[MarkedFn]) -> MarkedFn:
    """Top with one positive bump whose left foot is exactly the support of
    the rotated top; used when every oscillation against the top is 1."""
    orbs = t.orbitals
    if len(orbs) != 1 or orbs[0][2] < 0:
        raise RealizationError("single-bump wrap needs a one-bump rotated top")
    u, v, _ = orbs[0]
    if others and min(f.min_transition for f in others) <= v:
        raise RealizationError("single-bump wrap needs the rotated top on the far left")
    b = (M2 + R0) / 2
    pts = [(F(0), F(0)), (u, u), (v, b), (R0, R0), (F(1), F(1))]
    return MarkedFn(PLMap(pts), [v])


def _free_gap(t: MarkedFn, others: Sequence[MarkedFn]) -> Tuple[Fraction, Fraction]:
    """The widest subinterval of the rotated top's orbital avoiding the
    retained functions' feet."""
    (u, v, _), = t.orbitals
    walls = [(u, u)]
    for lo, hi in _obstacles(others):
        if hi > u and lo < v:
            walls.append((max(lo, u), min(hi, v)))
    walls.append((v, v))
    walls.sort()
    best = None
    for (a_, b_), (c_, d_) in zip(walls, walls[1:]):
        if best is None or c_ - b_ > best[1] - best[0]:
            best = (b_, c_)
    if best is None or best[0] >= best[1]:
        raise RealizationError("no room inside the rotated top's orbital")
    return best


def _wrap_two(t: MarkedFn, others: Sequence[MarkedFn]) -> MarkedFn:
    """Two-orbital top with expansion point inside the rotated top's orbital;
    used when the maximum oscillation against the top is 2."""
    orbs = t.orbitals
    if len(orbs) != 1:
        raise RealizationError("two-orbital wrap needs a one-bump rotated top")
    x, y = _free_gap(t, others)
    step = (y - x) / 6
    b1, c, sa = x + step, x + 2 * step, x + 4 * step
    a_neg = (L0 + M1) / 2
    b2 = (M2 + R0) / 2
    pts = [
        (F(0), F(0)),
        (L0, L0),
        (b1, a_neg),  # negative piece through (b1, a_neg)
        (c, c),
        (sa, b2),  # positive piece through (sa, b2)
        (R0, R0),
        (F(1), F(1)),
    ]
    return MarkedFn(PLMap(pts), [a_neg, sa])


def _wrap_general(t: MarkedFn, others: Sequence[MarkedFn]) -> MarkedFn:
    """New negative orbital left of, and positive orbital right of, the
    rotated top's orbitals; the middle reuses the rotated top verbatim."""
    if not is_standard_fn(t):
        raise RealizationError("general wrap needs a standard rotated top")
    u_t, v_t = t.min_transition, t.max_transition
    obstacles = _obstacles(others)
    left_wall = max([hi for lo, hi in obstacles if hi < u_t], default=M1)
    right_wall = min([lo for lo, hi in obstacles if lo > v_t], default=M2)
    if left_wall >= u_t or right_wall <= v_t:
        raise RealizationError("no room next to the rotated top")
    a_neg = (L0 + M1) / 2
    b_neg = (left_wall + u_t) / 2
    a_pos = (v_t + right_wall) / 2
    b_pos = (M2 + R0) / 2
    pts = [(F(0), F(0)), (L0, L0), (b_neg, a_neg)]
    pts += [(x, y) for x, y in t.map.points if u_t <= x <= v_t]
    pts += [(a_pos, b_pos), (R0, R0), (F(1), F(1))]
    markers = [a_neg] + list(t.markers) + [a_pos]
    return MarkedFn(PLMap(pts), markers)


# --- slope retrofit -----------------------------------------------------------


def retrofit_slopes(fns: Sequence[MarkedFn]) -> GenSet:
    """Rebuild every bump with two affine pieces, keeping all transition
    points and shrinking feet into the original feet; the nesting-maximum
    element uses slopes from 3*2^k, everything else from 2^k.  The dynamical
    diagram is unchanged."""
    fns = order_genset(fns)
    if not fns:
        return []
    top = fns[-1]
    for f in fns[:-1]:
        if pair_order(f, top) != "in":
            raise RealizationError("slope retrofit needs a nesting-maximum element")
    out = []
    for f in fns:
        scale = 3 if f is top else 1
        pts = [(F(0), F(0)), (F(1), F(1))]
        markers = []
        for b in f.bumps:
            x_star, y_star = _two_piece(b.u, b.v, b.marker, b.tpoint, b.sign, scale)
            pts += [(b.u, b.u), (b.v, b.v)]
            pts.append((x_star, y_star))
            markers.append(x_star if b.sign > 0 else y_star)
        out.append(MarkedFn(PLMap(pts), markers, f.name))
    return out


def _two_piece(u, v, foot_a, foot_b, sign, scale):
    """Interior breakpoint for a two-piece bump on (u,v) with slopes in
    scale*2^k, feet inside (u,foot_a] and [foot_b,v).

    Returns (x*, y*) with y* = image of x*; for a positive bump the pieces
    have slopes lam1 > 1 > lam2 and feet (u,x*) and [y*,v); for a negative
    bump the feet are (u,y*) and [x*,v).
    """
    w = v - u
    for k in range(2, 64):
        lam1 = F(scale * 2 ** k)
        lam2 = F(scale, 2 ** k)
        if sign > 0:
            x_star = u + w * (1 - lam2) / (lam1 - lam2)
            y_star = u + lam1 * (x_star - u)
            if x_star <= foot_a and y_star >= foot_b:
                return x_star, y_star
        else:
            x_star = u + w * (lam1 - 1) / (lam1 - lam2)
            y_star = u + lam2 * (x_star - u)
            if y_star <= foot_a and x_star >= foot_b:
                return x_star, y_star
    raise RealizationError("could not fit two-piece slopes inside the feet")


# --- reference sets -----------------------------------------------------------


def _scaled_bumps(spec, denom, name):
    """MarkedFn from (u, v, sign) orbital triples in integer coordinates,
    with two-piece bumps and feet the outer sixteenths."""
    pts = [(F(0), F(0)), (F(1), F(1))]
    markers = []
    for u, v, sign in spec:
        u, v = F(u, denom), F(v, denom)
        d = (v - u) / 16
        a, b = u + d, v - d
        pts += [(u, u), (v, v)]
        pts.append((a, b) if sign > 0 else (b, a))
        markers.append(a)
    return MarkedFn(PLMap(pts), markers, name)


def fig_bz_set() -> GenSet:
    """The B + Z generating set: a two-orbital top a, an inner bump b
    straddling its expansion point, and a disjoint bump c on the right."""
    a = _scaled_bumps([(24, 48, -1), (48, 72, +1)], 120, "a")
    b = _scaled_bumps([(36, 60, +1)], 120, "b")
    c = _scaled_bumps([(84, 108, +1)], 120, "c")
    return order_genset([b, a, c])


def fig_g_set() -> GenSet:
    """The three-generator set G: a four-orbital f containing g containing h."""
    f = _scaled_bumps([(0, 24, -1), (24, 48, -1), (48, 72, +1), (72, 96, +1)], 96, "f")
    g = _scaled_bumps([(12, 84, +1)], 96, "g")
    h = _scaled_bumps([(36, 60, +1)], 96, "h")
    return order_genset([h, g, f])
