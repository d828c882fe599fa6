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

import functools
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..signature import Signature, decompose, sig_rotate
from .genset import GenSet, signature_of
from .marked import (
    MarkedFn,
    RealizationError,
    canonical_bump,
    is_standard_fn,
    rescale_fn,
)
from .plmap import PLMap

F = Fraction

# Signatures whose built sets are kept, least recently used dropped first;
# realizing all 969 signatures with n = 5 and values <= 3 fills 1,125.
BUILD_CACHE_SIZE = 4096


def realize(sig: Signature) -> GenSet:
    """A standard generating set with the given signature, self-verified."""
    fns = [f.rename(lbl) for f, lbl in zip(_build(sig), sig.default_labels())]
    got = signature_of(fns)  # checks fastness and standardness too
    if got != sig:
        raise RealizationError(
            f"realization round trip failed: built {got!r} for {sig!r}")
    return fns


def _scaled(fns: Sequence[MarkedFn], lo: Fraction, hi: Fraction) -> GenSet:
    return [rescale_fn(f, lo, hi) for f in fns]


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def _build(sig: Signature) -> GenSet:
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
