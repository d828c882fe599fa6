"""Marked functions: PL bijections with one marker per orbital.

A marker s in a bump's support determines the feet (u,s) and [t,v), the
outer slivers of the orbital, where t is the image of s under the bump (or
its preimage for a negative bump).  Feet drive the fastness check, the
dynamical diagram and the obstacles of `build`'s wraps.

Orbitals, markers and feet hold every number as a reduced integer pair
(n, d) read from the map's breakpoints (see `plmap`), and the builders here
compute on those pairs; no Fraction is built.  Pairs compare by
cross-multiplication, never as tuples.

`MarkedFn(plmap, markers)` is the one checked constructor: it reads the
markers with `ratio` and checks one inside each of the map's orbitals.
Functions carried over from a valid one go through `MarkedFn._trusted`,
which takes the map and markers as given and checks nothing: a conjugate
and a square, whose maps are compositions, an affine copy by a frame
(`transport`), the restriction of a function with more than two orbitals to
its inner ones (`fn_rotate`), the wrap tops of `build`, and every one-bump
function, which `_bump` builds from ordered reduced pairs.  The last four
build their maps with the unchecked `PLMap._make`, handing it the orbitals
they know, as transport and ordered pairs keep breakpoints increasing;
tests compare each with the checked constructors, and `_bump` also with the
checked bumps of `tests/oracles.py`.  `orbitals` is the map's own tuple,
computed at most once per map.  `feet`, one (u, s, t, v) per orbital, is
derived from the stored orbitals and markers once, on first read: the one
place a transition point is read off a map.  `_rotation` derives a
rotation's orbitals and markers, which `fn_rotate` maps.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .plmap import Pair, PLMap, _lt, _quads, _reduced, by_value, conj_map, fmt, ratio

Frame = Tuple[int, int, int]  # (a, b, c): x -> (a + b x) / c, onto (a/c, (a+b)/c) in (0,1)
UNIT: Frame = (0, 1, 1)


class RealizationError(ValueError):
    pass


class MarkedFn:
    """A nonidentity PL bijection with a chosen marker in each orbital."""

    __slots__ = ("map", "markers", "name", "orbitals", "_feet")

    def __init__(self, plmap: PLMap, markers: Sequence, name: Optional[str] = None):
        self.map, self.name = plmap, name
        self.markers = tuple(sorted(map(ratio, markers), key=by_value))
        self._feet = None
        self.orbitals = orbs = plmap._orbitals()
        if not orbs:
            raise RealizationError("identity maps cannot be marked")
        if len(orbs) != len(self.markers):
            raise RealizationError(
                f"{len(self.markers)} markers for {len(orbs)} orbitals")
        for (u, v, _), s in zip(orbs, self.markers):
            if not (_lt(u, s) and _lt(s, v)):
                raise RealizationError(f"marker {fmt(s)} outside orbital ({fmt(u)},{fmt(v)})")

    @classmethod
    def _trusted(cls, plmap: PLMap, markers: Tuple[Pair, ...],
                 name: Optional[str] = None) -> "MarkedFn":
        """A function transported from a valid one: `markers` is a sorted
        tuple with one inside each of plmap's orbitals.  Nothing is checked."""
        f = object.__new__(cls)
        f.map, f.markers, f.orbitals, f.name = plmap, markers, plmap._orbitals(), name
        f._feet = None
        return f

    @property
    def feet(self) -> Tuple[Tuple[Pair, Pair, Pair, Pair], ...]:
        """One (u, s, t, v) per orbital (u, v) marked at s: the left foot
        (u, s) and the right foot [t, v), where the transition point t is s
        moved right by the map or by its inverse.  u < s < t < v needs no
        check: s lies strictly inside (u, v), which the map keeps while moving
        each of its points the orbital's way, so t lies strictly in (s, v)."""
        if self._feet is None:
            self._feet = tuple((u, s, self.map._at(*s, back=sign < 0), v)
                               for (u, v, sign), s in zip(self.orbitals, self.markers))
        return self._feet

    def __repr__(self):
        tag = self.name or "fn"
        orbs = ", ".join(
            ("+" if s > 0 else "-") + f"({fmt(u)},{fmt(v)})" for u, v, s in self.orbitals)
        return f"MarkedFn({tag}: {orbs})"


def is_standard_fn(f: MarkedFn) -> bool:
    """Connected extended support, negatives left of positives, and the
    positive bump count equals or exceeds the negative count by at most one."""
    orbs = f.orbitals
    signs = [s for _, _, s in orbs]
    nneg = signs.count(-1)
    return (all(v1 == u2 for (_, v1, _), (u2, _, _) in zip(orbs, orbs[1:]))
            and signs == sorted(signs) and nneg <= len(signs) - nneg <= nneg + 1)


def _bump(u: Pair, v: Pair, s: Pair, t: Pair, name: Optional[str] = None) -> MarkedFn:
    """The positive bump on (u,v) through (s,t), marked at s, from reduced
    pairs 0 <= u < s < t < v < 1.  Canonical as written: the one point off
    the diagonal lies between two on it, so no point is collinear."""
    bp = (*u, *u, *s, *t, *v, *v, 1, 1, 1, 1)
    if u[0]:
        bp = (0, 1, 0, 1) + bp
    return MarkedFn._trusted(PLMap._make(bp, None, ((u, v, 1),)), (s,), name)


def _rotation(orbitals: tuple, markers: tuple) -> Tuple[tuple, tuple]:
    """A rotation's orbitals and markers: the inner ones of more than two,
    else one positive orbital on the left foot (u, s) of the last positive
    orbital, marked at its midpoint.  There is one: `_standard_walk` and
    `set_rotate` rotate only standard functions, which have no fewer
    positive orbitals than negative ones."""
    if len(orbitals) > 2:
        return orbitals[1:-1], markers[1:-1]
    u, s = [(u, s) for (u, _, sign), s in zip(orbitals, markers) if sign > 0][-1]
    return ((u, s, 1),), (_reduced(u[0] * s[1] + s[0] * u[1], 2 * u[1] * s[1]),)


def fn_rotate(f: MarkedFn) -> MarkedFn:
    """The function with `_rotation`'s orbitals and markers: f restricted to
    its inner orbitals, or the bump on the rotated orbital (u,v) that maps
    its midpoint marker to (u + 3v)/4."""
    orbs, markers = _rotation(f.orbitals, f.markers)
    name = f"{f.name}^o" if f.name else None
    if len(f.orbitals) <= 2:
        (u, v, _), = orbs
        t = _reduced(u[0] * v[1] + 3 * v[0] * u[1], 4 * u[1] * v[1])  # (u + 3v) / 4
        return _bump(u, v, markers[0], t, name)
    # the map moves points just inside the kept orbitals' ends, so both are
    # breakpoints of the restriction and no kept point becomes collinear
    (ln, ld), (hn, hd) = orbs[0][0], orbs[-1][1]
    bp = [0, 1, 0, 1, ln, ld, ln, ld]
    for q in _quads(f.map._bp):
        if ln * q[1] < q[0] * ld and q[0] * hd < hn * q[1]:
            bp += q
    bp += (hn, hd, hn, hd, 1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(tuple(bp), None, orbs), markers, name)


def conjugate(f: MarkedFn, w: PLMap, name: Optional[str] = None) -> MarkedFn:
    """f conjugated by w (apply w-inverse, f, then w); markers move by w,
    which carries f's orbitals onto the conjugate's in order."""
    return MarkedFn._trusted(conj_map(f.map, w), tuple(w._at(*s) for s in f.markers), name)


def square(f: MarkedFn, name: Optional[str] = None) -> MarkedFn:
    """f composed with itself, which has f's orbitals; markers of positive
    bumps are retained and markers of negative bumps move by f within them."""
    markers = tuple(s if sign > 0 else f.map._at(*s)
                    for (_, _, sign), s in zip(f.orbitals, f.markers))
    return MarkedFn._trusted(f.map.then(f.map), markers, name)


def _then(inner: Frame, outer: Frame) -> Frame:
    """The frame that applies inner, then outer, reduced by the gcd."""
    a, b, c = outer[0] * inner[2] + outer[1] * inner[0], outer[1] * inner[1], outer[2] * inner[2]
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def place(frame: Frame, p: Pair) -> Pair:
    """The reduced pair p carried by the frame."""
    a, b, c = frame
    return _reduced(a * p[1] + b * p[0], c * p[1])


def transport(f: MarkedFn, frame: Frame, name: Optional[str] = None) -> MarkedFn:
    """f carried by the frame into (a/c, (a+b)/c), the identity outside.
    The unit frame shares f's map and markers under the new name.  Another
    frame places each breakpoint, reduced by one gcd; (0,0) replaces the
    image of (0,0) when a = 0 or f's first piece is the identity, and goes
    before it otherwise; likewise (1,1) when a + b = c or f's last piece is
    the identity."""
    if frame == UNIT:
        return MarkedFn._trusted(f.map, f.markers, name)
    a, b, c = frame
    src, bp = f.map._bp, []
    for n, d in zip(src[0::2], src[1::2]):
        n, d = a * d + b * n, c * d
        g = gcd(n, d)
        bp += n // g, d // g
    if a == 0 or src[4:6] == src[6:8]:
        bp[:4] = (0, 1, 0, 1)
    else:
        bp[:0] = (0, 1, 0, 1)
    if a + b == c or src[-8:-6] == src[-6:-4]:
        bp[-4:] = (1, 1, 1, 1)
    else:
        bp += (1, 1, 1, 1)
    orbs = tuple((place(frame, u), place(frame, v), sign) for u, v, sign in f.orbitals)
    markers = tuple(place(frame, s) for s in f.markers)
    return MarkedFn._trusted(PLMap._make(tuple(bp), None, orbs), markers, name)
