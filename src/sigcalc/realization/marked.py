"""Marked functions: PL bijections with one marker per orbital.

A marker s in a bump's support determines the feet (u,s) and [t,v), the
outer slivers of the orbital, where t is the image of s under the bump (or
its preimage for a negative bump).  Feet drive the fastness check and the
dynamical diagram.

Orbitals, markers and bumps hold every number as a reduced integer pair
(n, d) read from the map's breakpoints (see `plmap`), and the builders here
compute on those pairs; no Fraction is built.  Pairs compare by
cross-multiplication, never as tuples.

`MarkedFn(plmap, markers)` is the one checked constructor: it reads the
markers with `ratio` and checks one inside each of the map's orbitals.
Functions carried over from a valid one go through `MarkedFn._trusted`,
which takes the map and markers as given and checks nothing: a renamed copy
(`rename`), an affine copy (`rescale_fn`), the restriction of a function
with more than two orbitals to its inner ones (`fn_rotate`), and a
two-piece bump whose parameters `make_bump_fn` has checked.  The last three
build their maps with the unchecked `PLMap._make`, handing it the orbitals
they know, as transport and checked parameters keep breakpoints increasing;
tests compare each with the checked constructors.  `orbitals` is the map's
own tuple, computed at most once per map.  Bumps, extended support and
the extreme transition points are derived from the stored orbitals; bumps,
extended support and the rotation are derived once, on first use.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .plmap import Pair, PLMap, _lt, _quads, _reduced, by_value, conj_map, fmt, ratio


class RealizationError(ValueError):
    pass


class Bump:
    """One orbital of a marked function, with its marker and feet."""

    __slots__ = ("u", "v", "sign", "marker", "tpoint")

    def __init__(self, u: Pair, v: Pair, sign: int, marker: Pair, tpoint: Pair):
        self.u, self.v, self.sign, self.marker, self.tpoint = u, v, sign, marker, tpoint

    @property
    def feet(self) -> Tuple[Tuple[Pair, Pair], Tuple[Pair, Pair]]:
        """((u, marker) open, [tpoint, v) half-open)."""
        return ((self.u, self.marker), (self.tpoint, self.v))

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return f"Bump({s}, ({fmt(self.u)},{fmt(self.v)}), s={fmt(self.marker)})"


class MarkedFn:
    """A nonidentity PL bijection with a chosen marker in each orbital."""

    __slots__ = ("map", "markers", "name", "orbitals", "_bumps", "_ext", "_rotated")

    def __init__(self, plmap: PLMap, markers: Sequence, name: Optional[str] = None):
        self.map, self.name = plmap, name
        self.markers = tuple(sorted(map(ratio, markers), key=by_value))
        self._bumps = self._ext = self._rotated = None
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
        tuple with one inside each of plmap's orbitals.  Nothing is
        checked."""
        f = object.__new__(cls)
        f.map, f.markers, f.orbitals, f.name = plmap, markers, plmap._orbitals(), name
        f._bumps = f._ext = f._rotated = None
        return f

    @property
    def bumps(self) -> List[Bump]:
        """One Bump per orbital (u, v); its transition point t is the marker s
        moved right by the map or by its inverse.  u < s < t < v needs no
        check: s lies strictly inside (u, v), which the map keeps while moving
        each of its points the orbital's way, so t lies strictly in (s, v)."""
        if self._bumps is None:
            self._bumps = [Bump(u, v, sign, s, self.map._at(*s, back=sign < 0))
                           for (u, v, sign), s in zip(self.orbitals, self.markers)]
        return self._bumps

    @property
    def rotated(self) -> "MarkedFn":
        """fn_rotate(self), derived once."""
        if self._rotated is None:
            self._rotated = fn_rotate(self)
        return self._rotated

    def ext_components(self) -> Tuple[Tuple[Pair, Pair], ...]:
        """Extended support: interior of the closure of the support; derived
        once."""
        if self._ext is None:
            out: List[Tuple[Pair, Pair]] = []
            for u, v, _ in self.orbitals:
                if out and out[-1][1] == u:
                    out[-1] = (out[-1][0], v)
                else:
                    out.append((u, v))
            self._ext = tuple(out)
        return self._ext

    @property
    def max_transition(self) -> Pair:
        return self.orbitals[-1][1]

    @property
    def min_transition(self) -> Pair:
        return self.orbitals[0][0]

    def rename(self, name: str) -> "MarkedFn":
        f = MarkedFn._trusted(self.map, self.markers, name)
        f._bumps, f._ext = self._bumps, self._ext
        return f

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


def make_bump_fn(u, v, a, b, sign: int = 1, name: Optional[str] = None) -> MarkedFn:
    """A two-piece bump on (u,v) with feet (u,a) and [b,v); the ends are
    values `ratio` reads.

    The interior breakpoint is (a,b) for a positive bump and (b,a) for a
    negative one; in both cases the marker is a.
    """
    u, v, a, b = ratio(u), ratio(v), ratio(a), ratio(b)
    if not (0 <= u[0] and _lt(u, a) and _lt(a, b) and _lt(b, v) and v[0] <= v[1]):
        raise RealizationError(f"bad bump parameters ({fmt(u)},{fmt(v)},{fmt(a)},{fmt(b)})")
    sign = 1 if sign > 0 else -1
    bp = u + u + (a + b if sign > 0 else b + a) + v + v
    if u[0]:
        bp = (0, 1, 0, 1) + bp
    if v[0] < v[1]:
        bp += (1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(bp, None, ((u, v, sign),)), (a,), name)


def canonical_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v) with feet the outer sixteenths of the orbital."""
    u, v = ratio(u), ratio(v)
    un, vn, d = u[0] * v[1], v[0] * u[1], 16 * u[1] * v[1]  # u and v over d / 16
    return make_bump_fn(u, v, _reduced(15 * un + vn, d), _reduced(un + 15 * vn, d), 1, name)


def midpoint_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v): interior breakpoint at the midpoint mapping to
    the 3/4 point, marker at the midpoint."""
    u, v = ratio(u), ratio(v)
    un, vn, d = u[0] * v[1], v[0] * u[1], 4 * u[1] * v[1]  # u and v over d / 4
    return make_bump_fn(u, v, _reduced(2 * un + 2 * vn, d), _reduced(un + 3 * vn, d), 1, name)


def fn_rotate(f: MarkedFn) -> MarkedFn:
    """Drop the extreme orbitals; for a one- or two-orbital function, the
    canonical positive bump on the left foot of the positive orbital."""
    orbs = f.orbitals
    name = f"{f.name}^o" if f.name else None
    if len(orbs) > 2:
        # the map moves points just inside keep_lo and keep_hi, so both are
        # breakpoints of the restriction and no kept point becomes collinear
        (ln, ld), (hn, hd) = orbs[1][0], orbs[-2][1]
        bp = [0, 1, 0, 1, ln, ld, ln, ld]
        for q in _quads(f.map._bp):
            if ln * q[1] < q[0] * ld and q[0] * hd < hn * q[1]:
                bp += q
        bp += (hn, hd, hn, hd, 1, 1, 1, 1)
        return MarkedFn._trusted(PLMap._make(tuple(bp), None, orbs[1:-1]), f.markers[1:-1], name)
    pos = [b for b in f.bumps if b.sign > 0]
    if not pos:
        raise RealizationError("function has no positive orbital to rotate into")
    foot_lo, foot_hi = pos[-1].u, pos[-1].marker
    return midpoint_bump(foot_lo, foot_hi, name)


def conjugate(f: MarkedFn, w: PLMap, name: Optional[str] = None) -> MarkedFn:
    """f conjugated by w (apply w-inverse, f, then w); markers move by w."""
    return MarkedFn(conj_map(f.map, w), [w._at(*s) for s in f.markers], name)


def square(f: MarkedFn, name: Optional[str] = None) -> MarkedFn:
    """f composed with itself; markers of positive bumps are retained and
    markers of negative bumps move by f."""
    smap = f.map.then(f.map)
    markers = [b.marker if b.sign > 0 else f.map._at(*b.marker) for b in f.bumps]
    return MarkedFn(smap, markers, name)


def rescale_fn(f: MarkedFn, lo, hi) -> MarkedFn:
    """Transport a marked function on (0,1) affinely into (lo,hi), the
    identity outside; lo and hi are values `ratio` reads.  (0,0) replaces
    the image of (0,0) when lo = 0 or f's first piece is the identity, and
    goes before it otherwise; likewise (1,1) at the other end."""
    (ln, ld), (hn, hd) = ratio(lo), ratio(hi)
    a, b, c = ln * hd, hn * ld - ln * hd, ld * hd  # n/d goes to (a d + b n) / (c d)

    def at(n: int, d: int) -> Pair:
        return _reduced(a * d + b * n, c * d)

    src = f.map._bp
    bp = [x for i in range(0, len(src), 2) for x in at(src[i], src[i + 1])]
    if ln == 0 or src[4:6] == src[6:8]:
        bp[:4] = (0, 1, 0, 1)
    else:
        bp[:0] = (0, 1, 0, 1)
    if hn == hd or src[-8:-6] == src[-6:-4]:
        bp[-4:] = (1, 1, 1, 1)
    else:
        bp += (1, 1, 1, 1)
    orbs = tuple((at(*u), at(*v), sign) for u, v, sign in f.orbitals)
    markers = tuple(at(*s) for s in f.markers)
    return MarkedFn._trusted(PLMap._make(tuple(bp), None, orbs), markers, f.name)
