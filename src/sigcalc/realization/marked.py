"""Marked functions: PL bijections with one marker per orbital.

A marker s in a bump's support determines the feet (u,s) and [t,v), the
outer slivers of the orbital, where t is the image of s under the bump (or
its inverse for a negative bump).  Feet drive the fastness check and the
dynamical diagram.

A MarkedFn computes its map's orbitals once, at construction, and stores
them; bumps, extended support, transition points and the extreme transition
points are derived from the stored orbitals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .plmap import PLMap, PLError, affine_image


class RealizationError(ValueError):
    pass


class Bump:
    """One orbital of a marked function, with its marker and feet."""

    __slots__ = ("u", "v", "sign", "marker", "tpoint")

    def __init__(self, u: Fraction, v: Fraction, sign: int, marker: Fraction, tpoint: Fraction):
        self.u, self.v, self.sign, self.marker, self.tpoint = u, v, sign, marker, tpoint

    @property
    def feet(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        """((u, marker) open, [tpoint, v) half-open)."""
        return ((self.u, self.marker), (self.tpoint, self.v))

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return f"Bump({s}, ({self.u},{self.v}), s={self.marker})"


class MarkedFn:
    """A nonidentity PL bijection with a chosen marker in each orbital."""

    __slots__ = ("map", "markers", "name", "orbitals", "_bumps")

    def __init__(self, plmap: PLMap, markers: Sequence, name: Optional[str] = None):
        self.map = plmap
        self.markers = tuple(sorted(Fraction(s) for s in markers))
        self.name = name
        self._bumps = None
        self.orbitals = orbs = tuple(plmap.orbitals())
        if not orbs:
            raise RealizationError("identity maps cannot be marked")
        if len(orbs) != len(self.markers):
            raise RealizationError(
                f"{len(self.markers)} markers for {len(orbs)} orbitals")
        for (u, v, _), s in zip(orbs, self.markers):
            if not (u < s < v):
                raise RealizationError(f"marker {s} outside orbital ({u},{v})")

    @property
    def bumps(self) -> List[Bump]:
        if self._bumps is None:
            out = []
            for (u, v, sign), s in zip(self.orbitals, self.markers):
                t = self.map(s) if sign > 0 else self.map.inverse()(s)
                if not (u < s < t < v):
                    raise RealizationError(f"degenerate foot for marker {s} in ({u},{v})")
                out.append(Bump(u, v, sign, s, t))
            self._bumps = out
        return self._bumps

    def ext_components(self) -> List[Tuple[Fraction, Fraction]]:
        """Extended support: interior of the closure of the support."""
        out: List[Tuple[Fraction, Fraction]] = []
        for u, v, _ in self.orbitals:
            if out and out[-1][1] == u:
                out[-1] = (out[-1][0], v)
            else:
                out.append((u, v))
        return out

    @property
    def max_transition(self) -> Fraction:
        return self.orbitals[-1][1]

    @property
    def min_transition(self) -> Fraction:
        return self.orbitals[0][0]

    def transition_points(self) -> List[Fraction]:
        pts: List[Fraction] = []
        for u, v, _ in self.orbitals:
            if not pts or pts[-1] != u:
                pts.append(u)
            pts.append(v)
        return pts

    def rename(self, name: str) -> "MarkedFn":
        return MarkedFn(self.map, self.markers, name)

    def __repr__(self):
        tag = self.name or "fn"
        orbs = ", ".join(
            ("+" if s > 0 else "-") + f"({u},{v})" for u, v, s in self.orbitals)
        return f"MarkedFn({tag}: {orbs})"


def is_standard_fn(f: MarkedFn) -> bool:
    """Connected extended support, negatives left of positives, and the
    positive bump count equals or exceeds the negative count by at most one."""
    orbs = f.orbitals
    for (_, v1, _), (u2, _, _) in zip(orbs, orbs[1:]):
        if v1 != u2:
            return False
    signs = [s for _, _, s in orbs]
    npos = sum(1 for s in signs if s > 0)
    nneg = len(signs) - npos
    if any(signs[i] > 0 > signs[i + 1] for i in range(len(signs) - 1)):
        return False
    return nneg <= npos <= nneg + 1


def make_bump_fn(u, v, a, b, sign: int = 1, name: Optional[str] = None) -> MarkedFn:
    """A two-piece bump on (u,v) with feet (u,a) and [b,v).

    The interior breakpoint is (a,b) for a positive bump and (b,a) for a
    negative one; in both cases the marker is a.
    """
    u, v, a, b = Fraction(u), Fraction(v), Fraction(a), Fraction(b)
    if not (0 <= u < a < b < v <= 1):
        raise RealizationError(f"bad bump parameters ({u},{v},{a},{b})")
    interior = (a, b) if sign > 0 else (b, a)
    pts = [(Fraction(0), Fraction(0)), (u, u), interior, (v, v), (Fraction(1), Fraction(1))]
    return MarkedFn(PLMap(pts), [a], name)


def canonical_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v) with feet the outer sixteenths of the orbital."""
    u, v = Fraction(u), Fraction(v)
    d = (v - u) / 16
    return make_bump_fn(u, v, u + d, v - d, 1, name)


def midpoint_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v): interior breakpoint at the midpoint mapping to
    the 3/4 point, marker at the midpoint."""
    u, v = Fraction(u), Fraction(v)
    return make_bump_fn(u, v, (u + v) / 2, u + 3 * (v - u) / 4, 1, name)


def fn_rotate(f: MarkedFn) -> MarkedFn:
    """Drop the extreme orbitals; for a one- or two-orbital function, the
    canonical positive bump on the left foot of the positive orbital."""
    orbs = f.orbitals
    if len(orbs) > 2:
        keep_lo, keep_hi = orbs[1][0], orbs[-2][1]
        pts = [(Fraction(0), Fraction(0)), (keep_lo, keep_lo)]
        pts += [(x, y) for x, y in f.map.points if keep_lo <= x <= keep_hi]
        pts += [(keep_hi, keep_hi), (Fraction(1), Fraction(1))]
        markers = [s for s in f.markers if keep_lo < s < keep_hi]
        name = f"{f.name}^o" if f.name else None
        return MarkedFn(PLMap(pts), markers, name)
    pos = [b for b in f.bumps if b.sign > 0]
    if not pos:
        raise RealizationError("function has no positive orbital to rotate into")
    foot_lo, foot_hi = pos[-1].u, pos[-1].marker
    name = f"{f.name}^o" if f.name else None
    return midpoint_bump(foot_lo, foot_hi, name)


def conjugate(f: MarkedFn, w: PLMap, name: Optional[str] = None) -> MarkedFn:
    """f conjugated by w (apply w-inverse, f, then w); markers move by w."""
    cmap = w.inverse().then(f.map).then(w)
    return MarkedFn(cmap, [w(s) for s in f.markers], name)


def square(f: MarkedFn, name: Optional[str] = None) -> MarkedFn:
    """f composed with itself; markers of positive bumps are retained and
    markers of negative bumps move by f."""
    smap = f.map.then(f.map)
    markers = [b.marker if b.sign > 0 else f.map(b.marker) for b in f.bumps]
    return MarkedFn(smap, markers, name)


def rescale_fn(f: MarkedFn, lo, hi) -> MarkedFn:
    """Transport a marked function on (0,1) affinely into (lo,hi)."""
    pts = affine_image(f.map.points, lo, hi)
    pts += [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    lo = Fraction(lo)
    w = Fraction(hi) - lo
    return MarkedFn(PLMap(pts), [lo + w * s for s in f.markers], f.name)
