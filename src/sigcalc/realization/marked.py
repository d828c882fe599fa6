"""Marked functions: PL bijections with one marker per orbital.

A marker s in a bump's support determines the feet (u,s) and [t,v), the
outer slivers of the orbital, where t is the image of s under the bump (or
its preimage for a negative bump).  Feet drive the order of a set, its
fastness check, its standardness walk and its dynamical diagram, and
`build` builds their order before it places them.

Orbitals, markers and feet hold every number as a reduced integer pair
(n, d) read from the map's breakpoints (see `plmap`), and the builders here
compute on those pairs; no Fraction is built.  Pairs compare by
cross-multiplication, never as tuples.

`MarkedFn(plmap, markers)` is the one checked constructor: it reads the
markers with `ratio` and checks one inside each of the map's orbitals.
Functions carried over from a valid one go through `MarkedFn._trusted`,
which takes the map and markers as given and checks nothing: a conjugate
and a square, whose maps are compositions, the restriction of a function
with more than two orbitals to its inner ones (`fn_rotate`), every one-bump
rotation, which `_bump` builds from ordered reduced pairs, and the functions
`build.realize` places on its grid.  `fn_rotate`, `_bump` and `realize`
build their maps with the unchecked `PLMap._make`, handing it the orbitals
they know, as restriction, ordered pairs and an ordered grid keep
breakpoints increasing; tests compare each with the checked constructors,
and `_bump` also with the checked bumps of `tests/oracles.py`.  `orbitals`
is the map's own tuple: the one its maker handed `_make`, else derived from
the map on first read, as a conjugate's and a square's are.  `feet`, one
(u, s, t, v) per orbital, is derived from the orbitals and markers once, on
first read: the one place a transition point is read off a map.  The
rotation rule lives in `fn_rotate`, which `genset._standard_walk` follows on
integer keys.
"""

from collections.abc import Sequence

from ..signature import RealizationError
from .plmap import Pair, PLMap, _lt, _quads, _reduced, by_value, conj_map, fmt, ratio


class MarkedFn:
    """A nonidentity PL bijection with a chosen marker in each orbital."""

    __slots__ = ("map", "markers", "name", "_feet")

    def __init__(self, plmap: PLMap, markers: Sequence, name: str | None = None):
        self.map, self.name = plmap, name
        self.markers = tuple(sorted(map(ratio, markers), key=by_value))
        self._feet = None
        orbs = plmap._orbitals()
        if not orbs:
            raise RealizationError("identity maps cannot be marked")
        if len(orbs) != len(self.markers):
            raise RealizationError(
                f"{len(self.markers)} markers for {len(orbs)} orbitals")
        for (u, v, _), s in zip(orbs, self.markers):
            if not (_lt(u, s) and _lt(s, v)):
                raise RealizationError(f"marker {fmt(s)} outside orbital ({fmt(u)},{fmt(v)})")

    @classmethod
    def _trusted(cls, plmap: PLMap, markers: tuple[Pair, ...],
                 name: str | None = None) -> "MarkedFn":
        """A function valid by construction: `markers` is a sorted tuple
        with one inside each of plmap's orbitals.  Nothing is checked."""
        f = object.__new__(cls)
        f.map, f.markers, f.name, f._feet = plmap, markers, name, None
        return f

    @property
    def orbitals(self) -> tuple[tuple[Pair, Pair, int], ...]:
        """The map's orbitals, (u, v, sign) per orbital: those its maker
        handed `PLMap._make`, else derived from the map on first read."""
        return self.map._orbitals()

    @property
    def feet(self) -> tuple[tuple[Pair, Pair, Pair, Pair], ...]:
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


def _bump(u: Pair, v: Pair, s: Pair, t: Pair, name: str | None = None) -> MarkedFn:
    """The positive bump on (u,v) through (s,t), marked at s, from reduced
    pairs 0 <= u < s < t < v < 1.  Canonical as written: the one point off
    the diagonal lies between two on it, so no point is collinear."""
    bp = (*u, *u, *s, *t, *v, *v, 1, 1, 1, 1)
    if u[0]:
        bp = (0, 1, 0, 1) + bp
    return MarkedFn._trusted(PLMap._make(bp, None, ((u, v, 1),)), (s,), name)


def fn_rotate(f: MarkedFn) -> MarkedFn:
    """f restricted to its inner orbitals when it has more than two, else the
    bump on the left foot (u, s) of its last orbital that maps the midpoint
    marker (u + s)/2 to (u + 3s)/4; only standard functions are rotated, and
    their negative orbitals lie left of no fewer positive ones, so that orbital
    is positive.  `genset._standard_walk` reads the same rule on integer keys."""
    name = f"{f.name}^o" if f.name else None
    if len(f.orbitals) <= 2:
        (u, _, _), s = f.orbitals[-1], f.markers[-1]
        return _bump(u, s, _reduced(u[0] * s[1] + s[0] * u[1], 2 * u[1] * s[1]),
                     _reduced(u[0] * s[1] + 3 * s[0] * u[1], 4 * u[1] * s[1]), name)
    orbs, markers = f.orbitals[1:-1], f.markers[1:-1]
    # the map moves points just inside the kept orbitals' ends, so both are
    # breakpoints of the restriction and no kept point becomes collinear
    (ln, ld), (hn, hd) = orbs[0][0], orbs[-1][1]
    bp = [0, 1, 0, 1, ln, ld, ln, ld]
    for q in _quads(f.map._bp):
        if ln * q[1] < q[0] * ld and q[0] * hd < hn * q[1]:
            bp += q
    bp += (hn, hd, hn, hd, 1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(tuple(bp), None, orbs), markers, name)


def conjugate(f: MarkedFn, w: PLMap, name: str | None = None) -> MarkedFn:
    """f conjugated by w (apply w-inverse, f, then w); markers move by w,
    which carries f's orbitals onto the conjugate's in order."""
    return MarkedFn._trusted(conj_map(f.map, w), tuple(w._at(*s) for s in f.markers), name)


def square(f: MarkedFn, name: str | None = None) -> MarkedFn:
    """f composed with itself, which has f's orbitals; markers of positive
    bumps are retained and markers of negative bumps move by f within them."""
    markers = tuple(s if sign > 0 else f.map._at(*s)
                    for (_, _, sign), s in zip(f.orbitals, f.markers))
    return MarkedFn._trusted(f.map.then(f.map), markers, name)
