"""Exact increasing piecewise-linear bijections of [0,1].

A map is stored in one canonical integer form: a flat tuple of four
integers (xn, xd, yn, yd) per breakpoint (xn/xd, yn/yd), each coordinate
reduced with a positive denominator, and no collinear interior breakpoints.
Equality is equality of these tuples, and composition, inversion, powers,
one-point images and preimages (`_at`) and orbitals (`_orbitals`) work on
integers alone, with every number a reduced (n, d) pair; `ratio`, `fmt`,
`keys`, `_lt` and `by_value` read, print and order such pairs for the whole
package, and `ratio` reads an int, float or Fraction by its own
`as_integer_ratio`.  Fractions are built only in the three views the public
API hands out: `points` (built anew on each read), `__call__` and
`orbitals()`.  No floating point anywhere.

`PLMap(points)` is the one checked constructor: it reads coordinates with
`ratio`, sorts the points only when they do not already strictly increase
in x, checks that they run from (0,0) to (1,1), and in one pass drops
collinear points and checks that every slope is p/q with p > 0 and q > 0,
which holds exactly when both coordinates strictly increase; that pass,
`_minimal`, also serves `build`'s general wrap.  `ratio` checks a string by
hand against the grammar that the regular expression `_RATIO` in
`tests/oracles.py` states, before it builds any integer.  Every other map
is built by the unchecked `PLMap._make`: `identity`; `inverse`, since
swapping the coordinates of an increasing map keeps it increasing; the
affine copies and restrictions of `marked` and its one-bump builder
`_bump`; the wrap tops of `build`; and compositions, since a composition
of increasing maps increases, so `then` (and powers) drain the merge
kernel, `_merge`, into `_make`.  `_merge` is the one composition loop:
`words.pred_C` runs two of them side by side and stops at the first
breakpoint where they differ.  It reduces what it computes with `gcd` in
line.

Slopes are reduced (p, q) pairs, derived once per map: the checked
constructor keeps the ones it computes to drop collinear points, `_merge`
records the slope of each segment it emits, and `inverse` swaps known
ones; a map made by `_make` without them gets them when first composed.
Orbitals are computed once per map too, unless `_make` is handed them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..signature import quoted

Pair = Tuple[int, int]  # a reduced n/d, d > 0

class PLError(ValueError):
    pass


def _reduced(n: int, d: int) -> Tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def ratio(x) -> Pair:
    """x as a reduced (numerator, denominator) pair: a string is an
    optionally signed integer or n/d with d > 0, in decimal digits with
    blanks around it, checked before any integer is built (so "1e10000000"
    is refused at once); a bool is refused, and an int, float or Fraction
    is read by its own `as_integer_ratio`; anything else, a tuple too, is
    refused by its type's name."""
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        num = num.lstrip() if slash else num.strip()
        den = den.rstrip()  # a denominator's leading zeros are ASCII "0"s before a 1-9
        if not ((num.isdecimal() or num[:1] in "+-" and num[1:].isdecimal())
                and (not slash or den.isdecimal() and "1" <= den.lstrip("0")[:1] <= "9")):
            raise ValueError(f"not an integer or a fraction n/d with d > 0: {quoted(x)}")
        if not slash:
            return int(num), 1
        n, d = int(num), int(den)
        return n // (g := gcd(n, d)), d // g
    if isinstance(x, bool):
        raise TypeError(f"not a number: {x}")
    if not hasattr(x, "as_integer_ratio"):
        raise TypeError(f"not a number: {type(x).__name__}")
    return x.as_integer_ratio()


def fmt(p: Pair) -> str:
    """A reduced pair as `str` prints the Fraction: "n" or "n/d"."""
    return str(p[0]) if p[1] == 1 else f"{p[0]}/{p[1]}"


def keys(pairs: Sequence[Pair]) -> Tuple[int, List[int]]:
    """(den, keys): den the lcm of the pairs' denominators, and each pair's
    numerator over den, so that the keys order the pairs as numbers."""
    den = lcm(*(d for _, d in pairs))
    return den, [n * (den // d) for n, d in pairs]


def _lt(a: Pair, b: Pair) -> bool:
    return a[0] * b[1] < b[0] * a[1]


# Sorts pairs, or breakpoint quads by x, by cross-multiplication.
by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _quads(bp: Tuple[int, ...]) -> List[Tuple[int, int, int, int]]:
    it = iter(bp)
    return list(zip(it, it, it, it))


def _slope(a, b) -> Tuple[int, int]:
    """The reduced slope from breakpoint (xn, xd, yn, yd) a to b."""
    return _reduced((b[2] * a[3] - a[2] * b[3]) * a[1] * b[1],
                    (b[0] * a[1] - a[0] * b[1]) * a[3] * b[3])


def _canonical(points: Iterable):
    """The sorted minimal breakpoints as a flat tuple, and their slopes.
    Points that already strictly increase in x are taken in order; any
    others are deduplicated and sorted.  Both coordinates strictly increase
    exactly when every slope p/q between consecutive points has p > 0 and
    q > 0 (a repeated x gives q = 0, a flat or falling y p <= 0); dropping a
    collinear point replaces two such slopes with one equal to both."""
    bp = [ratio(x) + ratio(y) for x, y in points]
    if not all(a[0] * b[1] < b[0] * a[1] for a, b in zip(bp, bp[1:])):
        bp = sorted(dict.fromkeys(bp), key=by_value)
    if not bp or bp[0] != (0, 1, 0, 1) or bp[-1] != (1, 1, 1, 1):
        raise PLError("breakpoints must run from (0,0) to (1,1)")
    return _minimal(bp)


def _minimal(quads: Sequence[Tuple[int, int, int, int]]):
    """Breakpoint quads sorted by x, without collinear interior points, as
    a flat tuple, and their slopes; PLError unless both coordinates
    strictly increase."""
    out, slopes = [quads[0]], []  # slopes[k]: from out[k] to out[k + 1]
    for b in quads[1:]:
        (axn, axd, ayn, ayd), (bxn, bxd, byn, byd) = out[-1], b
        p, q = (byn * ayd - ayn * byd) * axd * bxd, (bxn * axd - axn * bxd) * ayd * byd
        if p <= 0 or q <= 0:
            raise PLError("breakpoints must be strictly increasing in both coordinates")
        s = p // (g := gcd(p, q)), q // g
        if slopes and s == slopes[-1]:  # collinear: out[-2] to b keeps the slope
            out[-1] = b
        else:
            out.append(b)
            slopes.append(s)
    return tuple(chain.from_iterable(out)), tuple(slopes)


def _crossing(a, b) -> Pair:
    """Where the segment from breakpoint a to b crosses the diagonal:
    (D_a x_b - D_b x_a) / (D_a - D_b), with D = y - x at each end."""
    (axn, axd, ayn, ayd), (bxn, bxd, byn, byd) = a, b
    na, ma = ayn * axd - axn * ayd, axd * ayd  # D_a = na / ma
    nb, mb = byn * bxd - bxn * byd, bxd * byd
    n, d = na * mb * bxn * axd - nb * ma * axn * bxd, axd * bxd * (na * mb - nb * ma)
    return _reduced(-n, -d) if d < 0 else _reduced(n, d)


class PLMap:
    """An increasing PL bijection of [0,1], composed left to right.

    `PLMap(points)` checks its points; `_make` trusts its caller.
    `slopes[k]` is the slope between breakpoints k and k + 1, or None until
    a map made by `_make` without them is first composed."""

    __slots__ = ("_bp", "slopes", "_orbs")

    def __new__(cls, points: Iterable):
        return cls._make(*_canonical(points))

    @classmethod
    def _make(cls, bp: Tuple[int, ...], slopes: Optional[Tuple[Pair, ...]] = None,
              orbitals: Optional[Tuple[Tuple[Pair, Pair, int], ...]] = None) -> "PLMap":
        """A map on breakpoints already canonical and strictly increasing,
        with its slopes and orbitals if known, unchecked."""
        m = object.__new__(cls)
        m._bp, m.slopes, m._orbs = bp, slopes, orbitals
        return m

    @property
    def points(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The breakpoints as Fraction pairs, built on each read."""
        return tuple((Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in _quads(self._bp))

    def _known_slopes(self) -> Tuple[Tuple[int, int], ...]:
        if self.slopes is None:
            quads = _quads(self._bp)
            self.slopes = tuple(map(_slope, quads, quads[1:]))
        return self.slopes

    @staticmethod
    def identity() -> "PLMap":
        return PLMap._make((0, 1, 0, 1, 1, 1, 1, 1), ((1, 1),), ())

    @property
    def is_identity(self) -> bool:
        return len(self._bp) == 8

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not (0 <= x <= 1):
            raise PLError(f"{x} outside [0,1]")
        return Fraction(*self._at(x.numerator, x.denominator))

    def _at(self, n: int, d: int, back: bool = False) -> Pair:
        """The image of the reduced n/d in [0,1], or with `back` its
        preimage, as a reduced pair; no view or inverse map is built."""
        bp, i = self._bp, 2 if back else 0  # i: the searched coordinate's offset in a quad
        # k: the last breakpoint at or left of n/d
        k = 4 * bisect_left(range(4, len(bp), 4), True,
                            key=lambda j: bp[j + i] * d > n * bp[j + i + 1])
        xn, xd, yn, yd = bp[k + i], bp[k + i + 1], bp[k + 2 - i], bp[k + 3 - i]
        if xn * d == n * xd:
            return yn, yd
        un, ud, vn, vd = bp[k + 4 + i], bp[k + 5 + i], bp[k + 6 - i], bp[k + 7 - i]
        q = vd * d * (un * xd - xn * ud)  # y + (v - y)(n/d - x)/(u - x), over yd * q
        return _reduced(yn * q + (vn * yd - yn * vd) * (n * xd - xn * d) * ud, yd * q)

    def inverse(self) -> "PLMap":
        slopes, bp = self.slopes, list(self._bp)
        bp[0::4], bp[1::4], bp[2::4], bp[3::4] = bp[2::4], bp[3::4], bp[0::4], bp[1::4]
        return PLMap._make(tuple(bp), slopes and tuple((q, p) for p, q in slopes))

    def then(self, other: "PLMap") -> "PLMap":
        """The composition apply-self-then-other: (0,0), then `_merge`."""
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        slopes = []
        bp = (0, 1, 0, 1, *chain.from_iterable(self._merge(other, slopes)))
        return PLMap._make(bp, tuple(slopes))

    def _merge(self, other: "PLMap", slopes: List[Pair]) -> Iterator[Tuple[int, int, int, int]]:
        """The breakpoints of apply-self-then-other after (0,0), in order, as
        (xn, xd, yn, yd); the slope of each segment is appended to `slopes`
        once known.  Each point is final when yielded: no later step removes
        it.

        One merge of self's y-values with other's x-values: between two
        consecutive merged values the composition is affine with slope
        (self's slope) * (other's slope), so a merged value is a breakpoint
        of the result exactly where that product changes, and only those
        points are computed.  Both maps are minimal, so their slopes change
        at each of their breakpoints: a merged value where only one map
        breaks always starts a new segment, and products are compared, by
        cross-multiplication, only where both break.
        """
        a, b = self._bp, other._bp
        sa, sb = self._known_slopes(), other._known_slopes()
        last_a, last_b = len(a) - 8, len(b) - 8
        # the current segments start at a[i:i + 4] and b[j:j + 4]
        i = j = 0
        p, q = sa[0][0] * sb[0][0], sa[0][1] * sb[0][1]  # the result's current slope
        p, q = p // (g := gcd(p, q)), q // g
        slopes.append((p, q))
        while i < last_a or j < last_b:
            # step past the next merged value on each map with a breakpoint
            # there; it becomes the start of that map's current segment
            c = a[i + 6] * b[j + 5] - b[j + 4] * a[i + 7]
            i += 4 if c <= 0 else 0
            j += 4 if c >= 0 else 0
            xn, xd, yn, yd = a[i:i + 4]
            un, ud, vn, vd = b[j:j + 4]
            (ap, aq), (bp, bq) = sa[i >> 2], sb[j >> 2]
            if c < 0:  # a breaks inside b's segment: y's image under b
                d = bq * yd * ud
                yn, yd = vn * d + bp * (yn * ud - un * yd) * vd, vd * d
                yn, yd = yn // (g := gcd(yn, yd)), yd // g
            elif c > 0:  # b breaks inside a's image: u's preimage under a
                d = ap * ud * yd
                xn, xd = xn * d + aq * (un * yd - yn * ud) * xd, xd * d
                xn, xd = xn // (g := gcd(xn, xd)), xd // g
                yn, yd = vn, vd
            elif ap * bp * q == p * aq * bq:  # both break, same slope
                continue
            else:
                yn, yd = vn, vd
            yield xn, xd, yn, yd
            p, q = ap * bp, aq * bq
            p, q = p // (g := gcd(p, q)), q // g
            slopes.append((p, q))
        yield 1, 1, 1, 1

    def __pow__(self, k: int) -> "PLMap":
        if k == 0:
            return PLMap.identity()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out.then(base)
        return out

    def __eq__(self, other):
        return isinstance(other, PLMap) and self._bp == other._bp

    def __hash__(self):
        return hash(self._bp)

    def __repr__(self):
        pts = ", ".join(f"({fmt(q[:2])},{fmt(q[2:])})" for q in _quads(self._bp))
        return f"PLMap([{pts}])"

    def orbitals(self) -> List[Tuple[Fraction, Fraction, int]]:
        """`_orbitals` with Fraction ends."""
        return [(Fraction(*u), Fraction(*v), s) for u, v, s in self._orbitals()]

    def _orbitals(self) -> Tuple[Tuple[Pair, Pair, int], ...]:
        """Maximal open intervals where the map moves points, with signs.

        Returns (u, v, sign) triples of reduced pairs u and v, with sign +1
        where f(x) > x and -1 where f(x) < x; the map fixes u and v.
        Interior crossings of the diagonal are located exactly.
        """
        if self._orbs is not None:
            return self._orbs
        quads = _quads(self._bp)
        out, start, prev, ps = [], None, quads[0], 0  # the map fixes 0
        for q in quads[1:]:
            c = q[2] * q[1] - q[0] * q[3]
            s = (c > 0) - (c < 0)  # the sign of f(x) - x at this breakpoint
            if s * ps < 0:
                x = _crossing(prev, q)
                out.append((start, x, ps))
                start = x
            elif s and not ps:
                start = prev[:2]
            if not s and start is not None:
                out.append((start, q[:2], ps))
                start = None
            prev, ps = q, s
        self._orbs = tuple(out)
        return self._orbs


def conj_map(x: PLMap, y: PLMap) -> PLMap:
    """x conjugated by y (apply y-inverse, x, then y)."""
    return y.inverse().then(x).then(y)
