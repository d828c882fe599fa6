"""Exact increasing piecewise-linear bijections of [0,1].

Breakpoints are Fractions; maps are stored in minimal form (no collinear
interior breakpoints), so equality of maps is equality of breakpoint tuples.
No floating point anywhere.

`PLMap(points)` is the one checked constructor: it sorts the points, checks
that they run from (0,0) to (1,1) strictly increasing in both coordinates,
and drops collinear ones.  Maps derived from valid maps (`inverse`, `then`,
powers, and the affine copies, restrictions and two-piece bumps of
`marked`) are built sorted and minimal and go through `PLMap._trusted`,
which only checks that both coordinates strictly increase.

A map's segment slopes are derived once per map: `slopes` starts as None
and is filled from the points the first time the map is composed.  `then`
records the slope of each segment it emits and `inverse` takes the
reciprocals of known slopes, so derived maps (powers and `pl_eval`
products too) carry theirs without deriving them again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, Fraction]


class PLError(ValueError):
    pass


def _canonical(points: Sequence[Point]) -> Tuple[Point, ...]:
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if not pts or pts[0] != (0, 0) or pts[-1] != (1, 1):
        raise PLError("breakpoints must run from (0,0) to (1,1)")
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x2 <= x1 or y2 <= y1:
            raise PLError("breakpoints must be strictly increasing in both coordinates")
    # drop interior points collinear with their neighbours
    out: List[Point] = [pts[0]]
    for i in range(1, len(pts) - 1):
        x0, y0 = out[-1]
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        out.append(pts[i])
    out.append(pts[-1])
    return tuple(out)


def _slopes(points: Tuple[Point, ...]) -> Tuple[Fraction, ...]:
    return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:]))


class PLMap:
    """An increasing PL bijection of [0,1], composed left to right.

    `slopes[k]` is the slope between `points[k]` and `points[k + 1]`, or
    None until the map is first composed."""

    __slots__ = ("points", "slopes")

    def __init__(self, points: Iterable[Point]):
        object.__setattr__(self, "points", _canonical(list(points)))
        object.__setattr__(self, "slopes", None)

    @classmethod
    def _trusted(cls, points: Tuple[Point, ...],
                 slopes: Optional[Tuple[Fraction, ...]] = None) -> "PLMap":
        """A map on breakpoints derived from valid maps: already sorted,
        running from (0,0) to (1,1) and minimal, with the slopes of its
        segments if the caller derived them.  Only checks that both
        coordinates strictly increase."""
        for (x1, y1), (x2, y2) in zip(points, points[1:]):
            if x2 <= x1 or y2 <= y1:
                raise PLError("breakpoints must be strictly increasing in both coordinates")
        m = object.__new__(cls)
        object.__setattr__(m, "points", points)
        object.__setattr__(m, "slopes", slopes)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    def _known_slopes(self) -> Tuple[Fraction, ...]:
        if self.slopes is None:
            object.__setattr__(self, "slopes", _slopes(self.points))
        return self.slopes

    @staticmethod
    def identity() -> "PLMap":
        return PLMap._trusted(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
                              (Fraction(1),))

    @property
    def is_identity(self) -> bool:
        return len(self.points) == 2

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        pts = self.points
        if not (0 <= x <= 1):
            raise PLError(f"{x} outside [0,1]")
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = pts[lo], pts[hi]
        if x == x1:
            return y1
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def inverse(self) -> "PLMap":
        slopes = self.slopes
        if slopes is not None:
            slopes = tuple(1 / s for s in slopes)
        return PLMap._trusted(tuple((y, x) for x, y in self.points), slopes)

    def then(self, other: "PLMap") -> "PLMap":
        """The composition apply-self-then-other.

        One merge of self's y-values with other's x-values: between two
        consecutive merged values the composition is affine with slope
        (self's slope) * (other's slope), so a merged value is a breakpoint
        of the result exactly where that product changes, and only those
        points are computed.  Both maps are minimal, so their slopes change
        at each of their breakpoints: a merged value where only one map
        breaks always starts a new segment, and products are compared only
        where both break.
        """
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        a, b = self.points, other.points
        sa, sb = self._known_slopes(), other._known_slopes()
        last_a, last_b = len(sa) - 1, len(sb) - 1
        # the current segments: a[i]..a[i+1] and b[j]..b[j+1]
        i = j = 0
        slope = sa[0] * sb[0]
        out, slopes = [a[0]], [slope]
        while i < last_a or j < last_b:
            # step past the next merged value on each map with a breakpoint
            # there; it becomes the start of that map's current segment
            y, u = a[i + 1][1], b[j + 1][0]
            if y < u:
                i += 1
                x0, y0 = a[i]
                u0, v0 = b[j]
                out.append((x0, v0 + sb[j] * (y0 - u0)))
                slope = sa[i] * sb[j]
            elif u < y:
                j += 1
                x0, y0 = a[i]
                u0, v0 = b[j]
                out.append((x0 + (u0 - y0) / sa[i], v0))
                slope = sa[i] * sb[j]
            else:
                i += 1
                j += 1
                new_slope = sa[i] * sb[j]
                if new_slope == slope:
                    continue
                out.append((a[i][0], b[j][1]))
                slope = new_slope
            slopes.append(slope)
        out.append(a[-1])
        return PLMap._trusted(tuple(out), tuple(slopes))

    def __pow__(self, k: int) -> "PLMap":
        if k == 0:
            return PLMap.identity()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out.then(base)
        return out

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        pts = ", ".join(f"({x},{y})" for x, y in self.points)
        return f"PLMap([{pts}])"

    def orbitals(self) -> List[Tuple[Fraction, Fraction, int]]:
        """Maximal open intervals where the map moves points, with signs.

        Returns (u, v, sign) triples with sign +1 where f(x) > x and -1
        where f(x) < x; the map fixes u and v.  Interior crossings of the
        diagonal are located exactly.
        """
        pieces: List[Tuple[Fraction, Fraction, int]] = []
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            d1, d2 = y1 - x1, y2 - x2
            if d1 == 0 and d2 == 0:
                continue
            if d1 >= 0 and d2 >= 0:
                pieces.append((x1, x2, 1))
            elif d1 <= 0 and d2 <= 0:
                pieces.append((x1, x2, -1))
            else:
                s = (y2 - y1) / (x2 - x1)
                xstar = (y1 - s * x1) / (1 - s)
                pieces.append((x1, xstar, 1 if d1 > 0 else -1))
                pieces.append((xstar, x2, 1 if d2 > 0 else -1))
        out: List[Tuple[Fraction, Fraction, int]] = []
        for u, v, sign in pieces:
            if out:
                pu, pv, psign = out[-1]
                if pv == u and psign == sign and self(u) != u:
                    out[-1] = (pu, v, sign)
                    continue
            out.append((u, v, sign))
        return out
