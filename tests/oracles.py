"""Reference implementations that only tests use.

The equivalent forms of the (!) relation are checked against
`signature.bang_rel`, and `classify_pair` bundles a pair's order, fastness,
oscillation and standardness for the realization tests.  `is_standard_pair`
is the recursive definition of a standard pair, checked in full at every
level, for comparison with the library's single walk.
"""

from dataclasses import dataclass
from typing import Optional

from sigcalc.realization import (
    MarkedFn, RealizationError, fn_rotate, is_fast, is_standard_fn, oscillation, pair_order)
from sigcalc.realization.genset import CONTAINS, GG, INSIDE, LL


def bang(p: int, q: int) -> Optional[int]:
    """The unique r with r = p ! q when p != q; None when p = q (any r >= p-1)."""
    if p == q:
        return None
    return min(p - 1, q)


def bang_rel_q(p: int, q: int, r: int) -> bool:
    """Equivalent form centered on q: q >= min(p, r), equality unless p = r+1."""
    m = min(p, r)
    if p == r + 1:
        return q >= m
    return q == m


def bang_rel_p(p: int, q: int, r: int) -> bool:
    """Equivalent form centered on p: p >= min(q, r+1), equality unless q = r."""
    m = min(q, r + 1)
    if q == r:
        return p >= m
    return p == m


def bang_rel_conj(p: int, q: int, r: int) -> bool:
    """Equivalent conjunction of the three inequalities."""
    return p >= min(q, r + 1) and q >= min(p, r) and r >= min(p - 1, q)


def is_standard_pair(f: MarkedFn, g: MarkedFn, fuel: int = 200) -> bool:
    """{f,g} fast, both standard, and either f << g, or f inside g with
    (g rotated, f) again standard."""
    if fuel == 0:
        raise RealizationError("standard-pair recursion did not terminate")
    if not (is_standard_fn(f) and is_standard_fn(g) and is_fast([f, g])):
        return False
    rel = pair_order(f, g)
    if rel == LL:
        return True
    return rel == INSIDE and is_standard_pair(fn_rotate(g), f, fuel - 1)


@dataclass
class PairInfo:
    order: str
    fast: bool
    oscillation: Optional[int]
    standard: bool


def classify_pair(f: MarkedFn, g: MarkedFn) -> PairInfo:
    rel = pair_order(f, g)
    fast = is_fast([f, g])
    osc = None
    if fast and rel in (LL, GG, INSIDE, CONTAINS):
        osc = oscillation(f, g)
    standard = rel in (LL, INSIDE) and fast and is_standard_pair(f, g)
    return PairInfo(rel, fast, osc, standard)
