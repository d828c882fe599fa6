"""Group words over a generating set, and the commutation predicates.

C(x,y) says x and y commute; D(x,y) says y dominates x (they do not commute
but x commutes with its conjugate by y); T(x,y,z) says (x,y,z) forms a
tower.  All evaluation is exact on PL maps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .marked import MarkedFn, RealizationError
from .plmap import PLMap

GroupWord = List[Tuple[int, int]]  # (generator index, nonzero exponent)


def pl_eval(fns: Sequence[MarkedFn], word: GroupWord) -> PLMap:
    """Exact left-to-right product of generator powers; identity for []."""
    out = PLMap.identity()
    for idx, exp in word:
        if not (0 <= idx < len(fns)):
            raise RealizationError(f"generator index {idx} out of range")
        if exp == 0:
            raise RealizationError("zero exponent in group word")
        out = out.then(fns[idx].map ** exp)
    return out


def conj_map(x: PLMap, y: PLMap) -> PLMap:
    """x conjugated by y (apply y-inverse, x, then y)."""
    return y.inverse().then(x).then(y)


def pred_C(x: PLMap, y: PLMap) -> bool:
    """xy = yx, compared as breakpoint tuples: maps are stored minimal."""
    return x.then(y) == y.then(x)


def pred_D(x: PLMap, y: PLMap) -> bool:
    return _dominates(x, y, pred_C(x, y))


def _dominates(x: PLMap, y: PLMap, commute: bool) -> bool:
    """D(x,y), given whether C(x,y) holds."""
    return not commute and pred_C(x, conj_map(x, y))


def pred_T(x: PLMap, y: PLMap, z: PLMap) -> bool:
    """D(x,y), D(x,z), D(y,z) and C(x, y conjugated by z), in that order;
    the conjugate is built once for D(y,z) and the last conjunct."""
    return _tower(x, y, z, pred_D(x, y))


def _tower(x: PLMap, y: PLMap, z: PLMap, dominates: bool) -> bool:
    """T(x,y,z), given whether D(x,y) holds."""
    if not (dominates and pred_D(x, z)) or pred_C(y, z):
        return False
    yz = conj_map(y, z)
    return pred_C(y, yz) and pred_C(x, yz)


def predicates(fns: Sequence[MarkedFn], x_word: GroupWord, y_word: GroupWord,
               z_word: Optional[GroupWord] = None) -> dict:
    """Evaluate C and D on (x,y), and T on (x,y,z) when z is given; C(x,y)
    and D(x,y) are evaluated once each."""
    x = pl_eval(fns, x_word)
    y = pl_eval(fns, y_word)
    c = pred_C(x, y)
    d = _dominates(x, y, c)
    out = {"C": c, "D": d}
    if z_word is not None:
        z = pl_eval(fns, z_word)
        out["T"] = _tower(x, y, z, d)
    return out
