"""Group words over a generating set, and the commutation predicates.

C(x,y) says x and y commute; D(x,y) says y dominates x (they do not commute
but x commutes with its conjugate by y); T(x,y,z) says (x,y,z) forms a
tower.  All evaluation is exact on PL maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .genset import GenSet, is_fast, order_genset, oscillation, pair_order
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
    return (not pred_C(x, y)) and pred_C(x, conj_map(x, y))


def pred_T(x: PLMap, y: PLMap, z: PLMap) -> bool:
    return (pred_D(x, y) and pred_D(x, z) and pred_D(y, z)
            and pred_C(x, conj_map(y, z)))


def predicates(fns: Sequence[MarkedFn], x_word: GroupWord, y_word: GroupWord,
               z_word: Optional[GroupWord] = None) -> dict:
    """Evaluate C and D on (x,y), and T on (x,y,z) when z is given."""
    x = pl_eval(fns, x_word)
    y = pl_eval(fns, y_word)
    out = {"C": pred_C(x, y), "D": pred_D(x, y)}
    if z_word is not None:
        z = pl_eval(fns, z_word)
        out["T"] = pred_T(x, y, z)
    return out


def dom_witness(x: PLMap, y: PLMap) -> Optional[Tuple[Fraction, Fraction]]:
    """When D(x,y) holds, an orbital J of x with Jy disjoint from J."""
    for u, v, _ in x.orbitals():
        iu, iv = y(u), y(v)
        if iv <= u or v <= iu:
            return (u, v)
    return None


class WreathSplitError(RealizationError):
    pass


def wreath_witness(fns: Sequence[MarkedFn], split: int) -> Tuple[Fraction, Fraction]:
    """An interval certifying the wreath decomposition at a *-split.

    The set splits as B * C at the index when every oscillation across is 1
    (and all oscillations within the set are positive).  The witness J must
    contain the supports of all elements of B, lie inside the rightmost
    orbital of every element of C, and avoid the feet of C.
    """
    fns = order_genset(fns)
    n = len(fns)
    if not (0 < split < n):
        raise WreathSplitError(f"split index {split} out of range")
    for i in range(n):
        for j in range(i + 1, n):
            o = oscillation(fns[i], fns[j])
            if o == 0:
                raise WreathSplitError(
                    f"oscillation 0 between elements {i},{j}: not all-positive")
            if i < split <= j and o != 1:
                raise WreathSplitError(
                    f"cross oscillation {o} between elements {i},{j}: not a *-split")
    b_part, c_part = fns[:split], fns[split:]
    lo = min(f.min_transition for f in b_part)
    hi = max(f.max_transition for f in b_part)
    for c in c_part:
        ru, rv, _ = c.orbitals[-1]
        if not (ru < lo and hi < rv):
            raise WreathSplitError(
                f"witness ({lo},{hi}) not inside the rightmost orbital of {c!r}")
        for b in c.bumps:
            for flo, fhi in b.feet:
                if max(flo, lo) < min(fhi, hi):
                    raise WreathSplitError(
                        f"witness ({lo},{hi}) meets a foot ({flo},{fhi}) of {c!r}")
    return (lo, hi)
