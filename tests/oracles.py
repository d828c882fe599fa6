"""Reference implementations that only tests use.

The equivalent forms of the (!) relation are checked against
`signature.bang_rel`, and `classify_pair` bundles a pair's order, fastness,
oscillation and standardness for the realization tests.  `is_standard_pair`
is the recursive definition of a standard pair, checked in full at every
level, for comparison with the library's single walk.  `compose_pointwise`
is PL composition by the sorted union of breakpoints evaluated pointwise,
the reference for `PLMap.then`, `inverse` and powers; `commutator` gives the
reading of "x and y commute" as "their commutator is the identity", checked
against `pred_C`.  `checked_copy` and `rescale_checked` rebuild a marked
function through the checked constructors, the reference for the trusted
transport (`rename`, `rescale_fn`, `fn_rotate`, `make_bump_fn`).
`dom_witness` and `wreath_witness` certify the domination predicate and a
wreath decomposition at a *-split.  The `*_pairwise` functions are the
signature operations and rho written one pair at a time through
`OscMatrix.val` and the pair index, the reference for the row-wise forms in
the library.

Fixtures and helpers that no command or benchmark operation uses live here
too: `tau`, the tower of omega-powers the rank tests compare against;
`render_term`, which prints a signature term back to text for the parser's
round trip; the reference sets `fig_bz_set` and `fig_g_set`;
`retrofit_slopes`, which rebuilds a set with two-piece bumps of power-of-2
slopes (3 times a power of 2 on the nesting-maximum element) and keeps its
dynamical diagram; and `excise`, which removes extraneous bumps from a fast
set one at a time.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from sigcalc.normalizer import MODES, _exp_inverse
from sigcalc.ordinal import (
    GT, OMEGA, ONE, ZERO, Ordinal, OrdinalError, ord_add, ord_cmp, ord_omega_pow)
from sigcalc.signature import (
    ONE_SIG, ZERO_SIG, OscMatrix, SigTerm, Signature, SignatureError, _pair_index, _pairs,
    _trusted, bang_rel, is_all_positive, sig_E, sig_exp, sig_shift_down)
from sigcalc.realization.genset import (
    CONTAINS, GG, INSIDE, LL, GenSet, _fast_ordered, is_fast, order_genset, oscillation,
    pair_order)
from sigcalc.realization.marked import MarkedFn, RealizationError, fn_rotate, is_standard_fn
from sigcalc.realization.plmap import PLMap

F = Fraction


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


def swapped(f: PLMap) -> PLMap:
    """The inverse of f, through the checked constructor."""
    return PLMap([(y, x) for x, y in f.points])


def compose_pointwise(f: PLMap, g: PLMap) -> PLMap:
    """f then g: the sorted union of f's breakpoints and the preimages of g's,
    each evaluated through f and g, through the checked constructor."""
    f_inv = swapped(f)
    xs = {x for x, _ in f.points}
    xs.update(f_inv(x) for x, _ in g.points)
    return PLMap([(x, g(f(x))) for x in sorted(xs)])


def power_pointwise(f: PLMap, k: int) -> PLMap:
    base = f if k > 0 else swapped(f)
    out = PLMap.identity()
    for _ in range(abs(k)):
        out = compose_pointwise(out, base)
    return out


def commutator(x: PLMap, y: PLMap) -> PLMap:
    """Apply x-inverse, y-inverse, x, then y: (yx)-inverse, then xy."""
    return y.then(x).inverse().then(x.then(y))


def checked_copy(f: MarkedFn) -> MarkedFn:
    """f rebuilt from its breakpoints and markers by the checked constructors."""
    return MarkedFn(PLMap(f.map.points), f.markers, f.name)


def rescale_checked(f: MarkedFn, lo, hi) -> MarkedFn:
    """f carried affinely into (lo,hi): every breakpoint mapped, (0,0) and
    (1,1) added, and the result put through the checked constructors."""
    lo, w = Fraction(lo), Fraction(hi) - Fraction(lo)
    pts = [(lo + w * x, lo + w * y) for x, y in f.map.points] + [(0, 0), (1, 1)]
    return MarkedFn(PLMap(pts), [lo + w * s for s in f.markers], f.name)


def fn_shape(f: MarkedFn):
    """Everything a marked function stores or derives, as comparable values."""
    return (f.map.points, f.orbitals, f.markers, f.name,
            [(b.u, b.v, b.sign, b.marker, b.tpoint) for b in f.bumps])


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


# --- signature operations one pair at a time -----------------------------------------


def violations_pairwise(a: OscMatrix) -> List[Tuple[int, int, int]]:
    out = []
    for i, j, k in itertools.combinations(range(a.n), 3):
        if not bang_rel(a.val(j, k), a.val(i, k), a.val(i, j)):
            out.append((i, j, k))
    return out


def sig_sum_pairwise(*parts: Signature) -> Signature:
    if not parts:
        return ZERO_SIG
    n = sum(p.n for p in parts)
    vals = [0] * (n * (n - 1) // 2)
    offset = 0
    labels = []
    for p in parts:
        for i, j in _pairs(p.n):
            vals[_pair_index(n, offset + i, offset + j)] = p.val(i, j)
        labels.extend(p.default_labels())
        offset += p.n
    return _trusted(n, vals, tuple(labels) if any(p.labels for p in parts) else None)


def sig_star_pairwise(a: Signature, b: Signature) -> Signature:
    if not is_all_positive(b):
        raise SignatureError("right *-factor must be an exp image (all pair values >= 1)")
    n = a.n + b.n
    vals = [0] * (n * (n - 1) // 2)
    for i, j in _pairs(a.n):
        vals[_pair_index(n, i, j)] = a.val(i, j)
    for i, j in _pairs(b.n):
        vals[_pair_index(n, a.n + i, a.n + j)] = b.val(i, j)
    for i in range(a.n):
        for j in range(b.n):
            vals[_pair_index(n, i, a.n + j)] = 1
    return _trusted(n, vals)


def sig_restrict_pairwise(a: Signature, subset) -> Signature:
    idx = sorted(set(subset))
    for i in idx:
        if not (0 <= i < a.n):
            raise SignatureError(f"base element {i} out of range")
    vals = [a.val(i, j) for i, j in itertools.combinations(idx, 2)]
    labels = None
    if a.labels is not None:
        labels = tuple(a.labels[i] for i in idx)
    return _trusted(len(idx), vals, labels)


def decompose_pairwise(a: Signature) -> List[Signature]:
    if a.n == 0:
        return []
    reach = [max((j for j in range(i + 1, a.n) if a.val(i, j) > 0), default=i)
             for i in range(a.n)]
    cuts = [0]
    frontier = 0
    for p in range(1, a.n):
        frontier = max(frontier, reach[p - 1])
        if frontier < p:
            cuts.append(p)
    cuts.append(a.n)
    return [sig_restrict_pairwise(a, range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def sig_rotate_pairwise(a: Signature) -> Signature:
    if a.n <= 1:
        return ZERO_SIG
    parts = decompose_pairwise(a)
    if len(parts) > 1:
        return sig_sum_pairwise(*parts[:-1], sig_rotate_pairwise(parts[-1]))
    n = a.n - 1
    new_n = a.n
    vals = [0] * (new_n * (new_n - 1) // 2)
    for i in range(n):
        vals[_pair_index(new_n, 0, i + 1)] = a.val(i, n) - 1
    for i, j in _pairs(n):
        vals[_pair_index(new_n, i + 1, j + 1)] = a.val(i, j)
    labels = None
    if a.labels is not None:
        labels = (f"{a.labels[n]}^o",) + tuple(a.labels[:n])
    return _trusted(new_n, vals, labels)


def sig_to_doc_pairwise(a: Signature) -> dict:
    doc = {"n": a.n, "o": {f"{i},{j}": a.val(i, j) for i, j in _pairs(a.n)}}
    if a.labels is not None:
        doc["labels"] = list(a.labels)
    return doc


def eval_term_pairwise(t: SigTerm) -> Signature:
    """eval_term with the pairwise sum and star."""
    args = [eval_term_pairwise(x) for x in t.args]
    if t.op == "zero":
        return ZERO_SIG
    if t.op == "one":
        return ONE_SIG
    if t.op == "sum":
        return sig_sum_pairwise(*args)
    if t.op == "star":
        return sig_star_pairwise(*args)
    return sig_exp(args[0]) if t.op == "exp" else sig_E(args[0])


def rho_pairwise(a: Signature, mode: str = "sorted") -> Ordinal:
    """rho as one recursion that decomposes every signature it meets and
    reads the top column pair by pair."""
    if mode not in MODES:
        raise SignatureError(f"unknown rho mode {mode!r}")
    if a.n == 0:
        return ZERO
    if a.n == 1:
        return ONE
    parts = decompose_pairwise(a)
    if len(parts) > 1:
        ranks = [rho_pairwise(p, "ordered") for p in parts]
        if mode == "sorted":
            ranks.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
        total = ZERO
        for r in ranks:
            total = ord_add(total, r)
        return total
    if is_all_positive(a):
        return ord_omega_pow(rho_pairwise(sig_shift_down(a), "ordered"), shifted=True)
    top = a.n - 1
    low = [i for i in range(top) if a.val(i, top) == 1]
    high = [i for i in range(top) if a.val(i, top) > 1]
    if not low:
        raise SignatureError("mixed case without an oscillation-1 row")
    b_part = sig_restrict_pairwise(a, low)
    exp_part = sig_restrict_pairwise(a, high + [top])
    best = None
    for summand in decompose_pairwise(b_part):
        r = rho_pairwise(summand, "ordered")
        if best is None or ord_cmp(r, best) == GT:
            best = r
    c = sig_shift_down(exp_part)
    return ord_omega_pow(ord_add(_exp_inverse(best), rho_pairwise(c, "ordered")), shifted=True)


def tau(k: int) -> Ordinal:
    """The tower tau_0 = 2, tau_1 = omega, tau_(k+1) = omega^tau_k (k >= 1)."""
    if k < 0:
        raise OrdinalError("tau requires k >= 0")
    if k == 0:
        return Ordinal.from_int(2)
    t = OMEGA
    for _ in range(k - 1):
        t = ord_omega_pow(t)
    return t


# --- reference sets -----------------------------------------------------------


def _scaled_bumps(spec, denom, name):
    """MarkedFn from (u, v, sign) orbital triples in integer coordinates,
    with two-piece bumps and feet the outer sixteenths."""
    pts = [(F(0), F(0)), (F(1), F(1))]
    markers = []
    for u, v, sign in spec:
        u, v = F(u, denom), F(v, denom)
        d = (v - u) / 16
        a, b = u + d, v - d
        pts += [(u, u), (v, v)]
        pts.append((a, b) if sign > 0 else (b, a))
        markers.append(a)
    return MarkedFn(PLMap(pts), markers, name)


def fig_bz_set() -> GenSet:
    """The B + Z generating set: a two-orbital top a, an inner bump b
    straddling its expansion point, and a disjoint bump c on the right."""
    a = _scaled_bumps([(24, 48, -1), (48, 72, +1)], 120, "a")
    b = _scaled_bumps([(36, 60, +1)], 120, "b")
    c = _scaled_bumps([(84, 108, +1)], 120, "c")
    return order_genset([b, a, c])


def fig_g_set() -> GenSet:
    """The three-generator set G: a four-orbital f containing g containing h."""
    f = _scaled_bumps([(0, 24, -1), (24, 48, -1), (48, 72, +1), (72, 96, +1)], 96, "f")
    g = _scaled_bumps([(12, 84, +1)], 96, "g")
    h = _scaled_bumps([(36, 60, +1)], 96, "h")
    return order_genset([h, g, f])


# --- slope retrofit -----------------------------------------------------------


def retrofit_slopes(fns: Sequence[MarkedFn]) -> GenSet:
    """Rebuild every bump with two affine pieces, keeping all transition
    points and shrinking feet into the original feet; the nesting-maximum
    element uses slopes from 3*2^k, everything else from 2^k.  The dynamical
    diagram is unchanged."""
    fns = order_genset(fns)
    if not fns:
        return []
    top = fns[-1]
    for f in fns[:-1]:
        if pair_order(f, top) != INSIDE:
            raise RealizationError("slope retrofit needs a nesting-maximum element")
    out = []
    for f in fns:
        scale = 3 if f is top else 1
        pts = [(F(0), F(0)), (F(1), F(1))]
        markers = []
        for b in f.bumps:
            x_star, y_star = _two_piece(b.u, b.v, b.marker, b.tpoint, b.sign, scale)
            pts += [(b.u, b.u), (b.v, b.v)]
            pts.append((x_star, y_star))
            markers.append(x_star if b.sign > 0 else y_star)
        out.append(MarkedFn(PLMap(pts), markers, f.name))
    return out


def _two_piece(u, v, foot_a, foot_b, sign, scale):
    """Interior breakpoint for a two-piece bump on (u,v) with slopes in
    scale*2^k, feet inside (u,foot_a] and [foot_b,v).

    Returns (x*, y*) with y* = image of x*; for a positive bump the pieces
    have slopes lam1 > 1 > lam2 and feet (u,x*) and [y*,v); for a negative
    bump the feet are (u,y*) and [x*,v).
    """
    w = v - u
    for k in range(2, 64):
        lam1 = F(scale * 2 ** k)
        lam2 = F(scale, 2 ** k)
        if sign > 0:
            x_star = u + w * (1 - lam2) / (lam1 - lam2)
            y_star = u + lam1 * (x_star - u)
            if x_star <= foot_a and y_star >= foot_b:
                return x_star, y_star
        else:
            x_star = u + w * (lam1 - 1) / (lam1 - lam2)
            y_star = u + lam2 * (x_star - u)
            if y_star <= foot_a and x_star >= foot_b:
                return x_star, y_star
    raise RealizationError("could not fit two-piece slopes inside the feet")


# --- excision -----------------------------------------------------------------


def _isolated_bumps(fns: Sequence[MarkedFn]) -> List[Tuple[int, int]]:
    """Bumps whose support contains no transition point of the set."""
    pts = []
    for f in fns:
        pts.extend(f.transition_points())
    pts.sort()
    out = []
    for fi, f in enumerate(fns):
        for bi, b in enumerate(f.bumps):
            if not any(b.u < t < b.v for t in pts):
                out.append((fi, bi))
    return out


def _drop_bump(f: MarkedFn, bi: int) -> MarkedFn:
    bumps = f.bumps
    target = bumps[bi]
    pts = [(p, p) for p in (target.u, target.v)]
    pts += [(x, y) for x, y in f.map.points if not (target.u < x < target.v)]
    markers = [b.marker for j, b in enumerate(bumps) if j != bi]
    return MarkedFn(PLMap(pts), markers, f.name)


def excise(fns: Sequence[MarkedFn]) -> GenSet:
    """Iteratively remove extraneous bumps until none remain.

    An extraneous set consists of isolated bumps whose removal leaves every
    function with at least one bump.  One bump is removed per round: from a
    function with more positive than negative bumps, the rightmost isolated
    bump; with balanced counts, the leftmost.
    """
    fns = _fast_ordered(fns, "excision")
    while True:
        isolated = _isolated_bumps(fns)
        removable = [(fi, bi) for fi, bi in isolated if len(fns[fi].bumps) >= 2]
        if not removable:
            return order_genset(fns)
        by_fn = {}
        for fi, bi in removable:
            by_fn.setdefault(fi, []).append(bi)
        fi = min(by_fn)
        f = fns[fi]
        npos = sum(1 for b in f.bumps if b.sign > 0)
        nneg = len(f.bumps) - npos
        bi = max(by_fn[fi]) if npos > nneg else min(by_fn[fi])
        fns[fi] = _drop_bump(f, bi)


def render_term(t: SigTerm) -> str:
    """A signature term as text that `parse_term` reads back to t."""
    if t.op == "zero":
        return "0"
    if t.op == "one":
        return "1"
    if t.op == "sum":
        return "+".join(render_term(x) for x in t.args)
    if t.op == "star":
        def wrap(x):
            s = render_term(x)
            return f"({s})" if x.op == "sum" else s
        return "*".join(wrap(x) for x in t.args)
    if t.op == "exp":
        return f"exp({render_term(t.args[0])})"
    return f"E({render_term(t.args[0])})"
