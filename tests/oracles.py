"""Reference implementations that only tests use.

The equivalent forms of the (!) relation are checked against
`signature.bang_rel`, and `classify_pair` bundles a pair's order, fastness,
oscillation and standardness for the realization tests.  `pair_relation` is
the five-way order of a pair (<<, inside, contains, >>, incomparable), read
from `ext_components`, the components of a function's extended support, and
`oscillation` the counting definition (orbitals of the larger function
holding a transition point of the smaller, from `transition_points`), the
reference for the values the library reads off its standardness walk.
`is_standard_pair` is the recursive definition of a standard pair, checked
in full at every level, for comparison with the library's single walk.
`compose_pointwise` is PL composition by the sorted union of breakpoints
evaluated pointwise, the reference for `PLMap.then`, `inverse` and powers;
`pred_C_products`
is "x and y commute" with both products built in full, and `commutator`
its reading as "their commutator is the identity", both checked against
`pred_C`.  `eval_pointwise` is one-point evaluation by Fraction
interpolation between the breakpoints, the reference for `PLMap._at`, and
`genset_to_json_dumps` the generating-set writer through `json.dumps`, the
reference for `genset_to_json`.  `increasing_points` is the check and
the canonical form of `PLMap(points)` written on Fractions, point by point,
the reference for the checked constructor's check read from its slopes,
and `ratio_by_regex` reads a coordinate string with the regular expression
`_RATIO`, the reference for the grammar `plmap.ratio` checks by hand.
`checked_copy` and `rescale_checked`
rebuild a marked function through the checked constructors, the reference
for the trusted transport (`transport`, `fn_rotate`, `marked._bump`).
`make_bump_fn` builds a two-piece bump through the checked constructors
from checked parameters, and `canonical_bump` (feet the outer sixteenths)
and `midpoint_bump` (the midpoint mapped to the 3/4 point) through it: the
tests' one-bump fixtures, and the references for `marked._bump`'s unit
bump, single-bump wrap top and one-bump rotation.
`frac` reads a marked function's reduced integer pair as a Fraction, and
`order_genset` sorts a set by the Fraction of each function's maximum
transition point, the reference for the order `genset._fast_ordered` reads
off its integer keys.
`wrap_two_by_spans` and `wrap_general_by_spans` are the build's wraps as
they read the retained feet through `obstacles_by_spans`: every foot end
over one `lcm` of all their denominators, sorted, and merged into spans,
clipped to (u, v) for the two-orbital top; the reference for the one pass
of `build._wrap_general`, and for `build._wrap_two`, which reads no retained
foot, as none has an end inside (u, v).
`signatures_by_columns` enumerates signatures by a search over the pairs
with no bound on the base, the reference for the order of
`enumerate_signatures` and the enumeration of `tests/sweep_realize.py`.
`dom_witness` and `wreath_witness` certify the domination predicate and a
wreath decomposition at a *-split.  The `*_pairwise` functions are the
signature operations and rho written one pair at a time through
`Signature.val` and the pair index, the reference for the row-wise forms in
the library; `violations_pairwise` tests `bang_rel` on every triple
i < j < k, the reference for `Signature.violations`, and
`sig_to_doc_pairwise` is the document that `json.dumps(doc, sort_keys=True)`
prints as `sig_to_json`; `pair_key_by_split` reads a document's "i,j" key
by splitting it at every comma, the reference for the one `partition` of
`sig_from_json`.  `sig_inflate_pairwise` is inflation filled through
position tables and an infinity sentinel for o(m,m), the reference for the
one-pass `sig_inflate`.  `eval_term_pairwise` evaluates a `SigTerm` tree with them.
`parse_term_recursive` reads a term by recursive descent over its characters,
evaluating each node with the signature operations, the reference for the
one-pass `parse_term`.
`checked_ordinal` is `Ordinal`'s checked constructor, which the tests
rebuild the arithmetic's results and their random ordinals through, and
which alone raises `OrdinalError`.  `LT`, `EQ` and `GT` name the values of
`ord_cmp`.
`ord_cmp_by_terms`, `ord_add_by_terms` and `ord_natural_add_by_terms` are
the ordinal order, sum and natural sum written term by term with a recursive
comparison, the reference for the tuple order that `Ordinal` inherits and
for the arithmetic built on it; `rho_pairwise` and the test generators of
ordinals sort with `ord_cmp_by_terms`.

Fixtures and helpers that no command or benchmark operation uses live here
too: `tau`, the tower of omega-powers the rank tests compare against;
`SigTerm`, an expression tree over {zero, one, sum, star, exp, E} that the
random term generator builds, and `render_term`, which prints it as text for
`parse_term`; `_slopes`, the Fraction slopes of a list of breakpoints; the
reference sets `fig_bz_set` and `fig_g_set`;
`retrofit_slopes`, which rebuilds a set with two-piece bumps of power-of-2
slopes (3 times a power of 2 on the nesting-maximum element) and keeps its
dynamical diagram; and `excise`, which removes extraneous bumps from a fast
set one at a time.
"""

import functools
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from sigcalc.normalizer import MODES, _exp_inverse
from sigcalc.ordinal import MAX_NESTING, OMEGA, ONE, ZERO, Ordinal, ord_add, ord_omega_pow
from sigcalc.signature import (
    MAX_BASE, ONE_SIG, ZERO_SIG, RealizationError, Signature, SignatureError, TermParseError,
    _pair_index, _pairs, _trusted, bang_rel, is_all_positive, sig_exp, sig_shift_down, sig_sum)
from sigcalc.realization.genset import GenSet, _fast_ordered, is_fast
from sigcalc.realization.marked import MarkedFn, fn_rotate, is_standard_fn
from sigcalc.realization.build import A_NEG, B_POS, L0, M1, M2, R0
from sigcalc.realization.plmap import PLError, PLMap, Pair, _lt, _minimal, _quads, _reduced, keys

F = Fraction
LT, EQ, GT = -1, 0, 1


class OrdinalError(ValueError):
    pass


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


LL, INSIDE, CONTAINS, GG, INCOMPARABLE = "<<", "in", "contains", ">>", "incomparable"


def ext_components(f: MarkedFn) -> List[Tuple[Fraction, Fraction]]:
    """Extended support: the interior of the closure of the support, as its
    components (u, v) left to right."""
    out: List[Tuple[Fraction, Fraction]] = []
    for u, v, _ in f.orbitals:
        if out and out[-1][1] == frac(u):
            out[-1] = (out[-1][0], frac(v))
        else:
            out.append((frac(u), frac(v)))
    return out


def pair_relation(f: MarkedFn, g: MarkedFn) -> str:
    """The five-way order of a pair, read from the extended supports:
    f << g (f left of g), f inside g (each component of f's inside one of
    g's), f contains g, f >> g, or incomparable."""
    cf, cg = ext_components(f), ext_components(g)
    if cf[-1][1] <= cg[0][0]:
        return LL
    if cg[-1][1] <= cf[0][0]:
        return GG
    if all(any(a < u and v < b for a, b in cg) for u, v in cf):
        return INSIDE
    if all(any(a < u and v < b for a, b in cf) for u, v in cg):
        return CONTAINS
    return INCOMPARABLE


def transition_points(f: MarkedFn) -> list:
    """The orbital ends of f, left to right, each once."""
    pts = []
    for u, v, _ in f.orbitals:
        if not pts or pts[-1] != u:
            pts.append(u)
        pts.append(v)
    return pts


def _inside_oscillation(small: MarkedFn, big: MarkedFn) -> int:
    """Orbitals of big containing a transition point of small."""
    pts = [frac(t) for t in transition_points(small)]
    return sum(1 for u, v, _ in big.orbitals if any(frac(u) < t < frac(v) for t in pts))


def oscillation(f: MarkedFn, g: MarkedFn) -> int:
    """The counting definition: orbitals of the larger function containing a
    transition point of the smaller; 0 for disjoint extended supports.  The
    reference for the step count of `genset._standard_walk`."""
    rel = pair_relation(f, g)
    if rel in (LL, GG):
        return 0
    if rel == INSIDE:
        return _inside_oscillation(f, g)
    if rel == CONTAINS:
        return _inside_oscillation(g, f)
    raise RealizationError("oscillation undefined for incomparable pair")


def is_standard_pair(f: MarkedFn, g: MarkedFn, fuel: int = 200) -> bool:
    """{f,g} fast, both standard, and either f << g, or f inside g with
    (g rotated, f) again standard."""
    if fuel == 0:
        raise RealizationError("standard-pair recursion did not terminate")
    if not (is_standard_fn(f) and is_standard_fn(g) and is_fast([f, g])):
        return False
    rel = pair_relation(f, g)
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
    rel = pair_relation(f, g)
    fast = is_fast([f, g])
    osc = None
    if fast and rel in (LL, GG, INSIDE, CONTAINS):
        osc = oscillation(f, g)
    standard = rel in (LL, INSIDE) and fast and is_standard_pair(f, g)
    return PairInfo(rel, fast, osc, standard)


def _slopes(points: Tuple[Tuple[Fraction, Fraction], ...]) -> Tuple[Fraction, ...]:
    return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:]))


def increasing_points(points) -> List[Tuple[Fraction, Fraction]]:
    """The distinct points as Fractions, sorted stably by x, checked to run
    from (0,0) to (1,1) with every consecutive pair increasing in both
    coordinates, and without the interior points where the slope does not
    change; PLError, with the checked constructor's message, otherwise."""
    pts = sorted(dict.fromkeys((Fraction(x), Fraction(y)) for x, y in points),
                 key=lambda p: p[0])
    if not pts or pts[0] != (0, 0) or pts[-1] != (1, 1):
        raise PLError("breakpoints must run from (0,0) to (1,1)")
    if any(x2 <= x1 or y2 <= y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:])):
        raise PLError("breakpoints must be strictly increasing in both coordinates")
    slopes = _slopes(pts)
    return [pts[0], *(p for p, s, t in zip(pts[1:], slopes, slopes[1:]) if s != t), pts[-1]]


# An optionally signed integer, or a fraction n/d with d > 0, blanks around
# it; digits are any Unicode decimal digits, but a denominator's leading
# zeros are ASCII "0"s before an ASCII 1-9.
_RATIO = re.compile(r"\s*([+-]?\d+)(?:/(0*[1-9]\d*))?\s*")


def ratio_by_regex(text: str) -> Tuple[int, int]:
    """A coordinate string as a reduced (n, d) pair, read with `_RATIO`;
    ValueError, with `plmap.ratio`'s message, for any other string."""
    m = _RATIO.fullmatch(text)
    if m is None:
        raise ValueError(f"not an integer or a fraction n/d with d > 0: {text[:40]!r}")
    return Fraction(int(m[1]), int(m[2] or 1)).as_integer_ratio()


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


def eval_pointwise(f: PLMap, x: Fraction) -> Fraction:
    """f(x) for x in [0,1], interpolated in Fractions between the two
    breakpoints around x."""
    pts = f.points
    k = max(i for i, (px, _) in enumerate(pts) if px <= x)
    (x1, y1), (x2, y2) = pts[k], pts[min(k + 1, len(pts) - 1)]
    return y1 if x == x1 else y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def genset_to_json_dumps(fns: Sequence[MarkedFn]) -> str:
    """A generating set as JSON through `json.dumps(doc, indent=2)`, each
    number a string "n" or "n/d"."""
    def text(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    doc = []
    for f in fns:
        entry = {
            "breakpoints": [[text(x), text(y)] for x, y in f.map.points],
            "markers": [text(frac(s)) for s in f.markers],
        }
        if f.name:
            entry["name"] = f.name
        doc.append(entry)
    return json.dumps(doc, indent=2)


def power_pointwise(f: PLMap, k: int) -> PLMap:
    base = f if k > 0 else swapped(f)
    out = PLMap.identity()
    for _ in range(abs(k)):
        out = compose_pointwise(out, base)
    return out


def pred_C_products(x: PLMap, y: PLMap) -> bool:
    """xy = yx, with both products built in full and compared."""
    return x.then(y) == y.then(x)


def commutator(x: PLMap, y: PLMap) -> PLMap:
    """Apply x-inverse, y-inverse, x, then y: (yx)-inverse, then xy."""
    return y.then(x).inverse().then(x.then(y))


def checked_copy(f: MarkedFn) -> MarkedFn:
    """f rebuilt from its breakpoints and markers by the checked constructors."""
    return MarkedFn(PLMap(f.map.points), [frac(s) for s in f.markers], f.name)


def make_bump_fn(u, v, a, b, sign: int = 1, name: Optional[str] = None) -> MarkedFn:
    """A two-piece bump on (u,v) with feet (u,a) and [b,v), built by the
    checked constructors; RealizationError unless 0 <= u < a < b < v <= 1.
    The interior breakpoint is (a,b) for a positive bump and (b,a) for a
    negative one; in both cases the marker is a."""
    u, v, a, b = F(u), F(v), F(a), F(b)
    if not 0 <= u < a < b < v <= 1:
        raise RealizationError(f"bad bump parameters ({u},{v},{a},{b})")
    inner = (a, b) if sign > 0 else (b, a)
    return MarkedFn(PLMap([(0, 0), (u, u), inner, (v, v), (1, 1)]), [a], name)


def canonical_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v) with feet the outer sixteenths of the orbital."""
    u, v = F(u), F(v)
    return make_bump_fn(u, v, (15 * u + v) / 16, (u + 15 * v) / 16, 1, name)


def midpoint_bump(u, v, name: Optional[str] = None) -> MarkedFn:
    """Positive bump on (u,v): interior breakpoint at the midpoint mapping to
    the 3/4 point, marker at the midpoint."""
    u, v = F(u), F(v)
    return make_bump_fn(u, v, (u + v) / 2, (u + 3 * v) / 4, 1, name)


def rescale_checked(f: MarkedFn, lo, hi) -> MarkedFn:
    """f carried affinely into (lo,hi): every breakpoint mapped, (0,0) and
    (1,1) added, and the result put through the checked constructors."""
    lo, w = Fraction(lo), Fraction(hi) - Fraction(lo)
    pts = [(lo + w * x, lo + w * y) for x, y in f.map.points] + [(0, 0), (1, 1)]
    return MarkedFn(PLMap(pts), [lo + w * frac(s) for s in f.markers], f.name)


def frac(p: Tuple[int, int]) -> Fraction:
    """A reduced (n, d) pair of a marked function as the Fraction n/d."""
    return Fraction(*p)


def order_genset(fns: Sequence[MarkedFn]) -> GenSet:
    """fns sorted by maximum transition point, the right end of the last
    orbital, as a Fraction; ties keep their order."""
    return sorted(fns, key=lambda f: frac(f.orbitals[-1][1]))


def fn_shape(f: MarkedFn):
    """Everything a marked function stores or derives, as comparable values."""
    return (f.map.points, f.map._orbitals(), f.orbitals, f.markers, f.name, f.feet)


def obstacles_by_spans(placed, *points: Pair) -> Tuple[int, List[int], List[List[int]]]:
    """Closures of all feet of the placed functions, carried by their frames,
    merged and sorted, which new feet must avoid, and the given points, as
    integer keys over one denominator: (denominator, point keys, [lo, hi] spans).
    A foot's end is carried unreduced, (a d + b n, c d), as `keys` needs no
    reduced pair; the denominator may then hold a spare factor, which the
    wraps drop, as they reduce every point they make."""
    ends = [(a * d + b * n, c * d) for f, (a, b, c) in placed for foot in f.feet for n, d in foot]
    den, k = keys(list(points) + ends)
    merged: List[List[int]] = []
    for lo, hi in sorted(zip(k[len(points)::2], k[len(points) + 1::2])):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(hi, merged[-1][1])
        else:
            merged.append([lo, hi])
    return den, k[:len(points)], merged


def wrap_two_by_spans(u: Pair, v: Pair, others) -> MarkedFn:
    """Two-orbital top with expansion point inside the widest gap between
    the retained functions' feet in (u, v), the placed support of the
    rotated top, the unit bump; used when the maximum oscillation against
    the top is 2.  Canonical as written: reduced pairs, and no collinear
    point, as each point off the diagonal lies between two on it.  The gap
    is not empty: the rotated build is fast, so no retained foot meets the
    rotated top's left foot."""
    den, (u, v), spans = obstacles_by_spans(others, u, v)
    walls = sorted([(u, u), (v, v)]
                   + [(max(lo, u), min(hi, v)) for lo, hi in spans if hi > u and lo < v])
    x, y = max(((b, c) for (_, b), (c, _) in zip(walls, walls[1:])), key=lambda g: g[1] - g[0])
    # x + step, x + 2 step and x + 4 step for a step of (y - x) / 6
    b1, c = _reduced(5 * x + y, 6 * den), _reduced(2 * x + y, 3 * den)
    sa = _reduced(x + 2 * y, 3 * den)
    # a negative piece through (b1, A_NEG), then a positive one through (sa, B_POS)
    bp = (0, 1, 0, 1, *L0, *L0, *b1, *A_NEG, *c, *c, *sa, *B_POS, *R0, *R0, 1, 1, 1, 1)
    return MarkedFn._trusted(PLMap._make(bp, None, ((L0, c, -1), (c, R0, 1))), (A_NEG, sa))


def wrap_general_by_spans(t: MarkedFn, others) -> MarkedFn:
    """New negative orbital left of, and positive orbital right of, the
    rotated top's orbitals; the middle reuses the rotated top verbatim.
    The rotated top is standard, as realized functions are, and each wall
    lies outside its support (u_t, v_t): a foot's end, or M1 or M2, as every
    build's supports lie in [L0, R0], so in (M1, M2) after MIDDLE."""
    u_t, v_t = t.orbitals[0][0], t.orbitals[-1][1]
    den, (u, v, m1, m2), spans = obstacles_by_spans(others, u_t, v_t, M1, M2)
    left_wall = max([hi for lo, hi in spans if hi < u], default=m1)
    right_wall = min([lo for lo, hi in spans if lo > v], default=m2)
    b_neg, a_pos = _reduced(left_wall + u, 2 * den), _reduced(v + right_wall, 2 * den)
    quads = [(0, 1, 0, 1), L0 + L0, b_neg + A_NEG]
    quads += [q for q in _quads(t.map._bp) if not (_lt(q[:2], u_t) or _lt(v_t, q[:2]))]
    quads += [a_pos + B_POS, R0 + R0, (1, 1, 1, 1)]
    orbs = ((L0, u_t, -1), *t.orbitals, (v_t, R0, 1))
    bp, _ = _minimal(quads)  # slopes are derived again if the top is ever composed
    return MarkedFn._trusted(PLMap._make(bp, None, orbs), (A_NEG, *t.markers, a_pos))


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
    lo = min(frac(f.orbitals[0][0]) for f in b_part)
    hi = max(frac(f.orbitals[-1][1]) for f in b_part)
    for c in c_part:
        ru, rv, _ = c.orbitals[-1]
        if not (frac(ru) < lo and hi < frac(rv)):
            raise WreathSplitError(
                f"witness ({lo},{hi}) not inside the rightmost orbital of {c!r}")
        for u, s, t, v in c.feet:
            for flo, fhi in ((u, s), (t, v)):
                flo, fhi = frac(flo), frac(fhi)
                if max(flo, lo) < min(fhi, hi):
                    raise WreathSplitError(
                        f"witness ({lo},{hi}) meets a foot ({flo},{fhi}) of {c!r}")
    return (lo, hi)


class SigTerm:
    """Expression tree over {zero, one, sum, star, exp, E}."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple["SigTerm", ...] = ()):
        if op not in ("zero", "one", "sum", "star", "exp", "E"):
            raise SignatureError(f"unknown term operation {op!r}")
        self.op = op
        self.args = args

    def __eq__(self, other):
        return isinstance(other, SigTerm) and (self.op, self.args) == (other.op, other.args)

    def __hash__(self):
        return hash((self.op, self.args))

    def __repr__(self):
        return f"SigTerm({self.op!r}, {self.args!r})"


# --- signature operations one pair at a time -----------------------------------------


def violations_pairwise(a: Signature) -> List[Tuple[int, int, int]]:
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
    """a * b written row by row: each of a's rows followed by b.n ones (a's
    elements against b's), then b's values."""
    if 0 in b.vals:
        raise SignatureError("right *-factor must be an exp image (all pair values >= 1)")
    vals, start = [], 0
    for i in range(a.n):
        end = start + a.n - 1 - i
        vals += a.vals[start:end]
        vals += [1] * b.n
        start = end
    vals += b.vals
    return _trusted(a.n + b.n, vals)


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


def pair_key_by_split(key: str) -> Optional[Tuple[int, int]]:
    """A signature document's "i,j" key as `key.split(",")` and `int` on
    each part read it: the pair, or None where that reading is refused."""
    try:
        i, j = (int(x) for x in key.split(","))
    except ValueError:
        return None
    return i, j


def sig_to_doc_pairwise(a: Signature) -> dict:
    doc = {"n": a.n, "o": {f"{i},{j}": a.val(i, j) for i, j in _pairs(a.n)}}
    if a.labels is not None:
        doc["labels"] = list(a.labels)
    return doc


def eval_term_pairwise(t: SigTerm) -> Signature:
    """The signature of a term tree, with the pairwise sum and star."""
    args = [eval_term_pairwise(x) for x in t.args]
    if t.op == "zero":
        return ZERO_SIG
    if t.op == "one":
        return ONE_SIG
    if t.op == "sum":
        return sig_sum_pairwise(*args)
    if t.op == "star":
        return sig_star_pairwise(*args)
    return sig_exp(args[0]) if t.op == "exp" else sig_exp(sig_exp(args[0]))


class _RecursiveTermReader:
    """A recursive descent over the characters of a term that evaluates each
    node with the signature operations as it reads it.  A failed star is
    raised only after the whole text parses."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.base = 0
        self.star_error: Optional[SignatureError] = None

    def error(self, message: str):
        raise TermParseError(message, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def group(self) -> Signature:
        self.eat("(")
        if self.depth == MAX_NESTING:
            self.error(f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.eat(")")
        return value

    def expr(self) -> Signature:
        parts = [self.term()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else sig_sum(*parts)

    def term(self) -> Signature:
        value = self.atom()
        while self.peek() == "*":
            self.pos += 1
            right = self.atom()
            try:
                value = sig_star_pairwise(value, right)
            except SignatureError as e:
                self.star_error = self.star_error or e
        return value

    def atom(self) -> Signature:
        ch = self.peek()
        if ch == "0":
            self.pos += 1
            return ZERO_SIG
        if ch == "1":
            if self.base == MAX_BASE:
                self.error(f"base larger than {MAX_BASE}")
            self.base += 1
            self.pos += 1
            return ONE_SIG
        if ch == "(":
            return self.group()
        if self.text.startswith("exp", self.pos):
            self.pos += 3
            return sig_exp(self.group())
        if ch == "E":
            self.pos += 1
            return sig_exp(sig_exp(self.group()))
        self.error("expected '0', '1', 'exp(', 'E(' or '('")


def parse_term_recursive(text: str) -> Signature:
    """`parse_term` as a recursive descent, the reference for its one-pass
    reader: the same signature, or the same error and position."""
    p = _RecursiveTermReader(text)
    value = p.expr()
    if p.peek():
        p.error("trailing input")
    if p.star_error:
        raise p.star_error
    return value


def sig_inflate_pairwise(a: Signature, m: int) -> Signature:
    """Symbolic inflation at base element m.

    Adjoins a conjugate i^m for each i < m with o(i,m) > 0.  The new base
    order is: originals below m, then conjugates in order, then m and above.
    New values use the min-formulas with the convention o(m,m) = infinity;
    the sentinel never appears in the output.
    """
    if not (0 <= m < a.n):
        raise SignatureError(f"base element {m} out of range")
    conj = [i for i in range(m) if a.val(i, m) > 0]
    INF = float("inf")

    def old(i: int, j: int):
        if i == j:
            return INF
        return a.val(min(i, j), max(i, j))

    # new base: 0..m-1, then conjugates c^m (c in conj), then m..n-1
    n_new = a.n + len(conj)
    pos_orig = {i: i for i in range(m)}
    pos_conj = {c: m + t for t, c in enumerate(conj)}
    pos_high = {k: k + len(conj) for k in range(m, a.n)}
    vals = [0] * (n_new * (n_new - 1) // 2)

    def put(p: int, q: int, v):
        if v == INF or not isinstance(v, int):
            raise SignatureError("infinity sentinel escaped inflation")
        vals[_pair_index(n_new, min(p, q), max(p, q))] = v

    for i, j in _pairs(m):  # originals below m, unchanged
        put(pos_orig[i], pos_orig[j], a.val(i, j))
    for i in range(m):  # original below m vs m and above, unchanged
        for k in range(m, a.n):
            put(pos_orig[i], pos_high[k], a.val(i, k))
    for k1, k2 in _pairs(a.n):  # m and above, unchanged
        if k1 >= m:
            put(pos_high[k1], pos_high[k2], a.val(k1, k2))
    for ci, cj in itertools.combinations(conj, 2):  # conjugate vs conjugate
        put(pos_conj[ci], pos_conj[cj], a.val(ci, cj))
    for i in range(m):  # original below m vs conjugate
        for j in conj:
            put(pos_orig[i], pos_conj[j], min(a.val(j, m) - 1, a.val(i, m)))
    for i in conj:  # conjugate vs m and above
        for k in range(m, a.n):
            v = min(old(i, m), old(m, k))
            put(pos_conj[i], pos_high[k], int(v))

    labels = None
    src = a.default_labels()
    if conj:
        lm = src[m]
        lm = lm if len(lm) == 1 else f"({lm})"
        new_labels = [src[i] for i in range(m)]
        new_labels += [f"{src[c]}^{lm}" for c in conj]
        new_labels += [src[k] for k in range(m, a.n)]
        labels = tuple(new_labels)
    elif a.labels is not None:
        labels = a.labels
    return _trusted(n_new, vals, labels)


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
            ranks.sort(key=functools.cmp_to_key(ord_cmp_by_terms), reverse=True)
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
        if best is None or ord_cmp_by_terms(r, best) == GT:
            best = r
    c = sig_shift_down(exp_part)
    return ord_omega_pow(ord_add(_exp_inverse(best), rho_pairwise(c, "ordered")), shifted=True)


def checked_ordinal(terms) -> Ordinal:
    """The checked constructor of `Ordinal`: the ordinal of CNF terms, each
    an (Ordinal exponent, int coefficient >= 1) pair with exponents strictly
    decreasing, or of an int n >= 0; OrdinalError otherwise.  A bool is no
    int here, as True would equal and hash as 1."""
    if isinstance(terms, int):
        if type(terms) is bool:
            raise OrdinalError(f"bad CNF coefficient {terms!r}")
        if terms < 0:
            raise OrdinalError("ordinals are nonnegative")
        return Ordinal.from_int(terms)
    terms = tuple(terms)
    for exp, coeff in terms:
        if not isinstance(exp, Ordinal) or type(coeff) is bool or not isinstance(coeff, int):
            raise OrdinalError(f"bad CNF term ({exp!r}, {coeff!r})")
        if coeff < 1:
            raise OrdinalError(f"coefficient {coeff} < 1")
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e1 <= e2:
            raise OrdinalError("CNF exponents not strictly decreasing")
    return Ordinal(terms)


def ord_cmp_by_terms(a: Ordinal, b: Ordinal) -> int:
    """The order of CNF ordinals compared term by term: exponent, then
    coefficient, then length; returns LT, EQ or GT."""
    for (e1, c1), (e2, c2) in zip(a, b):
        c = ord_cmp_by_terms(e1, e2)
        if c != EQ:
            return c
        if c1 != c2:
            return LT if c1 < c2 else GT
    if len(a) == len(b):
        return EQ
    return LT if len(a) < len(b) else GT


def ord_add_by_terms(a: Ordinal, b: Ordinal) -> Ordinal:
    """The ordinal sum with the absorbed terms of `a` found by
    `ord_cmp_by_terms`."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    e = b[0][0]
    keep = []
    merge_coeff = 0
    for exp, coeff in a:
        c = ord_cmp_by_terms(exp, e)
        if c == GT:
            keep.append((exp, coeff))
        elif c == EQ:
            merge_coeff = coeff
            break
        else:
            break
    if merge_coeff:
        head = (e, merge_coeff + b[0][1])
        return Ordinal(tuple(keep) + (head,) + b[1:])
    return Ordinal(tuple(keep) + b)


def ord_natural_add_by_terms(a: Ordinal, b: Ordinal) -> Ordinal:
    """The natural sum: all terms sorted by exponent with `ord_cmp_by_terms`,
    the coefficients of equal exponents added; no ordinal is hashed."""
    by_exp = functools.cmp_to_key(lambda s, t: ord_cmp_by_terms(s[0], t[0]))
    merged = []
    for exp, coeff in sorted(a + b, key=by_exp, reverse=True):
        if merged and ord_cmp_by_terms(merged[-1][0], exp) == EQ:
            merged[-1] = (exp, merged[-1][1] + coeff)
        else:
            merged.append((exp, coeff))
    return Ordinal(merged)


def signatures_by_columns(n: int, vmax: int) -> List[Signature]:
    """Every signature on base n with values <= vmax, with no bound on n, in
    the lexicographic order of the column key o(0,1), o(0,2), o(1,2),
    o(0,3), ...: a depth-first search over the pairs in that order, which
    checks each triple h < i < k with `bang_rel_conj` once o(i,k) is set."""
    order = [(i, k) for k in range(n) for i in range(k)]
    o, out = {}, []

    def extend(at: int) -> None:
        if at == len(order):
            out.append(_trusted(n, [o[p] for p in _pairs(n)]))
            return
        i, k = order[at]
        for v in range(vmax + 1):
            if all(bang_rel_conj(v, o[h, k], o[h, i]) for h in range(i)):
                o[i, k] = v
                extend(at + 1)

    extend(0)
    return out


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
        if pair_relation(f, top) != INSIDE:
            raise RealizationError("slope retrofit needs a nesting-maximum element")
    out = []
    for f in fns:
        scale = 3 if f is top else 1
        pts = [(F(0), F(0)), (F(1), F(1))]
        markers = []
        for (u, s, t, v), (_, _, sign) in zip(f.feet, f.orbitals):
            u, v = frac(u), frac(v)
            x_star, y_star = _two_piece(u, v, frac(s), frac(t), sign, scale)
            pts += [(u, u), (v, v)]
            pts.append((x_star, y_star))
            markers.append(x_star if sign > 0 else y_star)
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
        pts.extend(frac(t) for t in transition_points(f))
    pts.sort()
    out = []
    for fi, f in enumerate(fns):
        for bi, (u, v, _) in enumerate(f.orbitals):
            if not any(frac(u) < t < frac(v) for t in pts):
                out.append((fi, bi))
    return out


def _drop_bump(f: MarkedFn, bi: int) -> MarkedFn:
    u, v, _ = f.orbitals[bi]
    u, v = frac(u), frac(v)
    pts = [(p, p) for p in (u, v)]
    pts += [(x, y) for x, y in f.map.points if not (u < x < v)]
    markers = [frac(s) for j, s in enumerate(f.markers) if j != bi]
    return MarkedFn(PLMap(pts), markers, f.name)


def excise(fns: Sequence[MarkedFn]) -> GenSet:
    """Iteratively remove extraneous bumps until none remain.

    An extraneous set consists of isolated bumps whose removal leaves every
    function with at least one bump.  One bump is removed per round: from a
    function with more positive than negative bumps, the rightmost isolated
    bump; with balanced counts, the leftmost.
    """
    fns, _, _ = _fast_ordered(fns, "excision")
    while True:
        isolated = _isolated_bumps(fns)
        removable = [(fi, bi) for fi, bi in isolated if len(fns[fi].orbitals) >= 2]
        if not removable:
            return order_genset(fns)
        by_fn = {}
        for fi, bi in removable:
            by_fn.setdefault(fi, []).append(bi)
        fi = min(by_fn)
        f = fns[fi]
        npos = sum(1 for _, _, sign in f.orbitals if sign > 0)
        nneg = len(f.orbitals) - npos
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
