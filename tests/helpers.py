"""Shared generators for tests; everything random is seeded."""

import functools
import itertools
import json
import random
from fractions import Fraction as F

from sigcalc import normalizer
from sigcalc.ordinal import ZERO, Ordinal
from sigcalc.realization import PLMap
from sigcalc.signature import enumerate_signatures
from oracles import SigTerm, _triples, checked_ordinal, ord_cmp_by_terms


def random_ordinal(rng: random.Random, depth: int = 3, max_terms: int = 2,
                   max_coeff: int = 2) -> Ordinal:
    """A random CNF ordinal of nesting depth <= depth."""
    if depth == 0 or rng.random() < 0.35:
        return checked_ordinal(rng.randint(0, 2))
    nterms = rng.randint(1, max_terms)
    exps = []
    while len(exps) < nterms:
        e = random_ordinal(rng, depth - 1, max_terms, max_coeff)
        if all(ord_cmp_by_terms(e, x) != 0 for x in exps):
            exps.append(e)
    exps.sort(key=functools.cmp_to_key(ord_cmp_by_terms), reverse=True)
    return checked_ordinal((e, rng.randint(1, max_coeff)) for e in exps)


def cnf_box(depth: int, cmax: int):
    """Every CNF ordinal with at most 2 terms and coefficients <= cmax whose
    exponents come from the box one level down; depth 0 is 0..cmax.  With
    cmax = 2 depth 2 holds 723 ordinals; with cmax = 1 depth 3 holds 67."""
    if depth == 0:
        return [checked_ordinal(k) for k in range(cmax + 1)]
    by_terms = functools.cmp_to_key(ord_cmp_by_terms)
    exps = sorted(cnf_box(depth - 1, cmax), key=by_terms, reverse=True)
    out = [ZERO]
    for nterms in (1, 2):
        for es in itertools.combinations(exps, nterms):  # descending, distinct
            for cs in itertools.product(range(1, cmax + 1), repeat=nterms):
                out.append(checked_ordinal(zip(es, cs)))
    return out


def random_term(rng: random.Random, n: int, depth: int = 0) -> SigTerm:
    """A random signature term on a base of n elements, nesting at most 4
    deep; the right factor of a star is always an exp or E image."""
    if n == 1:
        return SigTerm("one")
    r = rng.random()
    if depth >= 4 or r < 0.35:
        cuts = sorted(rng.sample(range(1, n), rng.randint(2, min(3, n)) - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return SigTerm("sum", tuple(random_term(rng, m, depth + 1) for m in sizes))
    if r < 0.55:
        left = rng.randint(1, n - 1)
        return SigTerm("star", (random_term(rng, left, depth + 1),
                                _random_wrap(rng, n - left, depth + 1)))
    return _random_wrap(rng, n, depth + 1)


def _random_wrap(rng: random.Random, n: int, depth: int) -> SigTerm:
    op = "exp" if rng.random() < 0.75 else "E"
    return SigTerm(op, (random_term(rng, n, depth),))


def nest(opening: str, core: str, depth: int) -> str:
    """core inside depth groups, each opened by opening and closed by ')'."""
    return opening * depth + core + ")" * depth


def rank_terms():
    """24 seeded terms on a base of 8 to 12, the sizes the benchmark ranks,
    each with a base element to inflate at."""
    rng = random.Random(20171130)
    out = []
    for _ in range(24):
        n = rng.randint(8, 12)
        out.append((random_term(rng, n), rng.randrange(n)))
    return out


def fresh_rank_caches(monkeypatch, size=normalizer.RANK_CACHE_SIZE):
    """Empty block memos of rho and materialize, of the given bound, for the
    rest of the test."""
    for name in ("_rho_block", "_block"):
        fresh = functools.lru_cache(maxsize=size)(getattr(normalizer, name).__wrapped__)
        monkeypatch.setattr(normalizer, name, fresh)


@functools.lru_cache(maxsize=None)
def bounded_signatures():
    """Every signature with n = 2..4 and values <= 5, and with n = 5 and
    values <= 4: 3,093 signatures, 907 of them indecomposable and neither
    one nor all-positive (rho's mixed case)."""
    return tuple(s for n, vmax in ((2, 5), (3, 5), (4, 5), (5, 4))
                 for s in enumerate_signatures(n, vmax))


# Denominators of random breakpoints: dyadic ones, and the thirds, ninths and
# 96ths that realize produces, and 97ths.
DENOMINATORS = (2, 8, 64, 3, 9, 96, 97)


def bump_map(u, v, a, b, sign=1):
    """The map on (u, v) through (a, b), or through (b, a) for sign -1."""
    interior = (F(a), F(b)) if sign > 0 else (F(b), F(a))
    return PLMap([(0, 0), (F(u), F(u)), interior, (F(v), F(v)), (1, 1)])


def random_fractions(rng: random.Random, k: int, den: int):
    """k distinct fractions in (0,1) with denominator den, sorted."""
    return [F(n, den) for n in sorted(rng.sample(range(1, den), k))]


def random_pl_map(rng: random.Random) -> PLMap:
    """A map with up to 6 interior breakpoints, its x- and y-coordinates
    each over one of DENOMINATORS."""
    dx, dy = rng.choice(DENOMINATORS), rng.choice(DENOMINATORS)
    k = rng.randint(0, min(6, dx - 1, dy - 1))
    return PLMap([(0, 0), *zip(random_fractions(rng, k, dx), random_fractions(rng, k, dy)),
                  (1, 1)])


def random_bump_pair(rng: random.Random, overlapping: bool, lo=0):
    """Two one-bump maps, on (u1, v1) and (u2, v2) with lo < u1 < u2: their
    supports overlap (u2 < v1 < v2), or are disjoint and may touch (v1 <= u2)."""
    ends = [lo + (1 - lo) * e for e in random_fractions(rng, 4, 97)]
    if overlapping:
        ends[1], ends[2] = ends[2], ends[1]
    elif rng.random() < 0.5:
        ends[2] = ends[1]
    maps = []
    for u, v in (ends[:2], ends[2:]):
        feet = random_fractions(rng, 2, 16)
        rng.shuffle(feet)
        s, t = (u + (v - u) * r for r in feet)
        maps.append(bump_map(u, v, s, t, rng.choice((1, -1))))
    return tuple(maps)


def frame_onto(lo, hi):
    """The affine frame (a, b, c), x -> (a + b x) / c, carrying (0,1) onto (lo,hi)."""
    lo, hi = F(lo), F(hi)
    c = lo.denominator * hi.denominator
    return int(lo * c), int((hi - lo) * c), c


def retained(level):
    """The functions a wrap retains, each with its frame, read off level,
    the frame of `oracles.build_by_frames` that calls the wrap: the rotated
    build's functions after its top, with their frames after MIDDLE."""
    local = level.f_locals
    return list(zip(local["fns"][1:], _triples(local["frames"])))


def set_json(fns) -> str:
    """A generating set as the CLI prints it: (breakpoints, markers, name)."""
    return json.dumps([
        {"breakpoints": [list(p) for p in pts], "markers": markers, "name": name}
        for pts, markers, name in fns], indent=2)


def one_function(breakpoints=(("0", "0"), ("1/4", "1/4"), ("1/2", "3/4"), ("1", "1")),
                 markers=("1/2",), **name) -> str:
    """A set of one function, as JSON with the fields given."""
    return json.dumps([dict(breakpoints=breakpoints, markers=markers, **name)])


def bumps_set(count: int, name: str) -> str:
    """One function with `count` disjoint positive bumps: fast, not standard."""
    d, points, markers = 5 * count + 1, [("0", "0")], []
    for a in range(0, 5 * count, 5):
        points += [(f"{a + 1}/{d}",) * 2, (f"{a + 2}/{d}", f"{a + 3}/{d}"), (f"{a + 4}/{d}",) * 2]
        markers.append(f"{a + 2}/{d}")
    return set_json([(points + [("1", "1")], markers, name)])
