"""Shared generators for randomized tests; everything is seeded."""

import functools
import random

from sigcalc.ordinal import Ordinal, ord_cmp
from sigcalc.signature import SigTerm


def random_ordinal(rng: random.Random, depth: int = 3, max_terms: int = 2,
                   max_coeff: int = 2) -> Ordinal:
    """A random CNF ordinal of nesting depth <= depth."""
    if depth == 0 or rng.random() < 0.35:
        return Ordinal.from_int(rng.randint(0, 2))
    nterms = rng.randint(1, max_terms)
    exps = []
    while len(exps) < nterms:
        e = random_ordinal(rng, depth - 1, max_terms, max_coeff)
        if all(ord_cmp(e, x) != 0 for x in exps):
            exps.append(e)
    exps.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
    return Ordinal((e, rng.randint(1, max_coeff)) for e in exps)


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


def rank_terms():
    """24 seeded terms on a base of 8 to 12, the sizes the benchmark ranks,
    each with a base element to inflate at."""
    rng = random.Random(20171130)
    out = []
    for _ in range(24):
        n = rng.randint(8, 12)
        out.append((random_term(rng, n), rng.randrange(n)))
    return out
