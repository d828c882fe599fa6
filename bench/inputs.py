"""Seeded inputs for the benchmark's workloads.

Every list is a pure function of (workload, seed, count): the same seed gives
the same operations in the same order.  Inputs within a list are distinct, so
no cache can turn a repeated input into free work.
"""

from __future__ import annotations

import random

from sigcalc.realization import genset_to_json, realize
from sigcalc.signature import enumerate_signatures, eval_term, parse_term, sig_to_json

from checks import has_star

# Signature terms for `ranks`: base size in [TERM_N_MIN, TERM_N_MAX] and a
# structural cost (sum of n^3 over the term's nodes, E counted twice) in
# [TERM_COST_MIN, TERM_COST_MAX].  Both verbs pay O(n^3) per derived
# signature, so the cost band keeps operations within a few times of each
# other; base size alone lets them spread 40x.
TERM_N_MIN, TERM_N_MAX = 8, 12
TERM_COST_MIN, TERM_COST_MAX = 2000, 6000
TERM_MAX_DEPTH = 4

# `realize` samples the valid signatures on a base of 5 with values <= 3.
REALIZE_N, REALIZE_VMAX = 5, 3

# `words`: the generating sets realizing every signature on a base of 3 with
# values <= 3 (22 of them, the same for every seed); each predicate call
# takes three seeded words of WORD_LETTERS letters.
WORDS_N, WORDS_VMAX = 3, 3
WORD_LETTERS = 2
WORD_EXPONENTS = (1, -1, 2, -2)


def _split(rng: random.Random, n: int, k: int) -> list:
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _gen_term(rng: random.Random, n: int, depth: int, star: bool):
    """A term tree on a base of n: "1", ["+", ...], ["*", a, b], ["exp", a]
    or ["E", a].  The right factor of a star is always an exp or E image, as
    the (!) law requires."""
    if n == 1:
        return "1"
    r = rng.random()
    if depth >= TERM_MAX_DEPTH or r < 0.35:
        parts = _split(rng, n, rng.randint(2, min(3, n)))
        return ["+"] + [_gen_term(rng, m, depth + 1, star) for m in parts]
    if star and r < 0.55:
        a, b = _split(rng, n, 2)
        return ["*", _gen_term(rng, a, depth + 1, star), _gen_wrap(rng, b, depth + 1, star)]
    return _gen_wrap(rng, n, depth + 1, star)


def _gen_wrap(rng: random.Random, n: int, depth: int, star: bool):
    op = "exp" if rng.random() < 0.75 else "E"
    return [op, _gen_term(rng, n, depth, star)]


def render_tree(t) -> str:
    """The signature-term text of a tree, in the CLI's term grammar."""
    if t == "1":
        return "1"
    op, *args = t
    if op == "+":
        return "+".join(render_tree(a) for a in args)
    if op == "*":
        left = render_tree(args[0])
        if args[0] != "1" and args[0][0] == "+":
            left = f"({left})"
        return f"{left}*{render_tree(args[1])}"
    return f"{op}({render_tree(args[0])})"


def _size_and_cost(t):
    if t == "1":
        return 1, 0
    op, *args = t
    sub = [_size_and_cost(a) for a in args]
    n = sum(s for s, _ in sub)
    return n, sum(c for _, c in sub) + (2 if op == "E" else 1) * n ** 3


def ranks_ops(seed: int, count: int) -> list:
    """`count` operations alternating the rho and normalize verbs, each on its
    own term.  rho alternates its two modes; every other pair of operations
    uses star-free terms, whose rank the checks recompute by ordinal rules."""
    rng = random.Random(f"ranks/{seed}")
    seen = set()
    ops = []
    while len(ops) < count:
        k = len(ops)
        star = (k // 2) % 2 == 1
        tree = _gen_term(rng, rng.randint(TERM_N_MIN, TERM_N_MAX), 0, star)
        _, cost = _size_and_cost(tree)
        if has_star(tree) != star or not TERM_COST_MIN <= cost <= TERM_COST_MAX:
            continue
        text = render_tree(tree)
        sig = eval_term(parse_term(text))
        if sig in seen:
            continue
        seen.add(sig)
        if k % 2 == 0:
            mode = "sorted" if (k // 4) % 2 == 0 else "ordered"
            ops.append({"verb": "rho", "term": text, "tree": tree, "mode": mode})
        else:
            ops.append({"verb": "normalize", "term": text, "tree": tree})
    return ops


def realize_ops(seed: int, count: int) -> list:
    """A seeded stratified sample without repeats of the signatures on a base
    of 5 with values <= 3 (969 of them; `count` is capped there).

    The pool is sorted by total oscillation, which tracks the cost of a
    realization, cut into `count` equal strata, and one signature is drawn
    from each; so every seed gets the same mix of cheap and dear inputs.
    """
    rng = random.Random(f"realize/{seed}")
    pool = sorted(enumerate_signatures(REALIZE_N, REALIZE_VMAX), key=lambda s: (sum(s.vals), s.vals))
    count = min(count, len(pool))
    bounds = [len(pool) * i // count for i in range(count + 1)]
    sample = [pool[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(sample)
    return [{"verb": "realize", "sig": sig_to_json(s)} for s in sample]


def words_ops(seed: int, count: int) -> tuple:
    """Generating sets as JSON, and `count` predicate calls on them.

    Returns (gensets, ops).  The operations take the sets in turn; each names
    its set by index and carries three seeded words of (generator, exponent)
    letters.  No (set, x, y, z) repeats.
    """
    rng = random.Random(f"words/{seed}")
    gensets = [genset_to_json(realize(s)) for s in enumerate_signatures(WORDS_N, WORDS_VMAX)]

    def word():
        return [[rng.randrange(WORDS_N), rng.choice(WORD_EXPONENTS)]
                for _ in range(WORD_LETTERS)]

    seen = set()
    ops = []
    while len(ops) < count:
        g = len(ops) % len(gensets)
        x, y, z = word(), word(), word()
        key = (g, repr((x, y, z)))
        if key in seen:
            continue
        seen.add(key)
        ops.append({"verb": "predicates", "genset": g, "x": x, "y": y, "z": z})
    return gensets, ops
