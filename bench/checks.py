"""Checks of the benchmark's outputs, run after the timed pass.

Each check returns None for a right output and a one-line reason for a
wrong one.  They rest on properties of the method and on computations apart
from `rho`, so they still hold if realize's own self-check is removed:

- rho: the rendered rank parses back to itself, and for star-free terms it
  equals the rank computed from the term by ordinal rules alone;
- normalize: the output is reduced, has the input's sorted rank and is its
  own normal form;
- realize: the JSON parses back to n fast, standard generators whose
  signature is the input;
- predicates: each composed word equals its letters applied one at a time
  with `PLMap.__call__` at seeded dyadic points and at its own breakpoints;
  C implies that x and y commute at those points; D excludes C; and words
  over generators with oscillation 0 (disjoint supports) commute.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

from sigcalc import cli
from sigcalc.normalizer import is_reduced, normalize, rho
from sigcalc.ordinal import ONE, ZERO, Ordinal, ord_add, ord_cmp, ord_parse, ord_render
from sigcalc.realization import PLMap, genset_from_json, is_fast, is_sgen, signature_of
from sigcalc.signature import sig_from_json

DYADIC_POINTS = 12
DYADIC_MAX_EXP = 16


def has_star(tree) -> bool:
    return tree != "1" and (tree[0] == "*" or any(has_star(a) for a in tree[1:]))


def _omega_pow_shifted(a: Ordinal) -> Ordinal:
    """omega^(-1+a) for a >= 1: -1+a is a-1 for finite a and a otherwise."""
    if a.is_finite:
        a = Ordinal.from_int(a.as_int() - 1)
    return Ordinal(((a, 1),))


def _summands(tree) -> list:
    if tree != "1" and tree[0] == "+":
        return [s for a in tree[1:] for s in _summands(a)]
    return [tree]


def term_rank(tree, mode: str = "ordered") -> Ordinal:
    """The rank of a star-free term by ordinal rules alone: 1 for "1",
    omega^(-1 + ordered rank of t) for exp(t), E(t) = exp(exp(t)), and the
    ordinal sum of the flattened summands' ranks for a sum, sorted
    descending first in sorted mode."""
    ranks = [_block_rank(b) for b in _summands(tree)]
    if mode == "sorted":
        ranks.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
    return functools.reduce(ord_add, ranks, ZERO)


def _block_rank(tree) -> Ordinal:
    if tree == "1":
        return ONE
    op, arg = tree
    r = _omega_pow_shifted(term_rank(arg))
    return _omega_pow_shifted(r) if op == "E" else r


def check_rho(op, text, kept, ctx):
    text = text.strip()
    r = ord_parse(text)
    if ord_render(r) != text:
        return f"rank {text!r} does not render back to itself"
    if not has_star(op["tree"]):
        want = term_rank(op["tree"], op["mode"])
        if r != want:
            return f"rho {op['mode']} of {op['term']} gave {text}, ordinal rules give {ord_render(want)}"
    return None


def check_normalize(op, text, kept, ctx):
    m = sig_from_json(text)
    if not is_reduced(m):
        return f"normal form of {op['term']} is not reduced"
    if has_star(op["tree"]):
        want = rho(cli.load_signature(op["term"]), "sorted")
    else:
        want = term_rank(op["tree"], "sorted")
    if rho(m, "sorted") != want:
        return f"normal form of {op['term']} does not have rank {ord_render(want)}"
    if normalize(m) != m:
        return f"normal form of {op['term']} is not its own normal form"
    return None


def check_realize(op, text, kept, ctx):
    want = sig_from_json(op["sig"])
    fns = genset_from_json(text)
    if len(fns) != want.n:
        return f"{len(fns)} generators for a base of {want.n}"
    if not is_fast(fns):
        return "realized set is not fast"
    if not is_sgen(fns):
        return "realized set is not standard"
    if signature_of(fns) != want:
        return f"realized set has another signature than {op['sig']}"
    return None


def _support(m: PLMap):
    """(lo, hi): the hull of the points that m moves."""
    moving = [(x1, x2) for (x1, y1), (x2, y2) in zip(m.points, m.points[1:])
              if not (x1 == y1 and x2 == y2)]
    return moving[0][0], moving[-1][1]


def _apply(ctx, gens, word, p):
    maps, inverses = ctx["gensets"][gens]
    for idx, e in word:
        f = maps[idx] if e > 0 else inverses[idx]
        for _ in range(abs(e)):
            p = f(p)
    return p


def check_predicates(op, text, kept, ctx):
    g = op["genset"]
    got = dict(line.split(": ") for line in text.splitlines())
    if sorted(got) != ["C", "D", "T"] or not set(got.values()) <= {"true", "false"}:
        return f"malformed predicates output {text!r}"
    words = [op["x"], op["y"], op["z"]]
    breaks = []
    for name, word, pts in zip("xyz", words, kept):
        m = PLMap([(Fraction(a), Fraction(b)) for a, b in pts])
        breaks.append([bx for bx, _ in m.points])
        for p in ctx["points"] + breaks[-1]:
            if m(p) != _apply(ctx, g, word, p):
                return f"word {name}={word} composed wrongly at {p}"
    x, y = op["x"], op["y"]
    if got["C"] == "true" and got["D"] == "true":
        return "D holds where C holds"
    if got["C"] == "true":
        for p in ctx["points"] + breaks[0] + breaks[1]:
            if _apply(ctx, g, y, _apply(ctx, g, x, p)) != _apply(ctx, g, x, _apply(ctx, g, y, p)):
                return f"C holds but x and y do not commute at {p}"
    maps = ctx["gensets"][g][0]
    hulls = [_support(maps[i]) for i in range(len(maps))]
    if all(hulls[i][1] <= hulls[j][0] or hulls[j][1] <= hulls[i][0]
           for i, _ in x for j, _ in y) and got["C"] != "true":
        return "words over generators with oscillation 0 do not commute"
    return None


CHECKS = {
    "rho": check_rho,
    "normalize": check_normalize,
    "realize": check_realize,
    "predicates": check_predicates,
}


def context(gensets, seed: int) -> dict:
    """Shared check data: each generating set's maps and inverses, parsed
    apart from `genset_from_json`, and the seeded dyadic points."""
    rng = random.Random(f"checks/{seed}")
    points = []
    for _ in range(DYADIC_POINTS):
        e = rng.randint(1, DYADIC_MAX_EXP)
        points.append(Fraction(2 * rng.randrange(2 ** (e - 1)) + 1, 2 ** e))
    parsed = []
    for text in gensets:
        maps = [PLMap([(Fraction(a), Fraction(b)) for a, b in entry["breakpoints"]])
                for entry in json.loads(text)]
        parsed.append((maps, [PLMap([(b, a) for a, b in m.points]) for m in maps]))
    return {"gensets": parsed, "points": points}


def check(op, text, kept, ctx):
    """The reason an output is wrong, or None; a check that raises on the
    output also marks it wrong."""
    try:
        return CHECKS[op["verb"]](op, text, kept, ctx)
    except Exception as e:
        return f"{op['verb']} output failed its check: {type(e).__name__}: {e}"
