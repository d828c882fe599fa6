import itertools
import random
from fractions import Fraction as F

import pytest

from sigcalc.ordinal import ord_parse
from sigcalc.normalizer import materialize
from sigcalc.signature import ONE_SIG, Signature, enumerate_signatures, sig_star, sig_sum
from sigcalc.realization import pl_eval, pred_C, pred_D, pred_T, predicates, realize
from sigcalc.realization.marked import canonical_bump
from sigcalc.realization import words
from sigcalc.realization.words import conj_map
from oracles import (
    WreathSplitError, dom_witness, fig_bz_set, fig_g_set, frac, retrofit_slopes,
    wreath_witness)


def hull(m):
    """The least and greatest points a map moves: its first and last orbitals' ends."""
    orbs = m.orbitals()
    return orbs[0][0], orbs[-1][1]

one = ONE_SIG


def test_pl_eval_identity():
    fns = realize(sig_star(one, one))
    assert pl_eval(fns, []).is_identity
    assert pl_eval(fns, [(0, 1), (0, -1)]).is_identity
    assert pl_eval(fns, [(0, 2)]) == fns[0].map.then(fns[0].map)


def test_support_transforms_under_conjugation():
    fns = realize(sig_star(one, one))
    g, h = fns[0].map, fns[1].map
    conj = conj_map(g, h)
    u, v = hull(g)
    assert hull(conj) == (h(u), h(v))


def test_disjoint_supports_commute():
    f = canonical_bump(F(1, 8), F(3, 8))
    g = canonical_bump(F(1, 2), F(7, 8))
    assert pred_C(f.map, g.map)
    assert not pred_D(f.map, f.map)  # C(x,x) holds, so D(x,x) fails


def test_predicates_wrapper():
    fns = retrofit_slopes(fig_g_set())
    out = predicates(fns, [(0, 1)], [(1, 1)])
    assert set(out) == {"C", "D"}
    out = predicates(fns, [(0, 1)], [(1, 1)], [(2, 1)])
    assert "T" in out


def test_predicates_evaluate_each_predicate_once(monkeypatch):
    """`predicates` agrees with the separate predicates and computes C(x,y) and
    D(x,y) once: no commutation test and no conjugate is made twice."""
    fns = realize(Signature(3, (1, 1, 1)))
    x = [(0, 1), (0, 1)]
    cases = [(x, [(1, 1)], [(2, 1)]),  # a tower: T reaches its last conjunct
             (x, [(1, 1)], [(1, -1)]),
             (x, [(2, 1)], [(0, 1)]),
             ([(0, 1)], [(0, -1)], [(1, 1)])]  # C(x,y) holds
    want = []
    for words_xyz in cases:
        xm, ym, zm = (pl_eval(fns, w) for w in words_xyz)
        want.append({"C": pred_C(xm, ym), "D": pred_D(xm, ym), "T": pred_T(xm, ym, zm)})
    assert [w["T"] for w in want] == [True, False, False, False]
    calls = []
    for name in ("pred_C", "conj_map"):
        def counted(a, b, name=name, real=getattr(words, name)):
            calls.append((name, a, b))
            return real(a, b)
        monkeypatch.setattr(words, name, counted)
    for (xw, yw, zw), w in zip(cases, want):
        calls.clear()
        assert predicates(fns, xw, yw, zw) == w
        assert calls and len(calls) == len(set(calls))


def test_section9_predicates():
    h, g, f = retrofit_slopes(fig_g_set())
    hf = conj_map(h.map, f.map)
    gf = conj_map(g.map, f.map)
    assert pred_D(h.map, hf)
    assert pred_D(g.map, gf)


def test_bz_predicates():
    bz = fig_bz_set()
    ab = retrofit_slopes([x for x in bz if x.name != "c"])
    c = [x for x in bz if x.name == "c"][0]
    b, a = ab
    assert pred_C(b.map, c.map)
    assert not pred_D(a.map, conj_map(a.map, b.map))


def test_tower_predicate():
    h, g, f = retrofit_slopes(fig_g_set())
    f0 = h.map
    f1 = conj_map(h.map, f.map)
    s0, s1 = hull(f0), hull(f1)
    assert s1[0] < s0[0] and s0[1] < s1[1]  # nested growth
    assert pred_T(f0, f1, g.map)


LETTERS = [(i, e) for i in range(3) for e in (1, -1)]


@pytest.mark.parametrize("sig", enumerate_signatures(3, 3), ids=lambda s: str(s.vals))
def test_pred_T_is_the_written_out_conjunction(sig):
    # x = (generator 0)^2 and pairs (y, z) that x dominates reach the later
    # conjuncts (on the set for (1, 1, 1) some triples are towers); a few
    # uniform triples cover the early exits
    fns = realize(sig)
    maps = list(dict.fromkeys(pl_eval(fns, [a, b]) for a in LETTERS for b in LETTERS))
    rng = random.Random(str(sig.vals))
    x = pl_eval(fns, [(0, 1), (0, 1)])
    dominated = [m for m in maps if pred_D(x, m)]
    pairs = list(itertools.product(dominated, dominated))
    triples = [(x, y, z) for y, z in rng.sample(pairs, min(20, len(pairs)))]
    triples += [tuple(rng.choice(maps) for _ in range(3)) for _ in range(5)]
    for x, y, z in triples:
        written_out = (pred_D(x, y) and pred_D(x, z) and pred_D(y, z)
                       and pred_C(x, conj_map(y, z)))
        assert pred_T(x, y, z) == written_out


def test_dom_witness():
    h, g, f = retrofit_slopes(fig_g_set())
    hf = conj_map(h.map, f.map)
    j = dom_witness(h.map, hf)
    assert j is not None
    u, v = j
    assert hf(v) <= u or v <= hf(u)


def test_wreath_witness_star():
    fns = realize(sig_star(one, one))
    lo, hi = wreath_witness(fns, 1)
    (u, v, _), = fns[0].orbitals
    assert lo <= frac(u) and frac(v) <= hi


def test_wreath_witness_doubling():
    r = materialize(ord_parse("w^w"))
    fns = realize(sig_star(r, r))
    wreath_witness(fns, r.n)


def test_wreath_witness_rejects_sum():
    with pytest.raises(WreathSplitError):
        wreath_witness(realize(sig_sum(one, one)), 1)


def test_wreath_witness_rejects_bad_split():
    fns = realize(sig_star(Signature(2, (2,)), one))
    with pytest.raises(WreathSplitError):
        wreath_witness(fns, 1)  # oscillation 2 crosses this split
