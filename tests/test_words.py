import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from sigcalc.ordinal import ord_parse
from sigcalc.normalizer import materialize
from sigcalc.signature import ONE_SIG, Signature, enumerate_signatures, parse_term, sig_sum
from sigcalc.realization import PLMap, pl_eval, pred_C, pred_D, pred_T, predicates, realize
from sigcalc.realization.marked import canonical_bump
from sigcalc.realization import words
from sigcalc.realization.words import conj_map
from helpers import bump_map, random_bump_pair, random_pl_map
from oracles import (
    WreathSplitError, dom_witness, fig_bz_set, fig_g_set, frac, pred_C_products,
    retrofit_slopes, sig_star_pairwise, wreath_witness)


def hull(m):
    """The least and greatest points a map moves: its first and last orbitals' ends."""
    orbs = m.orbitals()
    return orbs[0][0], orbs[-1][1]

one = ONE_SIG


def test_pl_eval_identity():
    fns = realize(parse_term("1*1"))
    assert pl_eval(fns, []).is_identity
    assert pl_eval(fns, [(0, 1), (0, -1)]).is_identity
    assert pl_eval(fns, [(0, 2)]) == fns[0].map.then(fns[0].map)


def test_support_transforms_under_conjugation():
    fns = realize(parse_term("1*1"))
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


def test_predicates_agree_with_the_separate_predicates():
    """`predicates` returns what C, D and T return one by one."""
    fns = realize(Signature(3, (1, 1, 1)))
    x = [(0, 1), (0, 1)]
    cases = [(x, [(1, 1)], [(2, 1)]),  # a tower: T reaches its last conjunct
             (x, [(1, 1)], [(1, -1)]),  # D(y,z) fails
             (x, [(2, 1)], [(0, 1)]),  # D(x,z) fails
             ([(0, 1)], [(0, -1)], [(1, 1)]),  # C(x,y) holds, so D(x,y) fails
             (x, [(2, 1)], [(1, 1)])]  # D(y,z) fails on the built conjugate
    ts = []
    for words_xyz in cases:
        xm, ym, zm = (pl_eval(fns, w) for w in words_xyz)
        want = {"C": pred_C(xm, ym), "D": pred_D(xm, ym), "T": pred_T(xm, ym, zm)}
        assert predicates(fns, *words_xyz) == want
        ts.append(want["T"])
    assert ts == [True, False, False, False, False]


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


def word_maps(fns):
    """The distinct maps of the two-letter words over a set."""
    letters = [(i, e) for i in range(len(fns)) for e in (1, -1)]
    return list(dict.fromkeys(pl_eval(fns, [p, q]) for p in letters for q in letters))


def tower_triples(sig):
    """x = (generator 0)^2 and pairs (y, z) that x dominates, which reach
    T's later conjuncts (on the set for (1, 1, 1) some triples are towers),
    and a few uniform triples for the early exits."""
    fns = realize(sig)
    maps = word_maps(fns)
    rng = random.Random(str(sig.vals))
    x = pl_eval(fns, [(0, 1), (0, 1)])
    dominated = [m for m in maps if pred_D(x, m)]
    pairs = list(itertools.product(dominated, dominated))
    triples = [(x, y, z) for y, z in rng.sample(pairs, min(20, len(pairs)))]
    return triples + [tuple(rng.choice(maps) for _ in range(3)) for _ in range(5)]


@pytest.mark.parametrize("sig", enumerate_signatures(3, 3), ids=lambda s: str(s.vals))
def test_pred_T_is_the_written_out_conjunction(sig):
    for x, y, z in tower_triples(sig):
        written_out = (pred_D(x, y) and pred_D(x, z) and pred_D(y, z)
                       and pred_C(x, conj_map(y, z)))
        assert pred_T(x, y, z) == written_out


def counted_builds(monkeypatch):
    """A list that gains an entry for each conjugate `words` builds."""
    builds = []
    monkeypatch.setattr(words, "conj_map", lambda b, c: builds.append(1) or conj_map(b, c))
    return builds


def conjugate_step(a, b, c):
    """Which step of `words._commutes_with_conjugate` decides C(a, b
    conjugated by c), found from Fraction orbitals and values: 1 if either
    map is the identity (the support merge ends at once), 2 if a's support
    and the c-image of b's are disjoint, 3 if one map moves an orbital end
    of the other's (its conjugate's, for a), and 4 if only building the
    conjugate decides."""
    ao, bo = a.orbitals(), b.orbitals()
    if not ao or not bo:
        return 1
    co = [(c(u), c(v)) for u, v, _ in bo]
    if all(max(u1, u2) >= min(v1, v2) for u1, v1, _ in ao for u2, v2 in co):
        return 2
    c_inv = c.inverse()
    if (any(a(e) != e for uv in co for e in uv)
            or any(b(c_inv(e)) != c_inv(e) for u, v, _ in ao for e in (u, v))):
        return 3
    return 4


def check_conjugate_cases(triples, monkeypatch, seed):
    """`_commutes_with_conjugate` on each (a, b, c) agrees with C(a, c^-1 b c)
    on the built conjugate, by `pred_C` and by both products, and builds
    the conjugate exactly when no orbital step decides; returns the steps
    reached."""
    builds = counted_builds(monkeypatch)
    steps = set()
    for i, (a, b, c) in enumerate(triples):
        where = f"case {i} of seed {seed!r}"
        conj = conj_map(b, c)
        want = pred_C(a, conj)
        assert want == pred_C_products(a, conj), where
        step = conjugate_step(a, b, c)
        assert step != 2 or want, where  # disjoint supports commute
        assert step != 3 or not want, where  # commuting maps fix each other's orbital ends
        builds.clear()
        assert words._commutes_with_conjugate(a, b, c) == want, where
        assert len(builds) == (step == 4), where
        steps.add(step)
    return steps


def test_orbitals_decide_conjugate_commutation_on_n3_words(monkeypatch):
    """Seeded triples (a, b, c) of two-letter word maps over the 22
    realized n = 3 sets, each also as (a, a, c), as D asks, and as
    (b conjugated by c, b, c), which commute."""
    steps = set()
    for sig in enumerate_signatures(3, 3):
        maps = word_maps(realize(sig))
        rng = random.Random(str(sig.vals))
        triples = []
        for _ in range(8):
            a, b, c = (rng.choice(maps) for _ in range(3))
            triples += [(a, b, c), (a, a, c), (conj_map(b, c), b, c)]
        steps |= check_conjugate_cases(triples, monkeypatch, str(sig.vals))
    assert steps == {1, 2, 3, 4}


def test_orbitals_decide_conjugate_commutation_on_section9_sets(monkeypatch):
    """Every triple of generators and seeded triples of two-letter word
    maps over the Section 9 sets."""
    bz = fig_bz_set()
    sets = [retrofit_slopes(fig_g_set()),
            retrofit_slopes([x for x in bz if x.name != "c"]) + [x for x in bz if x.name == "c"]]
    steps = set()
    for k, fns in enumerate(sets):
        maps = word_maps(fns)
        rng = random.Random(f"section9/{k}")
        triples = list(itertools.product([f.map for f in fns], repeat=3))
        triples += [tuple(rng.choice(maps) for _ in range(3)) for _ in range(40)]
        steps |= check_conjugate_cases(triples, monkeypatch, f"section9/{k}")
    assert steps == {1, 2, 3, 4}


def test_orbitals_decide_conjugate_commutation_on_random_maps(monkeypatch):
    """Random maps, the identity, powers of one map, bumps whose supports,
    moved by c, overlap, touch or are disjoint, and powers of the conjugate
    with it."""
    seed = "conjugate"
    rng = random.Random(seed)
    triples = []
    for i in range(250):
        c = rng.choice((random_pl_map(rng), PLMap.identity(),
                        bump_map(F(1, 8), F(7, 8), F(1, 4), F(1, 2))))
        kind = i % 5
        if kind == 0:
            a, b = random_pl_map(rng), random_pl_map(rng)
        elif kind == 1:
            a, b = random_pl_map(rng), PLMap.identity()
        elif kind == 2:
            m = random_pl_map(rng)
            a, b = m ** rng.randint(-2, 2), m ** rng.randint(-2, 2)
        elif kind == 3:
            a, b = random_bump_pair(rng, rng.random() < 0.5)
        else:
            b = random_pl_map(rng)
            triples.append((conj_map(b, c) ** rng.choice((-2, -1, 2)), b, c))
            continue
        triples.append((a, b, c) if rng.random() < 0.5 else (b, a, c))
    assert check_conjugate_cases(triples, monkeypatch, seed) == {1, 2, 3, 4}


def bypass_memos(monkeypatch):
    """C and D as written: `words` calls the unwrapped functions."""
    monkeypatch.setattr(words, "pred_C", pred_C.__wrapped__)
    monkeypatch.setattr(words, "pred_D", pred_D.__wrapped__)


def all_tower_triples():
    triples = [t for sig in enumerate_signatures(3, 3) for t in tower_triples(sig)]
    assert len(triples) == 298
    return triples


def test_conjugate_builds_are_pinned(monkeypatch):
    """Over the 298 tower triples of the 22 realized n = 3 sets, D and T as
    written, their memos bypassed, ask 890 times whether a map commutes
    with a conjugate, and only 154 of those build the conjugate; if the
    orbital steps stopped deciding, every one would."""
    triples = all_tower_triples()
    bypass_memos(monkeypatch)
    asked = []
    monkeypatch.setattr(words, "_commutes_with_conjugate",
                        lambda *args, real=words._commutes_with_conjugate:
                        asked.append(1) or real(*args))
    builds = counted_builds(monkeypatch)
    for x, y, z in triples:
        words.pred_D(x, y)
        pred_T(x, y, z)
    assert (len(asked), len(builds)) == (890, 154)


def test_predicate_memos_are_bounded():
    memos = (pred_C, pred_D)
    for memo in memos:
        assert memo.cache_info().maxsize == words.PREDICATE_CACHE_SIZE
        memo.cache_clear()
    for x, y, z in all_tower_triples():
        pred_D(x, y)
        pred_T(x, y, z)
        assert all(memo.cache_info().currsize <= words.PREDICATE_CACHE_SIZE for memo in memos)
    assert pred_C.cache_info().misses > words.PREDICATE_CACHE_SIZE  # entries were dropped


def test_memoized_predicates_answer_as_unwrapped():
    """On seeded pairs of two-letter word maps over the 22 realized n = 3
    sets, and on pairs of equal maps that are distinct objects (the same
    word composed twice), which share a memo entry."""
    letters = [(i, e) for i in range(3) for e in (1, -1)]
    for sig in enumerate_signatures(3, 3):
        fns = realize(sig)
        rng = random.Random(str(sig.vals))
        maps = word_maps(fns)
        for _ in range(8):
            a, b, c = (rng.choice(maps) for _ in range(3))
            for u, v in ((a, b), (b, a), (a, c), (a, conj_map(a, c)), (a, conj_map(b, c))):
                assert pred_C(u, v) == pred_C.__wrapped__(u, v)
                assert pred_D(u, v) == pred_D.__wrapped__(u, v)
        x_word, y_word = ([rng.choice(letters) for _ in range(2)] for _ in range(2))
        x, y = pl_eval(fns, x_word), pl_eval(fns, y_word)
        pred_C.cache_clear()
        pred_D.cache_clear()
        want = pred_C(x, y), pred_D(x, y)
        x2, y2 = pl_eval(fns, x_word), pl_eval(fns, y_word)
        assert (x2, y2) == (x, y) and x2 is not x and y2 is not y
        hits = pred_C.cache_info().hits, pred_D.cache_info().hits
        assert (pred_C(x2, y2), pred_D(x2, y2)) == want
        assert (pred_C.cache_info().hits, pred_D.cache_info().hits) == (hits[0] + 1, hits[1] + 1)
        assert (pred_C.__wrapped__(x2, y2), pred_D.__wrapped__(x2, y2)) == want


def computed_questions(fns, words_xyz):
    """The (predicate, x, y) of each call of the unwrapped C and D bodies in
    one `predicates` call, with the memos cleared first."""
    names = {pred_C.__wrapped__.__code__: "C", pred_D.__wrapped__.__code__: "D"}
    computed = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            computed.append((names[frame.f_code], frame.f_locals["x"], frame.f_locals["y"]))

    pred_C.cache_clear()
    pred_D.cache_clear()
    sys.setprofile(profile)
    try:
        out = predicates(fns, *words_xyz)
    finally:
        sys.setprofile(None)
    assert out == {"C": False, "D": True, "T": True}
    return computed


def test_one_predicates_call_decides_each_question_once(monkeypatch):
    """On a tower, the definitions ask C(x,y) three times (for C, for D and
    for T's D) and D(x,y) twice; memoized, each is computed once, and no
    question is computed twice."""
    fns = realize(Signature(3, (1, 1, 1)))
    words_xyz = [(0, 1), (0, 1)], [(1, 1)], [(2, 1)]
    x, y, _ = (pl_eval(fns, w) for w in words_xyz)
    computed = computed_questions(fns, words_xyz)
    assert (computed.count(("C", x, y)), computed.count(("D", x, y))) == (1, 1)
    assert len(set(computed)) == len(computed)
    bypass_memos(monkeypatch)
    computed = computed_questions(fns, words_xyz)
    assert (computed.count(("C", x, y)), computed.count(("D", x, y))) == (3, 2)


def test_dom_witness():
    h, g, f = retrofit_slopes(fig_g_set())
    hf = conj_map(h.map, f.map)
    j = dom_witness(h.map, hf)
    assert j is not None
    u, v = j
    assert hf(v) <= u or v <= hf(u)


def test_wreath_witness_star():
    fns = realize(parse_term("1*1"))
    lo, hi = wreath_witness(fns, 1)
    (u, v, _), = fns[0].orbitals
    assert lo <= frac(u) and frac(v) <= hi


def test_wreath_witness_doubling():
    r = materialize(ord_parse("w^w"))
    fns = realize(sig_star_pairwise(r, r))
    wreath_witness(fns, r.n)


def test_wreath_witness_rejects_sum():
    with pytest.raises(WreathSplitError):
        wreath_witness(realize(sig_sum(one, one)), 1)


def test_wreath_witness_rejects_bad_split():
    fns = realize(parse_term("E(1+1)*1"))
    with pytest.raises(WreathSplitError):
        wreath_witness(fns, 1)  # oscillation 2 crosses this split
