import functools
import itertools
from fractions import Fraction as F

import pytest

from sigcalc.signature import (
    ONE_SIG,
    ZERO_SIG,
    Signature,
    enumerate_signatures,
    eval_term,
    parse_term,
    sig_E,
    sig_exp,
    sig_star,
    sig_sum,
)
from sigcalc.realization import (
    NotSgenError,
    PLMap,
    RealizationError,
    genset_from_json,
    genset_to_json,
    is_fast,
    is_sgen,
    realize,
    signature_of,
)
from sigcalc.realization.genset import oscillation
from sigcalc.realization.marked import (
    MarkedFn, canonical_bump, fn_rotate, is_standard_fn, make_bump_fn, midpoint_bump,
    rescale_fn)
from sigcalc import cli
from sigcalc.realization import build, genset, marked, plmap
from oracles import (
    checked_copy, classify_pair, fig_bz_set, fig_g_set, fn_shape, is_standard_pair,
    rescale_checked)

one = ONE_SIG


def pair(k):
    return Signature(2, (k,))


# one function, two disjoint positive bumps: fast, but its extended support
# is not connected, so it is not standard
TWO_BUMPS = MarkedFn(PLMap([
    (0, 0), (F(1, 8), F(1, 8)), (F(3, 16), F(7, 32)), (F(1, 4), F(1, 4)),
    (F(1, 2), F(1, 2)), (F(9, 16), F(19, 32)), (F(5, 8), F(5, 8)), (1, 1)]),
    [F(3, 16), F(9, 16)], "0")


# --- marked functions -----------------------------------------------------------


def test_feet():
    f = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16))
    (b,) = f.bumps
    assert b.feet == ((F(1, 4), F(5, 16)), (F(11, 16), F(3, 4)))
    neg = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16), sign=-1)
    (b,) = neg.bumps
    assert b.sign == -1
    assert b.feet == ((F(1, 4), F(5, 16)), (F(11, 16), F(3, 4)))


def test_marker_validation():
    f = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16))
    with pytest.raises(RealizationError):
        MarkedFn(f.map, [F(7, 8)])
    with pytest.raises(RealizationError):
        MarkedFn(f.map, [F(5, 16), F(6, 16)])
    with pytest.raises(RealizationError):
        MarkedFn(PLMap.identity(), [])


def test_is_standard_fn():
    assert is_standard_fn(canonical_bump(F(1, 4), F(3, 4)))
    g = fig_bz_set()[1]  # neg then pos, abutting
    assert is_standard_fn(g)
    # pos then neg violates the order
    pts = [(0, 0), (F(1, 8), F(1, 8)), (F(3, 16), F(5, 16)), (F(1, 2), F(1, 2)),
           (F(11, 16), F(9, 16)), (F(7, 8), F(7, 8)), (1, 1)]
    bad = MarkedFn(PLMap(pts), [F(3, 16), F(9, 16)])
    assert not is_standard_fn(bad)
    # disconnected extended support
    pts = [(0, 0), (F(1, 8), F(1, 8)), (F(3, 16), F(7, 32)), (F(1, 4), F(1, 4)),
           (F(1, 2), F(1, 2)), (F(9, 16), F(11, 16)), (F(3, 4), F(3, 4)), (1, 1)]
    gap = MarkedFn(PLMap(pts), [F(3, 16), F(9, 16)])
    assert not is_standard_fn(gap)


def test_fn_rotate_drops_extremes():
    f = fig_g_set()[2]  # four orbitals
    r = fn_rotate(f)
    assert len(r.orbitals) == 2
    assert [o[:2] for o in r.orbitals] == [o[:2] for o in f.orbitals[1:3]]
    assert r.markers == f.markers[1:3]


def test_fn_rotate_degenerate():
    f = canonical_bump(F(1, 4), F(3, 4))
    r = fn_rotate(f)
    (b,) = r.bumps
    # supported exactly on the left foot of the original
    assert (b.u, b.v) == f.bumps[0].feet[0]
    assert b.sign == 1


def test_rescale_at_the_ends_of_the_unit_interval():
    moves_at_0 = make_bump_fn(0, F(1, 2), F(1, 8), F(3, 8))
    moves_at_1 = make_bump_fn(F(1, 2), 1, F(5, 8), F(7, 8), sign=-1)
    fixes_both = make_bump_fn(F(1, 4), F(1, 2), F(5, 16), F(7, 16))
    for f in (moves_at_0, moves_at_1, fixes_both, make_bump_fn(0, 1, F(1, 4), F(3, 4))):
        assert fn_shape(f) == fn_shape(checked_copy(f))
        for lo, hi in ((0, F(1, 2)), (F(1, 2), 1), (F(1, 4), F(3, 4)), (0, 1)):
            assert fn_shape(rescale_fn(f, lo, hi)) == fn_shape(rescale_checked(f, lo, hi))
    with pytest.raises(RealizationError):
        make_bump_fn(0, F(1, 2), F(3, 8), F(1, 8))


# --- fastness and classification ---------------------------------------------------


def test_is_fast():
    f = canonical_bump(F(1, 8), F(3, 8))
    g = canonical_bump(F(1, 2), F(7, 8))
    assert is_fast([f, g])
    # overlapping feet
    h = canonical_bump(F(1, 8), F(5, 16))
    assert not is_fast([f, h])
    # shared bump
    assert not is_fast([f, MarkedFn(f.map, [F(1, 7)])])


def test_classify_disjoint():
    f = canonical_bump(F(1, 8), F(3, 8))
    g = canonical_bump(F(1, 2), F(7, 8))
    info = classify_pair(f, g)
    assert (info.order, info.fast, info.oscillation, info.standard) == ("<<", True, 0, True)
    assert classify_pair(g, f).order == ">>"


def test_classify_brin_navas_pair():
    b, a = realize(sig_E(sig_sum(one, one)))
    info = classify_pair(b, a)
    assert (info.order, info.fast, info.oscillation, info.standard) == ("in", True, 2, True)


def test_classify_g_pair_not_standard():
    h, g, f = fig_g_set()
    info = classify_pair(h, f)
    assert (info.order, info.fast, info.oscillation, info.standard) == ("in", True, 2, False)


def test_oscillation_matrix_g():
    fns = fig_g_set()
    assert {(i, j): oscillation(fns[i], fns[j])
            for i, j in itertools.combinations(range(3), 2)} == {(0, 1): 1, (0, 2): 2, (1, 2): 2}
    assert not is_sgen(fig_g_set())
    with pytest.raises(NotSgenError):
        signature_of(fig_g_set())


def test_one_function_set_must_be_standard():
    assert is_fast([TWO_BUMPS]) and not is_standard_fn(TWO_BUMPS)
    assert not is_sgen([TWO_BUMPS])
    with pytest.raises(NotSgenError):
        signature_of([TWO_BUMPS])


def _reads_back(fns) -> bool:
    try:
        signature_of(fns)
    except NotSgenError:
        return False
    return True


@pytest.fixture(scope="module")
def realized_n5():
    """The realized sets of all 969 signatures with n = 5 and values <= 3;
    realize raises unless signature_of reads each signature back."""
    return [realize(s) for s in enumerate_signatures(5, 3)]


def test_is_sgen_exactly_when_signature_of_succeeds(realized_n5):
    for fns in (fig_g_set(), fig_bz_set(), [TWO_BUMPS]):
        assert is_sgen(fns) == _reads_back(fns)
    for fns in realized_n5:
        assert is_sgen(fns)


def test_walk_agrees_with_recursive_definition():
    # the walk checks fastness and each function once; the oracle checks the
    # pair's fastness and both functions again at every level
    sets = [fig_g_set(), fig_bz_set()] + [realize(s) for s in enumerate_signatures(3, 3)]
    for fns in sets:
        assert is_sgen(fns) == all(is_standard_pair(f, g)
                                   for f, g in itertools.combinations(fns, 2))


def test_incomparable_pair():
    pts = [(0, 0), (F(1, 8), F(1, 8)), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (1, 1)]
    f = MarkedFn(PLMap(pts), [F(1, 4)])
    pts = [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8)), (F(3, 4), F(3, 4)), (1, 1)]
    g = MarkedFn(PLMap(pts), [F(1, 2)])
    assert classify_pair(f, g).order == "incomparable"
    with pytest.raises(RealizationError):
        oscillation(f, g)


# --- realize -------------------------------------------------------------------------


def test_realize_trivial():
    assert realize(ZERO_SIG) == []
    (f,) = realize(one)
    assert len(f.orbitals) == 1 and f.orbitals[0][2] == 1


def test_realize_brin_navas_matches_figure():
    fns = realize(sig_E(sig_sum(one, one)))
    assert [len(f.orbitals) for f in fns] == [1, 2]
    assert [b.sign for b in fns[1].bumps] == [-1, 1]
    # inner bump straddles the top's expansion point
    (inner,) = fns[0].bumps
    expansion = fns[1].orbitals[0][1]
    assert inner.u < expansion < inner.v


def test_realize_tower_pairs_match_figure():
    for k in (4, 5):
        fns = realize(sig_exp(sig_sum(one, one), k))
        assert [len(f.orbitals) for f in fns] == [k - 1, k]
        signs = [b.sign for b in fns[1].bumps]
        assert signs == [-1] * (k // 2) + [1] * (k - k // 2)


def test_realize_fig3():
    sig = eval_term(parse_term("E(1*1+1+1)"))
    assert signature_of(realize(sig)) == sig


def test_realize_round_trip_enumerated_small():
    for s in enumerate_signatures(3, 3):
        assert signature_of(realize(s)) == s


SIG5 = eval_term(parse_term("E(1*1+1+1+1)"))


def _fresh_build_cache(monkeypatch, size=build.BUILD_CACHE_SIZE):
    """An empty build cache of the given bound for the rest of the test."""
    fresh = functools.lru_cache(maxsize=size)(build._build.__wrapped__)
    monkeypatch.setattr(build, "_build", fresh)


def test_build_cache_is_bounded(monkeypatch):
    assert build._build.cache_info().maxsize == build.BUILD_CACHE_SIZE
    _fresh_build_cache(monkeypatch, size=8)
    for s in enumerate_signatures(4, 2):
        assert signature_of(realize(s)) == s
        assert build._build.cache_info().currsize <= 8
    assert build._build.cache_info().misses > 8  # entries were dropped and rebuilt


def test_realize_computes_orbitals_once_per_function(monkeypatch):
    counts = {"orbitals": 0, "fns": 0}
    orbitals, init = PLMap.orbitals, MarkedFn.__init__

    def counting_orbitals(self):
        counts["orbitals"] += 1
        return orbitals(self)

    def counting_init(self, *args):
        counts["fns"] += 1
        init(self, *args)

    monkeypatch.setattr(PLMap, "orbitals", counting_orbitals)
    monkeypatch.setattr(MarkedFn, "__init__", counting_init)
    _fresh_build_cache(monkeypatch)
    assert signature_of(realize(SIG5)) == SIG5
    assert counts["fns"] > SIG5.n
    assert counts["orbitals"] == counts["fns"]


INTERVALS = [(F(1, 7), F(5, 9)), (0, F(1, 2)), (F(1, 2), 1)]


def _rotation_chain(f):
    """f and its rotations down to one orbital, then one rotation more."""
    chain = [f]
    while len(chain[-1].orbitals) > 1:
        chain.append(fn_rotate(chain[-1]))
    return chain + [fn_rotate(chain[-1])]


# three orbitals whose ends inside (0,1) are crossings of the diagonal, not
# breakpoints: (0,1/3) negative, (1/3,4/5) positive, (4/5,1) negative
CROSSING = MarkedFn(PLMap([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 4)),
                           (F(7, 8), F(13, 16)), (1, 1)]), [F(1, 4), F(1, 2), F(7, 8)])


def _distinct(fns):
    """One function of each shape; realized sets share many."""
    return list({(f.map.points, f.markers): f for f in fns}.values())


def test_trusted_transport_matches_checked_constructor():
    assert [o[:2] for o in CROSSING.orbitals] == [(0, F(1, 3)), (F(1, 3), F(4, 5)), (F(4, 5), 1)]
    fns = [CROSSING] + _distinct(f for s in enumerate_signatures(4, 3) for f in realize(s))
    for f in fns:
        for g in _rotation_chain(f) + [rescale_fn(f, lo, hi) for lo, hi in INTERVALS]:
            assert fn_shape(g) == fn_shape(checked_copy(g))


def test_realized_n5_matches_checked_constructor(realized_n5):
    for f in _distinct(f for fns in realized_n5 for f in fns):
        assert fn_shape(f) == fn_shape(checked_copy(f))


def test_transport_computes_no_orbitals(monkeypatch):
    fns = realize(SIG5)
    calls = []
    orbitals, canonical = PLMap.orbitals, plmap._canonical

    def counting_orbitals(self):
        calls.append("orbitals")
        return orbitals(self)

    def counting_canonical(points):
        calls.append("canonical")
        return canonical(points)

    monkeypatch.setattr(PLMap, "orbitals", counting_orbitals)
    monkeypatch.setattr(plmap, "_canonical", counting_canonical)
    for f in fns:
        f.rename("x")
        for g in _rotation_chain(f):
            for lo, hi in INTERVALS:
                rescale_fn(g, lo, hi)
    assert calls == []
    checked_copy(fns[0])  # the checked path is still counted
    assert calls == ["canonical", "orbitals"]


def test_whole_set_ordered_and_fast_checked_once(monkeypatch, capsys):
    fns = realize(SIG5)
    sorted_sizes, fast_sizes = [], []
    order_genset, is_fast = genset.order_genset, genset.is_fast

    def counting_order(fs):
        sorted_sizes.append(len(fs))
        return order_genset(fs)

    def counting_fast(fs):
        fast_sizes.append(len(fs))
        return is_fast(fs)

    monkeypatch.setattr(genset, "order_genset", counting_order)
    monkeypatch.setattr(genset, "is_fast", counting_fast)
    # verify checks its input, then realize checks the set it builds
    runs = [(lambda: signature_of(fns), 1), (lambda: realize(SIG5), 1),
            (lambda: is_sgen(fns), 1),
            (lambda: cli.main(["verify", genset_to_json(fns)]) == 0, 2)]
    for run, sets in runs:
        sorted_sizes.clear()
        fast_sizes.clear()
        assert run()
        assert sorted_sizes == [SIG5.n] * sets
        assert fast_sizes.count(SIG5.n) == sets


def test_each_function_rotated_once(monkeypatch):
    rotated = []
    fn_rotate = marked.fn_rotate

    def counting_rotate(f):
        rotated.append(f)
        return fn_rotate(f)

    monkeypatch.setattr(marked, "fn_rotate", counting_rotate)
    _fresh_build_cache(monkeypatch)
    assert signature_of(realize(SIG5)) == SIG5
    assert rotated
    assert len({id(f) for f in rotated}) == len(rotated)


def test_realized_sets_are_sgen():
    for s in enumerate_signatures(3, 2):
        assert is_sgen(realize(s))


# --- realized-set invariants ----------------------------------------------------------


def test_o_cut_one_on_realized():
    # o(f,g) = o(g rotated, f) + 1 for nested standard pairs
    for s in enumerate_signatures(3, 3):
        fns = realize(s)
        for i, j in itertools.combinations(range(len(fns)), 2):
            f, g = fns[i], fns[j]
            if classify_pair(f, g).order == "in":
                assert oscillation(f, g) == oscillation(fn_rotate(g), f) + 1


def test_o_conj_bound_on_realized():
    # o(f, g^h) <= min(o(f,h), o(g,h) - 1) for standard pairs (f,h), (g,h)
    from sigcalc.realization.marked import conjugate

    for s in enumerate_signatures(3, 3):
        fns = realize(s)
        if len(fns) < 3:
            continue
        for f, g, h in itertools.permutations(fns, 3):
            cf, cg = classify_pair(f, h), classify_pair(g, h)
            if cf.order == "in" and cg.order == "in" and cf.standard and cg.standard:
                gh = conjugate(g, h.map)
                if classify_pair(f, gh).order in ("<<", ">>", "in", "contains"):
                    assert oscillation(f, gh) <= min(
                        oscillation(f, h), oscillation(g, h) - 1)


def test_dir_sum_char_at_pl_level():
    # signature decomposable iff some oscillation against the top is zero
    from sigcalc.signature import decompose

    for s in enumerate_signatures(3, 2):
        fns = realize(s)
        if len(fns) < 2:
            continue
        top = fns[-1]
        has_zero = any(oscillation(f, top) == 0 for f in fns[:-1])
        assert has_zero == (len(decompose(s)) > 1)


def test_genset_json_round_trip():
    fns = realize(sig_E(sig_sum(one, one)))
    back = genset_from_json(genset_to_json(fns))
    assert [f.map for f in back] == [f.map for f in fns]
    assert [f.markers for f in back] == [f.markers for f in fns]
    assert signature_of(back) == sig_E(sig_sum(one, one))


def test_midpoint_bump_shape():
    f = midpoint_bump(0, F(1, 2))
    assert f.map(F(1, 4)) == F(3, 8)
    assert f.markers == (F(1, 4),)
