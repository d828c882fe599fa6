import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction as F

import pytest

from sigcalc.signature import (
    ONE_SIG,
    ZERO_SIG,
    RealizationError,
    Signature,
    enumerate_signatures,
    parse_term,
    sig_restrict,
    sig_to_json,
)
from sigcalc.realization import (
    NotFastError,
    NotSgenError,
    PLMap,
    diagram,
    genset_from_json,
    genset_to_json,
    is_fast,
    is_sgen,
    realize,
    set_inflate,
    set_rotate,
    signature_of,
    to_dot,
)
from sigcalc.realization.marked import MarkedFn, fn_rotate, is_standard_fn
from sigcalc.realization.plmap import _lt
from sigcalc import cli
from sigcalc.realization import build, genset, marked, plmap
import oracles
from oracles import (
    UNIT, _slopes, build_by_frames, canonical_bump, checked_copy, classify_pair, fig_bz_set,
    fig_g_set, fn_shape, frac, genset_to_json_dumps, is_standard_pair, make_bump_fn,
    midpoint_bump, order_genset, oscillation, pair_relation, realize_by_frames, rescale_checked,
    retrofit_slopes, transport, wrap_general_by_spans, wrap_two_by_spans)
from helpers import frame_onto, retained

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
    # (u, s, t, v): the left foot (u, s) and the right foot [t, v)
    f = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16))
    assert f.feet == (((1, 4), (5, 16), (11, 16), (3, 4)),)
    assert f.feet is f.feet  # derived once
    neg = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16), sign=-1)
    assert neg.orbitals[0][2] == -1
    assert neg.feet == (((1, 4), (5, 16), (11, 16), (3, 4)),)


def test_marker_validation():
    f = make_bump_fn(F(1, 4), F(3, 4), F(5, 16), F(11, 16))
    with pytest.raises(RealizationError):
        MarkedFn(f.map, [F(7, 8)])
    with pytest.raises(RealizationError):
        MarkedFn(f.map, [F(5, 16), F(6, 16)])
    with pytest.raises(RealizationError):
        MarkedFn(PLMap.identity(), [])
    # a marker is read as a coordinate is: an (n, d) pair is no number
    with pytest.raises(TypeError, match="^not a number: tuple$"):
        MarkedFn(f.map, [(1, 2)])


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
    ((u, v, sign),) = r.orbitals
    # supported exactly on the left foot of the original
    assert (u, v) == f.feet[0][:2]
    assert sign == 1


def test_rescale_at_the_ends_of_the_unit_interval():
    moves_at_0 = make_bump_fn(0, F(1, 2), F(1, 8), F(3, 8))
    moves_at_1 = make_bump_fn(F(1, 2), 1, F(5, 8), F(7, 8), sign=-1)
    fixes_both = make_bump_fn(F(1, 4), F(1, 2), F(5, 16), F(7, 16))
    for f in (moves_at_0, moves_at_1, fixes_both, make_bump_fn(0, 1, F(1, 4), F(3, 4))):
        assert fn_shape(f) == fn_shape(checked_copy(f))
    # `transport` carries only functions that fix 0 and 1, as builds keep
    for lo, hi in ((0, F(1, 2)), (F(1, 2), 1), (F(1, 4), F(3, 4)), (0, 1)):
        moved = transport(fixes_both, frame_onto(lo, hi), fixes_both.name)
        assert fn_shape(moved) == fn_shape(rescale_checked(fixes_both, lo, hi))
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
    b, a = realize(parse_term("E(1+1)"))
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
    # a pair whose supports touch at 1/2 is f << g, with oscillation 0
    touching = [make_bump_fn(F(1, 4), F(1, 2), F(5, 16), F(7, 16), 1, "f"),
                make_bump_fn(F(1, 2), F(3, 4), F(9, 16), F(11, 16), 1, "g")]
    assert pair_relation(*touching) == "<<"
    assert signature_of(touching) == pair(0)
    sets = [fig_g_set(), fig_bz_set(), touching]
    sets += [realize(s) for s in enumerate_signatures(3, 3)]
    for fns in sets:
        assert is_sgen(fns) == all(is_standard_pair(f, g)
                                   for f, g in itertools.combinations(fns, 2))


def test_a_function_given_twice_is_refused_as_not_fast():
    # a set with one function twice ties two maximum transition points, and
    # the fastness check alone refuses it: the two right feet [t, v) overlap.
    # Over every function of the realized sets with n <= 5 and values <= 3,
    # given twice in place, once as itself and once as a renamed copy
    sigs = [s for n in range(1, 6) for s in enumerate_signatures(n, 3)]
    assert len(sigs) == 1136
    doubled = 0
    for s in sigs:
        fns = realize(s)
        for i, f in enumerate(fns):
            for twin in (f, MarkedFn._trusted(f.map, f.markers, "twin")):
                twice = fns[:i + 1] + [twin] + fns[i + 1:]
                assert not is_fast(twice) and not is_sgen(twice), (s, i)
                with pytest.raises(NotFastError, match="^a standard generating set requires"):
                    signature_of(twice)
                doubled += 1
    assert doubled == 2 * sum(s.n for s in sigs)


def test_bump_feet_are_ordered(realized_n5):
    """u < s < t < v for every orbital (u, v) marked at s: MarkedFn.feet
    derives the transition point t without a check.  Over the n = 5 sets and
    the sets tests/test_words.py uses."""
    sets = list(realized_n5) + [fig_g_set(), fig_bz_set(), [TWO_BUMPS]]
    sets += [retrofit_slopes(fig_g_set())]
    sets += [realize(s) for s in enumerate_signatures(3, 3)]
    sets += [realize(parse_term(t)) for t in ("1*1", "E(1+1)*E(1+1)", "1+1", "E(1+1)*1")]
    sets += [realize(Signature(3, (1, 1, 1)))]
    sets += [[canonical_bump(F(1, 8), F(3, 8)), canonical_bump(F(1, 2), F(7, 8))]]
    signs = set()
    for fns in sets:
        for f in fns:
            assert [(u, s, v) for u, s, _, v in f.feet] == [
                (u, s, v) for (u, v, _), s in zip(f.orbitals, f.markers)]
            for (u, s, t, v), (_, _, sign) in zip(f.feet, f.orbitals):
                assert frac(u) < frac(s) < frac(t) < frac(v)
                signs.add(sign)
    assert signs == {1, -1}


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
    fns = realize(parse_term("E(1+1)"))
    assert [len(f.orbitals) for f in fns] == [1, 2]
    assert [sign for _, _, sign in fns[1].orbitals] == [-1, 1]
    # inner bump straddles the top's expansion point
    ((u, v, _),) = fns[0].orbitals
    expansion = fns[1].orbitals[0][1]
    assert frac(u) < frac(expansion) < frac(v)


def test_realize_tower_pairs_match_figure():
    for k in (4, 5):
        fns = realize(pair(k))
        assert [len(f.orbitals) for f in fns] == [k - 1, k]
        signs = [sign for _, _, sign in fns[1].orbitals]
        assert signs == [-1] * (k // 2) + [1] * (k - k // 2)


def test_realize_fig3():
    sig = parse_term("E(1*1+1+1)")
    assert signature_of(realize(sig)) == sig


def test_realize_round_trip_enumerated_small():
    for s in enumerate_signatures(3, 3):
        assert signature_of(realize(s)) == s


def test_dropping_a_generator_restricts_the_signature():
    # the paper's order on the geometry: the functions of a realized set at
    # a subset of its generators have the restricted matrix as signature, for
    # every signature with n = 2..5 and values <= 3: at every proper nonempty
    # subset for n <= 4, and with one generator dropped for n = 5
    checks = 0
    for n in range(2, 6):
        subsets = ([[k for k in range(n) if mask >> k & 1] for mask in range(1, 2 ** n - 1)]
                   if n < 5 else [[k for k in range(n) if k != drop] for drop in range(n)])
        for s in enumerate_signatures(n, 3):
            fns = realize(s)
            for kept in subsets:
                assert signature_of([fns[k] for k in kept]) == sig_restrict(s, kept)
                checks += 1
    assert checks == 6945


SIG5 = parse_term("E(1*1+1+1+1)")


def _fresh_build_cache(monkeypatch, size=build.BUILD_CACHE_SIZE, memo=dict):
    """An empty build memo, a `memo()`, of the given bound for the rest of the test."""
    monkeypatch.setattr(build, "_memo", memo())
    monkeypatch.setattr(build, "BUILD_CACHE_SIZE", size)


def _recording_build_cache(monkeypatch, size=build.BUILD_CACHE_SIZE):
    """An empty build memo for the rest of the test, and the list of the
    (pair values, build) entries it takes, each once: a hit re-enters the
    memo with the build it holds."""
    built, held = [], set()

    class Recording(dict):
        def __setitem__(self, sig, entry):
            if id(entry[0]) not in held:  # built kept, so no id is reused
                held.add(id(entry[0]))
                built.append((sig, entry[0]))
            super().__setitem__(sig, entry)

    _fresh_build_cache(monkeypatch, size, Recording)
    return built


def test_build_cache_is_bounded(monkeypatch):
    built = _recording_build_cache(monkeypatch, size=8)
    for s in enumerate_signatures(4, 2):
        assert signature_of(realize(s)) == s
        assert len(build._memo) <= 8
    sigs = [sig for sig, _ in built]
    assert len(sigs) > len(set(sigs))  # entries were dropped and rebuilt
    # least recently used first: a hit moves its entry last, building nothing
    a, b = pair(1), pair(2)
    realize(a), realize(b)
    count = len(built)
    realize(a)
    assert list(build._memo)[-1] == a.vals and len(built) == count


def test_verify_checks_the_round_trip_against_the_input(monkeypatch, capsys):
    # realize walks nothing, and a standard set's oscillations satisfy (!),
    # so neither realize nor signature_of checks (!) again; verify compares
    # the signature of the set realize builds with its input, and exits 1
    # when a set of another signature comes back: the set realized from
    # another signature, with its own n, handed back where verify imports
    # realize
    checked = []
    violations = Signature.violations

    def counting_violations(self):
        checked.append(self)
        return violations(self)

    monkeypatch.setattr(Signature, "violations", counting_violations)
    assert signature_of(realize(SIG5)) == SIG5 and checked == []
    cases = [(sig, other, genset_to_json(realize(sig)), realize(other))
             for sig, other in ((pair(1), parse_term("E(1+1)")), (pair(1), one), (SIG5, pair(3)))]
    checked.clear()  # pair() checks the signatures it makes
    for sig, other, text, fns in cases:
        monkeypatch.setattr("sigcalc.realization.realize", lambda s, fns=fns: fns)
        capsys.readouterr()
        assert cli.main(["verify", text]) == 1
        assert capsys.readouterr() == (
            "", f"error: realization round trip failed: built {other!r} for {sig!r}\n")
    assert checked == []


def test_realize_computes_orbitals_once_per_function(monkeypatch):
    # a cold realize walks no map and calls no checked constructor: it makes
    # one map per output function and hands it the orbitals it places, and a
    # later signature_of, which reads each function's feet, walks none either
    made, walked, checked = [], [], []
    trusted, orbitals, init = MarkedFn._trusted.__func__, PLMap._orbitals, MarkedFn.__init__

    def counting_trusted(cls, plmap, *args):
        made.append(plmap)
        return trusted(cls, plmap, *args)

    def counting_orbitals(self):
        if self._orbs is None:  # a computation, not a stored read
            walked.append(self)
        return orbitals(self)

    def counting_init(self, *args):
        checked.append(self)
        init(self, *args)

    monkeypatch.setattr(MarkedFn, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(PLMap, "_orbitals", counting_orbitals)
    monkeypatch.setattr(MarkedFn, "__init__", counting_init)
    _fresh_build_cache(monkeypatch)
    fns = realize(SIG5)
    assert list(map(id, made)) == [id(f.map) for f in fns]
    assert walked == [] and checked == []
    assert signature_of(fns) == SIG5
    assert walked == [] and checked == [] and len(made) == SIG5.n


def test_a_second_realize_derives_no_bump(monkeypatch):
    # realize reads no map, cold or warm: an output function derives its own
    # feet on first read, and no realize evaluates a map or derives an orbital
    _fresh_build_cache(monkeypatch)
    calls = []
    at, orbitals = PLMap._at, PLMap._orbitals

    def counting_at(self, *args, **kwargs):
        calls.append("at")
        return at(self, *args, **kwargs)

    def counting_orbitals(self):
        if self._orbs is None:  # a computation, not a stored read
            calls.append("orbitals")
        return orbitals(self)

    monkeypatch.setattr(PLMap, "_at", counting_at)
    monkeypatch.setattr(PLMap, "_orbitals", counting_orbitals)
    first, second = realize(SIG5), realize(SIG5)
    assert calls == []
    assert all(f._feet is None for f in first + second)
    assert [fn_shape(f) for f in second] == [fn_shape(f) for f in first]


def test_placed_functions_match_checked_constructor():
    # every output function of the 1,296 signatures with n <= 4 and values
    # <= 4, or n = 5 and values <= 3: its map, orbitals, markers and the
    # feet it derives from them are the checked constructors'
    sigs = [s for n in range(5) for s in enumerate_signatures(n, 4)] + enumerate_signatures(5, 3)
    assert len(sigs) == 1296
    for s in sigs:
        for f in realize(s):
            checked = checked_copy(f)
            assert (f.map._bp, f.map._orbitals(), f.orbitals, f.markers) == (
                checked.map._bp, checked.map._orbitals(), checked.orbitals, checked.markers)
            assert f.feet == checked.feet


def test_realize_drops_the_junctions_collinear_on_the_grid():
    # the point (v, v) where an orbital meets the next falls on the line
    # between its neighbours for some grid positions, and goes, as the
    # checked constructor drops it; every other point an orbital gives stays,
    # and each map carries the slopes `_minimal` gives its breakpoints.  Each
    # junction dropped joins a negative orbital to a positive one: at a (+, +)
    # or (-, -) junction the slopes on its two sides lie on opposite sides of
    # 1, and a standard function has no (+, -) junction
    kept, dropped = {}, 0
    for sig in (sig for n in range(2, 5) for sig in enumerate_signatures(n, 3)):
        for f in realize(sig):
            points, quads = f.map.points, plmap._quads(f.map._bp)
            assert f.map.slopes == plmap._minimal(quads)[1]
            assert f.orbitals[0][0] * 2 in quads and f.orbitals[-1][1] * 2 in quads
            for (_, s, t, _), (_, _, sign) in zip(f.feet, f.orbitals):
                assert (s + t if sign > 0 else t + s) in quads
            for (_, v, left), (*_, right) in zip(f.orbitals, f.orbitals[1:]):
                if v + v in quads:
                    kept[left, right] = kept.get((left, right), 0) + 1
                else:
                    i = next(i for i, q in enumerate(quads) if _lt(v, q[:2]))
                    assert _slopes(points[i - 1:i + 1]) == _slopes([points[i - 1], (frac(v),) * 2])
                    assert (left, right) == (-1, 1)
                    dropped += 1
    assert (kept, dropped) == ({(-1, 1): 232, (1, 1): 117}, 89)


def test_general_wrap_drops_a_collinear_junction():
    # the frame build's general wrap (tests/oracles.py) on two rotated tops
    # whose first piece continues the line from the new negative orbital's
    # interior point (b, 19/96): the junction (u_t, u_t) is dropped.  First a
    # top with left end 3/8, for b = (1/3 + 3/8) / 2; then the bump on (1/2,
    # 13/20) through (27/50, 129/200), as `marked._bump` builds it, which
    # leaves 1/2 with slope 29/8, as (b, 19/96) reaches it for b = (1/3 +
    # 1/2) / 2
    t = MarkedFn(PLMap([(0, 0), (F(3, 8), F(3, 8)), (F(25, 64), F(65, 128)),
                        (F(5, 8), F(5, 8)), (1, 1)]), [F(25, 64)])
    top = oracles._wrap_general(t, UNIT, [])
    assert (F(3, 8), F(3, 8)) not in top.map.points
    assert [o[:2] for o in top.orbitals] == [
        ((1, 16), (3, 8)), ((3, 8), (5, 8)), ((5, 8), (15, 16))]
    assert fn_shape(top) == fn_shape(checked_copy(top))
    top = oracles._wrap_general(marked._bump((1, 2), (13, 20), (27, 50), (129, 200)), UNIT, [])
    assert (F(1, 2), F(1, 2)) not in top.map.points
    assert [o[:2] for o in top.orbitals] == [
        ((1, 16), (1, 2)), ((1, 2), (13, 20)), ((13, 20), (15, 16))]
    assert fn_shape(top) == fn_shape(checked_copy(top))


def test_a_general_wrap_can_be_collinear_only_at_a_one_bump_tops_left_end(monkeypatch):
    # every general wrap of the frame build from a cold memo for n <= 4 and
    # values <= 4, then n = 5 and values <= 3, against the slopes its
    # docstring bounds: only the junction at u_t can be collinear, and only
    # when the top is one positive bump
    wraps, wrap = [], oracles._wrap_general
    monkeypatch.setattr(oracles, "_wrap_general", lambda f, frame, others: wraps.append(
        (transport(f, frame), wrap(f, frame, others))) or wraps[-1][1])
    monkeypatch.setattr(oracles, "_frame_builds", {})
    for s in [s for n in range(5) for s in enumerate_signatures(n, 4)] + enumerate_signatures(5, 3):
        build_by_frames(s)
    one_bump = collinear = 0
    for t, top in wraps:
        inner, pts = t.map.points, top.map.points
        u, v = (frac(t.orbitals[0][0]),) * 2, (frac(t.orbitals[-1][1]),) * 2
        i, j = inner.index(u), inner.index(v)
        (first,), (last,) = _slopes(inner[i:i + 2]), _slopes(inner[j - 1:j + 1])
        l0, neg, pos, r0 = pts[1], pts[2], pts[-3], pts[-2]
        assert (l0, neg[1], pos[1], r0) == (
            (F(1, 16),) * 2, F(19, 96), F(77, 96), (F(15, 16),) * 2)
        (off_l0, into_u), (off_v, into_r0) = _slopes([l0, neg, u]), _slopes([v, pos, r0])
        assert off_l0 < F(1, 2) and into_r0 < F(1, 2)
        assert into_u > 1 and off_v > 1 and last < 1
        if t.orbitals[0][2] > 0:
            assert len(t.orbitals) == 1
            one_bump += 1
        else:
            assert first < 1
        collinear += first == into_u
        assert (u in pts) == (first != into_u) and v in pts
    assert (len(wraps), one_bump, collinear) == (413, 336, 0)


# 8 E( around 16 ones: n = 16, 112 general wraps with up to 15 retained functions
TOWER = parse_term("E(" * 8 + "+".join(["1"] * 16) + ")" * 8)


def test_the_wraps_read_the_retained_feet_as_the_merged_spans_do(monkeypatch):
    # every two-orbital and general wrap of the frame build from a cold memo
    # for n <= 4 and values <= 4, then n = 5 and values <= 3, then the tower:
    # its top is the one the merged spans of every retained foot give, and no
    # retained foot's closure holds the support it wraps, (u, v) or (u_t,
    # v_t), inside it past an end, which reading each end once relies on.
    # The two-orbital wrap is handed no retained function, as no retained
    # foot end lies inside (u, v): they are read off the wrapping level of
    # `oracles.build_by_frames`.  So `build` may put the new points next to
    # the rotated top's in the order
    seen = {"_wrap_two": [], "_wrap_general": []}

    def recording(name, wrap, oracle):
        def call(*args):
            if name == "_wrap_general":
                *points, others = args
                others = list(others)
                top = wrap(*points, iter(others))
                points = [transport(*points)]  # the rotated top, and its frame
            else:
                points, others = args, retained(sys._getframe(1))
                top = wrap(*points)
            want = oracle(*points, others)
            assert (top.map._bp, top.orbitals, top.markers) == (
                want.map._bp, want.orbitals, want.markers)
            if name == "_wrap_general":
                points = [points[0].orbitals[0][0], points[0].orbitals[-1][1]]
            u, v = map(frac, points)
            for f, frame in others:
                for foot in f.feet:
                    ends = [frac(oracles.place(frame, p)) for p in foot]
                    for lo, hi in (ends[:2], ends[2:]):
                        assert not any(lo < frac(p) < hi for p in points)
                    if name == "_wrap_two":
                        assert not any(u < end < v for end in ends)
            seen[name].append(len(others))
            return top
        return call

    for name, oracle in (("_wrap_two", wrap_two_by_spans), ("_wrap_general", wrap_general_by_spans)):
        monkeypatch.setattr(oracles, name, recording(name, getattr(oracles, name), oracle))
    monkeypatch.setattr(oracles, "_frame_builds", {})
    sigs = [s for n in range(5) for s in enumerate_signatures(n, 4)] + enumerate_signatures(5, 3)
    for s in sigs:
        build_by_frames(s)
    assert (len(seen["_wrap_two"]), len(seen["_wrap_general"])) == (252, 413)
    build_by_frames(TOWER)
    assert (len(seen["_wrap_two"]), len(seen["_wrap_general"])) == (252 + 15, 413 + 112)
    assert max(seen["_wrap_two"]) == max(seen["_wrap_general"]) == 15


def test_realize_orders_the_reference_sets_points():
    # every signature with n <= 5 and values <= 3: the points of the frame
    # build's set (tests/oracles.py), each function's k-th read at its owner's
    # k-th entry in the build, strictly increase along its order, which holds
    # each function's points once; each function realize places on the grid
    # has the orbital signs it derives from its point count, the reference
    # one's; and the set has the reference set's signature and diagram
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    assert len(sigs) == 1137
    for s in sigs:
        owners, _ = build._build(s)
        ref = realize_by_frames(s)
        points = [[f.feet[0][0], *(p for _, *stv in f.feet for p in stv)] for f in ref]
        seen, xs = [0] * s.n, []
        for fi in owners:
            xs.append(frac(points[fi][seen[fi]]))
            seen[fi] += 1
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert seen == list(map(len, points))
        fns = realize(s)
        assert [[sign for *_, sign in f.orbitals] for f in fns] == [
            [sign for *_, sign in f.orbitals] for f in ref]
        assert signature_of(fns) == signature_of(ref) == s
        assert diagram(fns) == diagram(ref)


def test_realized_points_are_dyadic(realized_n5):
    # every breakpoint and marker of the realized sets with n <= 5 and values
    # <= 3 lies on the grid k / 2^e, so has a power-of-two denominator
    sets = [realize(s) for n in range(5) for s in enumerate_signatures(n, 3)] + realized_n5
    for fns in sets:
        for f in fns:
            assert all(d & (d - 1) == 0 for d in f.map._bp[1::2])
            assert all(d & (d - 1) == 0 for _, d in f.markers)


def test_build_memo_keeps_one_flat_tuple(monkeypatch):
    # from a cold memo, after the 64-leaf chain and every signature with n <= 4
    # and values <= 4: each entry, under its signature's pair values, is
    # (owners, depth), the owners one flat tuple of integers holding, for each
    # point, the index of its function, and each function index in range(n)
    # owning 3m + 1 entries, m >= 1; so the memo holds no map, no marked
    # function, no point index and no sign, and neither base of n <= 1 (both
    # b"") is kept
    _fresh_build_cache(monkeypatch)
    sigs = [parse_term("*".join(["1"] * 64))] + [s for n in range(5) for s in enumerate_signatures(n, 4)]
    for s in sigs:
        assert signature_of(realize(s)) == s
    assert b"" not in build._memo and len(build._memo) > 200
    for vals, (owners, depth) in build._memo.items():
        assert type(vals) is bytes and type(owners) is tuple and type(depth) is int
        assert all(type(fi) is int for fi in owners)
        n = next(n for n in itertools.count(2) if n * (n - 1) // 2 == len(vals))
        counts = [owners.count(fi) for fi in range(n)]
        assert sum(counts) == len(owners) and all(c > 1 and c % 3 == 1 for c in counts)


def test_each_rotation_level_reads_its_largest_top_value_off_the_rotation(monkeypatch):
    # every level `_build` rotates, from a cold memo, for each signature with
    # n <= 5 and values <= 3 and the 64-leaf chain: the largest value against
    # the top is one more than the largest of the rotation's first row, and
    # when it is at most 2 the rotated build's first function owns four
    # adjacent entries, so is realized as one positive orbital, first in the
    # order when the largest value is 1: the unit bump, with no point inside
    # its support
    _fresh_build_cache(monkeypatch)
    levels, rotate = [], build.sig_rotate
    monkeypatch.setattr(build, "sig_rotate", lambda s: levels.append((s, rotate(s))) or levels[-1][1])
    for s in [s for n in range(6) for s in enumerate_signatures(n, 3)] + [
            parse_term("*".join(["1"] * 64))]:
        build._build(s)
    assert len(levels) == 780
    unit = 0
    for s, rotation in levels[:]:  # each rotated build below is a memo hit
        top = s.n - 1
        largest = max(s.val(i, top) for i in range(top))
        assert largest == max(rotation.vals[:top]) + 1
        if largest <= 2:
            owners = build._build(rotation)[0]
            first = owners.index(0)
            assert owners.count(0) == 4 and owners[first:first + 4] == (0, 0, 0, 0)
            assert [sign for *_, sign in realize(rotation)[0].orbitals] == [1]
            assert first == 0 or largest == 2
            unit += 1
    assert unit == 462


def test_realize_builds_no_inverse_map(monkeypatch):
    # a negative bump's foot is one preimage, read without inverting the map
    inverted = []
    inverse = PLMap.inverse

    def counting_inverse(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(PLMap, "inverse", counting_inverse)
    _fresh_build_cache(monkeypatch)
    fns = realize(SIG5)
    assert any(sign < 0 for f in fns for _, _, sign in f.orbitals)
    assert inverted == []


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
    assert [o[:2] for o in CROSSING.orbitals] == [((0, 1), (1, 3)), ((1, 3), (4, 5)),
                                                  ((4, 5), (1, 1))]
    fns = _distinct(f for s in enumerate_signatures(4, 3) for f in realize(s))
    for f in [CROSSING] + fns:
        for g in _rotation_chain(f):
            assert fn_shape(g) == fn_shape(checked_copy(g))
    for f in fns:  # `transport` carries only functions that fix 0 and 1, as builds keep
        for lo, hi in INTERVALS:
            g = transport(f, frame_onto(lo, hi))
            assert fn_shape(g) == fn_shape(checked_copy(g))


def _last_positive_foot(f):
    """(u, s): the last positive orbital's left end and marker, as Fractions."""
    return [(frac(u), frac(s)) for (u, _, sign), s in zip(f.orbitals, f.markers) if sign > 0][-1]


def test_one_rotation(realized_n5):
    """A rotated function's orbitals are those the checked constructor
    recomputes from its points; of more than two, its markers are the inner
    ones; of at most two, it is the checked midpoint bump on the left foot
    (u, s) of the last positive orbital, which the oracle finds by a sign
    scan where `fn_rotate` takes the last orbital."""
    small = [realize(s) for n in range(1, 5) for s in enumerate_signatures(n, 3)]
    fns = _distinct(f for fs in small + realized_n5 + [fig_bz_set(), fig_g_set()] for f in fs)
    one_bump = 0
    for f in fns:
        for g in _rotation_chain(f):
            r = fn_rotate(g)
            assert r.orbitals == PLMap(r.map.points)._orbitals()
            if len(g.orbitals) > 2:
                assert (r.orbitals, r.markers) == (g.orbitals[1:-1], g.markers[1:-1])
            else:
                assert fn_shape(r) == fn_shape(midpoint_bump(*_last_positive_foot(g), r.name))
                one_bump += 1
    assert one_bump > len(fns)


def test_one_bump_rotation_of_a_bump_moving_points_near_0():
    # a top whose orbital starts at 0, which a JSON set can give and a build
    # cannot: its rotated bump starts at 0 too, with no (0,0) put before (u,u)
    g = {"breakpoints": [["0", "0"], ["1/4", "7/16"], ["1/2", "1/2"], ["1", "1"]],
         "markers": ["1/4"], "name": "g"}
    f = {"breakpoints": [["0", "0"], ["5/16", "5/16"], ["21/64", "23/64"], ["3/8", "3/8"],
                         ["1", "1"]], "markers": ["21/64"], "name": "f"}
    fns = genset_from_json(json.dumps([f, g]))
    assert signature_of(fns) == pair(1)
    rotated, inner = set_rotate(fns)  # g^o on (0,1/4) now lies left of f
    assert inner is fns[0]
    want = midpoint_bump(0, F(1, 4), "g^o")
    assert fn_shape(rotated) == fn_shape(want) == fn_shape(checked_copy(rotated))
    assert rotated.map._bp[:8] == (0, 1, 0, 1, 1, 8, 3, 16)
    # the same pair carried onto (1/2, 1), after a bump h on (1/8, 1/4): the
    # top's summand starts at index 1, where its rotation lands
    h = {"breakpoints": [["0", "0"], ["1/8", "1/8"], ["3/16", "7/32"], ["1/4", "1/4"],
                         ["1", "1"]], "markers": ["3/16"], "name": "h"}
    g["breakpoints"] = [["0", "0"], ["1/2", "1/2"], ["5/8", "23/32"], ["3/4", "3/4"], ["1", "1"]]
    g["markers"] = ["5/8"]
    f["breakpoints"] = [["0", "0"], ["21/32", "21/32"], ["85/128", "87/128"],
                        ["11/16", "11/16"], ["1", "1"]]
    f["markers"] = ["85/128"]
    fns = genset_from_json(json.dumps([g, f, h]))
    assert signature_of(fns) == Signature(3, (0, 0, 1))
    low, rotated, inner = set_rotate(fns)
    assert (low, inner) == (fns[2], fns[1])
    assert fn_shape(rotated) == fn_shape(midpoint_bump(F(1, 2), F(5, 8), "g^o"))


def test_bump_builds_match_the_checked_references(monkeypatch):
    # the frame build's unit bump, and every single-bump wrap top it makes
    # for the signatures with n <= 4 and values <= 4, are the checked bumps
    # through the same points
    assert fn_shape(oracles.UNIT_BUMP) == fn_shape(canonical_bump(F(1, 4), F(3, 4)))
    monkeypatch.setattr(oracles, "_frame_builds", {})
    made = []
    monkeypatch.setattr(oracles, "_bump",
                        lambda *a: made.append((a, marked._bump(*a))) or made[-1][1])
    for s in (s for n in range(5) for s in enumerate_signatures(n, 4)):
        build_by_frames(s)
    assert len(made) > 30
    for args, top in made:
        assert fn_shape(top) == fn_shape(make_bump_fn(*map(frac, args)))


def test_realized_n5_matches_checked_constructor(realized_n5):
    for f in _distinct(f for fns in realized_n5 for f in fns):
        assert fn_shape(f) == fn_shape(checked_copy(f))


# sha256 of the realized n = 5 sets' JSON, concatenated in enumeration order,
# as the json.dumps writer printed them
REALIZED_N5_SHA256 = "cf19df0b0a53b1e5a390479c7a2e7dc237c81638e1570586833579f0cb6dad97"


def test_realized_n5_json_is_pinned(realized_n5):
    text = "".join(genset_to_json(fns) for fns in realized_n5)
    assert hashlib.sha256(text.encode()).hexdigest() == REALIZED_N5_SHA256


def _one_function_json(breakpoints, markers):
    return json.dumps([{"breakpoints": breakpoints, "markers": markers}])


def test_writer_matches_json_dumps(realized_n5):
    fns = realize(SIG5)
    names = ['say "hi"', "back\\slash", "new\nline", "\x00\x01\x1f\x7f\t", "ünï ∞ \U0001f600",
             ""]
    loaded = [
        genset_from_json(_one_function_json([[0, 0], ["1/3", "1/2"], [1, 1]], ["1/2"])),
        genset_from_json(_one_function_json(
            [["0", "0"], ["2/8", "1/4"], [0.5, "3/4"], ["1", 1]], ["1/2"])),
        genset_from_json(genset_to_json(fns)),
    ]
    sets = [[], fns, [MarkedFn(fns[0].map, [frac(s) for s in fns[0].markers])]] + loaded
    sets += [[MarkedFn._trusted(f.map, f.markers, name) for f in fns] for name in names]
    for s in sets + realized_n5:
        assert genset_to_json(s) == genset_to_json_dumps(s)


def test_diagram_unchanged_by_transport_and_renaming(realized_n5):
    for fns in realized_n5:
        d = diagram(fns)
        assert diagram([transport(f, frame_onto(F(1, 7), F(5, 9)), f.name) for f in fns]) == d
        new = {f.name: f"r{f.name}r" for f in fns}
        renamed = diagram([transport(f, UNIT, new[f.name]) for f in fns])
        assert (renamed.num_vertices, renamed.edges) == (d.num_vertices, d.edges)
        assert renamed.names == tuple(new[name] for name in d.names)


def test_transport_computes_no_orbitals(monkeypatch):
    # nor places any: a carried copy's orbitals are derived on first read;
    # the outputs' own are derived here, and their rotations are handed theirs
    fns = realize(SIG5)
    for f in fns:
        f.orbitals
    calls = []
    orbitals, canonical = PLMap._orbitals, plmap._canonical

    def counting_orbitals(self):
        if self._orbs is None:  # a computation, not a stored read
            calls.append("orbitals")
        return orbitals(self)

    def counting_canonical(points):
        calls.append("canonical")
        return canonical(points)

    monkeypatch.setattr(PLMap, "_orbitals", counting_orbitals)
    monkeypatch.setattr(plmap, "_canonical", counting_canonical)
    for f in fns:
        transport(f, UNIT, "x")
        for g in _rotation_chain(f):
            for lo, hi in INTERVALS:
                assert transport(g, frame_onto(lo, hi)).map._orbs is None
    assert calls == []
    checked_copy(fns[0])  # the checked path is still counted
    assert calls == ["canonical", "orbitals"]


def test_whole_set_ordered_and_fast_checked_once(monkeypatch, capsys):
    fns = realize(SIG5)
    sizes = []
    fast_ordered = genset._fast_ordered

    def counting(fs, what):
        sizes.append(len(fs))
        return fast_ordered(fs, what)

    # the package's `diagram` is the function, so its module is read from sys.modules
    for module in (genset, sys.modules["sigcalc.realization.diagram"]):
        monkeypatch.setattr(module, "_fast_ordered", counting)
    # realize checks nothing; verify checks its input, then the set realize
    # builds from its signature; the diagram reads the feet its fastness
    # check keyed; rotation and inflation order their input, not their output
    runs = [(lambda: signature_of(fns), 1), (lambda: realize(SIG5), 0),
            (lambda: is_sgen(fns), 1), (lambda: diagram(fns), 1),
            (lambda: set_rotate(fns), 1), (lambda: set_inflate(fns, 2), 1),
            (lambda: cli.main(["verify", genset_to_json(fns)]) == 0, 2)]
    for run, sets in runs:
        sizes.clear()
        assert run()
        assert sizes == [SIG5.n] * sets


def test_standard_walk_builds_no_map(monkeypatch):
    fns, fig_g = realize(SIG5), fig_g_set()
    made, rotated = [], []
    make, rotate = PLMap._make.__func__, marked.fn_rotate

    def counting_make(cls, *args):
        made.append(args)
        return make(cls, *args)

    def counting_rotate(f):
        rotated.append(f)
        return rotate(f)

    monkeypatch.setattr(PLMap, "_make", classmethod(counting_make))
    for module in (marked, genset):
        monkeypatch.setattr(module, "fn_rotate", counting_rotate)
    _, sig = genset._standard_walk(fns)
    assert max(sig.vals) >= 2  # some pair takes two rotation steps
    with pytest.raises(NotSgenError):  # h inside f, but not inside f rotated
        genset._standard_walk(fig_g)
    assert (made, rotated) == ([], [])
    set_rotate(fns)  # rotating the top builds its map, and is counted
    assert made and len(rotated) == 1


def test_realized_sets_are_sgen():
    for s in enumerate_signatures(3, 2):
        assert is_sgen(realize(s))


# --- realized-set invariants ----------------------------------------------------------


def test_o_cut_one_on_realized(realized_n5):
    """o(f,g) = o(g rotated, f) + 1 for nested standard pairs, so the walk's
    step counts are the counted oscillations: signature_of equals the
    oracle's matrix on every realized set with n <= 5, values <= 3, and on
    every rotation and inflation of those with n <= 4, each standard (the
    one empty set is the rotation of the one-element set)."""
    small = [realize(s) for n in range(1, 5) for s in enumerate_signatures(n, 3)]
    for fns in small:
        for f, g in itertools.combinations(fns, 2):
            if pair_relation(f, g) == "in":
                assert oscillation(f, g) == oscillation(fn_rotate(g), f) + 1
    images = [set_rotate(fns) for fns in small]
    images += [set_inflate(fns, m) for fns in small for m in range(len(fns))]
    assert (len(small) + len(realized_n5), len(images)) == (1136, 802)
    for out in images:  # placed in the oracle's order, not sorted into it
        assert list(map(id, order_genset(out))) == list(map(id, out))
    for fns in small + realized_n5 + images:
        fns = order_genset(fns)
        counted = [oscillation(f, g) for f, g in itertools.combinations(fns, 2)]
        sig = signature_of(fns)  # built unchecked
        assert list(sig.vals) == counted and sig.violations() == []


def test_one_keys_pass_orders_shuffled_sets_as_fractions_do():
    """Every realized set with n <= 4, values <= 3, its rotation and its
    inflations, each in a seeded shuffled order: `_fast_ordered` returns the
    oracle's order, its keys order every foot end as their Fractions do, and
    the set verbs print the same bytes as on the ordered set, inflating at
    one seeded index."""
    rng = random.Random(1)
    small = [realize(s) for n in range(1, 5) for s in enumerate_signatures(n, 3)]
    sets = small + [set_rotate(fns) for fns in small]
    sets += [set_inflate(fns, m) for fns in small for m in range(len(fns))]

    def printed(fns, m):
        return (sig_to_json(signature_of(fns)), genset_to_json(set_rotate(fns)),
                m is not None and genset_to_json(set_inflate(fns, m)), to_dot(diagram(fns)))

    for fns in sets:
        ordered, shuffled = order_genset(fns), rng.sample(fns, len(fns))
        m = rng.randrange(len(fns)) if fns else None  # one inflation, at a seeded index
        got, ends, _ = genset._fast_ordered(shuffled, "a shuffled set")
        assert got == ordered
        points = sorted(zip(itertools.chain.from_iterable(ends),
                            [frac(e) for f in got for foot in f.feet for e in foot]))
        assert all((ka < kb) == (a < b) for (ka, a), (kb, b) in zip(points, points[1:]))
        assert printed(shuffled, m) == printed(ordered, m)


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
    fns = realize(parse_term("E(1+1)"))
    back = genset_from_json(genset_to_json(fns))
    assert [f.map for f in back] == [f.map for f in fns]
    assert [f.markers for f in back] == [f.markers for f in fns]
    assert signature_of(back) == parse_term("E(1+1)")
    # the sets the words benchmark reads back: the reader's maps carry the
    # slopes its one pass computed, which must be the ones derived afresh
    sigs = enumerate_signatures(3, 3)
    assert len(sigs) == 22
    for s in sigs:
        fns = realize(s)
        for f, g in zip(fns, genset_from_json(genset_to_json(fns)), strict=True):
            assert g.map._bp == f.map._bp, s
            assert g.map.slopes == PLMap._make(f.map._bp)._known_slopes(), s
            assert (g.orbitals, g.markers, g.name) == (f.orbitals, f.markers, f.name), s


def test_midpoint_bump_shape():
    # the bump on (0,3/4) marked at 1/2 rotates to the one on (0,1/2) that
    # maps its midpoint 1/4 to the 3/4 point 3/8
    f = fn_rotate(make_bump_fn(0, F(3, 4), F(1, 2), F(5, 8)))
    assert f.orbitals == (((0, 1), (1, 2), 1),)
    assert f.map(F(1, 4)) == F(3, 8)
    assert f.markers == ((1, 4),)
