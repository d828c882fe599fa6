import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import DENOMINATORS, bump_map, random_bump_pair, random_fractions, random_pl_map
from oracles import (
    _slopes, commutator, compose_pointwise, eval_pointwise, increasing_points, power_pointwise,
    pred_C_products, ratio_by_regex, swapped)
from sigcalc.realization import PLMap, genset_from_json, pl_eval, pred_C, realize
from sigcalc.realization.plmap import PLError, ratio
from sigcalc.signature import enumerate_signatures

def increasing(rng, n, den):
    """n points from 0 to 1, strictly increasing, with denominator den."""
    return [F(0)] + [F(k, den) for k in sorted(rng.sample(range(1, den), n - 2))] + [F(1)]


def random_map(rng, den=None):
    den = den or rng.choice(DENOMINATORS)
    n = rng.randint(2, min(7, den + 1))
    return PLMap(zip(increasing(rng, n, den), increasing(rng, n, den)))


def test_identity():
    i = PLMap.identity()
    assert i.is_identity
    assert i(F(1, 3)) == F(1, 3)
    assert i.orbitals() == []


def test_canonical_removes_collinear():
    a = PLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    assert a == PLMap.identity()


def test_rejects_bad_breakpoints():
    for points in (
        [(0, 0), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2)), (1, 1)],
        [(0, 0), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 3)), (1, 1)],
        [(0, 0), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 2)), (1, 1)],
        [(F(1, 8), 0), (1, 1)],
        [(0, 0), (F(1, 2), F(1, 2))],
        [(0, 0), (1, 1), (2, 2)],
        [],
    ):
        with pytest.raises(PLError):
            PLMap(points)


def test_eval_and_inverse():
    f = bump_map(F(1, 4), F(3, 4), F(3, 8), F(5, 8))
    assert f(F(3, 8)) == F(5, 8)
    assert f(F(1, 4)) == F(1, 4)
    g = f.inverse()
    assert g(F(5, 8)) == F(3, 8)
    assert f.then(g).is_identity
    assert (f ** 3).then(f ** -3).is_identity
    for x in (F(-1, 2), F(3, 2)):
        with pytest.raises(PLError) as e:
            f(x)
        assert str(e.value) == f"{x} outside [0,1]"


def test_composition_exact_random():
    rng = random.Random(12)
    f = bump_map(F(1, 8), F(1, 2), F(1, 4), F(3, 8))
    g = bump_map(F(1, 4), F(7, 8), F(1, 2), F(3, 4))
    h = f.then(g)
    for _ in range(50):
        x = F(rng.randint(0, 997), 997)
        assert h(x) == g(f(x))


COMMUTING_KINDS = ("random", "identity", "equal", "powers", "disjoint", "overlapping", "late")


def commuting_case(rng, kind):
    """(x, y, whether x and y are known to commute, or None if unknown)."""
    if kind == "random":
        return random_pl_map(rng), random_pl_map(rng), None
    if kind in ("disjoint", "overlapping"):
        x, y = random_bump_pair(rng, kind == "overlapping")
        return x, y, kind == "disjoint"
    m = random_pl_map(rng)
    if kind == "late":
        # powers of one map on [0, 1/2], each then a bump on (1/2, 1) with
        # the two bumps overlapping: the products first differ past 1/2
        half = PLMap([(x / 2, y / 2) for x, y in m.points] + [(1, 1)])
        p, q = random_bump_pair(rng, True, F(1, 2))
        j, k = rng.randint(-3, 3), rng.randint(-3, 3)
        return (half ** j).then(p), (half ** k).then(q), False
    if kind == "identity":
        x, y = m, PLMap.identity()
    elif kind == "equal":
        x, y = m, PLMap(m.points)
    else:
        x, y = m ** rng.randint(-3, 3), m ** rng.randint(-3, 3)
    return (x, y, True) if rng.random() < 0.5 else (y, x, True)


def test_pred_C_matches_both_products():
    seed = "pred_C"
    rng = random.Random(seed)
    for i in range(301):
        x, y, known = commuting_case(rng, COMMUTING_KINDS[i % len(COMMUTING_KINDS)])
        where = f"case {i} of seed {seed!r}"
        assert pred_C(x, y) == pred_C_products(x, y) == pred_C(y, x), where
        if known is not None:
            assert pred_C(x, y) == known, where


def test_merge_yields_the_composition():
    seed = "merge"
    rng = random.Random(seed)
    for i in range(200):
        f, g = random_pl_map(rng), random_pl_map(rng)
        for x, y in ((f, g), (g, f), (f, f.inverse()), (f, PLMap.identity())):
            slopes = []
            points = list(x._merge(y, slopes))
            xy = x.then(y)
            where = f"case {i} of seed {seed!r}"
            assert (0, 1, 0, 1) + tuple(c for p in points for c in p) == xy._bp, where
            assert tuple(slopes) == xy.slopes == int_slopes(xy), where


def with_collinear_points(rng):
    """A map, and its breakpoints with points added on its segments, in
    any order."""
    m = random_pl_map(rng)
    points = list(m.points)
    for (x1, y1), (x2, y2) in zip(m.points, m.points[1:]):
        for t in random_fractions(rng, rng.randint(0, 3), 16):
            points.append((x1 + (x2 - x1) * t, y1 + (y2 - y1) * t))
    rng.shuffle(points)
    return m, points


def test_checked_constructor_carries_slopes():
    seed = "collinear"
    rng = random.Random(seed)
    for i in range(200):
        m, points = with_collinear_points(rng)
        checked = PLMap(points)
        where = f"case {i} of seed {seed!r}"
        assert checked == m and checked.points == m.points, where
        assert checked.slopes == int_slopes(checked), where
        assert all(s != t for s, t in zip(checked.slopes, checked.slopes[1:])), where


# Coordinates that make repeated points, shared x, flat or falling runs,
# and ends outside [0,1]
_POOL = [F(n, 12) for n in range(13)] + [F(-1, 4), F(5, 4)]


def point_list(rng):
    """A map's breakpoints with collinear points added, then up to three
    points that repeat one of them, share an x with one of them, or come
    from _POOL, and one in ten times one point left out; shuffled, with
    coordinates as Fractions or as strings."""
    _, points = with_collinear_points(rng)
    xs = [x for x, _ in points]
    points += [rng.choice([rng.choice(points), (rng.choice(xs), rng.choice(_POOL)),
                           (rng.choice(_POOL), rng.choice(_POOL))])
               for _ in range(rng.randint(0, 3))]
    if rng.randrange(10) == 0:
        points.pop(rng.randrange(len(points)))
    rng.shuffle(points)
    return [(str(x), str(y)) for x, y in points] if rng.random() < 0.5 else points


def outcome(build, arg, error=PLError):
    """build(arg), or the `error` it raises."""
    try:
        return build(arg)
    except error as e:
        return e


def test_checked_constructor_matches_reference():
    seed = "checked constructor"
    rng = random.Random(seed)
    seen, in_order = set(), 0
    for i in range(500):
        shuffled = point_list(rng)
        # sorted by x, the points reach the constructor's path that skips its
        # sort whenever no two of them share an x
        by_x = sorted(shuffled, key=lambda p: F(p[0]))
        xs = [F(x) for x, _ in by_x]
        in_order += all(a < b for a, b in zip(xs, xs[1:]))
        for order, points in (("shuffled", shuffled), ("sorted by x", by_x)):
            want, got = outcome(increasing_points, points), outcome(PLMap, points)
            where = f"case {i} ({order}) of seed {seed!r}"
            if isinstance(want, PLError):
                assert isinstance(got, PLError) and str(got) == str(want), where
                seen.add(str(want))
            else:
                assert isinstance(got, PLMap) and got.points == tuple(want), where
                assert got.slopes == int_slopes(got), where
                seen.add("valid")
    # both refusals, and maps, are reached
    assert len(seen) == 3
    assert in_order >= 150, in_order


# ASCII digits (more zeros), signs, the slash, blanks (a no-break space among
# them), a non-ASCII decimal digit, and what int() or Fraction() would read
_RATIO_ALPHABET = "0123456789000+-/ \t\xa0\u0663_e."


def ratio_string(rng):
    """Up to 8 characters of _RATIO_ALPHABET, or half the time a string of
    the grammar's shape with one character of the alphabet put in or swapped."""
    if rng.random() < 0.5:
        return "".join(rng.choices(_RATIO_ALPHABET, k=rng.randint(0, 8)))

    def digits():
        return "".join(rng.choices("0123456789\u0663", k=rng.randint(1, 3)))

    s = (rng.choice(["", " ", "\t", "\xa0 "]) + rng.choice(["", "+", "-"]) + digits()
         + rng.choice(["", "/" + "0" * rng.randint(0, 2) + digits()])
         + rng.choice(["", " ", "\xa0"]))
    k = rng.randint(0, len(s))
    c = rng.choice(_RATIO_ALPHABET)
    return rng.choice([s, s[:k] + c + s[k:], s[:k] + c + s[k + 1:]])


def test_ratio_matches_regex_reference():
    seed = "ratio grammar"
    rng = random.Random(seed)
    seen = set()
    for i in range(20000):
        text = ratio_string(rng)
        want, got = outcome(ratio_by_regex, text, ValueError), outcome(ratio, text, ValueError)
        where = f"case {i} of seed {seed!r}: {text!r}"
        if isinstance(want, ValueError):
            assert type(got) is ValueError and str(got) == str(want), where
            seen.add("refused")
        else:
            assert got == want, where
            seen.add("fraction" if "/" in text else "integer")
            if "\u0663" in text:
                seen.add("non-ASCII digit")
    assert seen == {"refused", "integer", "fraction", "non-ASCII digit"}


def test_ratio_refuses_an_integer_pair():
    # readers take strings and numbers; the library's own (n, d) pairs never
    # pass through one, so a pair is refused like any other non-number
    with pytest.raises(TypeError, match="^not a number: tuple$"):
        ratio((1, 2))
    with pytest.raises(TypeError, match="^not a number: tuple$"):
        PLMap([(0, 0), ((1, 2), F(1, 3)), (1, 1)])


def interior(rng):
    """A fraction in (0,1) with denominator at most 97."""
    d = rng.randint(2, 97)
    return F(rng.randint(1, d - 1), d)


def map_and_points(rng):
    """A map with up to 6 interior breakpoints, and points to evaluate: its
    breakpoints' coordinates, the ends 0 and 1, and up to 6 more."""
    k = rng.randint(0, 6)
    xs, ys = set(), set()
    for c in (xs, ys):
        while len(c) < k:
            c.add(interior(rng))
    xs, ys = sorted(xs), sorted(ys)
    m = PLMap([(0, 0), *zip(xs, ys), (1, 1)])
    return m, [F(0), F(1), *xs, *ys, *(interior(rng) for _ in range(rng.randint(0, 6)))]


def test_one_point_image_and_preimage():
    seed = "one point"
    rng = random.Random(seed)
    for i in range(200):
        m, points = map_and_points(rng)
        inv = m.inverse()
        for x in points:
            image = m._at(x.numerator, x.denominator)
            preimage = m._at(x.numerator, x.denominator, back=True)
            where = f"case {i} of seed {seed!r}, at {x}"
            assert F(*image) == m(x) == eval_pointwise(m, x), where
            assert F(*preimage) == inv(x) == eval_pointwise(swapped(m), x), where
            # reduced pairs, with positive denominators
            assert image == F(*image).as_integer_ratio(), where
            assert preimage == F(*preimage).as_integer_ratio(), where


@pytest.mark.parametrize("seed", range(3))
def test_then_matches_pointwise_reference(seed):
    rng = random.Random(seed)
    for _ in range(100):
        f, h = random_map(rng), random_map(rng)
        f_inv = swapped(f)
        den = rng.choice((64, 96, 97))
        shared = PLMap(zip([y for _, y in f.points], increasing(rng, len(f.points), den)))
        for g in (h, f_inv, shared, compose_pointwise(f_inv, h)):
            assert f.then(g) == compose_pointwise(f, g)
        assert f.then(f_inv).is_identity
        # f's breakpoints cancel against f-inverse's and merge away
        assert f.then(compose_pointwise(f_inv, h)) == h


def test_then_matches_pointwise_reference_on_realized_pairs():
    """Composition checks no point, so every ordered pair of maps within a
    realized set with n <= 4 and values <= 3, each rebuilt by `_make` from
    its breakpoints alone, composes to the checked reference."""
    pairs = 0
    for s in (s for n in range(1, 5) for s in enumerate_signatures(n, 3)):
        maps = [PLMap._make(f.map._bp) for f in realize(s)]
        for f, g in itertools.product(maps, repeat=2):
            fg = f.then(g)
            assert fg == compose_pointwise(f, g), s
            assert fg.slopes == int_slopes(fg), s
            pairs += 1
    assert pairs == 2455


def test_then_matches_pointwise_reference_on_word_products(monkeypatch):
    """The products the seed-1 `words` benchmark composes: each word letter
    by letter, and x then y and y then x, as `pred_C` merges them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from inputs import words_ops

    gensets, ops = words_ops(1, 400)
    sets = [genset_from_json(text) for text in gensets]
    for i, op in enumerate(ops):
        fns = sets[op["genset"]]
        x, y, z = (pl_eval(fns, op[w]) for w in "xyz")
        for w, m in zip("xyz", (x, y, z)):
            want = PLMap.identity()
            for idx, exp in op[w]:
                want = compose_pointwise(want, power_pointwise(fns[idx].map, exp))
            assert m == want, f"op {i}, word {w}"
        assert x.then(y) == compose_pointwise(x, y), f"op {i}"
        assert y.then(x) == compose_pointwise(y, x), f"op {i}"


def test_inverse_and_powers_match_pointwise_reference():
    rng = random.Random(7)
    for _ in range(100):
        f = random_map(rng)
        assert f.inverse() == swapped(f)
        for k in (-3, -2, -1, 0, 1, 2, 3):
            assert f ** k == power_pointwise(f, k)


def int_slopes(m):
    """The slopes m's points give, as reduced (p, q) pairs."""
    return tuple((s.numerator, s.denominator) for s in _slopes(m.points))


def assert_slopes(m, carried=True):
    """m is minimal and canonical, its points are the view of its integer
    form, and its slopes, if known (and always when carried), are the ones
    its points give."""
    checked = PLMap(m.points)
    assert checked == m and checked.points == m.points
    if carried or m.slopes is not None:
        assert m.slopes == int_slopes(m)


def derived(op, m, other=None, k=None):
    """op applied to m, checked.  A composition carries its slopes unless an
    operand is the identity (it returns the other one), and an inverse
    carries them when m's are known."""
    known = m.slopes is not None
    if op == "then":
        out = m.then(other)
        assert_slopes(out, not (m.is_identity or other.is_identity))
    elif op == "inverse":
        out = m.inverse()
        assert_slopes(out, known)
    else:
        out = m ** k
        assert_slopes(out, k == 0 or (not m.is_identity and k != 1 and (k != -1 or known)))
    return out


@pytest.mark.parametrize("den", DENOMINATORS)
def test_carried_slopes_match_points(den):
    rng = random.Random(den)
    for _ in range(20):
        f, g, h = (random_map(rng, den) for _ in range(3))
        # the checked constructor carries the slopes, and so does the inverse
        assert f.slopes == int_slopes(f) and f.inverse().slopes == int_slopes(swapped(f))
        # a map made by `_make`, as the transports in `marked` make them,
        # has none until first composed, which derives them once, on the map
        t = PLMap._make(f._bp)
        assert t.slopes is None and t.inverse().slopes is None
        fg = derived("then", t, g)
        if not (t.is_identity or g.is_identity):
            assert t.slopes == int_slopes(t)
        f_inv = derived("inverse", f)
        # breakpoints that coincide and cancel: f against f-inverse, f
        # against a map breaking at f's y-values, and the merge that undoes f
        shared = PLMap(zip([y for _, y in f.points], increasing(rng, len(f.points), den)))
        undo = compose_pointwise(f_inv, h)
        assert derived("then", f, f_inv).is_identity
        assert derived("then", f, undo) == h
        pool = [f, g, h, fg, f_inv, undo, derived("then", f, shared),
                derived("then", shared, f_inv)]
        for _ in range(12):
            m = rng.choice(pool)
            op = rng.choice(("then", "inverse", "power"))
            pool.append(derived(op, m, rng.choice(pool), rng.randint(-3, 3)))


@pytest.mark.parametrize("sig", enumerate_signatures(3, 3), ids=lambda s: str(s.vals))
def test_pl_eval_carries_slopes(sig):
    fns = realize(sig)
    letters = [(i, e) for i in range(3) for e in (1, -2)]
    for a, b in itertools.product(letters, letters):
        assert_slopes(pl_eval(fns, [a, b]))
        assert_slopes(pl_eval(fns, [a, b, a]))


def test_equal_maps_by_any_route_are_one_canonical_form():
    rng = random.Random(5)
    for _ in range(60):
        f, g = random_map(rng), random_map(rng)
        fg = f.then(g)
        routes = [
            PLMap(fg.points),
            PLMap([(str(x), str(y)) for x, y in reversed(fg.points)]),
            PLMap([(0, 0), *fg.points[1:-1], (F(1, 2), fg(F(1, 2))), (1, 1)]),
            PLMap([(f"{3 * x.numerator}/{3 * x.denominator}",
                    f"{5 * y.numerator}/{5 * y.denominator}") for x, y in fg.points]),
            compose_pointwise(f, g),
            g.inverse().then(f.inverse()).inverse(),
            fg.inverse().inverse(),
            (fg ** 3).then(fg ** -2),
            (f ** -1).inverse().then(g),
        ]
        for m in routes:
            assert m == fg and hash(m) == hash(fg)
            assert m.points == fg.points
            assert all(type(c) is F for p in m.points for c in p)
        assert f ** 3 == f.then(f).then(f) == (f ** -3).inverse()
        assert hash(f ** 3) == hash((f ** -3).inverse())


LETTERS = [(i, e) for i in range(3) for e in (1, -1)]


def inverse_word(word):
    return [(i, -e) for i, e in reversed(word)]


@pytest.mark.parametrize("sig", enumerate_signatures(3, 3), ids=lambda s: str(s.vals))
def test_pred_C_is_commutator_identity_on_two_letter_words(sig):
    # x commutes with y exactly when x-inverse does, so each two-letter word
    # is taken up to inversion; both sides are symmetric in x and y and true
    # for x = y, so each unordered pair of distinct word maps is checked once
    fns = realize(sig)
    words = [[a, b] for a in LETTERS for b in LETTERS]
    maps = {pl_eval(fns, w) for w in words if w <= inverse_word(w)}
    for x, y in itertools.combinations(maps, 2):
        assert pred_C(x, y) == commutator(x, y).is_identity


def test_orbitals_signs():
    f = bump_map(F(1, 4), F(3, 4), F(3, 8), F(5, 8))
    assert f.orbitals() == [(F(1, 4), F(3, 4), 1)]
    neg = bump_map(F(1, 4), F(3, 4), F(3, 8), F(5, 8), sign=-1)
    assert neg.orbitals() == [(F(1, 4), F(3, 4), -1)]


def test_orbitals_crossing_split():
    # a segment crossing the diagonal transversally splits into two orbitals
    f = PLMap([(0, 0), (F(1, 4), F(1, 2)), (F(7, 8), F(25, 32)), (1, 1)])
    orbs = f.orbitals()
    assert len(orbs) == 2
    (u1, v1, s1), (u2, v2, s2) = orbs
    assert (s1, s2) == (1, -1)
    assert v1 == u2 == F(31, 44)  # transversal crossing located exactly
    assert f(v1) == v1


def test_abutting_bumps_stay_separate():
    f = PLMap([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2)), (F(5, 8), F(3, 4)), (1, 1)])
    orbs = f.orbitals()
    assert [(s) for _, _, s in orbs] == [-1, 1]
    assert orbs[0][1] == orbs[1][0] == F(1, 2)


def test_support_hull():
    orbs = bump_map(F(1, 4), F(3, 4), F(3, 8), F(5, 8)).orbitals()
    assert (orbs[0][0], orbs[-1][1]) == (F(1, 4), F(3, 4))
    assert PLMap.identity().orbitals() == []
