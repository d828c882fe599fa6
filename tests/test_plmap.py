import itertools
import random
from fractions import Fraction as F

import pytest

from oracles import commutator, compose_pointwise, power_pointwise, swapped
from sigcalc.realization import PLMap, pl_eval, pred_C, realize
from sigcalc.realization.plmap import PLError, _canonical, _slopes
from sigcalc.signature import enumerate_signatures

# Denominators of random breakpoints: dyadic ones, and the thirds, ninths and
# 96ths that realize produces, and 97ths.
DENOMINATORS = (2, 8, 64, 3, 9, 96, 97)


def increasing(rng, n, den):
    """n points from 0 to 1, strictly increasing, with denominator den."""
    return [F(0)] + [F(k, den) for k in sorted(rng.sample(range(1, den), n - 2))] + [F(1)]


def random_map(rng, den=None):
    den = den or rng.choice(DENOMINATORS)
    n = rng.randint(2, min(7, den + 1))
    return PLMap(zip(increasing(rng, n, den), increasing(rng, n, den)))


def bump_map(u, v, a, b, sign=1):
    interior = (F(a), F(b)) if sign > 0 else (F(b), F(a))
    return PLMap([(0, 0), (F(u), F(u)), interior, (F(v), F(v)), (1, 1)])


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


def test_trusted_checks_that_points_increase():
    pts = ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2)), (F(1), F(1)))
    with pytest.raises(PLError):
        PLMap._trusted(pts)
    assert PLMap._trusted(pts[:1] + pts[2:]) == PLMap(pts[:1] + pts[2:])


def test_eval_and_inverse():
    f = bump_map(F(1, 4), F(3, 4), F(3, 8), F(5, 8))
    assert f(F(3, 8)) == F(5, 8)
    assert f(F(1, 4)) == F(1, 4)
    g = f.inverse()
    assert g(F(5, 8)) == F(3, 8)
    assert f.then(g).is_identity
    assert (f ** 3).then(f ** -3).is_identity


def test_composition_exact_random():
    rng = random.Random(12)
    f = bump_map(F(1, 8), F(1, 2), F(1, 4), F(3, 8))
    g = bump_map(F(1, 4), F(7, 8), F(1, 2), F(3, 4))
    h = f.then(g)
    for _ in range(50):
        x = F(rng.randint(0, 997), 997)
        assert h(x) == g(f(x))


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


def test_inverse_and_powers_match_pointwise_reference():
    rng = random.Random(7)
    for _ in range(100):
        f = random_map(rng)
        assert f.inverse() == swapped(f)
        for k in (-3, -2, -1, 0, 1, 2, 3):
            assert f ** k == power_pointwise(f, k)


def assert_slopes(m, carried=True):
    """m is minimal, and its slopes, if known (and always when carried), are
    the ones its points give."""
    assert _canonical(m.points) == m.points
    if carried or m.slopes is not None:
        assert m.slopes == _slopes(m.points)


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
        assert f.slopes is None and f.inverse().slopes is None
        # composing derives each operand's slopes once, on the operand
        fg = derived("then", f, g)
        if not (f.is_identity or g.is_identity):
            assert f.slopes == _slopes(f.points) and g.slopes == _slopes(g.points)
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
