import random

import pytest
from hypothesis import given, settings, strategies as st

from sigcalc.ordinal import (
    EQ,
    GT,
    LT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_omega_pow,
    ord_parse,
    ord_render,
)
from helpers import random_ordinal
from oracles import tau

w = OMEGA


def o(text):
    return ord_parse(text)


# --- comparison ---------------------------------------------------------------


def test_cmp_examples():
    assert ord_cmp(w, w) == EQ
    assert ord_cmp(w, ord_mul(w, Ordinal.from_int(2))) == LT
    assert ord_cmp(o("w^w + 1"), o("w^w")) == GT


def test_cmp_total_order_random():
    rng = random.Random(1)
    for _ in range(1000):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        # antisymmetry
        if ord_cmp(a, b) == LT:
            assert ord_cmp(b, a) == GT
        if ord_cmp(a, b) == EQ:
            assert a == b
        # transitivity
        if ord_cmp(a, b) != GT and ord_cmp(b, c) != GT:
            assert ord_cmp(a, c) != GT


# --- addition -----------------------------------------------------------------


def test_add_absorption():
    assert ord_add(ONE, w) == w
    assert o("1 + w") == w


def test_two_times_omega_vs_omega_times_two():
    two = Ordinal.from_int(2)
    assert ord_mul(two, w) == w
    assert ord_mul(w, two) == o("w*2")
    assert ord_cmp(ord_mul(two, w), ord_mul(w, two)) == LT


def test_natural_sum():
    assert ord_add(ONE, w, "natural") == o("w + 1")
    rng = random.Random(2)
    for _ in range(200):
        a, b = random_ordinal(rng), random_ordinal(rng)
        assert ord_add(a, b, "natural") == ord_add(b, a, "natural")


def test_left_cancellation_random():
    rng = random.Random(3)
    for _ in range(1000):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        if ord_add(a, b) == ord_add(a, c):
            assert b == c


def test_right_cancellation_fails():
    assert ord_add(ONE, w) == ord_add(ZERO, w)
    assert ONE != ZERO


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_add_agrees_with_int_arithmetic(a, b, c):
    oa, ob = Ordinal.from_int(a), Ordinal.from_int(b)
    assert ord_add(oa, ob) == Ordinal.from_int(a + b)
    assert ord_mul(oa, ob) == Ordinal.from_int(a * b)


def test_associativity_random():
    rng = random.Random(4)
    for _ in range(300):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
        assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))


# --- multiplication and powers --------------------------------------------------


def test_mul_examples():
    assert ord_mul(w, w) == o("w^2")
    assert ord_mul(o("w + 1"), w) == o("w^2")
    rng = random.Random(5)
    a = random_ordinal(rng)
    assert ord_mul(a, ZERO) == ZERO
    assert ord_mul(ZERO, a) == ZERO


def test_omega_power_law_random():
    rng = random.Random(6)
    for _ in range(200):
        a, b = random_ordinal(rng, 2), random_ordinal(rng, 2)
        lhs = ord_mul(ord_omega_pow(a), ord_omega_pow(b))
        assert lhs == ord_omega_pow(ord_add(a, b))


def rechecked(a: Ordinal) -> Ordinal:
    """a rebuilt through the checked constructor at every level of its exponents."""
    return Ordinal((rechecked(e), c) for e, c in a.terms)


def test_arithmetic_results_pass_the_checked_constructor():
    # the operations build with the unchecked _cnf; their outputs must be CNF
    rng = random.Random(13)
    for _ in range(400):
        a, b = random_ordinal(rng, 3), random_ordinal(rng, 3)
        for r in (ord_add(a, b), ord_add(a, b, "natural"), ord_mul(a, b),
                  ord_omega_pow(a), ord_omega_pow(a, shifted=True)):
            assert rechecked(r) == r


def test_shifted_power():
    assert ord_omega_pow(ZERO, shifted=True) == ZERO
    assert ord_omega_pow(ONE, shifted=True) == ONE
    assert ord_omega_pow(w, shifted=True) == o("w^w")
    assert ord_omega_pow(Ordinal.from_int(3), shifted=True) == o("w^2")


def test_tau():
    assert tau(0) == Ordinal.from_int(2)
    assert tau(1) == w
    assert tau(2) == o("w^w")
    assert tau(4) == o("w^(w^(w^w))")


# --- codec ---------------------------------------------------------------------


def test_parse_examples():
    a = o("w^w + w*2 + 1")
    assert a.terms == ((w, 1), (ONE, 2), (ZERO, 1))
    assert o("w^(w^(w+2))") == ord_omega_pow(ord_omega_pow(o("w+2")))


def test_parse_normalizes():
    assert o("1 + w") == w
    assert o("(w+1)*2") == o("w*2+1")


def test_parse_error_position():
    with pytest.raises(OrdinalParseError) as exc:
        o("w^")
    assert exc.value.pos == 2
    with pytest.raises(OrdinalParseError):
        o("w +")
    with pytest.raises(OrdinalParseError):
        o("3 4")


def test_render_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(500):
        a = random_ordinal(rng, 4)
        text = ord_render(a)
        assert ord_parse(text) == a
        assert ord_render(ord_parse(text)) == text  # canonical fixed point


def test_render_style():
    assert ord_render(ZERO) == "0"
    assert ord_render(o("w+2")) == "w+2"
    assert ord_render(o("w^w*3+w^2*2+5")) == "w^w*3+w^2*2+5"
    assert ord_render(o("w^(w^(w+2))")) == "w^(w^(w+2))"
