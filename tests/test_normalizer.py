import random

import pytest

from sigcalc.ordinal import (
    GT,
    LT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_parse,
)
from sigcalc.normalizer import (
    OutsideComputedFamily,
    ea_class,
    ea_to_xi,
    is_reduced,
    leq,
    materialize,
    materialized_base,
    normalize,
    rho,
)
from sigcalc.signature import (
    ONE_SIG,
    ZERO_SIG,
    Signature,
    enumerate_signatures,
    eval_term,
    parse_term,
    sig_E,
    sig_exp,
    sig_inflate,
    sig_restrict,
    sig_star,
    sig_sum,
)
from helpers import random_ordinal, rank_terms
from oracles import decompose_pairwise, rho_pairwise, tau

one = ONE_SIG


def pair(k):
    return Signature(2, (k,))


def o(text):
    return ord_parse(text)


FIG3 = eval_term(parse_term("E(1*1+1+1)"))


# --- rho -------------------------------------------------------------------------


def test_rho_base_cases():
    assert rho(ZERO_SIG) == ZERO
    assert rho(one) == ONE
    assert rho(sig_sum(one, one)) == Ordinal.from_int(2)


def test_rho_pairs_are_towers():
    for k in range(1, 7):
        for mode in ("ordered", "sorted"):
            assert rho(pair(k), mode) == tau(k)


def test_rho_fig3():
    assert rho(FIG3) == o("w^(w^(w+2))")


def test_rho_modes_differ_on_unsorted_sums():
    s = sig_sum(one, sig_E(sig_sum(one, one)))
    assert rho(s, "sorted") == o("w^w + 1")
    assert rho(s, "ordered") == o("w^w")


def test_rho_mixed_case():
    # (one+one)*one reduces to one*one
    assert rho(sig_star(sig_sum(one, one), one)) == OMEGA
    # a larger summand inside the left factor must enter through the exponent
    s = sig_star(sig_sum(one, sig_E(sig_sum(one, one))), one)
    assert rho(s) == o("w^(w+1)")


def test_rho_matches_pairwise_recursion():
    # every signature on a base of at most 5 with values <= 3, and the 24
    # seeded rank-size terms, in both modes
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    sigs += [eval_term(term) for term, _ in rank_terms()]
    for s in sigs:
        expected = rho_pairwise(s, "ordered")
        assert rho(s, "ordered") == expected
        if len(decompose_pairwise(s)) > 1:  # the oracle's modes differ only on sums
            expected = rho_pairwise(s, "sorted")
        assert rho(s, "sorted") == expected


def test_rho_sorted_equals_ordered_on_descending():
    rng = random.Random(8)
    for _ in range(100):
        xi = random_ordinal(rng, 3)
        s = materialize(xi)
        assert rho(s, "sorted") == rho(s, "ordered")


# --- materialize / normalize --------------------------------------------------------


def test_materialize_anchors():
    assert materialize(ZERO) == ZERO_SIG
    assert materialize(ONE) == one
    assert materialize(Ordinal.from_int(2)) == sig_sum(one, one)
    assert materialize(o("w^w")) == sig_E(sig_sum(one, one))
    assert materialize(OMEGA) == sig_star(one, one)


def test_rho_materialize_round_trip():
    rng = random.Random(9)
    for _ in range(500):
        xi = random_ordinal(rng, 4)
        assert rho(materialize(xi)) == xi


def test_materialized_base_is_the_base_of_materialize():
    rng = random.Random(12)
    for _ in range(200):
        xi = random_ordinal(rng, 3)
        assert materialized_base(xi) == materialize(xi).n
    assert materialized_base(Ordinal.from_int(100_000)) == 100_000
    assert materialized_base(o("w^255")) == 256


def test_normalize_examples():
    bn = sig_E(sig_sum(one, one))
    assert normalize(bn) == bn
    assert normalize(sig_exp(sig_sum(one, sig_exp(sig_sum(one, one))))) == bn
    assert normalize(sig_sum(one, bn)) == sig_sum(bn, one)


def test_normalize_idempotent_enumerated():
    # n = 5 exhaustively as well: equal sorted ranks exactly when equal normal forms
    form_of_rank, rank_of_form = {}, {}
    for s in enumerate_signatures(4, 3) + enumerate_signatures(5, 3):
        r, ns = rho(s, "sorted"), normalize(s)
        if ns not in rank_of_form:  # each normal form is checked once
            assert is_reduced(ns)
            assert normalize(ns) == ns
            assert rho(ns, "sorted") == r
        assert form_of_rank.setdefault(r, ns) == ns
        assert rank_of_form.setdefault(ns, r) == r


def test_is_reduced():
    assert is_reduced(sig_sum(one, one))
    assert not is_reduced(sig_sum(one, sig_E(sig_sum(one, one))))
    assert is_reduced(FIG3)


# --- order ---------------------------------------------------------------------------


def test_leq():
    assert leq(FIG3, FIG3)
    assert leq(pair(4), pair(5))
    assert not leq(pair(5), pair(4))
    bn = sig_E(sig_sum(one, one))
    for n in range(1, 6):
        assert leq(sig_sum(*([one] * n)), bn)


def test_decrease_rank_enumerated():
    for s in enumerate_signatures(4, 3):
        if s.n:
            assert ord_cmp(rho(sig_restrict(s, range(s.n - 1))), rho(s)) == LT


def test_inflate_restrict_monotone():
    rng = random.Random(10)
    for s in enumerate_signatures(3, 3):
        for m in range(s.n):
            infl = sig_inflate(s, m)
            for _ in range(3):
                subset = [i for i in range(infl.n) if rng.random() < 0.7]
                r = sig_restrict(infl, subset)
                assert ord_cmp(rho(r), rho(s)) != GT


def _leq_ordered(a, b):
    return ord_cmp(rho(a, "ordered"), rho(b, "ordered")) != GT


def test_rho_monotone_under_operations():
    # In ordered mode (the block-form convention) rank is weakly monotone
    # under exp, sum and star for any comparable arguments.
    small = enumerate_signatures(3, 2)
    for a in small:
        for b in small:
            if _leq_ordered(a, b):
                assert _leq_ordered(sig_exp(a), sig_exp(b))
                assert _leq_ordered(sig_sum(a, a), sig_sum(b, b))
                assert _leq_ordered(sig_star(a, sig_exp(a)), sig_star(b, sig_exp(b)))


def test_rho_monotone_sorted_on_descending_forms():
    # Sorted-mode monotonicity holds once summands are in rank-descending
    # order; unsorted counterexample: one*one + one versus one + one*one.
    small = [normalize(s) for s in enumerate_signatures(3, 2)]
    for a in small:
        for b in small:
            if leq(a, b):
                assert leq(sig_exp(a), sig_exp(b))
                assert leq(sig_sum(a, a), sig_sum(b, b))
    lhs = sig_sum(sig_star(one, one), one)
    rhs = sig_sum(one, sig_star(one, one))
    assert rho(lhs) == rho(rhs)  # equal sorted ranks...
    assert ord_cmp(rho(sig_exp(lhs)), rho(sig_exp(rhs))) == GT  # ...but exp is ordered inside


def test_absorption_law():
    # rho(exp(X + Y)) = rho(exp(Y)) when rho(X) is absorbed by rho(Y)'s lead
    x = sig_sum(one, one)
    y = sig_E(sig_sum(one, one))  # rank w^w absorbs 2
    assert rho(sig_exp(sig_sum(x, y)), "ordered") == rho(sig_exp(y), "ordered")


# --- EA-class -------------------------------------------------------------------------


def test_ea_anchors():
    assert ea_class(OMEGA) == ONE
    assert ea_class(o("w^w")) == o("w + 2")
    assert ea_class(tau(4)) == o("w^w + 2")
    assert ea_class(tau(5)) == o("w^(w^w) + 2")
    assert ea_class(o("w^(w^(w+2))")) == o("w^2 + w*2 + 2")


def test_ea_finite():
    assert ea_class(ZERO) == ZERO
    assert ea_class(Ordinal.from_int(7)) == ONE
    assert ea_class(o("w^2")) == Ordinal.from_int(2)
    assert ea_class(o("w^4")) == Ordinal.from_int(3)


def test_ea_outside_family():
    for text in ("w^3", "w*2", "w^w+1", "w^(w+1)", "w^(w*3)"):
        with pytest.raises(OutsideComputedFamily):
            ea_class(o(text))


def test_ea_to_xi_examples():
    assert ea_to_xi(OMEGA) == o("w^w")
    assert ea_to_xi(o("w^2 + w*2")) == o("w^(w^(w+2))")
    assert ea_to_xi(ZERO) == o("w^2")


def test_ea_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        a = random_ordinal(rng, 3)
        assert ea_class(ea_to_xi(a)) == ord_add(a, Ordinal.from_int(2))


# --- the star-versus-product probe (regression table) ----------------------------------


def test_star_rank_versus_ordinal_product():
    """Where rho(R_a * R_b) = a*b holds for indecomposable ranks: exactly
    when b's exponent is infinite (b >= w^w)."""
    ranks = [o("w"), o("w^2"), o("w^w"), o("w^(w^w)")]
    expected = {
        ("w", "w"): False,
        ("w^2", "w"): False,
        ("w^2", "w^2"): False,
        ("w^w", "w"): False,
        ("w^w", "w^2"): False,
        ("w^w", "w^w"): True,
        ("w^(w^w)", "w"): False,
        ("w^(w^w)", "w^2"): False,
        ("w^(w^w)", "w^w"): True,
        ("w^(w^w)", "w^(w^w)"): True,
    }
    for a in ranks:
        for b in ranks:
            if ord_cmp(b, a) == GT:
                continue
            star_rank = rho(sig_star(materialize(a), materialize(b)))
            agree = star_rank == ord_mul(a, b)
            assert agree == expected[(str(a), str(b))]
