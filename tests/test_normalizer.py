import hashlib
import itertools
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
from sigcalc import normalizer
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
    MAX_BASE,
    ONE_SIG,
    ZERO_SIG,
    Signature,
    enumerate_signatures,
    is_all_positive,
    parse_term,
    sig_exp,
    sig_inflate,
    sig_restrict,
    sig_sum,
    sig_to_json,
)
from helpers import (
    bounded_signatures, cnf_box, fresh_rank_caches, random_ordinal, random_term, rank_terms)
from oracles import decompose_pairwise, render_term, rho_pairwise, sig_star_pairwise, tau

one = ONE_SIG


def pair(k):
    return Signature(2, (k,))


def o(text):
    return ord_parse(text)


FIG3 = parse_term("E(1*1+1+1)")


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
    s = parse_term("1+E(1+1)")
    assert rho(s, "sorted") == o("w^w + 1")
    assert rho(s, "ordered") == o("w^w")


def test_rho_mixed_case():
    # (one+one)*one reduces to one*one
    assert rho(parse_term("(1+1)*1")) == OMEGA
    # a larger summand inside the left factor must enter through the exponent
    s = parse_term("(1+E(1+1))*1")
    assert rho(s) == o("w^(w+1)")


def _small_and_rank_sized():
    """Every signature on a base of at most 5 with values <= 3, and the 24
    seeded rank-size terms."""
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    return sigs + [parse_term(render_term(term)) for term, _ in rank_terms()]


def _pairwise_ranks(s):
    """s's (ordered, sorted) ranks by the oracle."""
    ordered = rho_pairwise(s, "ordered")
    if len(decompose_pairwise(s)) > 1:  # the oracle's modes differ only on sums
        return ordered, rho_pairwise(s, "sorted")
    return ordered, ordered


def test_rho_matches_pairwise_recursion():
    for s in _small_and_rank_sized():
        assert (rho(s, "ordered"), rho(s, "sorted")) == _pairwise_ranks(s)


def test_rank_caches_are_bounded(monkeypatch):
    memos = ("_rho_block", "_block")
    for name in memos:
        assert getattr(normalizer, name).cache_info().maxsize == normalizer.RANK_CACHE_SIZE
    fresh_rank_caches(monkeypatch, size=8)
    for s in _small_and_rank_sized():
        assert (rho(s, "ordered"), rho(s, "sorted")) == _pairwise_ranks(s)
        assert normalizer._rho_block.cache_info().currsize <= 8
    for xi in cnf_box(2, 2):
        assert rho(materialize(xi)) == xi
        assert normalizer._block.cache_info().currsize <= 8
    for name in memos:  # entries were dropped and computed again
        assert getattr(normalizer, name).cache_info().misses > 8


def test_rank_caches_ignore_fill_order_and_labels(monkeypatch):
    # from cold memos, one labeling forward or in reverse, then the other
    # labeling in the opposite order against the filled memos
    sigs = _small_and_rank_sized()
    labeled = [Signature(s.n, s.vals, [f"x{i}" for i in range(s.n)]) for s in sigs]
    expected = [_pairwise_ranks(s) for s in sigs]
    forms = [sig_to_json(materialize(sorted_rank)) for _, sorted_rank in expected]
    forward = list(range(len(sigs)))
    for first, second in ((sigs, labeled), (labeled, sigs)):
        for order in (forward, forward[::-1]):
            fresh_rank_caches(monkeypatch)
            for batch, indices in ((first, order), (second, order[::-1])):
                for i in indices:
                    s = batch[i]
                    assert (rho(s, "ordered"), rho(s, "sorted")) == expected[i]
                    ns = normalize(s)
                    assert ns.labels is None and sig_to_json(ns) == forms[i]


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
    assert materialize(o("w^w")) == parse_term("E(1+1)")
    assert materialize(OMEGA) == parse_term("1*1")


def test_rho_materialize_round_trip():
    rng = random.Random(9)
    for _ in range(500):
        xi = random_ordinal(rng, 4)
        assert rho(materialize(xi)) == xi
    # every normal form with at most 2 terms, coefficients <= 2 and exponents
    # from the same box, 2 levels deep; and 3 levels deep with coefficient 1
    box = cnf_box(2, 2) + cnf_box(3, 1)
    assert len(box) == 723 + 67
    for xi in box:
        s = materialize(xi)
        assert rho(s, "sorted") == xi and rho(s, "ordered") == xi


def test_materialized_base_is_the_base_of_materialize():
    rng = random.Random(12)
    for _ in range(200):
        xi = random_ordinal(rng, 3)
        assert materialized_base(xi) == materialize(xi).n
    assert materialized_base(Ordinal.from_int(100_000)) == 100_000
    assert materialized_base(o("w^255")) == 256


def test_normalize_examples():
    bn = parse_term("E(1+1)")
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


def _pinned_terms():
    """The rank terms, eight seeded terms on a base of 24, and three more;
    their normal forms have bases 2 to 256, fifteen of them 11 or more."""
    terms = [render_term(t) for t, _ in rank_terms()]
    terms += [render_term(random_term(random.Random(k), 24)) for k in range(8)]
    return terms + ["*".join(["1"] * MAX_BASE), "+".join(["1"] * 30), f"E({'*'.join(['1'] * 12)})"]


# sha256 of sig_to_json(normalize(s)) + "\n" over _pinned_terms(), as the
# json.dumps writer printed them
NORMALIZED_SHA256 = "4a8d35de7777d2a449b898efdb5d3a3a41f6fd20918827dcb830e62293f0d610"


def test_normalized_json_is_pinned():
    forms = [normalize(parse_term(t)) for t in _pinned_terms()]
    assert sum(s.n >= 11 for s in forms) == 15
    text = "".join(sig_to_json(s) + "\n" for s in forms)
    assert hashlib.sha256(text.encode()).hexdigest() == NORMALIZED_SHA256


def test_is_reduced():
    assert is_reduced(sig_sum(one, one))
    assert not is_reduced(parse_term("1+E(1+1)"))
    assert is_reduced(FIG3)


def test_is_reduced_refuses_each_failure():
    # a summand not all-positive, a summand whose decrement is not reduced,
    # and summand ranks that increase: each is refused, and normalize moves it
    for text in ("(1+1)*exp(1)", "exp((1+1)*exp(1))", "1+exp(1+1)"):
        s = parse_term(text)
        assert not is_reduced(s), text
        assert normalize(s) != s, text
    assert is_reduced(parse_term("exp(1+1)+1"))
    assert is_reduced(ZERO_SIG)


# --- order ---------------------------------------------------------------------------


def test_leq():
    # leq is rank order by definition; the paper's order on subgroups is
    # checked by test_subgroups_never_rank_higher_enumerated,
    # test_decrease_rank_enumerated and, on realized sets,
    # test_realization.py::test_dropping_a_generator_restricts_the_signature
    assert leq(FIG3, FIG3)
    assert leq(pair(4), pair(5))
    assert not leq(pair(5), pair(4))
    bn = parse_term("E(1+1)")
    for n in range(1, 6):
        assert leq(sig_sum(*([one] * n)), bn)


def test_decrease_rank_enumerated():
    for s in enumerate_signatures(4, 3):
        if s.n:
            assert ord_cmp(rho(sig_restrict(s, range(s.n - 1))), rho(s)) == LT


def test_subgroups_never_rank_higher_enumerated():
    # restricting to a subset of the generators gives a subgroup; every
    # proper subset of every n = 5 signature with values <= 3, both modes
    rank = {}

    def rho_of(s, mode):
        if (s, mode) not in rank:
            rank[s, mode] = rho(s, mode)
        return rank[s, mode]

    checks = 0
    for s in enumerate_signatures(5, 3):
        for size in range(5):
            for subset in itertools.combinations(range(5), size):
                r = sig_restrict(s, subset)
                for mode in ("ordered", "sorted"):
                    assert ord_cmp(rho_of(r, mode), rho_of(s, mode)) != GT
                    checks += 1
    assert checks == 60_078


def test_mixed_case_parts_enumerated():
    """What _rho_block relies on without a check: an indecomposable signature
    that is neither one nor all-positive has a row at oscillation 1 with its
    top, and the rows above 1 with the top form an all-positive part."""
    mixed = 0
    for s in bounded_signatures():
        if len(decompose_pairwise(s)) > 1 or is_all_positive(s):
            continue
        mixed += 1
        top = s.n - 1
        low = [i for i in range(top) if s.val(i, top) == 1]
        high = [i for i in range(top) if s.val(i, top) > 1]
        assert low and len(low) + len(high) == top
        assert is_all_positive(sig_restrict(s, high + [top]))
    assert mixed == 907


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
                assert _leq_ordered(
                    sig_star_pairwise(a, sig_exp(a)), sig_star_pairwise(b, sig_exp(b)))


def test_rho_monotone_sorted_on_descending_forms():
    # Sorted-mode monotonicity holds once summands are in rank-descending
    # order; unsorted counterexample: one*one + one versus one + one*one.
    small = [normalize(s) for s in enumerate_signatures(3, 2)]
    for a in small:
        for b in small:
            if leq(a, b):
                assert leq(sig_exp(a), sig_exp(b))
                assert leq(sig_sum(a, a), sig_sum(b, b))
    lhs = parse_term("1*1+1")
    rhs = parse_term("1+1*1")
    assert rho(lhs) == rho(rhs)  # equal sorted ranks...
    assert ord_cmp(rho(sig_exp(lhs)), rho(sig_exp(rhs))) == GT  # ...but exp is ordered inside


def test_absorption_law():
    # rho(exp(X + Y)) = rho(exp(Y)) when rho(X) is absorbed by rho(Y)'s lead
    x = sig_sum(one, one)
    y = parse_term("E(1+1)")  # rank w^w absorbs 2
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
            star_rank = rho(sig_star_pairwise(materialize(a), materialize(b)))
            agree = star_rank == ord_mul(a, b)
            assert agree == expected[(str(a), str(b))]
