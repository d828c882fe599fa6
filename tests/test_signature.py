import itertools
import json
import random

import pytest

from sigcalc import signature
from sigcalc.normalizer import materialize, normalize, rho
from sigcalc.signature import (
    ONE_SIG,
    ZERO_SIG,
    OscMatrix,
    Signature,
    SignatureError,
    TermParseError,
    bang_rel,
    decompose,
    enumerate_signatures,
    eval_term,
    is_all_positive,
    is_indecomposable,
    parse_term,
    render_term,
    sig_drop_top,
    sig_E,
    sig_exp,
    sig_from_json,
    sig_inflate,
    sig_restrict,
    sig_rotate,
    sig_shift_down,
    sig_star,
    sig_sum,
    sig_to_json,
)
from helpers import random_term
from oracles import bang, bang_rel_conj, bang_rel_p, bang_rel_q

one = ONE_SIG


def pair(k):
    """The two-element signature with oscillation k."""
    return Signature(2, (k,))


FIG3 = eval_term(parse_term("E(1*1+1+1)"))


# --- the (!) relation ----------------------------------------------------------


def test_bang_examples():
    assert bang_rel(2, 2, 3)  # p = q, only a lower bound required
    assert bang(0, 1) == -1
    assert bang(3, 3) is None
    assert bang(3, 1) == 1


def test_bang_equivalence_exhaustive():
    rng = range(-2, 9)
    for p, q, r in itertools.product(rng, repeat=3):
        v = bang_rel(p, q, r)
        assert bang_rel_q(p, q, r) == v
        assert bang_rel_p(p, q, r) == v
        assert bang_rel_conj(p, q, r) == v


def test_bang_shift_corollary():
    # r = p!q  <=>  q-1 = r!(p-1)  <=>  p-1 = q!r
    rng = range(-2, 9)
    for p, q, r in itertools.product(rng, repeat=3):
        v = bang_rel(p, q, r)
        assert bang_rel(r, p - 1, q - 1) == v
        assert bang_rel(q, r, p - 1) == v


# --- validation ------------------------------------------------------------------


def test_validate_no_triples():
    for k in range(5):
        assert OscMatrix(2, (k,)).violations() == []
        assert Signature(2, (k,)).vals == (k,)


def test_validate_fig3():
    o = {(0, 1): 3, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2}
    assert OscMatrix(4, o).violations() == []
    assert Signature(4, o) == FIG3


def test_validate_violation():
    o = {(0, 1): 0, (1, 2): 0, (0, 2): 1}
    assert OscMatrix(3, o).violations() == [(0, 1, 2)]
    with pytest.raises(SignatureError, match=r"\(0, 1, 2\)"):
        Signature(3, o)


def test_zero_to_end_consequence():
    for s in enumerate_signatures(4, 2):
        for i, j, k in itertools.combinations(range(s.n), 3):
            if s.val(j, k) == 0:
                assert s.val(i, k) == 0


# --- operations -------------------------------------------------------------------


def test_sum():
    assert sig_sum(ZERO_SIG, pair(2)) == pair(2)
    assert sig_sum(one, one) == Signature(2, (0,))


def test_exp():
    assert sig_exp(one) == one
    assert sig_exp(sig_sum(one, one)) == pair(1)
    assert sig_E(sig_sum(one, one)) == pair(2)


def test_exp_preserves_validity_enumerated():
    for s in enumerate_signatures(4, 2):
        for levels in (1, 2):
            assert sig_exp(s, levels).violations() == []


def test_star():
    assert sig_star(one, one) == pair(1)
    a = sig_E(sig_sum(one, one))
    assert sig_star(a, a) == sig_exp(sig_sum(sig_shift_down(a), sig_shift_down(a)))
    with pytest.raises(SignatureError):
        sig_star(one, sig_sum(one, one))


def test_exp_of_sum_is_star_of_exps():
    small = enumerate_signatures(3, 1)
    for a in small:
        for b in small:
            if a.n and b.n:
                assert sig_exp(sig_sum(a, b)) == sig_star(sig_exp(a), sig_exp(b))


def test_rotate():
    assert sig_rotate(ZERO_SIG) == ZERO_SIG
    assert sig_rotate(one) == ZERO_SIG
    assert sig_rotate(pair(2)) == pair(1)
    assert sig_rotate(sig_sum(one, pair(2))) == sig_sum(one, pair(1))


def test_rotate_valid_and_smaller_enumerated():
    for s in enumerate_signatures(4, 3):
        r = sig_rotate(s)
        assert r.violations() == []
        if s.n:
            assert r.complexity < s.complexity


def test_inflate_examples():
    got = sig_inflate(pair(2), 1)
    assert got == Signature(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    assert got.labels == ("0", "0^1", "1")
    got = sig_inflate(pair(1), 1)
    assert got == sig_star(sig_sum(one, one), one)
    got = sig_inflate(sig_sum(one, one), 1)
    assert got == sig_sum(one, one)  # no positive oscillation, nothing adjoined


def test_inflate_valid_enumerated():
    for s in enumerate_signatures(4, 3):
        for m in range(s.n):
            assert sig_inflate(s, m).violations() == []


def test_inflate_out_of_range():
    with pytest.raises(SignatureError):
        sig_inflate(pair(1), 2)


def test_duplication_identity():
    # (A+A) * exp(B) is the inflation of A*exp(B) at the least element of exp(B)
    small = [one, sig_sum(one, one), pair(1), pair(2), sig_star(one, one)]
    for a in small:
        for b in small:
            lhs = sig_star(sig_sum(a, a), sig_exp(b))
            rhs = sig_inflate(sig_star(a, sig_exp(b)), a.n)
            assert lhs == rhs


def test_restrict():
    assert sig_restrict(FIG3, range(4)) == FIG3
    assert sig_restrict(FIG3, [2, 3]) == pair(2)
    for s in enumerate_signatures(4, 2):
        for r in range(s.n + 1):
            for subset in itertools.combinations(range(s.n), r):
                assert sig_restrict(s, subset).violations() == []


def test_drop_top():
    assert sig_drop_top(pair(2)) == one
    assert sig_drop_top(FIG3) == Signature(3, {(0, 1): 3, (0, 2): 2, (1, 2): 2})
    with pytest.raises(SignatureError):
        sig_drop_top(ZERO_SIG)


def test_decompose():
    allzero = Signature(3, (0, 0, 0))
    assert decompose(allzero) == [one, one, one]
    assert decompose(FIG3) == [FIG3]
    s = sig_sum(one, pair(2))
    assert decompose(s) == [one, pair(2)]
    assert is_indecomposable(FIG3)
    assert not is_indecomposable(s)


# --- (!) closure: the operations build with the unchecked _trusted ------------------


def enumerated():
    """Every signature on a base of at most 4 with values <= 3."""
    return [s for n in range(5) for s in enumerate_signatures(n, 3)]


def test_sum_closed_enumerated():
    sigs = enumerated()
    for a in sigs:
        for b in sigs:
            if a.n + b.n <= 6:
                assert sig_sum(a, b).violations() == []


def test_star_closed_enumerated():
    sigs = enumerated()
    for a in sigs:
        for b in sigs:
            if b.n and is_all_positive(b) and a.n + b.n <= 6:
                assert sig_star(a, b).violations() == []


def test_restrict_decompose_closed_enumerated():
    for s in enumerated():
        parts = decompose(s)
        assert all(p.violations() == [] for p in parts)
        assert sig_sum(*parts) == s
        for r in range(s.n + 1):
            for subset in itertools.combinations(range(s.n), r):
                assert sig_restrict(s, subset).violations() == []


def test_shift_down_closed_enumerated():
    for s in enumerated():
        if is_all_positive(s):
            assert sig_shift_down(s).violations() == []


def test_derived_signatures_valid_on_rank_terms(monkeypatch):
    # Terms on a base of 8 to 12, the sizes the benchmark ranks; every
    # signature an operation builds on the way (rho's restrictions and
    # decrements, normalize's and materialize's outputs, rotation and
    # inflation) is recorded and must satisfy (!).
    built = []
    trusted = signature._trusted

    def recording(*args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(signature, "_trusted", recording)
    rng = random.Random(20171130)
    for _ in range(24):
        a = eval_term(random_term(rng, rng.randint(8, 12)))
        outputs = [normalize(a), sig_rotate(a), sig_inflate(a, rng.randrange(a.n))]
        outputs += [materialize(rho(a, mode)) for mode in ("ordered", "sorted")]
        assert all(b in built for b in outputs if b.n > 1)
    assert len(built) > 1000
    assert all(s.violations() == [] for s in built)


def test_decompose_sum_left_inverse():
    parts = [one, pair(2), sig_star(one, one)]
    assert decompose(sig_sum(*parts)) == parts


# --- terms ------------------------------------------------------------------------


def test_eval_term_fig3():
    assert FIG3 == Signature(4, {(0, 1): 3, (0, 2): 2, (0, 3): 2,
                                 (1, 2): 2, (1, 3): 2, (2, 3): 2})


def test_exp_tower_terms():
    for k in range(5):
        t = parse_term("exp(" * k + "1+1" + ")" * k)
        assert eval_term(t) == pair(k)


def test_E_fixes_one():
    assert eval_term(parse_term("E(1)")) == one


def test_term_parse_render():
    for text in ("0", "1", "1+1", "1*1", "E(1*1+1+1)", "exp(1+1)*exp(1)"):
        t = parse_term(text)
        assert parse_term(render_term(t)) == t


def test_term_parse_error():
    with pytest.raises(TermParseError):
        parse_term("E(1")
    with pytest.raises(TermParseError):
        parse_term("2")
    with pytest.raises(SignatureError):
        eval_term(parse_term("1*(1+1)"))  # star needs all-positive right factor


# --- enumeration and JSON -----------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_signatures(2, 2)) == 3
    assert len(enumerate_signatures(3, 0)) == 1
    # regression constants pinned from the first oracle run
    assert len(enumerate_signatures(3, 1)) == 5
    assert len(enumerate_signatures(3, 3)) == 22
    assert len(enumerate_signatures(4, 3)) == 140
    assert len(enumerate_signatures(4, 4)) == 285


def test_enumerate_guard():
    with pytest.raises(SignatureError):
        enumerate_signatures(6, 1)


def test_enumerate_matches_brute_force():
    import itertools as it

    for n, vmax in ((3, 2), (4, 1)):
        npairs = n * (n - 1) // 2
        brute = []
        for vals in it.product(range(vmax + 1), repeat=npairs):
            if not OscMatrix(n, vals).violations():
                brute.append(vals)
        fast = [s.vals for s in enumerate_signatures(n, vmax)]
        assert sorted(brute) == sorted(fast)


def test_json_round_trip():
    doc = json.loads(sig_to_json(FIG3))
    assert doc["n"] == 4 and doc["o"]["0,1"] == 3
    assert sig_from_json(sig_to_json(FIG3)) == FIG3
    labeled = Signature(2, (2,), labels=("a", "b"))
    back = sig_from_json(sig_to_json(labeled))
    assert back == labeled and back.labels == ("a", "b")


def test_json_rejects_invalid():
    with pytest.raises(SignatureError):
        sig_from_json('{"n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 0}}')


def test_equality_ignores_labels():
    assert Signature(2, (2,), labels=("x", "y")) == pair(2)
    assert hash(Signature(2, (2,), labels=("x", "y"))) == hash(pair(2))


def test_all_positive():
    assert is_all_positive(pair(1))
    assert not is_all_positive(sig_sum(one, one))
    assert sig_shift_down(pair(3)) == pair(2)
    with pytest.raises(SignatureError):
        sig_shift_down(sig_sum(one, one))
