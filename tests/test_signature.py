import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from sigcalc import normalizer, signature
from sigcalc.ordinal import MAX_NESTING
from sigcalc.normalizer import materialize, normalize, rho
from sigcalc.signature import (
    MAX_BASE,
    ONE_SIG,
    ZERO_SIG,
    Signature,
    SignatureError,
    SignatureParseError,
    TermParseError,
    _pair_index,
    _trusted,
    bang_rel,
    decompose,
    enumerate_signatures,
    is_all_positive,
    parse_term,
    sig_exp,
    sig_from_json,
    sig_inflate,
    sig_restrict,
    sig_rotate,
    sig_shift_down,
    sig_sum,
    sig_to_json,
)
from helpers import (
    bounded_signatures, cnf_box, fresh_rank_caches, nest, random_term, rank_terms)
from oracles import (
    SigTerm, bang, bang_rel_conj, bang_rel_p, bang_rel_q, decompose_pairwise,
    eval_term_pairwise, pair_key_by_split, parse_term_recursive, render_term,
    sig_inflate_pairwise,
    sig_restrict_pairwise, sig_rotate_pairwise, sig_star_pairwise, sig_sum_pairwise,
    sig_to_doc_pairwise, signatures_by_columns, violations_pairwise)

one = ONE_SIG


def pair(k):
    """The two-element signature with oscillation k."""
    return Signature(2, (k,))


FIG3 = parse_term("E(1*1+1+1)")


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
        assert _trusted(2, (k,)).violations() == []
        assert Signature(2, (k,)).vals == (k,)


def test_validate_fig3():
    assert _trusted(4, (3, 2, 2, 2, 2, 2)).violations() == []
    assert Signature(4, (3, 2, 2, 2, 2, 2)) == FIG3


def test_validate_violation():
    # o(0,1) = 0, o(0,2) = 1, o(1,2) = 0
    assert _trusted(3, (0, 1, 0)).violations() == [(0, 1, 2)]
    with pytest.raises(SignatureError, match=r"\(0, 1, 2\)"):
        Signature(3, (0, 1, 0))
    # a bool is an int to isinstance, but not a pair value, as in sig_from_json
    for v in (-1, 1.5, True, False):
        with pytest.raises(SignatureError, match=re.escape(f"pair value {v!r} is not a ")):
            Signature(2, (v,))


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
    assert sig_exp(sig_exp(sig_sum(one, one))) == pair(2)
    assert parse_term("E(1+1)") == pair(2)


def test_exp_preserves_validity_enumerated():
    for s in enumerate_signatures(4, 2):
        assert sig_exp(s).violations() == []
        assert sig_exp(sig_exp(s)).violations() == []


def test_star():
    assert parse_term("1*1") == pair(1)
    a = parse_term("E(1+1)")
    assert parse_term("E(1+1)*E(1+1)") == sig_exp(sig_sum(sig_shift_down(a), sig_shift_down(a)))
    with pytest.raises(SignatureError):
        parse_term("1*(1+1)")


def test_exp_of_sum_is_star_of_exps():
    small = enumerate_signatures(3, 1)
    for a in small:
        for b in small:
            if a.n and b.n:
                assert sig_exp(sig_sum(a, b)) == sig_star_pairwise(sig_exp(a), sig_exp(b))


def test_rotate():
    assert sig_rotate(ZERO_SIG) == ZERO_SIG
    assert sig_rotate(one) == ZERO_SIG
    assert sig_rotate(pair(2)) == pair(1)
    assert sig_rotate(sig_sum(one, pair(2))) == sig_sum(one, pair(1))


def test_rotate_valid_and_smaller_enumerated():
    # sig_rotate builds with _trusted and relies on these without a check
    for s in bounded_signatures():
        r = sig_rotate(s)
        assert r.violations() == [] and min(r.vals, default=0) >= 0
        assert (r.n, sum(r.vals)) < (s.n, sum(s.vals))


def test_indecomposable_top_column_positive_enumerated():
    indecomposable = 0
    for s in bounded_signatures():
        if len(decompose_pairwise(s)) == 1:
            indecomposable += 1
            assert all(s.val(i, s.n - 1) >= 1 for i in range(s.n - 1))
    assert indecomposable > len(bounded_signatures()) // 2


def test_inflate_examples():
    got = sig_inflate(pair(2), 1)
    assert got == Signature(3, (1, 2, 2))
    assert got.labels == ("0", "0^1", "1")
    got = sig_inflate(pair(1), 1)
    assert got == parse_term("(1+1)*1")
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
    small = ["1", "1+1", "exp(1+1)", "E(1+1)", "1*1"]
    for a in small:
        for b in small:
            lhs = parse_term(f"({a}+{a})*exp({b})")
            rhs = sig_inflate(parse_term(f"({a})*exp({b})"), parse_term(a).n)
            assert lhs == rhs


def test_restrict():
    assert sig_restrict(FIG3, range(4)) == FIG3
    assert sig_restrict(FIG3, [2, 3]) == pair(2)
    for s in enumerate_signatures(4, 2):
        for r in range(s.n + 1):
            for subset in itertools.combinations(range(s.n), r):
                assert sig_restrict(s, subset).violations() == []


def test_drop_top():
    assert sig_restrict(pair(2), range(1)) == one
    assert sig_restrict(FIG3, range(3)) == Signature(3, (3, 2, 2))


def test_decompose():
    allzero = Signature(3, (0, 0, 0))
    assert decompose(allzero) == [one, one, one]
    assert decompose(FIG3) == [FIG3]
    s = sig_sum(one, pair(2))
    assert decompose(s) == [one, pair(2)]


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
                assert sig_star_pairwise(a, b).violations() == []


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
    # inflation) is recorded and must satisfy (!).  The block memos are off,
    # so every block is built each time an operation asks for it.
    fresh_rank_caches(monkeypatch, size=0)
    built = []
    trusted = signature._trusted

    def recording(*args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(signature, "_trusted", recording)
    for term, m in rank_terms():
        a = parse_term(render_term(term))
        outputs = [normalize(a), sig_rotate(a), sig_inflate(a, m)]
        outputs += [materialize(rho(a, mode)) for mode in ("ordered", "sorted")]
        assert all(b in built for b in outputs if b.n > 1)
    assert len(built) > 1000
    assert all(s.violations() == [] for s in built)


# --- the row kernel against the per-pair oracles ------------------------------------


def shape(a):
    return (a.n, a.vals, a.labels)


def same_ops(a, subsets):
    """decompose, restriction to each subset, rotation and JSON of a agree
    with their per-pair forms."""
    assert [shape(p) for p in decompose(a)] == [shape(p) for p in decompose_pairwise(a)]
    for subset in subsets:
        assert shape(sig_restrict(a, subset)) == shape(sig_restrict_pairwise(a, subset))
    assert shape(sig_rotate(a)) == shape(sig_rotate_pairwise(a))
    assert sig_to_json(a) == json.dumps(sig_to_doc_pairwise(a), sort_keys=True)


def test_row_kernel_matches_pairwise_enumerated():
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    sigs += [Signature(s.n, s.vals, "abcde"[:s.n]) for s in sigs]
    t = Signature(2, (2,), ("x", "y"))
    positive = parse_term("exp(1*1+1)")
    for s in sigs:
        if s.labels:  # star drops labels, and t already gives every sum labels
            same_ops(s, [range(0, s.n, 2)])
            continue
        # every subset of a base of at most 4, every 4-element subset of 5
        sizes = range(s.n + 1) if s.n < 5 else (4,)
        same_ops(s, (c for r in sizes for c in itertools.combinations(range(s.n), r)))
        for parts in ((s, t), (t, s, ZERO_SIG)):
            assert shape(sig_sum(*parts)) == shape(sig_sum_pairwise(*parts))
    assert shape(sig_sum()) == shape(sig_sum_pairwise())


def test_star_terms_match_pairwise():
    # parse_term writes a star's values as it reads the term: against
    # sig_star_pairwise on the values of its two factors, for left factors on
    # bases 0 to 5 and right factors that are exp and E images, plain groups
    # and sums (not all-positive: a SignatureError from both)
    rng = random.Random(5)
    terms = [SigTerm("zero")] + [random_term(rng, n) for n in range(1, 6) for _ in range(20)]
    rights = terms[:30] + [SigTerm(op, (t,)) for t in terms[:30] for op in ("exp", "E")]
    value = {t: eval_term_pairwise(t) for t in terms + rights}
    refused = 0
    for a in terms:
        for b in rights:
            text = render_term(SigTerm("star", (a, b)))
            try:
                want = sig_star_pairwise(value[a], value[b])
            except SignatureError:
                refused += 1
                with pytest.raises(SignatureError):
                    parse_term(text)
                continue
            got = parse_term(text)
            assert shape(got) == shape(want), text
            assert got.violations() == []
    assert 0 < refused < len(terms) * len(rights) // 2


def test_row_violations_match_pairwise():
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    assert all(s.violations() == violations_pairwise(s) == [] for s in sigs)
    # every matrix on a base of 4 with values <= 2, and random ones up to 7
    matrices = [_trusted(4, vals) for vals in itertools.product(range(3), repeat=6)]
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(3, 7)
        matrices.append(_trusted(n, [rng.randint(0, 4) for _ in range(n * (n - 1) // 2)]))
    # and on bases up to 8: signatures, each with one value moved by 1, and
    # random matrices with values up to 1, 3 or 9
    for _ in range(300):
        n = rng.randint(0, 8)
        valid = parse_term(render_term(random_term(rng, n))) if n else ZERO_SIG
        matrices.append(valid)
        if valid.vals:
            vals = list(valid.vals)
            k = rng.randrange(len(vals))
            vals[k] = max(0, vals[k] + rng.choice((-1, 1)))
            matrices.append(_trusted(n, vals))
        vmax = rng.choice((1, 3, 9))
        matrices.append(_trusted(n, [rng.randint(0, vmax) for _ in range(n * (n - 1) // 2)]))
    broken = 0
    for m in matrices:
        bad = m.violations()
        assert bad == violations_pairwise(m)
        broken += bool(bad)
    assert broken > len(matrices) // 2


def test_row_kernel_matches_pairwise_on_rank_terms():
    rng = random.Random(7)
    for term, _ in rank_terms():
        a = parse_term(render_term(term))
        assert shape(a) == shape(eval_term_pairwise(term))
        same_ops(a, [[i for i in range(a.n) if rng.random() < 0.6] for _ in range(20)])


def test_inflate_matches_pairwise():
    # every m of every signature on a base of at most 5 with values <= 3,
    # unlabeled and labeled, and of the rank terms
    sigs = [s for n in range(6) for s in enumerate_signatures(n, 3)]
    sigs += [Signature(s.n, s.vals, ("a", "b1", "c", "d2", "e")[:s.n]) for s in sigs]
    sigs += [parse_term(render_term(term)) for term, _ in rank_terms()]
    for s in sigs:
        for m in range(s.n):
            assert shape(sig_inflate(s, m)) == shape(sig_inflate_pairwise(s, m))


def test_decompose_returns_an_indecomposable_signature_itself():
    parts = decompose(FIG3)
    assert len(parts) == 1 and parts[0] is FIG3


def test_decompose_sum_left_inverse():
    parts = [one, pair(2), parse_term("1*1")]
    assert decompose(sig_sum(*parts)) == parts


def test_zero_row_is_a_zero_block_enumerated():
    # row i is all zero exactly when every pair across i+1 is: decompose
    # reads its split points off single rows
    for n in range(6):
        for s in enumerate_signatures(n, 3):
            for i in range(n):
                row = [s.val(i, k) for k in range(i + 1, n)]
                block = [s.val(j, k) for j in range(i + 1) for k in range(i + 1, n)]
                assert any(row) == any(block), (s, i)


def test_decompose_matches_pairwise_past_the_enumerated_bases(monkeypatch):
    """decompose against the frontier scan of decompose_pairwise on bases up
    to 12 and at 256: the first 1,000 `ranks` benchmark terms of seeds 1 and
    8 (n = 8 to 12), their decrements, every signature rho decomposes and
    every block it ranks from them, and the 256-leaf chain and sum."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from inputs import ranks_ops

    fresh_rank_caches(monkeypatch)
    seen = set()

    def recording(fn):
        def record(a):
            seen.add(a)
            return fn(a)
        return record

    monkeypatch.setattr(normalizer, "decompose", recording(decompose))
    monkeypatch.setattr(normalizer, "_rho_block", recording(normalizer._rho_block))
    sigs = [parse_term(op["term"]) for seed in (1, 8) for op in ranks_ops(seed, 1000)]
    sigs += [sig_shift_down(a) for a in sigs if is_all_positive(a)]
    for a in sigs:
        rho(a, "ordered")
    sigs += seen
    sigs += [parse_term(op.join(["1"] * MAX_BASE)) for op in "*+"]
    split = 0
    for a in sigs:
        parts = decompose(a)
        assert [shape(p) for p in parts] == [shape(p) for p in decompose_pairwise(a)]
        split += len(parts) > 1
    assert 8 <= min(a.n for a in sigs[:2000]) and max(a.n for a in sigs[:2000]) == 12
    assert len(sigs) > 5000 and split > 1000


# --- terms ------------------------------------------------------------------------


def test_eval_term_fig3():
    # o(0,1), o(0,2), o(0,3), o(1,2), o(1,3), o(2,3)
    assert FIG3 == Signature(4, (3, 2, 2, 2, 2, 2))


def test_exp_tower_terms():
    for k in range(5):
        assert parse_term("exp(" * k + "1+1" + ")" * k) == pair(k)


def test_E_fixes_one():
    assert parse_term("E(1)") == one


def test_term_parse_render():
    zero, one_, two = SigTerm("zero"), SigTerm("one"), SigTerm("sum", (SigTerm("one"),) * 2)
    literal = {
        "0": zero,
        "1": one_,
        "1+1": two,
        "1*1": SigTerm("star", (one_, one_)),
        "E(1*1+1+1)": SigTerm("E", (SigTerm("sum", (SigTerm("star", (one_, one_)), one_, one_)),)),
        "exp(1+1)*exp(1)": SigTerm("star", (SigTerm("exp", (two,)), SigTerm("exp", (one_,)))),
    }
    for text, t in literal.items():
        assert render_term(t) == text
    for t in [*literal.values(), *(term for term, _ in rank_terms())]:
        assert shape(parse_term(render_term(t))) == shape(eval_term_pairwise(t))


def test_term_parse_error():
    with pytest.raises(TermParseError):
        parse_term("E(1")
    with pytest.raises(TermParseError):
        parse_term("2")
    with pytest.raises(SignatureError):
        parse_term("1*(1+1)")  # star needs all-positive right factor
    with pytest.raises(TermParseError):
        parse_term("1*(1+1)+")  # malformed text is reported before the star


def _read(parse, text):
    """What a reader makes of text: its (n, vals), or its error type and message."""
    try:
        sig = parse(text)
    except SignatureError as e:
        return type(e).__name__, str(e)
    return sig.n, sig.vals


_TERM_PIECES = ["0", "1", "(", ")", "+", "*", "E", "exp", "e", "x", " ", "\t", "\n",
                "\x01", "\x02", "\x0b", "\x1c", "\x85", "\u00a0", "\u3000"]


def _mutate(rng, text):
    """text with one to three characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(text) + 1), rng.choice(("insert", "delete", "replace"))
        piece = "" if op == "delete" else rng.choice(_TERM_PIECES)
        text = text[:i] + piece + text[i + (op != "insert"):]
    return text


_TERM_EDGES = [
    "", " ", "1*(1+1)+", "1*(1+1", "1*((1+1))", "1*(exp(1+1)+1)", "1*((1)+(1))", "1*((1)*(1))",
    "(1+1)*exp(1)", "1*(0+1)", "1*(1+0)*1", "1*(1+1+0)", "1*(1+E(1)+(0))", "exp(1) *(E(1)+E(1))",
    "exp (1)", "E \n( 1 )", "e xp(1)", "\x01(1)", "1\x01", "exp\x01(1)", "exp(1\u2003+\x1c1)",
    "+".join(["1"] * MAX_BASE), "+".join(["1"] * (MAX_BASE + 1)),
    "*".join(["1"] * MAX_BASE), "*".join(["1"] * (MAX_BASE + 1)),
    "1+" * (MAX_BASE - 1) + "1" + "+(0)" * 50, "1+" * (MAX_BASE - 1) + "1" + "+exp(0)" * 50,
    *(nest(opening, core, depth) for opening in ("(", "exp(", "E(", "exp (", "( ")
      for core in ("1", "1+1", "1*(1+1)") for depth in (MAX_NESTING, MAX_NESTING + 1)),
]


def test_reader_matches_the_recursive_reader():
    """The one-pass reader against a recursive descent that evaluates each
    node with the signature operations: the same signature, or the same
    error and message, position included."""
    seed = "term reader"
    rng = random.Random(seed)
    terms = [render_term(term) for term, _ in rank_terms()]
    texts = _TERM_EDGES + terms + [_mutate(rng, rng.choice(terms)) for _ in range(3000)]
    texts += ["".join(rng.choice(_TERM_PIECES) for _ in range(rng.randint(1, 10)))
              for _ in range(1000)]
    kinds = set()
    for i, text in enumerate(texts):
        got = _read(parse_term, text)
        assert got == _read(parse_term_recursive, text), f"case {i} of seed {seed!r}: {text!r}"
        kinds.add(got[0] if isinstance(got[0], str) else "value")
    assert kinds == {"value", "TermParseError", "SignatureError"}


def test_split_and_regex_agree_on_whitespace():
    # parse_term drops whitespace with str.split(), and places its errors
    # with _TOKEN's \s: both must take the same code points as whitespace
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(every.split()) == re.sub(r"\s", "", every)


def test_reader_error_positions():
    # nesting fails just after the '(' past the bound; the end is after any whitespace
    assert MAX_NESTING == 100
    for opening in ("(", "exp(", "E(", "exp \t("):
        with pytest.raises(TermParseError) as exc:
            parse_term(nest(opening, "1", MAX_NESTING + 1))
        assert str(exc.value) == (
            f"nested deeper than 100 levels (at position {len(opening) * (MAX_NESTING + 1)})")
    with pytest.raises(TermParseError, match=r"^expected '0', '1', 'exp\(', 'E\(' or '\(' "
                       r"\(at position 2\)$"):
        parse_term(" \n")


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


def column_key(n, vals):
    """vals, row-major, read column by column: o(0,1), o(0,2), o(1,2), o(0,3), ..."""
    return tuple(vals[_pair_index(n, i, j)] for j in range(n) for i in range(j))


def test_enumerate_matches_brute_force():
    # the order matters: `sigcalc enumerate` prints it and the words bench
    # indexes its sets by it
    for n, vmax in ((3, 2), (4, 1), (4, 2)):
        npairs = n * (n - 1) // 2
        brute = [vals for vals in itertools.product(range(vmax + 1), repeat=npairs)
                 if not _trusted(n, vals).violations()]
        brute.sort(key=lambda vals: column_key(n, vals))
        assert [s.vals for s in enumerate_signatures(n, vmax)] == brute


def test_enumerate_matches_the_column_search():
    # the realize sweep enumerates past n = 5 with the oracle, in this order
    for n, vmax in [(n, vmax) for n in range(6) for vmax in range(4)] + [(4, 5)]:
        assert ([s.vals for s in signatures_by_columns(n, vmax)]
                == [s.vals for s in enumerate_signatures(n, vmax)]), (n, vmax)


def test_json_round_trip():
    doc = json.loads(sig_to_json(FIG3))
    assert doc["n"] == 4 and doc["o"]["0,1"] == 3
    assert sig_from_json(sig_to_json(FIG3)) == FIG3
    labeled = Signature(2, (2,), labels=("a", "b"))
    back = sig_from_json(sig_to_json(labeled))
    assert back == labeled and back.labels == ("a", "b")


def test_json_writer_matches_json_dumps():
    # from n = 11 on, json.dumps's key order is not pair order: "0,10" < "0,2"
    forms = [s for s in map(materialize, cnf_box(2, 2)) if s.n >= 11]
    assert max(s.n for s in forms) > 30
    sigs = forms + [parse_term("*".join(["1"] * MAX_BASE)), ZERO_SIG, ONE_SIG]
    names = ['say "hi"', "back\\slash", "new\nline", "\x00\x01\x1f\x7f\t", "ünï ∞ \U0001f600",
             "", "%d", "{}"]
    sigs += [Signature(0, (), [])] + [Signature(1, (), [name]) for name in names]
    sigs += [Signature(s.n, s.vals, [names[i % len(names)] + str(i) for i in range(s.n)])
             for s in forms[:20]]
    for s in sigs:
        assert sig_to_json(s) == json.dumps(sig_to_doc_pairwise(s), sort_keys=True)


def test_json_rejects_invalid():
    with pytest.raises(SignatureError):
        sig_from_json('{"n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 0}}')


def test_json_refuses_a_pair_given_twice():
    # json.loads keeps the last value of a repeated key, and two spellings of
    # one pair were both read: the value that counted depended on the order
    cases = [('{"n": 2, "o": {"0,1": 1, "00,1": 3}}',
              "\"o\" gives pair (0,1) twice (again as '00,1')"),
             ('{"n": 2, "o": {"00,1": 3, "0,1": 1}}',
              "\"o\" gives pair (0,1) twice (again as '0,1')"),
             ('{"n": 2, "o": {"0,1": 1, "0,1": 3}}', "key '0,1' given more than once"),
             ('{"n": 2, "o": {"0,1": 1}, "n": 2}', "key 'n' given more than once"),
             ('{"n": 3, "o": {"0,1": 1, "0,2": 1, "1,2": 1, "2,0": 1, "1,2": 1}}',
              "key '1,2' given more than once")]
    for doc, message in cases:
        with pytest.raises(SignatureParseError) as e:
            sig_from_json(doc)
        assert str(e.value) == message


# keys that int() reads or refuses on either side of the comma
PAIR_KEYS = ["0,1", " 0 , 1 ", "\t0,1\n", "+0,1", "-0,+1", "1_0,2", "0_1,1", "0,1,2", "0", ",1",
             "0,", ",", "", "0,,1", "0 1,2", "1,0", "0,2", "-1,1", "\u0660,\u0661", "0x1,2",
             "1e0,2", "0.0,1", "\u00bd,1", "0__1,1", "_0,1", "1" * 5000 + ",1"]


def test_pair_keys_read_as_the_split_reader_read_them():
    assert [pair_key_by_split(k) for k in (" 0 , 1 ", "+0,1", "1_0,2", "0,1,2", "0", ",1")] == [
        (0, 1), (0, 1), (10, 2), None, None, None]
    for key in PAIR_KEYS:
        doc = json.dumps({"n": 2, "o": {key: 1}})
        want = pair_key_by_split(key)
        if want == (0, 1):
            assert sig_from_json(doc) == pair(1), key
            continue
        with pytest.raises(SignatureError) as e:
            sig_from_json(doc)
        if want is None:
            assert str(e.value) == f'"o" key {key[:40]!r} is not "i,j"'  # quoted up to 40
        else:
            assert type(e.value) is SignatureError
            assert str(e.value) == f"pair ({want[0]},{want[1]}) outside base 0..1"


def test_equality_ignores_labels():
    assert Signature(2, (2,), labels=("x", "y")) == pair(2)
    assert hash(Signature(2, (2,), labels=("x", "y"))) == hash(pair(2))


def test_all_positive():
    assert is_all_positive(pair(1))
    assert not is_all_positive(sig_sum(one, one))
    assert sig_shift_down(pair(3)) == pair(2)
    with pytest.raises(SignatureError):
        sig_shift_down(sig_sum(one, one))
