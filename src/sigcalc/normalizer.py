"""The rank function rho, reduced signatures, normalization, and EA-class.

rho maps signatures onto ordinals below epsilon_0 and is an order isomorphism
on the reduced family; materialize inverts it.  Two modes are exposed for
combining top-level summand ranks: "ordered" sums them in listed order (the
block-form convention) while "sorted" sorts indecomposable summands by rank
descending first, which is the convention under which rank decides
embeddability of the generated groups.  Sums strictly below an exp are always
ordered; this is forced by the block-form definition of rho.

Both directions of the block bijection are memoized: `_rho_block` (an
indecomposable signature to its rank omega^beta) and `_block` (omega^beta
back to its reduced indecomposable block), each an `lru_cache` of
RANK_CACHE_SIZE entries.  A rank is a sum over indecomposable blocks, and
blocks recur: across the calls one process makes, and as repeated summands
within one call.  One 10 s pass of the `ranks` benchmark (4,500 distinct
terms) fills about 5,000 `_rho_block` and 770 `_block` entries, so the
bound holds a whole run.  The keys are the block itself (a `Signature`,
whose hash and equality ignore labels) and the exponent beta; neither value
depends on labels.  A block keeps its n(n-1)/2 pair values as one `bytes`
object, a byte each: 32.6 KB for a block on 256 elements, where a tuple of
ints took about 261 KB in pointers.  `rho`, `decompose` and `sig_sum` stay
uncached, so a repeated top-level input still does its own decomposing and
summing.

The gain shows only where blocks are shared.  When the memos came in, `ranks`
went from about 3,900 to 6,000 ops/s (BENCH_rank_memo.json; later BENCH_*.json
files hold today's figures), and `rho` on a sum of 128 equal `E(1+1)` blocks,
in a fresh process, from about 6 to 3 ms (CPython 3.11, x86-64).
A one-shot CLI call whose blocks do not repeat gains nothing measurable
(`rho` on the 256-leaf chain takes 70 ms a process, 60 ms of it starting the
interpreter and importing `sigcalc.cli`: medians of 16 fresh processes,
CPython 3.11.7 on a 2-vCPU x86-64 host), and the same pass with both memos
cleared after every call is no faster than with no memo.
"""

import functools

from .ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    ord_add,
    ord_mul,
    ord_omega_pow,
)
from .signature import (
    ONE_SIG,
    ZERO_SIG,
    Signature,
    _rows,
    decompose,
    is_all_positive,
    sig_exp,
    sig_restrict,
    sig_shift_down,
    sig_sum,
)

MODES = ("ordered", "sorted")

# Entries in each block memo, least recently used dropped first.  An entry
# holds one block and its rank, so what the memos hold also grows with the
# blocks' bases, which the CLI bounds by signature.MAX_BASE: at most 32.6 KB
# of pair values per block.
RANK_CACHE_SIZE = 8192


class OutsideComputedFamily(ValueError):
    """The EA-class formula only covers ranks of the form omega^(omega^a * 2^n)."""

    def __init__(self, reason: str):
        super().__init__(f"outside computed family: {reason}")


def _exp_inverse(mu: Ordinal) -> Ordinal:
    """The unique xi with omega^(-1+xi) = mu, for an omega-power mu =
    omega^delta, the single term (delta, 1): xi = 1 + delta."""
    return ord_add(ONE, mu[0][0])


def rho(a: Signature, mode: str = "sorted") -> Ordinal:
    """The rank of a signature; total on valid signatures.

    The rank of a signature is the sum of the ranks of its indecomposable
    summands (`decompose`), ordered or natural per the mode, and 0 for the
    empty base; `_rho_block` ranks one indecomposable summand.  The mode is
    one of MODES, unchecked: the CLI's `--mode` choices refuse any other.
    """
    ranks = [_rho_block(p) for p in decompose(a)]
    if mode == "sorted":
        ranks.sort(reverse=True)
    total = ZERO
    for r in ranks:
        total = ord_add(total, r)
    return total


@functools.lru_cache(maxsize=RANK_CACHE_SIZE)
def _rho_block(a: Signature) -> Ordinal:
    """The rank of an indecomposable signature.

    One has rank 1; an all-positive signature A has rank
    omega^(-1 + rank(A-1)) where A-1 is the pointwise decrement; an
    indecomposable signature with an interior zero splits below its top into
    the elements at oscillation 1 (the left factor B) and those above 1
    (which, with the top, form an exp image), and its rank is
    omega^(-1 + (xi_B + rank(C))) where C is the exp part decremented and
    xi_B is the exp-preimage of the largest rank among B's indecomposable
    summands.  Those summands are ranked here directly, not decomposed again.

    B is nonempty in the mixed case: were every o(i, top) >= 2, (!) would make
    every pair >= 1.  The exp part is all-positive by (!), and both parts are
    restrictions to proper subsets of the base, so the recursion descends.
    """
    if a.n == 1:
        return ONE
    if is_all_positive(a):
        inner = rho(sig_shift_down(a), "ordered")
        return ord_omega_pow(inner, shifted=True)
    # indecomposable with an interior zero: factor through the top
    top = a.n - 1
    column = [row[-1] for row in _rows(a)[:-1]]  # o(i, top) for i < top
    low = [i for i, v in enumerate(column) if v == 1]
    high = [i for i, v in enumerate(column) if v > 1]
    b_part = sig_restrict(a, low)
    exp_part = sig_restrict(a, high + [top])
    xi_b = _exp_inverse(max(map(_rho_block, decompose(b_part))))
    c = sig_shift_down(exp_part)
    inner = ord_add(xi_b, rho(c, "ordered"))
    return ord_omega_pow(inner, shifted=True)


def materialize(xi: Ordinal) -> Signature:
    """The unique reduced signature of rank xi.

    For xi with normal form sum of omega^beta_i * c_i (exponents descending)
    emit c_i copies of the block exp(materialize(1 + beta_i)) (`_block`) per
    term, concatenated in descending order.  Its values are at most xi's
    nesting + 1, one byte each: past 255, which only an ordinal nested 255
    levels or more can reach, `sig_exp` raises SignatureError; no ordinal
    the CLI reads or `rho` returns nests so deep (see the `signature` module
    docstring).
    """
    if xi == ONE:
        return ONE_SIG  # exp fixes one, so the recursion must bottom out here
    parts: list[Signature] = []
    for beta, coeff in xi:
        parts.extend([_block(beta)] * coeff)
    if not parts:
        return ZERO_SIG
    return sig_sum(*parts)


@functools.lru_cache(maxsize=RANK_CACHE_SIZE)
def _block(beta: Ordinal) -> Signature:
    """The reduced indecomposable signature of rank omega^beta; callers
    copy it (`sig_sum`), so the memoized object is never handed out."""
    return sig_exp(materialize(ord_add(ONE, beta)))


def materialized_base(xi: Ordinal) -> int:
    """The base size of materialize(xi), read from xi's normal form without
    building the signature: 1 for xi = 1, otherwise the sum over the terms
    omega^beta * c of c times the base size of materialize(1 + beta)."""
    if xi == ONE:
        return 1
    return sum(coeff * materialized_base(ord_add(ONE, beta)) for beta, coeff in xi)


def normalize(a: Signature) -> Signature:
    """The reduced representative: materialize(rho(a, "sorted")).

    Output is reduced and idempotent; its group is biembeddable with the
    group generated by any realization of `a` (summands taken in rank-sorted
    form).
    """
    return materialize(rho(a, "sorted"))


def is_reduced(a: Signature) -> bool:
    """Structural check: every indecomposable summand is all-positive with a
    reduced decrement, and summand ranks are weakly decreasing."""
    if a.n == 0:
        return True
    parts = decompose(a)
    prev = None
    for p in parts:
        if p.n == 1:
            pass  # one is reduced
        elif not is_all_positive(p):
            return False
        elif not is_reduced(sig_shift_down(p)):
            return False
        r = _rho_block(p)
        if prev is not None and prev < r:
            return False
        prev = r
    return True


def leq(a: Signature, b: Signature) -> bool:
    """Order by sorted-mode rank; decides embeddability of the generated
    groups when representatives are taken in rank-sorted form.  So leq agrees
    with rank order by definition; the paper's order is checked by the tests
    `test_subgroups_never_rank_higher_enumerated`, `test_decrease_rank_enumerated`
    and, on realized sets, `test_dropping_a_generator_restricts_the_signature`."""
    return rho(a, "sorted") <= rho(b, "sorted")


def ea_class(xi: Ordinal) -> Ordinal:
    """EA-class of the group of rank xi, on the computed family.

    Finite xi: the group is Z^xi, class 1 for xi >= 1 and 0 for xi = 0.
    Otherwise xi must be omega^(omega^a * 2^n): one term of coefficient 1
    (an omega power omega^zeta) whose exponent zeta is one term of
    coefficient 2^n.  The class is omega*a + n + 2 for a > 0 and n + 1 for
    a = 0.  OutsideComputedFamily names the failed condition, not xi, so its
    message stays short whatever xi's size.
    """
    if xi.is_finite:
        return ZERO if xi.is_zero else ONE
    if len(xi) != 1 or xi[0][1] != 1:
        raise OutsideComputedFamily("the rank is not an omega power")
    zeta = xi[0][0]
    if len(zeta) != 1:
        raise OutsideComputedFamily("the rank's log is not a single normal-form term")
    alpha, coeff = zeta[0]
    if coeff & (coeff - 1):
        raise OutsideComputedFamily("the coefficient of the rank's log is not a power of two")
    n = coeff.bit_length() - 1
    if alpha.is_zero:
        return Ordinal.from_int(n + 1)
    return ord_add(ord_mul(OMEGA, alpha), Ordinal.from_int(n + 2))


def ea_to_xi(alpha: Ordinal) -> Ordinal:
    """A rank xi whose group has EA-class alpha + 2.

    Write alpha = omega*a' + n and return omega^(omega^a' * 2^n); for finite
    alpha = n this degenerates to omega^(2^(n+1)).
    """
    if alpha.is_finite:
        return ord_omega_pow(Ordinal.from_int(2 ** (alpha.as_int() + 1)))
    n = 0
    aprime = ZERO
    for beta, coeff in alpha:
        if beta.is_zero:
            n = coeff
        else:
            # omega^beta = omega * omega^(-1+beta)
            piece = ord_mul(ord_omega_pow(beta, shifted=True), Ordinal.from_int(coeff))
            aprime = ord_add(aprime, piece)
    zeta = ord_mul(ord_omega_pow(aprime), Ordinal.from_int(2 ** n))
    return ord_omega_pow(zeta)
