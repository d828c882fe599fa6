"""The rank function rho, reduced signatures, normalization, and EA-class.

rho maps signatures onto ordinals below epsilon_0 and is an order isomorphism
on the reduced family; materialize inverts it.  Two modes are exposed for
combining top-level summand ranks: "ordered" sums them in listed order (the
block-form convention) while "sorted" sorts indecomposable summands by rank
descending first, which is the convention under which rank decides
embeddability of the generated groups.  Sums strictly below an exp are always
ordered; this is forced by the block-form definition of rho.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from .ordinal import (
    GT,
    LT,
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    OrdinalError,
    ord_add,
    ord_cmp,
    ord_log_omega,
    ord_mul,
    ord_omega_pow,
)
from .signature import (
    ONE_SIG,
    ZERO_SIG,
    Signature,
    SignatureError,
    _rows,
    decompose,
    is_all_positive,
    sig_exp,
    sig_restrict,
    sig_shift_down,
    sig_sum,
)

MODES = ("ordered", "sorted")


class OutsideComputedFamily(ValueError):
    """The EA-class formula only covers ranks of the form omega^(omega^a * 2^n)."""


def _exp_inverse(mu: Ordinal) -> Ordinal:
    """The unique xi with omega^(-1+xi) = mu, for an omega-power mu."""
    delta = ord_log_omega(mu)  # mu = omega^delta
    return ord_add(ONE, delta)


def rho(a: Signature, mode: str = "sorted") -> Ordinal:
    """The rank of a signature; total on valid signatures.

    The rank of a signature is the sum of the ranks of its indecomposable
    summands (`decompose`), ordered or natural per the mode, and 0 for the
    empty base; `_rho_block` ranks one indecomposable summand.
    """
    if mode not in MODES:
        raise SignatureError(f"unknown rho mode {mode!r}")
    ranks = [_rho_block(p) for p in decompose(a)]
    if mode == "sorted":
        ranks.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
    total = ZERO
    for r in ranks:
        total = ord_add(total, r)
    return total


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
    best = None
    for summand in decompose(b_part):
        r = _rho_block(summand)
        if best is None or ord_cmp(r, best) == GT:
            best = r
    xi_b = _exp_inverse(best)
    c = sig_shift_down(exp_part)
    inner = ord_add(xi_b, rho(c, "ordered"))
    return ord_omega_pow(inner, shifted=True)


def materialize(xi: Ordinal) -> Signature:
    """The unique reduced signature of rank xi.

    For xi with normal form sum of omega^beta_i * c_i (exponents descending)
    emit c_i copies of exp(materialize(1 + beta_i)) per term, concatenated in
    descending order.
    """
    if xi == ONE:
        return ONE_SIG  # exp fixes one, so the recursion must bottom out here
    parts: List[Signature] = []
    for beta, coeff in xi.terms:
        block = sig_exp(materialize(ord_add(ONE, beta)))
        parts.extend([block] * coeff)
    if not parts:
        return ZERO_SIG
    return sig_sum(*parts)


def materialized_base(xi: Ordinal) -> int:
    """The base size of materialize(xi), read from xi's normal form without
    building the signature: 1 for xi = 1, otherwise the sum over the terms
    omega^beta * c of c times the base size of materialize(1 + beta)."""
    if xi == ONE:
        return 1
    return sum(coeff * materialized_base(ord_add(ONE, beta)) for beta, coeff in xi.terms)


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
        if prev is not None and ord_cmp(prev, r) == LT:
            return False
        prev = r
    return True


def leq(a: Signature, b: Signature) -> bool:
    """Order by sorted-mode rank; decides embeddability of the generated
    groups when representatives are taken in rank-sorted form."""
    return ord_cmp(rho(a, "sorted"), rho(b, "sorted")) != GT


def _factor_pow2(c: int) -> int:
    """n with c = 2^n, or -1 if c is not a power of two."""
    n = 0
    while c % 2 == 0:
        c //= 2
        n += 1
    return n if c == 1 else -1


def ea_class(xi: Ordinal) -> Ordinal:
    """EA-class of the group of rank xi, on the computed family.

    Finite xi: the group is Z^xi, class 1 for xi >= 1 and 0 for xi = 0.
    Otherwise xi must be omega^(omega^a * 2^n); the class is omega*a + n + 2
    for a > 0 and n + 1 for a = 0.  OutsideComputedFamily names the failed
    condition, not xi, so its message stays short whatever xi's size.
    """
    if xi.is_finite:
        return ZERO if xi.is_zero else ONE
    try:
        zeta = ord_log_omega(xi)
    except OrdinalError:
        raise OutsideComputedFamily("the rank is not an omega power")
    if len(zeta.terms) != 1:
        raise OutsideComputedFamily("the rank's log is not a single normal-form term")
    alpha, coeff = zeta.terms[0]
    n = _factor_pow2(coeff)
    if n < 0:
        raise OutsideComputedFamily("the coefficient of the rank's log is not a power of two")
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
    for beta, coeff in alpha.terms:
        if beta.is_zero:
            n = coeff
        else:
            # omega^beta = omega * omega^(-1+beta)
            piece = ord_mul(ord_omega_pow(beta, shifted=True), Ordinal.from_int(coeff))
            aprime = ord_add(aprime, piece)
    zeta = ord_mul(ord_omega_pow(aprime), Ordinal.from_int(2 ** n))
    return ord_omega_pow(zeta)
