"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ordinal is stored as a tuple of (exponent, coefficient) pairs with
exponents strictly decreasing and coefficients >= 1; the empty tuple is 0.
Exponents are themselves ordinals, so the representation bottoms out at
finite ordinals, which are the single term (0, n).

`Ordinal(terms)` checks that form; the arithmetic builds its results, which
are in normal form by construction, with the unchecked `_cnf`.
"""

from __future__ import annotations

import functools
from typing import Iterable, Tuple

LT, EQ, GT = -1, 0, 1


class OrdinalError(ValueError):
    pass


class OrdinalParseError(OrdinalError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form, never changed once built."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise OrdinalError(f"bad CNF term ({exp!r}, {coeff!r})")
            if coeff < 1:
                raise OrdinalError(f"coefficient {coeff} < 1")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if ord_cmp(e1, e2) != GT:
                raise OrdinalError("CNF exponents not strictly decreasing")
        self.terms = terms

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are nonnegative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    @property
    def leading_exp(self) -> "Ordinal":
        if self.is_zero:
            raise OrdinalError("0 has no leading exponent")
        return self.terms[0][0]

    def __eq__(self, other):
        if isinstance(other, Ordinal):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Ordinal({ord_render(self)!r})"

    def __str__(self):
        return ord_render(self)


def _cnf(terms: Iterable[Tuple[Ordinal, int]]) -> Ordinal:
    """An Ordinal from terms an operation built in normal form; unchecked."""
    a = object.__new__(Ordinal)
    a.terms = tuple(terms)
    return a


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """Total order on CNF ordinals; returns LT, EQ or GT."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        c = ord_cmp(e1, e2)
        if c != EQ:
            return c
        if c1 != c2:
            return LT if c1 < c2 else GT
    if len(a.terms) == len(b.terms):
        return EQ
    return LT if len(a.terms) < len(b.terms) else GT


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """The usual (noncommutative) ordinal sum: terms of `a` whose exponent
    is below the leading exponent of `b` are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    e = b.leading_exp
    keep = []
    merge_coeff = 0
    for exp, coeff in a.terms:
        c = ord_cmp(exp, e)
        if c == GT:
            keep.append((exp, coeff))
        elif c == EQ:
            merge_coeff = coeff
            break
        else:
            break
    if merge_coeff:
        head = (e, merge_coeff + b.terms[0][1])
        return _cnf(tuple(keep) + (head,) + b.terms[1:])
    return _cnf(tuple(keep) + b.terms)


def ord_natural_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """The natural (Hessenberg) sum: merge all terms and sort."""
    acc: dict = {}
    order = []
    for exp, coeff in a.terms + b.terms:
        if exp in acc:
            acc[exp] += coeff
        else:
            acc[exp] = coeff
            order.append(exp)
    order.sort(key=functools.cmp_to_key(ord_cmp), reverse=True)
    return _cnf((exp, acc[exp]) for exp in order)


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product, distributing over the CNF of the right factor."""
    if a.is_zero or b.is_zero:
        return ZERO
    e0, c0 = a.terms[0]
    total = ZERO
    for f, d in b.terms:
        if f.is_zero:
            piece = _cnf(((e0, c0 * d),) + a.terms[1:])
        else:
            piece = _cnf(((ord_add(e0, f), d),))
        total = ord_add(total, piece)
    return total


def ord_omega_pow(a: Ordinal, shifted: bool = False) -> Ordinal:
    """omega^a, or omega^(-1+a) when shifted.

    -1+a is a for infinite a and a-1 for finite a >= 1; by convention the
    shifted power of 0 is 0.
    """
    if not shifted:
        if a.is_zero:
            return ONE
        return _cnf(((a, 1),))
    if a.is_zero:
        return ZERO
    if a.is_finite:
        k = a.as_int() - 1
        return ONE if k == 0 else _cnf(((Ordinal.from_int(k), 1),))
    return _cnf(((a, 1),))


def ord_log_omega(a: Ordinal) -> Ordinal:
    """The exponent delta with a = omega^delta, for an omega-power a."""
    if a.is_zero or len(a.terms) != 1 or a.terms[0][1] != 1:
        raise OrdinalError(f"{a} is not an omega power")
    return a.terms[0][0]


# --- text codec ------------------------------------------------------------

# Deepest nesting of '(' and 'w^' in an ordinal, and of '(', 'exp(' and 'E('
# in a signature term.  The ordinal parser recurses once per level; the term
# reader keeps its own stack, but one limit for both grammars keeps its errors.
MAX_NESTING = 100


# Grammar (whitespace insignificant):
#   expr   := term ('+' term)*
#   term   := factor ('*' nat)?
#   factor := '0' | nat | 'w' | 'w' '^' factor | '(' expr ')'
#
# The parser evaluates arbitrary expressions with ordered arithmetic and
# canonicalizes; input need not be in normal form.  'w^(' is one level of
# nesting.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise OrdinalParseError(message, self.pos)

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on digits
            self.pos = start
            self.error("natural number too long")

    def nested(self, parse):
        """parse() one level deeper, failing beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.error(f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expr(self) -> Ordinal:
        total = self.term()
        while self.peek() == "+":
            self.eat("+")
            total = ord_add(total, self.term())
        return total

    def term(self) -> Ordinal:
        value = self.factor()
        if self.peek() == "*":
            self.eat("*")
            value = ord_mul(value, Ordinal.from_int(self.nat()))
        return value

    def factor(self) -> Ordinal:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.nested(self.expr)
            self.eat(")")
            return value
        if ch == "w":
            self.pos += 1
            if self.peek() != "^":
                return OMEGA
            self.eat("^")
            return ord_omega_pow(self.factor() if self.peek() == "(" else self.nested(self.factor))
        if ch.isdecimal():
            return Ordinal.from_int(self.nat())
        self.error("expected '0', a number, 'w' or '('")


def ord_parse(text: str) -> Ordinal:
    p = _Parser(text)
    value = p.expr()
    if p.peek():
        p.error("trailing input")
    return value


def _exp_is_atom(e: Ordinal) -> bool:
    # exponents rendered without parentheses: finite ordinals and omega itself
    return e.is_finite or e == OMEGA


def ord_render(a: Ordinal) -> str:
    """Canonical text form; ord_parse(ord_render(a)) == a."""
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif _exp_is_atom(exp):
            base = f"w^{ord_render(exp)}"
        else:
            base = f"w^({ord_render(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)
