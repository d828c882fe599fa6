"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ordinal is the tuple of its (exponent, coefficient) terms, with exponents
strictly decreasing and coefficients >= 1; the empty tuple is 0.  Exponents
are themselves ordinals, so the representation bottoms out at finite
ordinals, which are the single term (0, n).

The order of ordinals is tuple order on these normal forms: the first term
that differs decides, by exponent and then by coefficient, and a proper
prefix is the smaller.  So `Ordinal` is a `tuple` subclass, and ==, <, hash
and sorting are tuple's own.

`Ordinal(terms)` is tuple's own constructor and checks nothing.  Ordinals
enter as text, which `ord_parse` checks and builds with the arithmetic from
natural numbers; the arithmetic builds normal forms from normal forms.  The
tests rebuild results through `tests/oracles.py::checked_ordinal`.
"""

from __future__ import annotations

LT, EQ, GT = -1, 0, 1


class OrdinalError(ValueError):
    pass


class OrdinalParseError(OrdinalError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Ordinal(tuple):
    """An ordinal below epsilon_0 in Cantor normal form: the tuple of its
    (exponent, coefficient) terms, never changed once built.

    Comparison, equality and hash are tuple's, so an Ordinal equals, and
    hashes as, a plain tuple of the same terms (but never an int), and an
    Ordinal is true exactly when it is nonzero.
    """

    __slots__ = ()

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        """The finite ordinal n, for an int n >= 0."""
        return Ordinal(((ZERO, n),)) if n else ZERO

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def as_int(self) -> int:
        """The int a finite ordinal is; every caller tests `is_finite` first."""
        return self[0][1] if self else 0

    def __repr__(self):
        return f"Ordinal({ord_render(self)!r})"

    def __str__(self):
        return ord_render(self)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """Total order on CNF ordinals; returns LT, EQ or GT."""
    return (a > b) - (a < b)


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """The usual (noncommutative) ordinal sum: terms of `a` whose exponent
    is below the leading exponent of `b` are absorbed."""
    if not a or not b:  # a zero summand: the other is the sum
        return a or b
    e, c = b[0]
    keep = 0
    while keep < len(a) and a[keep][0] > e:
        keep += 1
    if keep < len(a) and a[keep][0] == e:
        return Ordinal(a[:keep] + ((e, a[keep][1] + c),) + b[1:])
    return Ordinal(a[:keep] + b)


def ord_natural_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """The natural (Hessenberg) sum: merge all terms and sort."""
    acc: dict = {}
    for exp, coeff in a + b:
        acc[exp] = acc.get(exp, 0) + coeff
    return Ordinal(sorted(acc.items(), reverse=True))


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product, distributing over the CNF of the right factor."""
    if not a or not b:
        return ZERO
    e0, c0 = a[0]
    total = ZERO
    for f, d in b:
        if not f:
            piece = Ordinal(((e0, c0 * d),) + a[1:])
        else:
            piece = Ordinal(((ord_add(e0, f), d),))
        total = ord_add(total, piece)
    return total


def ord_omega_pow(a: Ordinal, shifted: bool = False) -> Ordinal:
    """omega^a, or omega^(-1+a) when shifted.

    -1+a is a for infinite a and a-1 for finite a >= 1; by convention the
    shifted power of 0 is 0.
    """
    if not shifted:
        if not a:
            return ONE
        return Ordinal(((a, 1),))
    if not a:
        return ZERO
    if a.is_finite:
        k = a.as_int() - 1
        return ONE if k == 0 else Ordinal(((Ordinal.from_int(k), 1),))
    return Ordinal(((a, 1),))


def ord_log_omega(a: Ordinal) -> Ordinal:
    """The exponent delta with a = omega^delta, for an omega-power a."""
    if len(a) != 1 or a[0][1] != 1:
        raise OrdinalError(f"{a} is not an omega power")
    return a[0][0]


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
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if not exp:
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
