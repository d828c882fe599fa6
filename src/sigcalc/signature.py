"""Oscillation signatures: validated matrices on finite linear orders.

A signature assigns a nonnegative integer o(i,j) to each pair i < j of a
base {0,...,n-1} subject to the triple law (!): for i < j < k,

    o(i,j) = o(j,k) ! o(i,k)

where r = p ! q means r >= min(p-1, q) with equality unless p = q.  These
matrices are exactly the ones realizable as pairwise oscillations of a
standard generating set; the symbolic operations here (+, *, exp, E,
rotation, inflation, restriction) mirror the geometric ones.

(!) is checked once, where a matrix enters: `Signature(n, o, labels)` checks
it, for JSON and CLI input and in `realization.signature_of`.  The operations
and `enumerate_signatures` keep (!) by construction and build with the
unchecked `_trusted`; the closure tests in tests/test_signature.py assert
`violations() == []` on everything they build.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


class SignatureError(ValueError):
    pass


class SignatureParseError(SignatureError):
    """Text that is not a signature term or a well-formed signature document."""


class TermParseError(SignatureParseError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# --- the (!) relation -------------------------------------------------------


def bang_rel(p: int, q: int, r: int) -> bool:
    """Whether r = p ! q: r >= min(p-1, q), with equality unless p = q."""
    m = min(p - 1, q)
    if p == q:
        return r >= m
    return r == m


# --- matrices and signatures -------------------------------------------------


def _pair_index(n: int, i: int, j: int) -> int:
    # pairs ordered (0,1),(0,2),...,(0,n-1),(1,2),...
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _pairs(n: int) -> Iterable[Tuple[int, int]]:
    return itertools.combinations(range(n), 2)


class OscMatrix:
    """A raw nonnegative matrix on pairs of 0..n-1, prior to validation."""

    __slots__ = ("n", "vals", "labels")

    def __init__(self, n: int, o: Union[Dict[Tuple[int, int], int], Sequence[int]],
                 labels: Optional[Sequence[str]] = None):
        if n < 0:
            raise SignatureError("base cardinality must be >= 0")
        npairs = n * (n - 1) // 2
        if isinstance(o, dict):
            for i, j in o:
                if not (0 <= i < j < n):
                    raise SignatureError(f"pair ({i},{j}) outside base 0..{n-1}")
            if len(o) != npairs:
                first = list(itertools.islice((p for p in _pairs(n) if p not in o), 5))
                raise SignatureError(
                    f"missing {npairs - len(o)} of {npairs} pairs, first {first}")
            vals = [0] * npairs
            for (i, j), v in o.items():
                vals[_pair_index(n, i, j)] = v
        else:
            vals = list(o)
            if len(vals) != npairs:
                raise SignatureError(f"expected {npairs} values, got {len(vals)}")
        for v in vals:
            if not isinstance(v, int) or v < 0:
                raise SignatureError(f"pair value {v!r} is not a nonnegative integer")
        self.n = n
        self.vals = tuple(vals)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise SignatureError("label list length differs from base size")
        self.labels = labels

    def val(self, i: int, j: int) -> int:
        if not (0 <= i < j < self.n):
            raise SignatureError(f"pair ({i},{j}) outside base")
        return self.vals[_pair_index(self.n, i, j)]

    def violations(self) -> List[Tuple[int, int, int]]:
        """All triples i < j < k that fail (!)."""
        out = []
        for i, j, k in itertools.combinations(range(self.n), 3):
            if not bang_rel(self.val(j, k), self.val(i, k), self.val(i, j)):
                out.append((i, j, k))
        return out


class Signature(OscMatrix):
    """An OscMatrix certified to satisfy (!).

    Equality and hashing ignore labels: every signature is identified with
    its canonical relabeling to base 0..n-1.
    """

    def __init__(self, n, o, labels=None):
        super().__init__(n, o, labels)
        bad = self.violations()
        if bad:
            raise SignatureError(f"(!) fails at {len(bad)} triples, first {bad[:5]}")

    def __eq__(self, other):
        if isinstance(other, Signature):
            return self.n == other.n and self.vals == other.vals
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.vals))

    def __repr__(self):
        if self.n == 0:
            return "Signature(zero)"
        if self.n == 1:
            return "Signature(one)"
        cells = ", ".join(f"({i},{j})={self.val(i,j)}" for i, j in _pairs(self.n))
        return f"Signature(n={self.n}, {cells})"

    @property
    def complexity(self) -> Tuple[int, int]:
        """(cardinality, total oscillation): the lexicographic termination measure."""
        return (self.n, sum(self.vals))

    def default_labels(self) -> Tuple[str, ...]:
        return self.labels if self.labels is not None else tuple(str(i) for i in range(self.n))


def _trusted(n: int, vals: Sequence[int], labels=None) -> Signature:
    """A Signature from values an operation built to satisfy (!); unchecked."""
    s = object.__new__(Signature)
    s.n, s.vals, s.labels = n, tuple(vals), labels
    return s


ZERO_SIG = Signature(0, ())
ONE_SIG = Signature(1, ())


def sig_sum(*parts: Signature) -> Signature:
    """Concatenate bases with zero oscillation across summands."""
    if not parts:
        return ZERO_SIG
    n = sum(p.n for p in parts)
    vals = [0] * (n * (n - 1) // 2)
    offset = 0
    labels = []
    for p in parts:
        for i, j in _pairs(p.n):
            vals[_pair_index(n, offset + i, offset + j)] = p.val(i, j)
        labels.extend(p.default_labels())
        offset += p.n
    return _trusted(n, vals, tuple(labels) if any(p.labels for p in parts) else None)


def sig_exp(a: Signature, levels: int = 1) -> Signature:
    """Pointwise +levels; exp is levels=1 and E is levels=2."""
    if levels < 1:
        raise SignatureError("levels must be >= 1")
    return _trusted(a.n, tuple(v + levels for v in a.vals), a.labels)


def sig_E(a: Signature) -> Signature:
    return sig_exp(a, 2)


def is_all_positive(a: Signature) -> bool:
    return all(v >= 1 for v in a.vals)


def sig_shift_down(a: Signature) -> Signature:
    """Pointwise -1; the inverse of exp on its range."""
    if not is_all_positive(a):
        raise SignatureError("pointwise decrement needs an all-positive signature")
    return _trusted(a.n, tuple(v - 1 for v in a.vals), a.labels)


def sig_star(a: Signature, b: Signature) -> Signature:
    """Concatenate with oscillation 1 across; b must be all-positive."""
    if not is_all_positive(b):
        raise SignatureError("right *-factor must be an exp image (all pair values >= 1)")
    n = a.n + b.n
    vals = [0] * (n * (n - 1) // 2)
    for i, j in _pairs(a.n):
        vals[_pair_index(n, i, j)] = a.val(i, j)
    for i, j in _pairs(b.n):
        vals[_pair_index(n, a.n + i, a.n + j)] = b.val(i, j)
    for i in range(a.n):
        for j in range(b.n):
            vals[_pair_index(n, i, a.n + j)] = 1
    return _trusted(n, vals)


def decompose(a: Signature) -> List[Signature]:
    """The unique maximal splitting into indecomposable summands.

    A split point is a position where every oscillation across it is zero.
    """
    if a.n == 0:
        return []
    # p is a split point iff no positive oscillation crosses it
    reach = [max((j for j in range(i + 1, a.n) if a.val(i, j) > 0), default=i)
             for i in range(a.n)]
    cuts = [0]
    frontier = 0
    for p in range(1, a.n):
        frontier = max(frontier, reach[p - 1])
        if frontier < p:
            cuts.append(p)
    cuts.append(a.n)
    return [sig_restrict(a, range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def is_indecomposable(a: Signature) -> bool:
    return a.n >= 1 and len(decompose(a)) == 1


def sig_restrict(a: Signature, subset: Iterable[int]) -> Signature:
    """Induced submatrix on a subset of the base; (!) is hereditary."""
    idx = sorted(set(subset))
    for i in idx:
        if not (0 <= i < a.n):
            raise SignatureError(f"base element {i} out of range")
    vals = [a.val(i, j) for i, j in itertools.combinations(idx, 2)]
    labels = None
    if a.labels is not None:
        labels = tuple(a.labels[i] for i in idx)
    return _trusted(len(idx), vals, labels)


def sig_drop_top(a: Signature) -> Signature:
    """Remove the top base element."""
    if a.n == 0:
        raise SignatureError("cannot drop the top of the empty signature")
    return sig_restrict(a, range(a.n - 1))


def sig_rotate(a: Signature) -> Signature:
    """Symbolic rotation.

    zero and one rotate to zero; a sum B + C rotates to B + (C rotated); an
    indecomposable signature on {0..n} moves the top to a new least element
    with o(new, i) = o(i, n) - 1 and inner pairs unchanged.
    """
    if a.n <= 1:
        return ZERO_SIG
    parts = decompose(a)
    if len(parts) > 1:
        return sig_sum(*parts[:-1], sig_rotate(parts[-1]))
    n = a.n - 1  # top element
    new_n = a.n  # rotated base keeps cardinality: {n_rot, 0, .., n-1}
    vals = [0] * (new_n * (new_n - 1) // 2)
    for i in range(n):
        vals[_pair_index(new_n, 0, i + 1)] = a.val(i, n) - 1
    for i, j in _pairs(n):
        vals[_pair_index(new_n, i + 1, j + 1)] = a.val(i, j)
    labels = None
    if a.labels is not None:
        labels = (f"{a.labels[n]}^o",) + tuple(a.labels[:n])
    out = _trusted(new_n, vals, labels)
    if not (out.complexity < a.complexity):
        raise SignatureError("rotation failed to decrease complexity")
    return out


def sig_inflate(a: Signature, m: int) -> Signature:
    """Symbolic inflation at base element m.

    Adjoins a conjugate i^m for each i < m with o(i,m) > 0.  The new base
    order is: originals below m, then conjugates in order, then m and above.
    New values use the min-formulas with the convention o(m,m) = infinity;
    the sentinel never appears in the output.
    """
    if not (0 <= m < a.n):
        raise SignatureError(f"base element {m} out of range")
    conj = [i for i in range(m) if a.val(i, m) > 0]
    INF = float("inf")

    def old(i: int, j: int):
        if i == j:
            return INF
        return a.val(min(i, j), max(i, j))

    # new base: 0..m-1, then conjugates c^m (c in conj), then m..n-1
    n_new = a.n + len(conj)
    pos_orig = {i: i for i in range(m)}
    pos_conj = {c: m + t for t, c in enumerate(conj)}
    pos_high = {k: k + len(conj) for k in range(m, a.n)}
    vals = [0] * (n_new * (n_new - 1) // 2)

    def put(p: int, q: int, v):
        if v == INF or not isinstance(v, int):
            raise SignatureError("infinity sentinel escaped inflation")
        vals[_pair_index(n_new, min(p, q), max(p, q))] = v

    for i, j in _pairs(m):  # originals below m, unchanged
        put(pos_orig[i], pos_orig[j], a.val(i, j))
    for i in range(m):  # original below m vs m and above, unchanged
        for k in range(m, a.n):
            put(pos_orig[i], pos_high[k], a.val(i, k))
    for k1, k2 in _pairs(a.n):  # m and above, unchanged
        if k1 >= m:
            put(pos_high[k1], pos_high[k2], a.val(k1, k2))
    for ci, cj in itertools.combinations(conj, 2):  # conjugate vs conjugate
        put(pos_conj[ci], pos_conj[cj], a.val(ci, cj))
    for i in range(m):  # original below m vs conjugate
        for j in conj:
            put(pos_orig[i], pos_conj[j], min(a.val(j, m) - 1, a.val(i, m)))
    for i in conj:  # conjugate vs m and above
        for k in range(m, a.n):
            v = min(old(i, m), old(m, k))
            put(pos_conj[i], pos_high[k], int(v))

    labels = None
    src = a.default_labels()
    if conj:
        lm = src[m]
        lm = lm if len(lm) == 1 else f"({lm})"
        new_labels = [src[i] for i in range(m)]
        new_labels += [f"{src[c]}^{lm}" for c in conj]
        new_labels += [src[k] for k in range(m, a.n)]
        labels = tuple(new_labels)
    elif a.labels is not None:
        labels = a.labels
    return _trusted(n_new, vals, labels)


# --- signature terms ---------------------------------------------------------
#
# Grammar: t := '0' | '1' | t '+' t | t '*' t | 'exp(' t ')' | 'E(' t ')'
# with * binding tighter than +; parentheses allowed for grouping.


class SigTerm:
    """Expression tree over {zero, one, sum, star, exp, E}."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple["SigTerm", ...] = ()):
        if op not in ("zero", "one", "sum", "star", "exp", "E"):
            raise SignatureError(f"unknown term operation {op!r}")
        self.op = op
        self.args = args

    def __eq__(self, other):
        return isinstance(other, SigTerm) and (self.op, self.args) == (other.op, other.args)

    def __hash__(self):
        return hash((self.op, self.args))

    def __repr__(self):
        return f"SigTerm({render_term(self)!r})"


def term_zero() -> SigTerm:
    return SigTerm("zero")


def term_one() -> SigTerm:
    return SigTerm("one")


def term_sum(*xs: SigTerm) -> SigTerm:
    return SigTerm("sum", tuple(xs))


def term_star(x: SigTerm, y: SigTerm) -> SigTerm:
    return SigTerm("star", (x, y))


def term_exp(x: SigTerm) -> SigTerm:
    return SigTerm("exp", (x,))


def term_E(x: SigTerm) -> SigTerm:
    return SigTerm("E", (x,))


def eval_term(t: SigTerm) -> Signature:
    if t.op == "zero":
        return ZERO_SIG
    if t.op == "one":
        return ONE_SIG
    if t.op == "sum":
        return sig_sum(*(eval_term(x) for x in t.args))
    if t.op == "star":
        a, b = (eval_term(x) for x in t.args)
        return sig_star(a, b)
    if t.op == "exp":
        return sig_exp(eval_term(t.args[0]))
    if t.op == "E":
        return sig_E(eval_term(t.args[0]))
    raise SignatureError(f"unknown term {t.op!r}")


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise TermParseError(message, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> SigTerm:
        parts = [self.term()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else term_sum(*parts)

    def term(self) -> SigTerm:
        value = self.atom()
        while self.peek() == "*":
            self.pos += 1
            value = term_star(value, self.atom())
        return value

    def atom(self) -> SigTerm:
        ch = self.peek()
        if ch == "0":
            self.pos += 1
            return term_zero()
        if ch == "1":
            self.pos += 1
            return term_one()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if self.text.startswith("exp", self.pos):
            self.pos += 3
            return term_exp(self._parenthesized())
        if ch == "E":
            self.pos += 1
            return term_E(self._parenthesized())
        self.error("expected '0', '1', 'exp(', 'E(' or '('")

    def _parenthesized(self) -> SigTerm:
        if self.peek() != "(":
            self.error("expected '('")
        self.pos += 1
        value = self.expr()
        if self.peek() != ")":
            self.error("expected ')'")
        self.pos += 1
        return value


def parse_term(text: str) -> SigTerm:
    p = _TermParser(text)
    value = p.expr()
    if p.peek():
        p.error("trailing input")
    return value


def render_term(t: SigTerm) -> str:
    if t.op == "zero":
        return "0"
    if t.op == "one":
        return "1"
    if t.op == "sum":
        return "+".join(render_term(x) for x in t.args)
    if t.op == "star":
        def wrap(x):
            s = render_term(x)
            return f"({s})" if x.op == "sum" else s
        return "*".join(wrap(x) for x in t.args)
    if t.op == "exp":
        return f"exp({render_term(t.args[0])})"
    return f"E({render_term(t.args[0])})"


# --- enumeration and JSON ----------------------------------------------------


def enumerate_signatures(n: int, vmax: int) -> List[Signature]:
    """All signatures on base n with values <= vmax, in lexicographic order.

    Backtracks column by column (all pairs ending at k before k+1), pruning
    with (!) as soon as a triple is fully assigned.
    """
    if n > 5 or vmax > 5:
        raise SignatureError("enumeration bounds exceeded (n <= 5, vmax <= 5)")
    if n < 0 or vmax < 0:
        raise SignatureError("bounds must be nonnegative")
    npairs = n * (n - 1) // 2
    vals = [0] * npairs
    out: List[Signature] = []

    def column(k: int):
        if k == n:
            out.append(_trusted(n, vals))
            return
        def assign(i: int):
            if i == k:
                column(k + 1)
                return
            for v in range(vmax + 1):
                vals[_pair_index(n, i, k)] = v
                # triples (i2, i, k) become fully assigned at this step
                ok = all(
                    bang_rel(v, vals[_pair_index(n, i2, k)], vals[_pair_index(n, i2, i)])
                    for i2 in range(i)
                )
                if ok:
                    assign(i + 1)
            vals[_pair_index(n, i, k)] = 0
        assign(0)

    if n == 0:
        return [ZERO_SIG]
    column(1)
    return out


def sig_to_json(a: OscMatrix) -> str:
    doc = {"n": a.n, "o": {f"{i},{j}": a.val(i, j) for i, j in _pairs(a.n)}}
    if a.labels is not None:
        doc["labels"] = list(a.labels)
    return json.dumps(doc, sort_keys=True)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def sig_from_json(text: str) -> Signature:
    """Parse {"n": int, "o": {"i,j": int, ...}, "labels": [str, ...]}.

    A document of another shape raises SignatureParseError; a well-formed
    matrix that is not a signature raises SignatureError.
    """
    doc = json.loads(text)
    if not (isinstance(doc, dict) and _is_int(doc.get("n")) and doc["n"] >= 0):
        raise SignatureParseError('"n" must be an integer >= 0')
    raw = doc.get("o", {})
    if not isinstance(raw, dict):
        raise SignatureParseError('"o" must be an object')
    o = {}
    for key, v in raw.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise SignatureParseError(f'"o" key {key!r} is not "i,j"') from None
        if not _is_int(v):
            raise SignatureParseError(f'"o" value at {key!r} is not an integer')
        o[(i, j)] = v
    labels = doc.get("labels")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise SignatureParseError('"labels" must be a list of strings')
    return Signature(doc["n"], o, labels)
