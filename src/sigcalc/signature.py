"""Oscillation signatures: validated matrices on finite linear orders.

A signature assigns a nonnegative integer o(i,j) to each pair i < j of a
base {0,...,n-1} subject to the triple law (!): for i < j < k,

    o(i,j) = o(j,k) ! o(i,k)

where r = p ! q means r >= min(p-1, q) with equality unless p = q.  These
matrices are exactly the ones realizable as pairwise oscillations of a
standard generating set; the operations here (+, exp, rotation, inflation,
restriction) and the terms `parse_term` reads mirror the geometric ones.

`Signature` is the one matrix class; the reader a matrix enters through
checks its shape.  `sig_from_json` reads the "i,j" keys, each pair once, n
labels and values in 0..MAX_PAIR_VALUE, then `Signature(n, vals, labels)`
checks values and (!).  The operations, `parse_term` (which splits its
tokens out with str methods and writes each leaf's column of pair values as
it reads the term) and `enumerate_signatures` keep (!) by construction and
build with the unchecked `_trusted`; tests read the violations of any
matrix as `_trusted(n, vals).violations()`.

Pair values are stored row-major in one `bytes` object, a byte per pair:
`vals` is o(0,1), ..., o(0,n-1), o(1,2), ..., o(n-2,n-1), so row i, holding
o(i,i+1), ..., o(i,n-1), is one contiguous slice.  `_rows(a)` returns these
n slices (the last one empty), and the operations that move whole blocks of
a matrix (`sig_sum`, `decompose`, `sig_restrict`, `sig_rotate`) and
`violations` read and build their values row by row from it; in a row,
o(i,j) is at position j-i-1 and the top column o(i,n-1) is `row[-1]`.  By
(!), a zero row is a zero block, so `decompose` splits after each all-zero
row.  `sig_inflate` builds its values in one pass over the new base,
`enumerate_signatures` grows signatures kept as rows by one column at a
time, `sig_to_json` fills a text kept per base size, and `sig_exp` and
`sig_shift_down` are one `bytes.translate` each.

So every value lies in 0..255.  `Signature(...)` refuses one outside, and
`_trusted` builds with `bytes(vals)`, which refuses one too; only a
translation could wrap, and each refuses the value that would (`sig_exp` a
255, `sig_shift_down` a 0).  No producer the CLI reaches comes near:
`sig_from_json` refuses a value past MAX_PAIR_VALUE (64); a term's values are
at most 2 MAX_NESTING + 1 = 201, since o(i,j) sums the levels (at most 2 each)
of at most MAX_NESTING groups, plus 1; `enumerate_signatures` keeps its
values <= 5; `signature_of` counts at most MAX_PAIR_VALUE rotations, its
fuel; `sig_sum`, `decompose`, `sig_restrict` and `sig_shift_down` raise no
value, nor do `sig_rotate` (copies, or o(i,n) - 1) and `sig_inflate` (copies,
or minima of them, less 1 for a conjugate).  `sig_exp` adds 1, and its one
caller, `normalizer._block`, builds the blocks of `materialize(xi)`, whose
values are at most xi's nesting + 1 (a term omega^beta's block is
exp(materialize(1 + beta)), by induction on the normal form): 101 for an
ordinal `ord_parse` reads, while an omega tower 256 levels high, built in
Python, reaches the refusal.  For `normalize(a)` they are at most a's largest
value m, by induction over `_rho_block`'s cases: each ranks a block
omega^(-1 + x) with x a sum of ranks whose own blocks materialize below m
(a decrement's, or those of the left factor B, whose ranks are omega-powers
of blocks with values <= m); tests/test_signature.py checks this bound.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
import re
from typing import Iterable, List, Optional, Sequence, Tuple

from .ordinal import MAX_NESTING


class SignatureError(ValueError):
    pass


class SignatureParseError(SignatureError):
    """Text that is not a signature term or a well-formed signature document."""


class TermParseError(SignatureParseError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")


# --- the (!) relation -------------------------------------------------------


def bang_rel(p: int, q: int, r: int) -> bool:
    """Whether r = p ! q: r >= min(p-1, q), with equality unless p = q."""
    m = min(p - 1, q)
    if p == q:
        return r >= m
    return r == m


# --- signatures --------------------------------------------------------------


def _pair_index(n: int, i: int, j: int) -> int:
    # pairs ordered (0,1),(0,2),...,(0,n-1),(1,2),...
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _pairs(n: int) -> Iterable[Tuple[int, int]]:
    return itertools.combinations(range(n), 2)


class Signature:
    """Nonnegative pair values on the base 0..n-1 that satisfy (!).

    Equality and hashing ignore labels: every signature is identified with
    its canonical relabeling to base 0..n-1.
    """

    __slots__ = ("n", "vals", "labels")

    def __init__(self, n: int, vals: Sequence[int], labels: Optional[Sequence[str]] = None):
        """Checks values (each an int in 0..255) and (!), not the shape:
        n >= 0, n(n-1)/2 values, n labels if any, as `sig_from_json` and the
        module constants give."""
        vals = tuple(vals)
        for v in vals:
            if not _is_int(v) or not 0 <= v <= 255:
                raise SignatureError(f"pair value {v!r} is not a byte, an integer in 0..255")
        self.n, self.vals = n, bytes(vals)
        self.labels = None if labels is None else tuple(str(x) for x in labels)
        bad = self.violations()
        if bad:
            raise SignatureError(f"(!) fails at {len(bad)} triples, first {bad[:5]}")

    def val(self, i: int, j: int) -> int:
        """o(i,j), unchecked: `__repr__` and `sig_inflate` ask for i < j < n."""
        return self.vals[_pair_index(self.n, i, j)]

    def violations(self) -> List[Tuple[int, int, int]]:
        """All triples i < j < k that fail (!), in lexicographic order."""
        out = []
        rows = _rows(self)
        for i, row_i in enumerate(rows):
            for j, r in enumerate(row_i, i + 1):
                # r = o(i,j) against p = o(j,k), q = o(i,k) for k = j+1, ..., n-1:
                # r = p ! q holds iff p = q <= r+1, q = r < p, or p = r+1 < q
                r1, ps, qs = r + 1, rows[j], row_i[j - i:]
                out += [(i, j, k) for k, p, q in zip(itertools.count(j + 1), ps, qs)
                        if (p > r1 if p == q else not (q == r < p or r1 == p < q))]
        return out

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

    def default_labels(self) -> Tuple[str, ...]:
        return self.labels if self.labels is not None else tuple(str(i) for i in range(self.n))


def _trusted(n: int, vals: Sequence[int], labels=None) -> Signature:
    """A Signature from values an operation built to satisfy (!); unchecked,
    but `bytes` refuses a value outside 0..255 (and shares a bytes object)."""
    s = object.__new__(Signature)
    s.n, s.vals, s.labels = n, bytes(vals), labels
    return s


def _rows(a: Signature) -> List[bytes]:
    """The n rows of a's values: row i is (o(i,i+1), ..., o(i,n-1))."""
    vals, rows, start = a.vals, [], 0
    for width in range(a.n - 1, -1, -1):
        end = start + width
        rows.append(vals[start:end])
        start = end
    return rows


ZERO_SIG = Signature(0, ())
ONE_SIG = Signature(1, ())

# bytes.translate tables for sig_exp and sig_shift_down; each refuses first
# the one value that would wrap (255 and 0)
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
_MINUS_ONE = b"\xff" + bytes(range(255))


def sig_sum(*parts: Signature) -> Signature:
    """Concatenate bases with zero oscillation across summands."""
    if not parts:
        return ZERO_SIG
    n = sum(p.n for p in parts)
    vals = bytearray()
    later = n  # base elements in the summands after p
    for p in parts:
        later -= p.n
        zeros = bytes(later)
        for row in _rows(p):
            vals += row
            vals += zeros
    labels = None
    if any(p.labels for p in parts):
        labels = tuple(x for p in parts for x in p.default_labels())
    return _trusted(n, vals, labels)


def sig_exp(a: Signature) -> Signature:
    """Pointwise +1, the exp of a term; its E is exp applied twice.  A value
    of 255 would wrap, so it raises SignatureError: `materialize` reaches it
    only on an ordinal nested 255 levels or more (see the module docstring)."""
    if 255 in a.vals:
        raise SignatureError("exp of a pair value 255, past the largest byte")
    return _trusted(a.n, a.vals.translate(_PLUS_ONE), a.labels)


def is_all_positive(a: Signature) -> bool:
    return 0 not in a.vals


def sig_shift_down(a: Signature) -> Signature:
    """Pointwise -1; the inverse of exp on its range."""
    if not is_all_positive(a):
        raise SignatureError("pointwise decrement needs an all-positive signature")
    return _trusted(a.n, a.vals.translate(_MINUS_ONE), a.labels)


def decompose(a: Signature) -> List[Signature]:
    """The unique maximal splitting into indecomposable summands.

    A split point p has o(i,k) = 0 for all i < p <= k, and is one exactly
    when row p-1 is all zero: then for i < p-1 < k, o(i,p-1) = 0 ! o(i,k)
    forces o(i,k) = 0, as 0 ! q = -1 for q > 0.  This holds for any matrix
    that satisfies (!), and every caller passes one: checked where input
    enters, or built by an operation.  An indecomposable one is returned as [a].
    """
    if a.n == 0:
        return []
    if a.n == 1 or a.vals[a.n - 2]:  # o(0,n-1) > 0 crosses every position
        return [a]
    rows = _rows(a)
    cuts = [0, *itertools.compress(range(1, a.n + 1), map(operator.not_, map(any, rows)))]
    return [_trusted(hi - lo, b"".join([rows[i][:hi - i - 1] for i in range(lo, hi)]),
                     None if a.labels is None else a.labels[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])]


def sig_restrict(a: Signature, subset: Iterable[int]) -> Signature:
    """Induced submatrix on a subset of the base, which `_rho_block`, the
    one caller, splits unchecked; (!) is hereditary."""
    idx = sorted(set(subset))
    rows = _rows(a)
    vals = bytearray()
    for k, i in enumerate(idx):
        row = rows[i]
        vals.extend([row[j - i - 1] for j in idx[k + 1:]])
    labels = None
    if a.labels is not None:
        labels = tuple(a.labels[i] for i in idx)
    return _trusted(len(idx), vals, labels)


def sig_rotate(a: Signature) -> Signature:
    """Symbolic rotation.

    zero and one rotate to zero; a sum B + C rotates to B + (C rotated); an
    indecomposable signature on {0..n} moves the top to a new least element
    with o(new, i) = o(i, n) - 1 and inner pairs unchanged.  Each o(i, n) is
    >= 1 there (for the largest j with o(j, n) = 0, (!) would make j+1 a split
    point), so the values stay >= 0 and their sum falls by n.
    """
    if a.n <= 1:
        return ZERO_SIG
    parts = decompose(a)
    if len(parts) > 1:
        return sig_sum(*parts[:-1], sig_rotate(parts[-1]))
    n = a.n - 1  # top element
    # rotated base keeps cardinality: {n_rot, 0, .., n-1}
    below = _rows(a)[:-1]
    vals = bytearray([row[-1] - 1 for row in below])
    for row in below:
        vals += row[:-1]
    labels = None
    if a.labels is not None:
        labels = (f"{a.labels[n]}^o",) + tuple(a.labels[:n])
    return _trusted(a.n, vals, labels)


def sig_inflate(a: Signature, m: int) -> Signature:
    """Symbolic inflation at base element m.

    Adjoins a conjugate i^m for each i < m with o(i,m) > 0.  The new base
    order is: originals below m, then conjugates in order, then m and above.
    Pairs of two originals or two conjugates keep their value; across,

        o(i, j^m) = min(o(j,m) - 1, o(i,m))    for an original i < m,
        o(i^m, k) = min(o(i,m), o(m,k))        for k > m, and o(i^m, m) = o(i,m).
    """
    if not (0 <= m < a.n):
        raise SignatureError(f"base element {short_int(m)} out of range")
    val = a.val
    conj = [i for i in range(m) if val(i, m) > 0]
    # the new base as (old element, is a conjugate) pairs
    base = [(i, False) for i in range(m)] + [(c, True) for c in conj]
    base += [(k, False) for k in range(m, a.n)]
    vals = bytearray()
    for p, (x, x_conj) in enumerate(base):
        for y, y_conj in base[p + 1:]:
            if x_conj == y_conj:
                vals.append(val(x, y))
            elif y_conj:
                vals.append(min(val(y, m) - 1, val(x, m)))
            else:
                vals.append(val(x, m) if y == m else min(val(x, m), val(m, y)))

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
    return _trusted(len(base), vals, labels)


# --- signature terms ---------------------------------------------------------
#
# Grammar: t := '0' | '1' | t '+' t | t '*' t | 'exp(' t ')' | 'E(' t ')'
# with * binding tighter than +; parentheses allowed for grouping.  In its
# tree, o(i,j) is the sum of the levels (exp 1, E 2) of the groups above the
# lowest common node of leaves i and j, plus 1 if that node is a '*'.

# Largest base, a term's '1' leaves or a JSON matrix's "n": the (!) check of a
# JSON matrix is n^3 work (`rho` on the chain 1*1*...*1 as JSON: 1.1 s at 256,
# 12.5 s at 512).  As a term the 256-leaf chain reads in 1.1 ms, `rho` ranks
# it in 2 ms (the whole CLI call 0.12 s, most of it interpreter start-up) and
# `realize` builds its set, 510 levels deep, in 0.17 s (the CLI call 0.4 s),
# under CPython 3.11 on one x86-64 core.
MAX_BASE = 256

_TOKEN = re.compile(r"\s*(exp|\S)")  # 'exp' or one character, after whitespace
_GROUP_LEVEL = {"(": 0, "\x01": 1, "E": 2}  # "\x01" is an 'exp' token
_BAD_STAR = "right *-factor must be an exp image (all pair values >= 1)"
_BYTE = [bytes((v,)) for v in range(2 * MAX_NESTING + 2)]  # levels 0..2 MAX_NESTING, plus 1


def parse_term(text: str) -> Signature:
    """The signature a term denotes.  Raises TermParseError for malformed
    text, else (once all of it reads) SignatureError for a star with a right
    factor not all-positive.  One pass over the tokens keeps a frame per open
    group: level, first leaf, first leaf of the current '+'-term, row (o(i,j)
    of each earlier leaf i for a leaf j read next in it; never changed once
    built), own_pair (two '+'-terms hold leaves) and right ('*' before it)."""
    def fail(message: str, k: int, offset: int = 0):  # at token k, or the end
        starts = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text) - offset]
        raise TermParseError(message, starts[k] + offset)
    # _TOKEN's tokens, each 'exp' as "\x01" (an input "\x01" becomes "\x02", as
    # invalid), then "" for the end; str.split() and \s agree on every code point
    tokens = [*"".join(text.replace("\x01", "\x02").replace("exp", "\x01").split()), ""]
    cols, stack, row = [], [], b""  # cols[j] = bytes o(0,j), ..., o(j-1,j)
    level = first = tfirst = k = 0
    own_pair = right = star = bad_star = False
    while True:
        tok, k = tokens[k], k + 1  # an atom
        if tok == "1":
            if len(cols) == MAX_BASE:
                fail(f"base larger than {MAX_BASE}", k - 1)
            cols.append(row)
            row = row + _BYTE[level + 1]
        elif tok in _GROUP_LEVEL:
            if tok != "(":
                if tokens[k] != "(":
                    fail("expected '('", k)
                k += 1
            if len(stack) == MAX_NESTING:
                fail(f"nested deeper than {MAX_NESTING} levels", k - 1, 1)
            stack.append((level, first, tfirst, row, own_pair, right))
            level += _GROUP_LEVEL[tok]
            first = tfirst = len(cols)
            own_pair, right, star = False, star, False
            continue
        elif tok != "0":
            fail("expected '0', '1', 'exp(', 'E(' or '('", k - 1)
        tok, k = tokens[k], k + 1  # closing groups, then an operator or the end
        while tok == ")" and stack:
            count = len(cols)
            own_pair = own_pair or first < tfirst < count
            plain = stack[-1][0] == level
            bad_star = bad_star or (plain and right and own_pair)
            level, first, tfirst, row, outer_pair, right = stack.pop()
            own_pair = outer_pair or (plain and own_pair)
            if count > len(row):  # the group's leaves are earlier factors
                row = row + _BYTE[level + 1] * (count - len(row))
            tok, k = tokens[k], k + 1
        if tok == "+" and len(cols) > tfirst:
            own_pair = own_pair or tfirst > first
            row = row[:tfirst] + _BYTE[level] * (len(cols) - tfirst)
            tfirst = len(cols)
        elif tok not in ("+", "*"):
            if tok or stack:
                fail("expected ')'" if stack else "trailing input", k - 1)
            break
        star = tok == "*"
    if bad_star:
        raise SignatureError(_BAD_STAR)
    vals = bytearray()
    for i, col_row in enumerate(itertools.zip_longest(*cols[1:])):
        vals.extend(col_row[i:])  # row i, after i fill values
    return _trusted(len(cols), vals)


def eval_term(sig: Signature) -> Signature:
    """sig itself; kept for bench/inputs.py, which calls it on parse_term's result."""
    return sig


# --- enumeration and JSON ----------------------------------------------------


def enumerate_signatures(n: int, vmax: int) -> List[Signature]:
    """All signatures on base n with values <= vmax, in lexicographic order of
    the column key o(0,1), o(0,2), o(1,2), o(0,3), ....  Each one on the base
    0..k-1, kept as its rows, is extended by every column o(0,k), ...,
    o(k-1,k) that keeps (!), built entry by entry with v ascending; the
    triples (h, i, k) are checked as soon as o(i,k) is set."""
    if n > 5 or vmax > 5:
        raise SignatureError("enumeration bounds exceeded (n <= 5, vmax <= 5)")
    if n < 0 or vmax < 0:
        raise SignatureError("bounds must be nonnegative")
    if n == 0:
        return [ZERO_SIG]
    level = [(b"",)]  # the signature on base 1, as its rows
    for k in range(1, n):
        grown = []
        for rows in level:
            columns = [()]
            for i in range(k):
                inner = [rows[h][i - h - 1] for h in range(i)]  # o(h,i) for h < i
                columns = [col + (v,) for col in columns for v in range(vmax + 1)
                           if all(bang_rel(v, hk, hi) for hk, hi in zip(col, inner))]
            grown += [tuple(row + _BYTE[v] for row, v in zip(rows, col)) + (b"",)
                      for col in columns]
        level = grown
    return [_trusted(n, b"".join(rows)) for rows in level]


@functools.lru_cache(maxsize=16)
def _json_body(n: int) -> Tuple[str, Tuple[int, ...]]:
    """The JSON of a signature on base n after its '{', with a %d for each
    pair value, and the pair index of each %d.  The "i,j" keys are in string
    order, as sort_keys puts them: from n = 11 on, "0,10" comes before "0,2"."""
    keyed = sorted((f"{i},{j}", k) for k, (i, j) in enumerate(_pairs(n)))
    o = ", ".join(f'"{key}": %d' for key, _ in keyed)
    return f'"n": {n}, "o": {{{o}}}}}', tuple(k for _, k in keyed)


def sig_to_json(a: Signature) -> str:
    """json.dumps(doc, sort_keys=True), doc {"labels": [...] if any, "n": n, "o": {"i,j": v}}.
    Keeps the text of the 16 base sizes written last: 1.6 MB at n = 256."""
    body, order = _json_body(a.n)
    vals = a.vals
    head = "{" if a.labels is None else '{"labels": ' + json.dumps(list(a.labels)) + ", "
    return head + body % tuple([vals[k] for k in order])


# Largest pair value of a signature given on the command line, as JSON
# (checked by `sig_from_json`) or as a term (by cli.load_signature, after
# `parse_term`, which builds values up to 201): rho recurses once per unit
# (from 249 on, a RecursionError), realize's functions get about one orbital
# per unit, and the standardness walk of `signature_of` and `verify` takes
# one rotation per unit.  On {"n": 2, "o": {"0,1": 64}}, realize takes 0.04 s and the whole
# `realize` process 0.09 s, under CPython 3.11 on one x86-64 core.
MAX_PAIR_VALUE = 64


def _refuse_past_bound(n: int, vals: Sequence[int]) -> None:
    """SignatureParseError naming the first pair, in pair order, whose value
    passes MAX_PAIR_VALUE."""
    if max(vals, default=0) > MAX_PAIR_VALUE:
        (i, j), _ = next(p for p in zip(_pairs(n), vals) if p[1] > MAX_PAIR_VALUE)
        raise SignatureParseError(f"\"o\" value at '{i},{j}' is larger than {MAX_PAIR_VALUE}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def quoted(text: str) -> str:
    """The repr of text's first 40 characters, which names a piece of input
    in a one-line message whatever its length."""
    return repr(text[:40])


def short_int(k: int) -> str:
    """k in decimal, cut after 40 digits with "...", as `quoted` cuts text."""
    text, cut = str(k), 40 + (k < 0)
    return text if len(text) <= cut else text[:cut] + "..."


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; SignatureParseError when a key repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key, _ = collections.Counter(k for k, _ in pairs).most_common(1)[0]
        raise SignatureParseError(f"key {quoted(key)} given more than once")
    return doc


# json.loads given a hook would build a decoder on every call
_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def sig_from_json(text: str) -> Signature:
    """Parse {"n": int, "o": {"i,j": int, ...}, "labels": [str, ...]}.

    A key "i,j" reads as `int` of the text on each side of its first comma,
    so " 0 , 1 " is (0, 1) and "0,1,2" is refused.  Another shape, a key
    repeated in any object, a pair given twice (as "0,1" and "00,1"), "n"
    past MAX_BASE, a member other than these three, "labels" not n strings,
    or a value not an int >= 0 raises SignatureParseError (naming a key by
    `quoted`); an off-base or missing pair SignatureError; then a value past
    MAX_PAIR_VALUE SignatureParseError (naming the first such pair), and a
    matrix not a signature SignatureError.
    """
    try:
        doc = _JSON.decode(text)
    except SignatureParseError:
        raise
    except json.JSONDecodeError as e:
        raise SignatureParseError(str(e)) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise SignatureParseError("integer literal too long") from None
    if not (isinstance(doc, dict) and _is_int(doc.get("n")) and doc["n"] >= 0):
        raise SignatureParseError('"n" must be an integer >= 0')
    if doc["n"] > MAX_BASE:
        raise SignatureParseError(f"base larger than {MAX_BASE}")
    extra = [key for key in doc if key not in ("n", "o", "labels")]
    if extra:
        raise SignatureParseError(f"unknown member {quoted(extra[0])}")
    raw = doc.get("o", {})
    if not isinstance(raw, dict):
        raise SignatureParseError('"o" must be an object')
    o = {}
    for key, v in raw.items():
        i, _, j = key.partition(",")
        try:
            i, j = int(i), int(j)
        except ValueError:
            raise SignatureParseError(f'"o" key {quoted(key)} is not "i,j"') from None
        if not _is_int(v):
            raise SignatureParseError(f'"o" value at {quoted(key)} is not an integer')
        if v < 0:
            raise SignatureParseError(f'"o" value at {quoted(key)} is negative')
        if (i, j) in o:
            raise SignatureParseError(
                f'"o" gives pair ({short_int(i)},{short_int(j)}) twice (again as {quoted(key)})')
        o[(i, j)] = v
    n = doc["n"]
    labels = doc.get("labels")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise SignatureParseError('"labels" must be a list of strings')
    if labels is not None and len(labels) != n:
        raise SignatureParseError(f'"labels" must list {n} strings, not {len(labels)}')
    for i, j in o:
        if not (0 <= i < j < n):
            raise SignatureError(f"pair ({short_int(i)},{short_int(j)}) outside base 0..{n-1}")
    npairs = n * (n - 1) // 2
    if len(o) != npairs:
        first = list(itertools.islice((p for p in _pairs(n) if p not in o), 5))
        raise SignatureError(f"missing {npairs - len(o)} of {npairs} pairs, first {first}")
    vals = [o[p] for p in _pairs(n)]
    _refuse_past_bound(n, vals)
    return Signature(n, vals, labels)
