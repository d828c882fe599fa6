"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 parse error: a reader turns its
input's parse errors into exit 2 (the signature, set and ordinal readers with
a "cannot parse ..." prefix), and every domain error of the library
(SignatureError, RealizationError, OutsideComputedFamily) reaches `main`
unwrapped and exits 1.  Output that cannot be written exits 2, to stdout as
to `-o`'s file, with one line, or with none when stdout is a closed pipe.
All output is deterministic for fixed input.
Signature arguments accept a JSON matrix (leading '{'), a signature-term
string, or a path to a file holding either.

Input limits, each exceeded with exit code 2 and a one-line message:
ordinals and signature terms nest at most MAX_NESTING (100) levels of '(',
'w^', 'exp(' and 'E('; a signature has a base of at most signature.MAX_BASE
(256), a term's '1' leaves or a JSON matrix's "n"; a signature, as JSON or a
term, holds pair values of at most signature.MAX_PAIR_VALUE (64), checked by
the JSON reader before (!), so a matrix past it that also fails (!) exits 2
on the value, not 1, and on a term once it is read; JSON arguments nest no
deeper than the decoder's recursion allows; integers in ordinals and JSON have at most the
interpreter's limit of digits (4,300 by default); a group word has at most
MAX_WORD_LETTERS (64) letters, counted as the sum of the absolute exponents;
a file argument holds at most MAX_ARG_CHARS (16 MiB) characters, above the
largest output any verb prints, so that every output reads back.

Output limits, each exceeded with exit code 1 and a one-line message before
any work: `materialize` builds a signature on a base of at most
signature.MAX_BASE (256), read from the ordinal's normal form; `ea --target`
takes an ordinal omega*a + n with finite part n at most MAX_EA_FINITE (1024),
since its answer carries a coefficient 2^n (2^(n+1) for finite input).
After the work, `materialize` exits 1 when the built signature has a pair
value past signature.MAX_PAIR_VALUE (64) and `ea --target` when its rank
nests deeper than MAX_NESTING (100), so each prints what other verbs read;
`ord` exits 1 when a sum or product has a coefficient past the digit limit.

Limits met during the work, each with exit code 1 and a one-line message: a
generating set has no pair oscillating more than signature.MAX_PAIR_VALUE
(64) times, one rotation per oscillation in its standardness walk; `realize`
(also reached by `verify`) builds at most build.MAX_BUILD_LEVELS (511)
levels deep, one per rotation or decomposition; the chain 1*1*...*1 of 256
leaves needs 510.

A JSON signature with a wrong "labels" count or a negative value, and a word
token with exponent 0, exit 2 as other malformed input does.  A set where two
functions share a maximum transition point (one given twice) is not fast,
as their right feet overlap: `signature`, `diagram`, `rotate` and `inflate`
exit 1 saying they require a fast set, `verify` reports "fast: false" and
exits 1.
Messages quote at most 40 characters of a JSON key, word token, coordinate
or function name, and at most 40 digits of an integer read from input (a
pair's, generator's, set element's or base element's index, or either part of
a marker or orbital end), cut with "...".  A function that is not standard is
named by its name, or else by its index in max-transition order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ordinal import Ordinal, OrdinalParseError, ord_cmp, ord_parse, ord_render
from .ordinal import MAX_NESTING, ONE, ord_add, ord_mul, ord_natural_add
from .normalizer import (
    MODES, OutsideComputedFamily, ea_class, ea_to_xi, leq, materialize, materialized_base,
    normalize, rho)
from .signature import (
    MAX_BASE,
    MAX_PAIR_VALUE,
    Signature,
    SignatureError,
    SignatureParseError,
    _refuse_past_bound,
    enumerate_signatures,
    parse_term,
    quoted,
    sig_from_json,
    sig_inflate,
    sig_rotate,
    sig_to_json,
)
from .realization import (
    NotFastError,
    NotSgenError,
    RealizationError,
    diagram,
    genset_from_json,
    genset_to_json,
    predicates,
    realize,
    set_inflate,
    set_rotate,
    signature_of,
    to_dot,
)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# Largest file argument read, in characters: the longest output measured, a
# realized set of some 4.5 MB, fits, and /dev/zero stops here.
MAX_ARG_CHARS = 16 * 2 ** 20


def _read_arg(arg: str) -> str:
    try:
        is_path = os.access(arg, os.F_OK)
    except ValueError:  # a NUL or an unencodable surrogate, which no path holds
        is_path = False
    if is_path:
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read(MAX_ARG_CHARS + 1)
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"cannot read {arg!r}: {e}", 2)
        if len(text) > MAX_ARG_CHARS:
            raise CliError(f"{arg!r} holds more than {MAX_ARG_CHARS} characters", 2)
        return text
    return arg


def load_signature(arg: str) -> Signature:
    return _parse_signature(_read_arg(arg).strip())


def _parse_signature(text: str) -> Signature:
    try:
        if text.startswith("{"):
            return sig_from_json(text)  # which refuses a value past MAX_PAIR_VALUE
        sig = parse_term(text)
        _refuse_past_bound(sig.n, sig.vals)
    except (SignatureParseError, RecursionError) as e:
        raise CliError(f"cannot parse signature: {e}", 2)
    return sig


def load_genset(arg: str):
    return _parse_genset(_read_arg(arg).strip())


def _parse_genset(text: str):
    try:
        return genset_from_json(text)
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as e:
        # ArithmeticError: a JSON float past the float range
        raise CliError(f"cannot parse generating set: {e}", 2)


def load_ordinal(arg: str) -> Ordinal:
    try:
        return ord_parse(_read_arg(arg).strip())
    except OrdinalParseError as e:
        raise CliError(f"cannot parse ordinal: {e}", 2)


MAX_WORD_LETTERS = 64


def _parse_word(text: str):
    """Group words like "0,1 1,-2" (index,exponent pairs) or "0 1 0^-1", of at
    most MAX_WORD_LETTERS letters, each exponent nonzero."""
    word = []
    for tok in text.replace(";", " ").split():
        sep = "," if "," in tok else "^"
        try:
            idx, exp = tok.split(sep) if sep in tok else (tok, "1")
            word.append((int(idx), int(exp)))
        except ValueError:
            raise CliError(f"bad word token {quoted(tok)}", 2)
        if not word[-1][1]:
            raise CliError(f"zero exponent in word token {quoted(tok)}", 2)
    if sum(abs(exp) for _, exp in word) > MAX_WORD_LETTERS:
        raise CliError(f"word longer than {MAX_WORD_LETTERS} letters", 2)
    return word


def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _out(args, content: str):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(content)
        except OSError as e:
            raise CliError(f"cannot write {args.output!r}: {e}", 2)
    else:
        sys.stdout.write(content)


def cmd_ord(args):
    if args.mode == "natural" and args.op != "add":
        raise CliError("--mode natural applies only to 'add'", 2)
    r = load_ordinal(args.expr)
    if args.op is not None:
        if args.rhs is None:
            raise CliError(f"ord {args.op} needs a second ordinal", 2)
        b = load_ordinal(args.rhs)
        if args.op == "cmp":
            word = {-1: "LT", 0: "EQ", 1: "GT"}[ord_cmp(r, b)]
            _emit(args, word, {"cmp": word})
            return
        add = ord_natural_add if args.mode == "natural" else ord_add
        r = add(r, b) if args.op == "add" else ord_mul(r, b)
    try:
        text = ord_render(r)
    except ValueError:  # a coefficient past the interpreter's limit on digits
        raise CliError("result has an integer longer than the interpreter's digit limit", 1)
    _emit(args, text, {"value": text})


def cmd_rho(args):
    s = load_signature(args.sig)
    text = ord_render(rho(s, args.mode))
    _emit(args, text, {"rho": text, "mode": args.mode})


def cmd_normalize(args):
    s = load_signature(args.sig)
    _out(args, sig_to_json(normalize(s)) + "\n")


def cmd_leq(args):
    a = load_signature(args.sig_a)
    b = load_signature(args.sig_b)
    v = leq(a, b)
    _emit(args, "true" if v else "false", {"leq": v})


# Largest finite part n of the ordinal omega*a + n that `ea --target` takes:
# 2^1025 has 309 digits, while 2^20001 is past the 4,300 digits the
# interpreter converts to text, and the power itself grows without bound.
MAX_EA_FINITE = 1024


def _nesting(a: Ordinal) -> int:  # the levels ord_parse counts in ord_render(a)
    return max((1 + _nesting(e) for e, _ in a if e and e != ONE), default=0)


def cmd_ea(args):
    if args.target:
        alpha = load_ordinal(args.expr)
        finite = alpha[-1][1] if alpha and alpha[-1][0].is_zero else 0
        if finite > MAX_EA_FINITE:
            raise CliError(f"finite part of the EA-class target is larger than {MAX_EA_FINITE}", 1)
        xi = ea_to_xi(alpha)
        if _nesting(xi) > MAX_NESTING:
            raise CliError(f"the target rank nests deeper than {MAX_NESTING} levels", 1)
        text = ord_render(xi)
        _emit(args, text, {"xi": text})
    else:
        text = ord_render(ea_class(load_ordinal(args.expr)))
        _emit(args, text, {"ea_class": text})


def cmd_materialize(args):
    xi = load_ordinal(args.expr)
    if materialized_base(xi) > MAX_BASE:
        raise CliError(f"materialized signature has a base larger than {MAX_BASE}", 1)
    sig = materialize(xi)
    if max(sig.vals, default=0) > MAX_PAIR_VALUE:
        raise CliError(f"materialized signature has a pair value larger than {MAX_PAIR_VALUE}", 1)
    _out(args, sig_to_json(sig) + "\n")


def cmd_realize(args):
    s = load_signature(args.sig)
    fns = realize(s)
    _out(args, genset_to_json(fns) + "\n")


def cmd_signature(args):
    fns = load_genset(args.genset)
    _out(args, sig_to_json(signature_of(fns)) + "\n")


def cmd_diagram(args):
    fns = load_genset(args.genset)
    _out(args, to_dot(diagram(fns)))


def _by_argument_kind(args, set_op, signature_op):
    """Apply set_op to a generating set (a JSON list), else signature_op."""
    text = _read_arg(args.arg).strip()
    if text.startswith("["):
        _out(args, genset_to_json(set_op(_parse_genset(text))) + "\n")
    else:
        _out(args, sig_to_json(signature_op(_parse_signature(text))) + "\n")


def cmd_inflate(args):
    _by_argument_kind(args, lambda fns: set_inflate(fns, args.at),
                      lambda s: sig_inflate(s, args.at))


def cmd_rotate(args):
    _by_argument_kind(args, set_rotate, sig_rotate)


def _report(args, report: dict):
    lines = (f"{key}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(report.items()))
    _emit(args, "\n".join(lines), report)


def cmd_verify(args):
    fns = load_genset(args.genset)
    try:
        sig = signature_of(fns)  # checks fastness, then standardness
    except NotSgenError as e:
        _report(args, {"fast": not isinstance(e, NotFastError), "sgen": False})
        raise CliError("set is not a standard generating set", 1)
    built = signature_of(realize(sig))  # realize itself walks nothing
    if built != sig:
        raise CliError(f"realization round trip failed: built {built!r} for {sig!r}", 1)
    _report(args, {"fast": True, "sgen": True, "round_trip": True,
                   "signature": json.loads(sig_to_json(sig))})


def cmd_enumerate(args):
    sigs = enumerate_signatures(args.n, args.vmax)
    texts = [sig_to_json(s) for s in sigs]  # each is json.dumps(doc, sort_keys=True),
    print("[" + ", ".join(texts) + "]" if args.format == "json"  # so this is json.dumps(docs)
          else "\n".join(texts + [f"count: {len(sigs)}"]))


def cmd_predicates(args):
    fns = load_genset(args.genset)
    z = None if args.z is None else _parse_word(args.z)
    _report(args, predicates(fns, _parse_word(args.x), _parse_word(args.y), z))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sigcalc", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, output=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        if output:  # the verbs that print through _out
            p.add_argument("-o", "--output")
        else:  # the verbs that print through _emit
            p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("ord", cmd_ord, help="evaluate or compare ordinal expressions")
    p.add_argument("expr")
    p.add_argument("op", nargs="?", choices=("cmp", "add", "mul"))
    p.add_argument("rhs", nargs="?")
    p.add_argument("--mode", choices=("ordered", "natural"), default="ordered")

    p = add("rho", cmd_rho, help="rank of a signature")
    p.add_argument("sig")
    p.add_argument("--mode", choices=MODES, default="sorted")

    p = add("normalize", cmd_normalize, True, help="reduced form of a signature")
    p.add_argument("sig")

    p = add("leq", cmd_leq, help="compare two signatures by rank")
    p.add_argument("sig_a")
    p.add_argument("sig_b")

    p = add("ea", cmd_ea, help="EA-class of the group of a given rank")
    p.add_argument("expr")
    p.add_argument("--target", action="store_true",
                   help="instead produce a rank whose EA-class is expr+2")

    p = add("materialize", cmd_materialize, True, help="reduced signature of a given rank")
    p.add_argument("expr")

    p = add("realize", cmd_realize, True, help="fast generating set with a given signature")
    p.add_argument("sig")

    p = add("signature", cmd_signature, True, help="signature of a generating set")
    p.add_argument("genset")

    p = add("diagram", cmd_diagram, True, help="dynamical diagram as DOT")
    p.add_argument("genset")

    p = add("inflate", cmd_inflate, True, help="inflate a signature or generating set")
    p.add_argument("arg")
    p.add_argument("--at", type=int, required=True)

    p = add("rotate", cmd_rotate, True, help="rotate a signature or generating set")
    p.add_argument("arg")

    p = add("verify", cmd_verify, help="check fastness, standardness and round trip")
    p.add_argument("genset")

    p = add("enumerate", cmd_enumerate, help="all signatures within bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vmax", type=int, required=True)

    p = add("predicates", cmd_predicates, help="C/D/T predicates on group words")
    p.add_argument("genset")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            args.fn(args)
            return 0
        finally:  # also what a verb printed before it failed: a failed write exits 2
            sys.stdout.flush()
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (SignatureError, RealizationError, OutsideComputedFamily) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # stdout cannot take the output; its exit flush would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):  # no reader is left to tell
            print(f"error: cannot write the output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
