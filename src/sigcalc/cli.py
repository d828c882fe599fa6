"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 parse error.  All output is
deterministic for fixed input.  Signature arguments accept a JSON matrix
(leading '{'), a signature-term string, or a path to a file holding either.

Input limits, each exceeded with exit code 2 and a one-line message:
ordinals and signature terms nest at most MAX_NESTING (100) levels of '(',
'w^', 'exp(' and 'E('; a signature term has a base of at most
signature.MAX_BASE (256) '1' leaves; a signature, given as JSON or as a
term, holds pair values of at most signature.MAX_PAIR_VALUE (64), checked
once on the evaluated signature; JSON arguments nest no deeper than the
decoder's recursion allows; integers in ordinals and JSON have at most the
interpreter's limit of digits (4,300 by default); a group word has at most
MAX_WORD_LETTERS (64) letters, counted as the sum of the absolute exponents.

Output limits, each exceeded with exit code 1 and a one-line message before
any work: `materialize` builds a signature on a base of at most
signature.MAX_BASE (256), read from the ordinal's normal form; `ea --target`
takes an ordinal omega*a + n with finite part n at most MAX_EA_FINITE (1024),
since its answer carries a coefficient 2^n (2^(n+1) for finite input).
`ord` exits 1, after the arithmetic, when a sum or product has a
coefficient past the interpreter's limit of digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .ordinal import Ordinal, OrdinalError, OrdinalParseError, ord_cmp, ord_parse, ord_render
from .ordinal import ord_add, ord_mul
from .normalizer import (
    OutsideComputedFamily, ea_class, ea_to_xi, leq, materialize, materialized_base, normalize, rho)
from .signature import (
    MAX_BASE,
    MAX_PAIR_VALUE,
    Signature,
    SignatureError,
    SignatureParseError,
    enumerate_signatures,
    eval_term,
    parse_term,
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


def _read_arg(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    return arg


def load_signature(arg: str) -> Signature:
    text = _read_arg(arg).strip()
    try:
        sig = sig_from_json(text) if text.startswith("{") else eval_term(parse_term(text))
    except (SignatureParseError, RecursionError) as e:
        raise CliError(f"cannot parse signature: {e}", 2)
    except SignatureError as e:
        raise CliError(str(e), 1)
    for (i, j), v in zip(itertools.combinations(range(sig.n), 2), sig.vals):
        if v > MAX_PAIR_VALUE:
            raise CliError(
                f"cannot parse signature: \"o\" value at '{i},{j}' is larger than {MAX_PAIR_VALUE}", 2)
    return sig


def load_genset(arg: str):
    text = _read_arg(arg).strip()
    try:
        fns = genset_from_json(text)
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as e:
        # ArithmeticError: a coordinate like "1/0" or a JSON float past the float range
        raise CliError(f"cannot parse generating set: {e}", 2)
    return fns


def load_ordinal(arg: str) -> Ordinal:
    try:
        return ord_parse(_read_arg(arg).strip())
    except OrdinalParseError as e:
        raise CliError(f"cannot parse ordinal: {e}", 2)


MAX_WORD_LETTERS = 64


def _parse_word(text: str):
    """Group words like "0,1 1,-2" (index,exponent pairs) or "0 1 0^-1", of at
    most MAX_WORD_LETTERS letters."""
    word = []
    for tok in text.replace(";", " ").split():
        if "," in tok:
            idx, exp = tok.split(",")
        elif "^" in tok:
            idx, exp = tok.split("^")
        else:
            idx, exp = tok, "1"
        try:
            word.append((int(idx), int(exp)))
        except ValueError:
            raise CliError(f"bad word token {tok!r}", 2)
    if sum(abs(exp) for _, exp in word) > MAX_WORD_LETTERS:
        raise CliError(f"word longer than {MAX_WORD_LETTERS} letters", 2)
    return word


def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _out(args, content: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def cmd_ord(args):
    r = load_ordinal(args.expr)
    if args.op is not None:
        if args.rhs is None:
            raise CliError(f"ord {args.op} needs a second ordinal", 2)
        b = load_ordinal(args.rhs)
        if args.op == "cmp":
            word = {-1: "LT", 0: "EQ", 1: "GT"}[ord_cmp(r, b)]
            _emit(args, word, {"cmp": word})
            return
        r = ord_add(r, b, args.mode) if args.op == "add" else ord_mul(r, b)
    try:
        text = ord_render(r)
    except ValueError:  # a coefficient past the interpreter's limit on digits
        raise CliError("result has an integer longer than the interpreter's digit limit", 1)
    _emit(args, text, {"value": text})


def cmd_rho(args):
    s = load_signature(args.sig)
    r = rho(s, args.mode)
    _emit(args, ord_render(r), {"rho": ord_render(r), "mode": args.mode})


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


def cmd_ea(args):
    try:
        if args.target:
            alpha = load_ordinal(args.expr)
            finite = alpha.terms[-1][1] if alpha.terms and alpha.terms[-1][0].is_zero else 0
            if finite > MAX_EA_FINITE:
                raise CliError(f"finite part of the EA-class target is larger than {MAX_EA_FINITE}", 1)
            xi = ea_to_xi(alpha)
            _emit(args, ord_render(xi), {"xi": ord_render(xi)})
        else:
            c = ea_class(load_ordinal(args.expr))
            _emit(args, ord_render(c), {"ea_class": ord_render(c)})
    except OutsideComputedFamily as e:
        raise CliError(f"outside computed family: {e}", 1)


def cmd_materialize(args):
    xi = load_ordinal(args.expr)
    if materialized_base(xi) > MAX_BASE:
        raise CliError(f"materialized signature has a base larger than {MAX_BASE}", 1)
    _out(args, sig_to_json(materialize(xi)) + "\n")


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
    if _read_arg(args.arg).strip().startswith("["):
        _out(args, genset_to_json(set_op(load_genset(args.arg))) + "\n")
    else:
        _out(args, sig_to_json(signature_op(load_signature(args.arg))) + "\n")


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
    realize(sig)  # verifies its own round trip, raising if it fails
    _report(args, {"fast": True, "sgen": True, "round_trip": True,
                   "signature": json.loads(sig_to_json(sig))})


def cmd_enumerate(args):
    sigs = enumerate_signatures(args.n, args.vmax)
    lines = [sig_to_json(s) for s in sigs] + [f"count: {len(sigs)}"]
    _emit(args, "\n".join(lines), [json.loads(sig_to_json(s)) for s in sigs])


def cmd_predicates(args):
    fns = load_genset(args.genset)
    z = None if args.z is None else _parse_word(args.z)
    _report(args, predicates(fns, _parse_word(args.x), _parse_word(args.y), z))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sigcalc", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("ord", cmd_ord, help="evaluate or compare ordinal expressions")
    p.add_argument("expr")
    p.add_argument("op", nargs="?", choices=("cmp", "add", "mul"))
    p.add_argument("rhs", nargs="?")
    p.add_argument("--mode", choices=("ordered", "natural"), default="ordered")

    p = add("rho", cmd_rho, help="rank of a signature")
    p.add_argument("sig")
    p.add_argument("--mode", choices=("ordered", "sorted"), default="sorted")

    p = add("normalize", cmd_normalize, help="reduced form of a signature")
    p.add_argument("sig")
    p.add_argument("-o", "--output")

    p = add("leq", cmd_leq, help="compare two signatures by rank")
    p.add_argument("sig_a")
    p.add_argument("sig_b")

    p = add("ea", cmd_ea, help="EA-class of the group of a given rank")
    p.add_argument("expr")
    p.add_argument("--target", action="store_true",
                   help="instead produce a rank whose EA-class is expr+2")

    p = add("materialize", cmd_materialize, help="reduced signature of a given rank")
    p.add_argument("expr")
    p.add_argument("-o", "--output")

    p = add("realize", cmd_realize, help="fast generating set with a given signature")
    p.add_argument("sig")
    p.add_argument("-o", "--output")

    p = add("signature", cmd_signature, help="signature of a generating set")
    p.add_argument("genset")
    p.add_argument("-o", "--output")

    p = add("diagram", cmd_diagram, help="dynamical diagram as DOT")
    p.add_argument("genset")
    p.add_argument("-o", "--output")

    p = add("inflate", cmd_inflate, help="inflate a signature or generating set")
    p.add_argument("arg")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("rotate", cmd_rotate, help="rotate a signature or generating set")
    p.add_argument("arg")
    p.add_argument("-o", "--output")

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
        args.fn(args)
        return 0
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (OrdinalError, SignatureError, RealizationError, OutsideComputedFamily) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
