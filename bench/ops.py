"""The benchmark's operations, one per CLI verb.

Each operation makes, in-process, the public calls its verb makes: it loads
the argument with `cli.load_signature` / `cli.load_genset`, computes, and
renders the output as the verb would, skipping argparse and printing.  Every
public call goes through `call(name, fn, *args)`, which the plain run makes
directly and the traced run wraps in a span.

An operation returns (output text, state); `probe` uses the state for the
traced run's extra per-layer calls, and `keep` for what the checks need
beyond the output text.
"""

from __future__ import annotations

from sigcalc import cli
from sigcalc.normalizer import normalize, rho
from sigcalc.ordinal import ord_render
from sigcalc.realization import (
    genset_to_json,
    is_fast,
    pl_eval,
    pred_C,
    pred_D,
    pred_T,
    realize,
    signature_of,
)
from sigcalc.signature import Signature, decompose, sig_to_json


def direct(name, fn, *args):
    return fn(*args)


def op_rho(call, op, ctx):
    s = call("cli.load_signature", cli.load_signature, op["term"])
    r = call("normalizer.rho", rho, s, op["mode"])
    return call("ordinal.render", ord_render, r) + "\n", s


def op_normalize(call, op, ctx):
    s = call("cli.load_signature", cli.load_signature, op["term"])
    m = call("normalizer.normalize", normalize, s)
    return call("signature.to_json", sig_to_json, m) + "\n", s


def op_realize(call, op, ctx):
    s = call("cli.load_signature", cli.load_signature, op["sig"])
    fns = call("build.realize", realize, s)
    return call("genset.to_json", genset_to_json, fns) + "\n", fns


def op_predicates(call, op, ctx):
    fns = call("cli.load_genset", cli.load_genset, ctx["gensets"][op["genset"]])
    x, y, z = (call("words.pl_eval", pl_eval, fns, op[w]) for w in ("x", "y", "z"))
    out = {
        "C": call("words.pred_C", pred_C, x, y),
        "D": call("words.pred_D", pred_D, x, y),
        "T": call("words.pred_T", pred_T, x, y, z),
    }
    text = "".join(f"{k}: {'true' if out[k] else 'false'}\n" for k in sorted(out))
    return text, (x, y, z)


OPS = {
    "rho": op_rho,
    "normalize": op_normalize,
    "realize": op_realize,
    "predicates": op_predicates,
}


def _map_counts(maps):
    coords = [c for m in maps for p in m.points for c in p]
    return {
        "plmap.breakpoints": sum(len(m.points) for m in maps),
        "plmap.denominator_bits_max": max(c.denominator.bit_length() for c in coords),
    }


def probe(call, op, state) -> dict:
    """Extra public calls the traced run makes after an operation, outside its
    timed region; returns the counts seen at the same boundaries."""
    verb = op["verb"]
    if verb in ("rho", "normalize"):
        call("signature.validate", Signature, state.n, state.vals)
        call("signature.decompose", decompose, state)
        return {}
    if verb == "realize":
        for f in state:
            call("plmap.orbitals", f.map.orbitals)
        call("genset.is_fast", is_fast, state)
        call("genset.signature_of", signature_of, state)
        return _map_counts([f.map for f in state])
    x, y, _ = state
    call("plmap.then", x.then, y)
    call("plmap.inverse", x.inverse)
    return _map_counts(state)


def keep(op, state):
    """What the checks need beyond the output text: the composed word maps of
    a predicate call, as exact breakpoint strings."""
    if op["verb"] != "predicates":
        return None
    return [[[str(a), str(b)] for a, b in m.points] for m in state]
