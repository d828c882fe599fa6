"""Self-test of the benchmark's output checks: a right output passes, and a
wrong rank, a wrongly composed map and a realized set with the wrong
signature are each caught.

    python3 bench/selftest.py      (from the root of a checkout; exits 0 on success)
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import ops  # noqa: E402
from sigcalc import cli  # noqa: E402
from sigcalc.realization import genset_to_json, pl_eval, realize  # noqa: E402
from sigcalc.signature import Signature, enumerate_signatures, sig_to_json  # noqa: E402


def expect(label: str, reason, caught: bool) -> bool:
    good = (reason is not None) == caught
    print(f"{'ok ' if good else 'FAIL'} {label}: {reason or 'passes'}")
    return good


def rank_cases() -> list:
    tree = ["+", "1", ["exp", ["+", "1", "1"]], ["E", "1"]]
    op = {"verb": "rho", "term": "1+exp(1+1)+E(1)", "tree": tree, "mode": "sorted"}
    right, _ = ops.op_rho(ops.direct, op, {})
    return [
        expect("rho output of the program", checks.check_rho(op, right, None, {}), False),
        expect("rank w+2 for 1+exp(1+1)+E(1)", checks.check_rho(op, "w+2\n", None, {}), False),
        expect("wrong rank w^2", checks.check_rho(op, "w^2\n", None, {}), True),
        expect("ordered rank w+1 given for sorted mode",
               checks.check_rho(op, "w+1\n", None, {}), True),
        expect("rank that does not render back", checks.check_rho(op, "1+w\n", None, {}), True),
    ]


def word_cases() -> list:
    sig = Signature(3, (1, 0, 0))
    gensets = [genset_to_json(realize(sig))]
    ctx = checks.context(gensets, seed=1)
    op = {"verb": "predicates", "genset": 0, "x": [[0, 1], [1, -2]], "y": [[1, 1], [0, 1]],
          "z": [[2, 1], [0, -1]]}
    text, state = ops.op_predicates(ops.direct, op, {"gensets": gensets})
    kept = ops.keep(op, state)
    fns = cli.load_genset(gensets[0])
    swapped = pl_eval(fns, list(reversed(op["x"])))  # letters composed in the wrong order
    wrong = [[[str(a), str(b)] for a, b in swapped.points]] + kept[1:]
    # generator 2 has oscillation 0 with generators 0 and 1, so it commutes with both
    disjoint = dict(op, x=[[2, 1]], y=[[0, -1], [1, 2]])
    d_text, d_state = ops.op_predicates(ops.direct, disjoint, {"gensets": gensets})
    d_kept = ops.keep(disjoint, d_state)
    return [
        expect("predicates output of the program", checks.check_predicates(op, text, kept, ctx), False),
        expect("word composed in the wrong order", checks.check_predicates(op, text, wrong, ctx), True),
        expect("C claimed for words that do not commute",
               checks.check_predicates(op, text.replace("C: false", "C: true"), kept, ctx), True),
        expect("words over disjoint generators", checks.check_predicates(disjoint, d_text, d_kept, ctx), False),
        expect("C denied for words over disjoint generators",
               checks.check_predicates(disjoint, d_text.replace("C: true", "C: false"), d_kept, ctx), True),
    ]


def realize_cases() -> list:
    *_, other, want = enumerate_signatures(3, 2)
    op = {"verb": "realize", "sig": sig_to_json(want)}
    right, _ = ops.op_realize(ops.direct, op, {})
    return [
        expect("realize output of the program", checks.check_realize(op, right, None, {}), False),
        expect("set realizing another signature",
               checks.check_realize(op, genset_to_json(realize(other)), None, {}), True),
        expect("set with a generator missing",
               checks.check_realize(op, genset_to_json(realize(Signature(2, (1,)))), None, {}), True),
    ]


def main() -> int:
    results = rank_cases() + word_cases() + realize_cases()
    print(f"{sum(results)} of {len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
