"""A transcript of the command line, run as its own CI step:

    PYTHONPATH=src:tests python tests/cli_transcript.py [--src OTHER/src]

Runs every argv of `transcript_argv()` through `cli.main` in this process,
stdout and stderr each captured as a UTF-8 `TextIOWrapper` over `BytesIO`,
and records each outcome as (exit code, stdout bytes, stderr bytes); an
uncaught exception, `SystemExit` included (as `--help` ends), is an outcome
of its own, named by its type.  The argv cover every verb in each format and
its `--help`, the zero signature and the empty set, the refusals of
`test_refusals_with_decided_exit_codes` and
`test_long_integers_give_short_messages`, the paper's figure sets, and the
sets realized from a seeded sample of the n = 5 signatures.  Prints one
sha256 per verb and one of the whole transcript, argv included, and exits 1
when the total is not the pinned one.  JSON decoder messages change across
Python versions, so the pin holds on CPython 3.11.

With `--src OTHER/src` it also runs the same argv in a child process that
imports `sigcalc` from OTHER/src, and lists each argv whose outcome differs
there, saying which of its three parts do.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

PINNED = "1e8e0fbf50c2d3b999aa8e0f91cff106ea37f9a5c3d496ce920813d4eec634b2"
TESTS = Path(__file__).resolve().parent


def transcript_argv():
    """The argv of the transcript, in order.  The sets it reads are built
    here by this tree's `realize`, so that another tree runs the same argv."""
    # imported here, as a child run on another tree imports only its `cli`
    from sigcalc.realization import genset_to_json, realize
    from sigcalc.signature import enumerate_signatures, parse_term, sig_to_json
    from helpers import bumps_set, one_function, set_json
    from oracles import fig_bz_set, fig_g_set

    def realized(term):
        return genset_to_json(realize(parse_term(term)))

    pair, trio = realized("exp(1+1)"), realized("1*1*1")
    figures = [genset_to_json(fig_g_set()), genset_to_json(fig_bz_set())]
    twice = json.dumps([json.loads(pair)[0]] * 2)  # two right feet overlap: not fast
    formats = ([], ["--format", "json"])
    argv = [[verb, "--help"] for verb in (
        "ord", "rho", "normalize", "leq", "ea", "materialize", "realize", "signature",
        "diagram", "inflate", "rotate", "verify", "enumerate", "predicates")]
    # every verb, in each format
    for fmt in formats:
        argv += [["ord", "w^w+w*2+1", *fmt], ["ord", "w^w", "cmp", "w*2", *fmt],
                 ["ord", "w+1", "add", "w^2", *fmt], ["ord", "w+1", "mul", "w", *fmt],
                 ["ord", "1+w", "add", "w+1", "--mode", "natural", *fmt],
                 ["leq", "E(1+1)", "exp(1*1+1)", *fmt], ["leq", "1*1*1", "E(1+1)", *fmt],
                 ["ea", "w^(w^2)", *fmt], ["ea", "w*3", "--target", *fmt], ["ea", "w^2", *fmt],
                 ["enumerate", "--n", "3", "--vmax", "1", *fmt],
                 ["verify", pair, *fmt], ["verify", figures[0], *fmt],
                 ["predicates", trio, "--x", "0", "--y", "1", "--z", "2", *fmt],
                 ["predicates", realized("E(1+1)+1"), "--x", "2", "--y", "0^-1 1,2", *fmt]]
        for mode in ("ordered", "sorted"):
            argv += [["rho", term, "--mode", mode, *fmt]
                     for term in ("E(1*1+1)+1", "exp(exp(1+1)*1)", '{"n": 2, "o": {"0,1": 3}}')]
    for term in ("E(1*1+1)+1", "exp(1+1)*(1+1)", '{"n": 3, "o": {"0,1": 2, "0,2": 2, "1,2": 0}}'):
        argv += [["normalize", term], ["realize", term], ["rotate", term],
                 ["inflate", term, "--at", "1"]]
    argv += [["materialize", "w^w+w*2"], ["materialize", "w^(w+1)"]]
    for genset in (pair, trio, *figures):
        argv += [["signature", genset], ["diagram", genset], ["rotate", genset],
                 ["inflate", genset, "--at", "0"]]
    # the zero signature and the empty set
    argv += [["realize", "0"], ["inflate", "[]", "--at", "0"]]
    argv += [[verb, "[]"] for verb in ("signature", "diagram", "verify", "rotate")]
    # a name no encoding takes, and keys given twice
    surrogate = one_function(name="\ud800")
    argv += [[verb, surrogate] for verb in ("signature", "diagram", "verify", "rotate")]
    argv += [["realize", '{"n": 1, "o": {}, "labels": ["\\ud800"]}']]
    argv += [["signature", one_function(name="a")[:-2] + ', "name": "b"}]'],
             ["verify", one_function()[:-2] + ', "markers": []}]'],
             ["rho", '{"n": 2, "o": {"0,1": 1, "0,1": 3}}']]
    # the decided refusals of test_refusals_with_decided_exit_codes
    argv += [["signature", twice], ["rotate", twice], ["inflate", twice, "--at", "0"],
             ["diagram", twice], ["verify", twice], ["verify", twice, "--format", "json"]]
    argv += [["rho", doc] for doc in (
        '{"n": 2, "o": {"0,1": 1}, "labels": ["a"]}', '{"n": 2, "o": {"0,1": -1}}',
        '{"n": 1, "o": {}, "extra": [1, 2]}', '{"n": 2, "o": {"0,1": 1}, "label": ["a", "b"]}',
        '{"n": 1, "%s": 0}' % ("x" * 50), '{"n": 3, "o": {"0,1": 0, "0,2": 100, "1,2": 0}}')]
    argv += [["predicates", pair, "--x", token, "--y", "0"] for token in ("0^0", "1,0")]
    # the long-input refusals of test_long_integers_give_short_messages
    ones, key = "1" * 4001, "1" + "0" * 4299
    bumps = bumps_set(2000, "0")
    long_marker = set_json([([("0", "0"), ("1/4", "1/4"), ("1/2", "3/4"), ("1", "1")],
                             ["-1/1" + "0" * 4000], "0")])
    argv += [["rho", '{"n": 2, "o": {"0,1": 1, "%s,1": 1}}' % key],
             ["rho", '{"n": 2, "o": {"%s,1": 1, " %s,1": 1}}' % (key, key)],
             ["predicates", pair, "--x", ones, "--y", "0"], ["inflate", pair, "--at", ones],
             ["inflate", "exp(1+1)", "--at", "-" + ones],
             ["inflate", "exp(1+1)", "--at", "-" + ones[:40]],
             ["inflate", pair, "--at", ones[:40]],
             ["signature", bumps], ["rotate", bumps], ["inflate", bumps, "--at", "0"],
             ["signature", bumps_set(2, "x" * 10 ** 5)], ["signature", long_marker]]
    # a seeded sample of the n = 5 sets, with values <= 3
    rng = random.Random("transcript")
    for s in rng.sample(enumerate_signatures(5, 3), 8):
        genset = genset_to_json(realize(s))
        k = rng.randrange(5)
        argv += [["realize", sig_to_json(s)], ["signature", genset], ["verify", genset],
                 ["diagram", genset], ["rotate", genset], ["inflate", genset, "--at", str(k)],
                 ["predicates", genset, "--x", f"{k},2", "--y", f"{4 - k} 0^-1", "--z", "1"]]
    return argv


def outcome(cli, argv):
    """(code, stdout, stderr) of `cli.main(argv)`: code is the exit code, or
    the type of the exception it raised."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except (Exception, SystemExit) as e:
            code = f"raised {type(e).__name__}"
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def digests(argv_list):
    """Per argv, the sha256 of its code, stdout and stderr, and of all three."""
    from sigcalc import cli
    rows = []
    for argv in argv_list:
        code, out, err = outcome(cli, argv)
        parts = [hashlib.sha256(part).hexdigest() for part in (code.encode(), out, err)]
        rows.append(parts + [hashlib.sha256(json.dumps([argv, parts]).encode()).hexdigest()])
    return rows


def _shown(argv) -> str:
    return " ".join(arg if len(arg) <= 40 else repr(arg[:40]) + "..." for arg in argv)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run, hash and compare the CLI transcript.")
    parser.add_argument("--src", help="another tree's src directory to compare against")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    if opts.child:  # argv on stdin, digests on stdout
        from sigcalc import cli
        json.dump({"cli": cli.__file__, "rows": digests(json.load(sys.stdin))}, sys.stdout)
        return 0
    argv_list = transcript_argv()
    rows = digests(argv_list)
    by_verb, total = {}, hashlib.sha256()
    for argv, row in zip(argv_list, rows):
        by_verb.setdefault(argv[0], hashlib.sha256()).update(row[3].encode())
        total.update(row[3].encode())
    for verb, digest in by_verb.items():
        print(f"{verb:<12} {digest.hexdigest()}")
    print(f"{'total':<12} {total.hexdigest()} over {len(argv_list)} argv")
    if opts.src:
        src = Path(opts.src).resolve()
        child = subprocess.run(
            [sys.executable, __file__, "--child"], input=json.dumps(argv_list).encode(),
            capture_output=True, env=dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TESTS}"))
        if child.returncode:
            print(f"the run on {src} failed: {child.stderr.decode(errors='replace')[-2000:]}")
            return 1
        other = json.loads(child.stdout)
        if not Path(other["cli"]).resolve().is_relative_to(src):
            print(f"the run on {src} imported {other['cli']}")
            return 1
        differ = [(i, [name for name, a, b in zip(("exit code", "stdout", "stderr"), mine, theirs)
                       if a != b])
                  for i, (mine, theirs) in enumerate(zip(rows, other["rows"])) if mine != theirs]
        print(f"{len(differ)} argv differ on {src}")
        for i, parts in differ:
            print(f"  argv {i} ({', '.join(parts)}): {_shown(argv_list[i])}")
    if total.hexdigest() != PINNED:
        print(f"the total is not the pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
