"""The command-line front end: every verb's success and error paths, the
exit codes 0 (success), 1 (domain error) and 2 (parse error), and the exact
bytes some verbs print.  A CLI behaviour is checked once, in Tier-1 (in-process
unless the process itself is the point), and `tests/cli_transcript.py` pins its
bytes when they matter; CI runs no shell copy of these checks."""

import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sigcalc import cli, realization
from sigcalc.normalizer import materialize
from sigcalc.ordinal import MAX_NESTING, ord_parse
from sigcalc.signature import (
    MAX_BASE, MAX_PAIR_VALUE, RealizationError, Signature, parse_term, sig_from_json, sig_rotate,
    sig_to_json)
from sigcalc.realization import build, diagram, genset_from_json, genset_to_json
from helpers import bumps_set, fresh_rank_caches, nest, one_function, placed, set_json
from oracles import excise, fig_g_set


# realize 'exp(1+1)': the pair with oscillation 1
PAIR1 = set_json([
    ([("0", "0"), ("9/16", "9/16"), ("217/384", "77/128"), ("29/48", "29/48"), ("1", "1")],
     ["217/384"], "0"),
    ([("0", "0"), ("19/48", "19/48"), ("7/16", "77/96"), ("15/16", "15/16"), ("1", "1")],
     ["7/16"], "1"),
])
NOT_SGEN = genset_to_json(fig_g_set())
NOT_FAST = set_json([
    ([("0", "0"), ("1/8", "1/8"), ("5/32", "9/32"), ("3/8", "3/8"), ("1", "1")], ["5/32"], "f"),
    ([("0", "0"), ("1/8", "1/8"), ("5/32", "1/4"), ("5/16", "5/16"), ("1", "1")], ["5/32"], "h"),
])

# one function with two disjoint positive bumps: fast but not standard
TWO_BUMPS = set_json([
    ([("0", "0"), ("1/8", "1/8"), ("3/16", "7/32"), ("1/4", "1/4"), ("1/2", "1/2"),
      ("9/16", "19/32"), ("5/8", "5/8"), ("1", "1")], ["3/16", "9/16"], "0"),
])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def expect_error(capsys, code, *argv) -> str:
    got, out, err = run(capsys, *argv)
    assert got == code
    assert err.count("\n") == 1 and err.startswith(("error: ", "parse error: "))
    assert "Traceback" not in err
    return err


# --- each verb: success, then its error paths --------------------------------------


def test_ord(capsys):
    assert run(capsys, "ord", "w+1") == (0, "w+1\n", "")
    assert run(capsys, "ord", "w", "cmp", "2") == (0, "GT\n", "")
    assert run(capsys, "ord", "2", "add", "w", "--format", "json") == (0, '{"value": "w"}\n', "")
    assert run(capsys, "ord", "2", "add", "w", "--mode", "natural") == (0, "w+2\n", "")
    for argv in (["1+w"], ["w", "mul", "2"], ["1", "cmp", "w"]):
        err = expect_error(capsys, 2, "ord", *argv, "--mode", "natural")
        assert err == "error: --mode natural applies only to 'add'\n"
    assert run(capsys, "ord", "w*\u0663+\u0663") == (0, "w*3+3\n", "")  # Arabic-Indic three
    expect_error(capsys, 2, "ord", "w+")
    # a superscript two is a digit to str.isdigit but not a decimal digit to int
    err = expect_error(capsys, 2, "ord", "\u00b2")
    assert err == "error: cannot parse ordinal: expected '0', a number, 'w' or '(' (at position 0)\n"
    err = expect_error(capsys, 2, "ord", "2*\u00b2")
    assert err == "error: cannot parse ordinal: expected a natural number (at position 2)\n"
    assert expect_error(capsys, 2, "ord", "w", "mul") == "error: ord mul needs a second ordinal\n"


def test_rho(capsys):
    assert run(capsys, "rho", "exp(1+1)") == (0, "w\n", "")
    assert run(capsys, "rho", "1+1", "--format", "json") == (
        0, '{"mode": "sorted", "rho": "2"}\n', "")
    expect_error(capsys, 2, "rho", "E(1")
    expect_error(capsys, 1, "rho", "1*(1+1)")  # star needs an all-positive right factor
    expect_error(capsys, 2, "rho", "1*(1+1)+")  # malformed text is reported first
    expect_error(capsys, 1, "rho", '{"n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 0}}')
    # a term reads the same whatever its whitespace, and a control character is a parse error
    assert run(capsys, "rho", "exp(1 +\t1)\n") == (0, "w\n", "")
    err = expect_error(capsys, 2, "rho", "1+\x01")
    assert err == ("error: cannot parse signature: expected '0', '1', 'exp(', 'E(' or '(' "
                   "(at position 2)\n")


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "E(1+1)")
    assert code == 0 and json.loads(out) == {"n": 2, "o": {"0,1": 2}}
    expect_error(capsys, 1, "normalize", "1*(1+1)")
    expect_error(capsys, 2, "normalize", "2")


def test_leq(capsys):
    assert run(capsys, "leq", "1", "1+1") == (0, "true\n", "")
    assert run(capsys, "leq", "1+1", "1") == (0, "false\n", "")
    expect_error(capsys, 2, "leq", "1", "{")


def test_ea(capsys):
    assert run(capsys, "ea", "w") == (0, "1\n", "")
    assert run(capsys, "ea", "2", "--target") == (0, "w^8\n", "")
    err = expect_error(capsys, 1, "ea", "w^w+1")
    assert "outside computed family" in err
    expect_error(capsys, 2, "ea", "w^")


def test_ea_target_finite_part_bound(capsys):
    assert cli.MAX_EA_FINITE == 1024
    code, out, _ = run(capsys, "ea", "1024", "--target")
    assert code == 0 and out == f"w^{2 ** 1025}\n"
    code, out, _ = run(capsys, "ea", "w*3+1024", "--target")
    assert code == 0 and out.endswith(f"*{2 ** 1024})\n")
    for alpha in ("1025", "20000", "w*3+1025", "w^w+" + "9" * 4000):
        err = expect_error(capsys, 1, "ea", alpha, "--target")
        assert err == "error: finite part of the EA-class target is larger than 1024\n"


def test_ea_target_prints_only_ordinals_that_read_back(capsys):
    # the answer nests deeper than the input: from 99 levels it reaches the
    # bound, and past it ea --target refuses rather than print what ord refuses
    code, out, _ = run(capsys, "ea", nest("w^(", "1", MAX_NESTING - 1), "--target")
    assert code == 0
    assert run(capsys, "ord", out.strip()) == (0, out, "")
    err = expect_error(capsys, 2, "ord", f"({out.strip()})")  # one level more
    assert f"nested deeper than {MAX_NESTING} levels" in err
    err = expect_error(capsys, 1, "ea", nest("w^(", "1", MAX_NESTING), "--target")
    assert err == f"error: the target rank nests deeper than {MAX_NESTING} levels\n"


def test_materialize(capsys):
    assert run(capsys, "materialize", "w^w") == (0, '{"n": 2, "o": {"0,1": 2}}\n', "")
    expect_error(capsys, 2, "materialize", "w^")


def test_materialize_base_bound(capsys):
    code, out, _ = run(capsys, "materialize", "w^255")
    assert code == 0 and json.loads(out)["n"] == MAX_BASE
    for xi in ("257", "100000", "w^256", "w^200*2", "w^(w^(w^300))"):
        err = expect_error(capsys, 1, "materialize", xi)
        assert err == "error: materialized signature has a base larger than 256\n"


def test_materialize_pair_value_bound(capsys):
    # what materialize prints is a signature argument the other verbs take
    tower = "w"  # the rank of the pair with value k, tau_k
    for k in range(1, MAX_PAIR_VALUE + 1):
        code, out, _ = run(capsys, "materialize", tower)
        assert code == 0 and out == '{"n": 2, "o": {"0,1": %d}}\n' % k
        assert run(capsys, "rho", out) == (0, tower + "\n", "")
        tower = f"w^({tower})" if k > 1 else "w^w"
    over = f"w^({tower}+1)"  # a block on a base of 3 with the pair value 66
    for xi in (tower, over, "w^(" * 99 + "w" + ")" * 99, f"{over}*2+w^w"):
        err = expect_error(capsys, 1, "materialize", xi)
        assert err == "error: materialized signature has a pair value larger than 64\n"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="the interpreter converts integers of any length")
def test_integers_past_the_digit_limit_are_parse_errors(capsys):
    digits = "1" + "0" * 5000
    err = expect_error(capsys, 2, "rho", '{"n": 2, "o": {"0,1": %s}}' % digits)
    assert err == "error: cannot parse signature: integer literal too long\n"
    err = expect_error(capsys, 2, "ord", digits)
    assert err == "error: cannot parse ordinal: natural number too long (at position 0)\n"
    err = expect_error(capsys, 2, "ord", "w+" + digits)
    assert err == "error: cannot parse ordinal: natural number too long (at position 2)\n"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="the interpreter converts integers of any length")
def test_ord_result_past_the_digit_limit_is_a_domain_error(capsys):
    x, y = "9" * 2500, "9" * 4300
    for argv in ((f"{x}*{x}",), (x, "mul", x), (y, "add", y)):
        err = expect_error(capsys, 1, "ord", *argv)
        assert err == "error: result has an integer longer than the interpreter's digit limit\n"
    code, out, _ = run(capsys, "ord", "9" * 2000, "mul", "9" * 2000)
    assert code == 0 and out == f"{int('9' * 2000) ** 2}\n"


def test_realize(capsys, tmp_path):
    assert run(capsys, "realize", "exp(1+1)") == (0, PAIR1 + "\n", "")
    path = tmp_path / "set.json"
    assert run(capsys, "realize", "exp(1+1)", "-o", str(path)) == (0, "", "")
    assert path.read_text() == PAIR1 + "\n"
    expect_error(capsys, 2, "realize", "E(1")
    expect_error(capsys, 1, "realize", "1*(1+1)")


def test_signature(capsys):
    assert run(capsys, "signature", PAIR1) == (
        0, '{"labels": ["0", "1"], "n": 2, "o": {"0,1": 1}}\n', "")
    assert run(capsys, "signature", run(capsys, "realize", "E(1+1)")[1]) == (
        0, '{"labels": ["0", "1"], "n": 2, "o": {"0,1": 2}}\n', "")
    expect_error(capsys, 1, "signature", NOT_SGEN)
    expect_error(capsys, 1, "signature", NOT_FAST)
    expect_error(capsys, 1, "signature", TWO_BUMPS)
    expect_error(capsys, 2, "signature", "[1]")
    expect_error(capsys, 2, "signature", "[")


def test_diagram(capsys):
    code, out, _ = run(capsys, "diagram", PAIR1)
    assert code == 0 and out.startswith("digraph dynamical_diagram {")
    # the empty set's, as `realize 0` prints it: DOT has no empty statement
    assert run(capsys, "diagram", "[]") == (
        0, "digraph dynamical_diagram {\n  rankdir=LR;\n  { rank=same; }\n}\n", "")
    expect_error(capsys, 1, "diagram", NOT_FAST)
    expect_error(capsys, 2, "diagram", '[{"markers": []}]')


def test_diagram_escapes_names(capsys):
    doc = json.loads(PAIR1)
    doc[0]["name"], doc[1]["name"] = 'a"b', "c\\d"
    code, out, _ = run(capsys, "diagram", json.dumps(doc))
    assert code == 0
    assert 'label="a\\"b"' in out and 'label="c\\\\d"' in out


def test_a_name_utf8_cannot_encode_prints_as_its_escape(capsysbinary, tmp_path):
    # a lone surrogate, which json.dumps writes as \ud800 and the set reader reads back
    doc = one_function(name="\ud800")
    want = (b'digraph dynamical_diagram {\n  rankdir=LR;\n  { rank=same; v0; v1; }\n'
            b'  v0 -> v1 [style=invis];\n  v0 -> v1 [label="\\ud800"];\n}\n')
    assert (cli.main(["diagram", doc]), *capsysbinary.readouterr()) == (0, want, b"")
    path = tmp_path / "diagram.dot"
    assert (cli.main(["diagram", doc, "-o", str(path)]), *capsysbinary.readouterr()) == (
        0, b"", b"")
    assert path.read_bytes() == want


def test_diagram_and_excise_require_a_fast_set():
    fns = genset_from_json(NOT_FAST)
    with pytest.raises(RealizationError):
        diagram(fns)
    with pytest.raises(RealizationError):
        excise(fns)


def test_inflate(capsys):
    assert run(capsys, "inflate", "exp(1+1)", "--at", "1") == (
        0, '{"labels": ["0", "0^1", "1"], "n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 1}}\n', "")
    want = set_json([
        ([("0", "0"), ("9/16", "9/16"), ("217/384", "77/128"), ("29/48", "29/48"), ("1", "1")],
         ["217/384"], "0"),
        ([("0", "0"), ("107/128", "107/128"), ("15421/18432", "5201/6144"), ("61/72", "61/72"),
          ("1", "1")], ["15421/18432"], "0^1"),
        ([("0", "0"), ("19/48", "19/48"), ("749/1872", "77/96"), ("7/16", "4151/4608"),
          ("15/16", "15/16"), ("1", "1")], ["7/16"], "1^2"),
    ])
    assert run(capsys, "inflate", PAIR1, "--at", "1") == (0, want + "\n", "")
    expect_error(capsys, 1, "inflate", "exp(1+1)", "--at", "2")
    expect_error(capsys, 1, "inflate", PAIR1, "--at", "2")
    expect_error(capsys, 2, "inflate", "[", "--at", "0")
    for doc in (NOT_FAST, NOT_SGEN, TWO_BUMPS):  # refused as signature refuses them
        expect_error(capsys, 1, "inflate", doc, "--at", "0")


def test_rotate(capsys):
    assert run(capsys, "rotate", "E(1+1)") == (0, '{"n": 2, "o": {"0,1": 1}}\n', "")
    want = set_json([
        ([("0", "0"), ("19/48", "19/48"), ("5/12", "41/96"), ("7/16", "7/16"), ("1", "1")],
         ["5/12"], "1^o"),
        ([("0", "0"), ("9/16", "9/16"), ("217/384", "77/128"), ("29/48", "29/48"), ("1", "1")],
         ["217/384"], "0"),
    ])
    assert run(capsys, "rotate", PAIR1) == (0, want + "\n", "")
    expect_error(capsys, 2, "rotate", "E(")
    for doc in (NOT_FAST, NOT_SGEN, TWO_BUMPS):  # refused as signature refuses them
        expect_error(capsys, 1, "rotate", doc)


def test_rotate_restricts_a_top_of_three_orbitals(capsys):
    # realize's top function for o(0,1) = 3 has three orbitals, so rotating
    # the set restricts it to its inner one
    doc = '{"n": 2, "o": {"0,1": 3}}'
    code, fns, _ = run(capsys, "realize", doc)
    assert code == 0 and [len(f.orbitals) for f in genset_from_json(fns)] == [2, 3]
    code, rotated, _ = run(capsys, "rotate", fns)
    assert code == 0 and [len(f.orbitals) for f in genset_from_json(rotated)] == [1, 2]
    code, out, _ = run(capsys, "signature", rotated)
    assert code == 0 and sig_from_json(out) == sig_rotate(sig_from_json(doc)) == Signature(2, (2,))


def test_format_only_on_the_verbs_that_read_it(capsys):
    argvs = [["normalize", "1"], ["materialize", "w"], ["realize", "1+1"],
             ["signature", PAIR1], ["diagram", PAIR1], ["inflate", PAIR1, "--at", "0"],
             ["rotate", PAIR1]]
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_rotate_and_inflate_read_a_file_argument_once(capsys, monkeypatch, tmp_path):
    opens = []

    def counting_open(*args, **kwargs):
        opens.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for name, text in (("sig", '{"n": 2, "o": {"0,1": 2}}'), ("set", PAIR1)):
        path = tmp_path / name
        path.write_text(text)
        for verb in (["rotate"], ["inflate", "--at", "1"]):
            opens.clear()
            assert run(capsys, verb[0], str(path), *verb[1:])[0] == 0
            assert opens == [str(path)]


def test_verify(capsys):
    assert run(capsys, "verify", PAIR1) == (0, (
        "fast: true\n"
        "round_trip: true\n"
        "sgen: true\n"
        'signature: {"labels": ["0", "1"], "n": 2, "o": {"0,1": 1}}\n'), "")
    assert run(capsys, "verify", PAIR1, "--format", "json") == (0, (
        '{"fast": true, "round_trip": true, "sgen": true, '
        '"signature": {"labels": ["0", "1"], "n": 2, "o": {"0,1": 1}}}\n'), "")
    code, out, err = run(capsys, "verify", NOT_SGEN)
    assert (code, out, err) == (
        1, "fast: true\nsgen: false\n", "error: set is not a standard generating set\n")
    code, out, _ = run(capsys, "verify", NOT_FAST, "--format", "json")
    assert (code, out) == (1, '{"fast": false, "sgen": false}\n')
    assert run(capsys, "verify", TWO_BUMPS)[:2] == (1, "fast: true\nsgen: false\n")
    expect_error(capsys, 2, "verify", "not json")


# sha256 of `sigcalc enumerate --n 5 --vmax v` stdout; the words bench and
# anyone reading the list by index depend on its order
ENUMERATE_N5_SHA256 = {
    3: "0d19b4d2623d51daa97b17c158544f1830cb1f57af31f058fd7aec8cca03575d",
    5: "aaf33c1cd8cebda16d124bd212730e0449236668978a1b30f3a38e4f3ec9392b",
}
# and of `sigcalc enumerate --n 5 --vmax v --format json`, which joins the
# texts the text format prints into the list json.dumps would print
ENUMERATE_N5_JSON_SHA256 = {
    0: "eb157c94bc210e128dc476d7cb67b7caa983f79faa077a76b6b2018e9b7d48e6",
    1: "99174d8a5860ca825c02777f0fb129b9069e8b8756aac410a38df63e1228d150",
    2: "25b4dd2808e41f785f48afd071f01eb5f8765e5691371d8d1a040a61dac1a6c0",
    3: "d9b0a72f70933691faaeff022c13f687a4b1c3da2f488fe1a929470238f32942",
    4: "4e03f302606e46dcd865e9f3f89f4fbc5ad40e7f62b15e171a071156a02d462b",
    5: "08e3495df73a700f6c77facd7cb78031b7098200ee6b7a43b7500a879c61fa15",
}


def test_enumerate(capsys):
    assert run(capsys, "enumerate", "--n", "2", "--vmax", "1") == (
        0, '{"n": 2, "o": {"0,1": 0}}\n{"n": 2, "o": {"0,1": 1}}\ncount: 2\n', "")
    assert run(capsys, "enumerate", "--n", "2", "--vmax", "1", "--format", "json") == (
        0, '[{"n": 2, "o": {"0,1": 0}}, {"n": 2, "o": {"0,1": 1}}]\n', "")
    expect_error(capsys, 1, "enumerate", "--n", "6", "--vmax", "1")
    for vmax, digest in ENUMERATE_N5_SHA256.items():
        code, out, err = run(capsys, "enumerate", "--n", "5", "--vmax", str(vmax))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out.endswith("count: 5481\n")
    for vmax, digest in ENUMERATE_N5_JSON_SHA256.items():
        code, out, err = run(capsys, "enumerate", "--n", "5", "--vmax", str(vmax), "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(json.loads(out)) == 5481


def test_predicates(capsys):
    assert run(capsys, "predicates", PAIR1, "--x", "0", "--y", "1") == (
        0, "C: false\nD: true\n", "")
    assert run(capsys, "predicates", PAIR1, "--x", "0", "--y", "1", "--z", "0,1 1",
               "--format", "json") == (0, '{"C": false, "D": true, "T": false}\n', "")
    assert run(capsys, "predicates", PAIR1, "--x", "0^2", "--y", "0,-1") == (
        0, "C: true\nD: false\n", "")
    # on realized sets of three generators
    fns = run(capsys, "realize", "1*1*1")[1]
    xyz = ["--x", "0", "--y", "1", "--z", "2"]
    assert run(capsys, "predicates", fns, *xyz) == (0, "C: false\nD: true\nT: true\n", "")
    assert run(capsys, "predicates", fns, *xyz, "--format", "json") == (
        0, '{"C": false, "D": true, "T": true}\n', "")
    fns = run(capsys, "realize", "E(1+1)+1")[1]
    assert run(capsys, "predicates", fns, "--x", "2", "--y", "0") == (0, "C: true\nD: false\n", "")
    expect_error(capsys, 2, "predicates", PAIR1, "--x", "a", "--y", "1")
    expect_error(capsys, 1, "predicates", PAIR1, "--x", "5", "--y", "1")
    # a token with a second separator
    for x, z in (("0,1,2", "0"), ("0", "1^-1^1")):
        err = expect_error(capsys, 2, "predicates", PAIR1, "--x", x, "--y", "1", "--z", z)
        assert err.startswith("error: bad word token")


def test_word_length_bound(capsys):
    assert cli.MAX_WORD_LETTERS == 64
    assert run(capsys, "predicates", PAIR1, "--x", "0^64", "--y", "1") == (
        0, "C: false\nD: true\n", "")
    for word in ("0^65", "0^-65", "0^-64 1", "0,32 1,-33"):
        err = expect_error(capsys, 2, "predicates", PAIR1, "--x", "1", "--y", word)
        assert err == "error: word longer than 64 letters\n"


# --- input limits ---------------------------------------------------------------------


def test_nesting_bound(capsys):
    assert MAX_NESTING == 100
    # E( adds 2 to the pair value, so 32 of the 100 levels reach the value bound
    deep = nest("(", nest("E(", "1+1", 32), MAX_NESTING - 32)
    code, out, _ = run(capsys, "rho", deep)
    assert code == 0 and out.startswith("w^(w^(")
    assert run(capsys, "normalize", deep) == (0, '{"n": 2, "o": {"0,1": 64}}\n', "")
    code, out, _ = run(capsys, "ord", nest("w^(", "1", MAX_NESTING))
    assert code == 0 and out.count("w^") == MAX_NESTING - 1
    # comparisons recurse once per level on both sides
    for rhs, word in (("1", "EQ"), ("2", "LT"), ("0", "GT")):
        assert run(capsys, "ord", nest("w^(", "1", MAX_NESTING), "cmp",
                   nest("w^(", rhs, MAX_NESTING)) == (0, word + "\n", "")
    # ranks at the pair value bound (64) and one step below it, sorted
    at_bound, below = nest("E(", "1+1", 32), nest("E(", "1+1", 31)
    (_, top, _), (_, low, _) = run(capsys, "rho", at_bound), run(capsys, "rho", below)
    assert top.count("w^") == 63
    assert run(capsys, "rho", f"{below}+{at_bound}") == (0, f"{top.strip()}+{low}", "")
    assert run(capsys, "leq", at_bound, below) == (0, "false\n", "")
    for argv in (["rho", nest("E(", "1+1", MAX_NESTING + 1)],
                 ["normalize", nest("exp(", "1", MAX_NESTING + 1)],
                 ["rho", nest("(", "1", MAX_NESTING + 1)],
                 ["ord", nest("w^(", "1", MAX_NESTING + 1)],
                 ["ord", "w^" * (MAX_NESTING + 1) + "1"]):
        err = expect_error(capsys, 2, *argv)
        assert "nested deeper than 100 levels (at position " in err


def test_pair_value_bound(capsys):
    assert MAX_PAIR_VALUE == 64
    code, out, _ = run(capsys, "rho", '{"n": 2, "o": {"0,1": 64}}')
    assert code == 0 and out.count("w^") == 63
    for value in (65, 1000):
        err = expect_error(capsys, 2, "rho", '{"n": 2, "o": {"0,1": %d}}' % value)
        assert err == "error: cannot parse signature: \"o\" value at '0,1' is larger than 64\n"


def test_pair_value_bound_covers_terms(capsys):
    # E(...) adds 2 to the pair value of 1+1: 40 levels give 80
    too_big = "E(" * 40 + "1+1" + ")" * 40
    for verb in ("rho", "normalize", "realize"):
        err = expect_error(capsys, 2, verb, too_big)
        assert err == "error: cannot parse signature: \"o\" value at '0,1' is larger than 64\n"
    at_bound = "E(" * 32 + "1+1" + ")" * 32
    assert run(capsys, "normalize", at_bound) == (0, '{"n": 2, "o": {"0,1": 64}}\n', "")
    code, out, err = run(capsys, "realize", '{"n":2,"o":{"0,1":64}}')
    assert (code, err) == (0, "")
    assert [len(f.orbitals) for f in genset_from_json(out)] == [63, 64]


def test_values_at_the_edge_of_the_byte_range(capsys):
    # a pair value is one byte: a term builds at most 2 MAX_NESTING + 1 = 201,
    # and materialize at most the ordinal's nesting + 1; each is refused whole
    deep_term = nest("E(", "1*1", MAX_NESTING)
    assert tuple(parse_term(deep_term).vals) == (201,)
    err = expect_error(capsys, 2, "rho", deep_term)
    assert err == "error: cannot parse signature: \"o\" value at '0,1' is larger than 64\n"
    tower = nest("w^(", "1", MAX_NESTING)
    assert max(materialize(ord_parse(tower)).vals) == 100
    err = expect_error(capsys, 1, "materialize", tower)
    assert err == "error: materialized signature has a pair value larger than 64\n"


def test_build_depth_is_a_domain_error(capsys, monkeypatch):
    # a build deeper than MAX_BUILD_LEVELS (511) is refused whatever the memo
    # holds: E(1*1)*1*...*1 on MAX_BASE leaves is one level past, its rotation
    # at the bound, and the 31-E( term (base 30, pair values 62) is 931 deep
    assert build.MAX_BUILD_LEVELS == 2 * MAX_BASE - 1
    want = ("error: signature too deep to realize: its build is more than 511 "
            "levels deep\n")
    past = "E(1*1)*" + "*".join(["1"] * (MAX_BASE - 2))
    monkeypatch.setattr(build, "_memo", {})
    for term in (past, nest("E(", "+".join(["1"] * 30), 31)):
        assert expect_error(capsys, 1, "realize", term) == want
    assert build._build(sig_rotate(parse_term(past)))[1] == build.MAX_BUILD_LEVELS
    assert expect_error(capsys, 1, "realize", past) == want  # its rotation now memoized


# sha256 of `realize` of the chain 1*1*...*1 of MAX_BASE leaves, 574,453 bytes
CHAIN_SHA256 = "337d19157809879d2914a083414fb07ad4750387ec6fc015bd6054e8121fc62b"
# sha256 of `realize` of 8 E( around 16 ones, 119,113 bytes: n = 16, with 112
# general wraps around up to 15 retained functions
TOWER_SHA256 = "6f13704269033c92c3ec0481433c9c5e1a943505464745989563d82db50bc478"
# sha256 of `realize` of E( around 250 ones, 619,488 bytes: n = 250, with 249
# two-orbital wraps around up to 249 retained functions
E_SUM_SHA256 = "564567e2d1a80a4e518cc8a5615e26eb69013da27755d54f604d91a200904fa6"


def _called_from(frames: int, fn):
    """fn() called from `frames` frames further down the stack."""
    return fn() if frames == 0 else _called_from(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 600])
def test_the_edge_of_every_limit(capsys, monkeypatch, frames):
    # the chain of MAX_BASE leaves, 510 levels deep, through every verb that
    # reads a signature or its set, from a cold memo and from a deep caller:
    # a refusal depends on the input alone
    chain = "*".join(["1"] * MAX_BASE)
    monkeypatch.setattr(build, "_memo", {})
    fresh_rank_caches(monkeypatch)

    def verb(*argv):
        code, out, err = _called_from(frames, lambda: run(capsys, *argv))
        assert (code, err) == (0, "")
        return out

    def sha(text):  # a failed comparison of two 0.5 MB texts would diff them
        return hashlib.sha256(text.encode()).hexdigest()

    fns = verb("realize", chain)
    assert sha(fns) == CHAIN_SHA256
    sig = parse_term(chain)
    sig.labels = sig.default_labels()  # the set's functions are named so
    assert sha(verb("signature", fns)) == sha(sig_to_json(sig) + "\n")
    for argv in (["rotate", fns], ["inflate", fns, "--at", "0"], ["diagram", fns]):
        assert verb(*argv)
    assert verb("rho", chain) == "w^255\n" and verb("normalize", chain)


def test_a_deep_general_wrap_build_is_pinned(capsys, monkeypatch):
    # from a cold memo, as a CLI call builds it
    monkeypatch.setattr(build, "_memo", {})
    code, out, err = run(capsys, "realize", nest("E(", "+".join(["1"] * 16), 8))
    assert (code, err, len(out)) == (0, "", 119113)
    assert hashlib.sha256(out.encode()).hexdigest() == TOWER_SHA256


def test_a_deep_two_orbital_wrap_build_is_pinned(capsys, monkeypatch):
    # from a cold memo, as a CLI call builds it
    monkeypatch.setattr(build, "_memo", {})
    code, out, err = run(capsys, "realize", nest("E(", "+".join(["1"] * 250), 1))
    assert (code, err, len(out)) == (0, "", 619488)
    assert hashlib.sha256(out.encode()).hexdigest() == E_SUM_SHA256


def test_walk_bound_names_the_pair_value_bound(capsys):
    # a standard set whose pair oscillates 65 times, one past the bound
    too_many = genset_to_json(placed(build._build(Signature(2, [MAX_PAIR_VALUE + 1]))[0]))
    for argv in (["signature", too_many], ["verify", too_many], ["rotate", too_many],
                 ["inflate", too_many, "--at", "0"]):
        err = expect_error(capsys, 1, *argv)
        assert err == "error: a pair oscillates more than signature.MAX_PAIR_VALUE (64) times\n"


def test_base_bound(capsys):
    assert MAX_BASE == 256
    assert run(capsys, "rho", "+".join(["1"] * MAX_BASE)) == (0, "256\n", "")
    for term in ("+".join(["1"] * (MAX_BASE + 1)), "*".join(["1"] * 3000), "exp(1)+" * 300 + "0"):
        err = expect_error(capsys, 2, "rho", term)
        leaf = [i for i, ch in enumerate(term) if ch == "1"][MAX_BASE]
        assert err == f"error: cannot parse signature: base larger than 256 (at position {leaf})\n"


def test_json_base_bound(capsys):
    # the bound is read from "n" before any pair: no pair is named or checked
    for doc in ('{"n": 257, "o": {}}', '{"n": 10000000000, "o": {"0,1": "x"}}'):
        err = expect_error(capsys, 2, "rho", doc)
        assert err == "error: cannot parse signature: base larger than 256\n"
    err = expect_error(capsys, 1, "rho", '{"n": 256, "o": {}}')
    assert err.startswith("error: missing 32640 of 32640 pairs")
    chain = sig_to_json(parse_term("*".join(["1"] * MAX_BASE)))
    assert run(capsys, "rho", chain) == (0, "w^255\n", "")


@pytest.mark.parametrize("argv", [
    ["rho", '{"n": ' + "[" * 100_000],
    ["verify", "[" * 100_000],
])
def test_deeply_nested_json_is_a_parse_error(capsys, argv):
    err = expect_error(capsys, 2, *argv)
    assert err.startswith("error: cannot parse ")


# --- malformed signature documents ----------------------------------------------------


@pytest.mark.parametrize("doc", [
    '{"n": "x"}',
    '{"n": 2, "o": {"a,b": 1}}',
    '{"n": 2, "o": [1]}',
    '{"n": 2, "o": {"0,1": true}}',
    '{"n": true, "o": {}}',
    '{"n": -1}',
    '{"o": {}}',
    '{"n": 2, "o": {"0,1,2": 1}}',
    '{"n": 2, "o": {"0,1": 1.5}}',
    '{"n": 2, "o": {"0,1": 1}, "labels": [0, 1]}',
    '{"n": 2, "o": {"0,1": 1}, "labels": "ab"}',
])
def test_malformed_signature_json_is_a_parse_error(capsys, doc):
    err = expect_error(capsys, 2, "rho", doc)
    assert err.startswith("error: cannot parse signature: ")


def test_a_pair_given_twice_is_a_parse_error(capsys):
    # which of the two values counted used to depend on the order of the keys
    for doc, why in (('{"n": 2, "o": {"0,1": 1, "00,1": 3}}', "gives pair (0,1) twice"),
                     ('{"n": 2, "o": {"00,1": 3, "0,1": 1}}', "gives pair (0,1) twice"),
                     ('{"n": 2, "o": {"0,1": 1, "0,1": 3}}', "key '0,1' given more than once")):
        for verb in ("rho", "realize"):
            err = expect_error(capsys, 2, verb, doc)
            assert err.startswith("error: cannot parse signature: ") and why in err
    assert run(capsys, "rho", '{"n": 2, "o": {" 0 , 1 ": 1}}') == (0, "w\n", "")


def test_refusals_with_decided_exit_codes(capsys):
    # a set holding one function twice ties two maximum transition points,
    # so two right feet overlap and every verb that reads it refuses it as not fast
    f = json.loads(PAIR1)[0]
    twice = json.dumps([f, f])
    for argv in (("signature", twice), ("rotate", twice), ("inflate", twice, "--at", "0")):
        assert run(capsys, *argv) == (
            1, "", "error: a standard generating set requires a fast set\n")
    assert run(capsys, "diagram", twice) == (
        1, "", "error: dynamical diagram requires a fast set\n")
    assert run(capsys, "verify", twice) == (
        1, "fast: false\nsgen: false\n", "error: set is not a standard generating set\n")
    # the JSON reader refuses a wrong label count, a negative value and a
    # member other than "n", "o" and "labels" (named as a key is) as it
    # refuses a non-integer value or one past MAX_PAIR_VALUE
    for doc, why in (('{"n": 2, "o": {"0,1": 1}, "labels": ["a"]}',
                      '"labels" must list 2 strings, not 1'),
                     ('{"n": 2, "o": {"0,1": -1}}', '"o" value at \'0,1\' is negative'),
                     ('{"n": 1, "o": {}, "extra": [1, 2]}', "unknown member 'extra'"),
                     ('{"n": 2, "o": {"0,1": 1}, "label": ["a", "b"]}', "unknown member 'label'"),
                     ('{"n": 1, "%s": 0}' % ("x" * 50), f"unknown member {'x' * 40!r}")):
        assert run(capsys, "rho", doc) == (2, "", f"error: cannot parse signature: {why}\n")
    # the reader refuses a value past MAX_PAIR_VALUE before it checks (!), so
    # a matrix that also fails (!) exits 2 on the value, not 1 on the triple
    assert run(capsys, "rho", '{"n": 3, "o": {"0,1": 0, "0,2": 100, "1,2": 0}}') == (
        2, "", "error: cannot parse signature: \"o\" value at '0,2' is larger than 64\n")
    # a set that repeats a key is refused as a signature that does, where
    # the last "name" once won
    named = one_function(name="a")[:-2] + ', "name": "b"}]'
    assert run(capsys, "signature", named) == (
        2, "", "error: cannot parse generating set: key 'name' given more than once\n")
    # a zero exponent is a malformed word token
    for token in ("0^0", "1,0"):
        assert run(capsys, "predicates", PAIR1, "--x", token, "--y", "0") == (
            2, "", f"error: zero exponent in word token {token!r}\n")


def test_long_keys_and_tokens_give_short_messages(capsys):
    # each message quotes at most 40 characters of a key or a word token
    long = "x" * 10 ** 5
    docs = [json.dumps({"n": 2, "o": {long: 1}}),  # a bad key
            '{"n": 2, "o": {"%s": 1, "%s": 1}}' % (long, long),  # a repeated key
            json.dumps({"n": 2, "o": {"0,1": 1, "1" * (10 ** 5 + 1) + ",1": 1}}),  # many digits
            json.dumps({"n": 2, "o": {"0,1": 1, " " * 10 ** 5 + "0,1": 1}}),  # a pair twice
            json.dumps({"n": 2, "o": {"0,1" + " " * 10 ** 5: "1"}})]  # a bad value
    for doc in docs:
        err = expect_error(capsys, 2, "rho", doc)
        assert len(err.encode()) < 200, err[:200]
    err = expect_error(capsys, 2, "predicates", PAIR1, "--x", long, "--y", "0")
    assert err == f"error: bad word token {long[:40]!r}\n"


BUMPS, LONG_NAME = bumps_set(2000, "0"), "x" * 10 ** 5
# a marker of -1/10^4000, outside the function's one orbital (1/4, 1)
LONG_MARKER = set_json([([("0", "0"), ("1/4", "1/4"), ("1/2", "3/4"), ("1", "1")],
                          ["-1/1" + "0" * 4000], "0")])

ONES, KEY = "1" * 4001, "1" + "0" * 4299  # past 40 digits, and at the interpreter's digit limit
CUT = "1" * 40 + "..."


@pytest.mark.parametrize("code, argv, err", [
    (1, ["rho", '{"n": 2, "o": {"0,1": 1, "%s,1": 1}}' % KEY],
     f"pair ({KEY[:40]}...,1) outside base 0..1"),
    (2, ["rho", '{"n": 2, "o": {"%s,1": 1, " %s,1": 1}}' % (KEY, KEY)],
     f"cannot parse signature: \"o\" gives pair ({KEY[:40]}...,1) twice"
     f" (again as ' {KEY[:39]}')"),
    (1, ["predicates", PAIR1, "--x", ONES, "--y", "0"], f"generator index {CUT} out of range"),
    (1, ["inflate", PAIR1, "--at", ONES], f"no element at index {CUT}"),
    (1, ["inflate", "exp(1+1)", "--at", "-" + ONES], f"base element -{CUT} out of range"),
    # an integer of 40 digits is named whole
    (1, ["inflate", "exp(1+1)", "--at", "-" + ONES[:40]],
     f"base element -{ONES[:40]} out of range"),
    (1, ["inflate", PAIR1, "--at", ONES[:40]], f"no element at index {ONES[:40]}"),
    # a set too long to print: a function is named by its name, cut to 40
    # characters, and a pair by at most 40 digits of each integer
    (1, ["signature", BUMPS], "function '0' is not standard"),
    (1, ["rotate", BUMPS], "function '0' is not standard"),
    (1, ["inflate", BUMPS, "--at", "0"], "function '0' is not standard"),
    (1, ["signature", bumps_set(2, LONG_NAME)], f"function {LONG_NAME[:40]!r} is not standard"),
    (2, ["signature", LONG_MARKER],
     f"cannot parse generating set: marker -1/1{'0' * 39}... outside orbital (1/4,1)"),
], ids=["pair outside base", "pair twice", "generator index", "set index", "base element",
        "base element of 40 digits", "set index of 40 digits", "2,000 bumps",
        "2,000 bumps rotated", "2,000 bumps inflated", "long name", "long marker"])
def test_long_integers_give_short_messages(capsys, code, argv, err):
    # each message names at most 40 digits of an integer it read, and a
    # function by at most 40 characters of its name
    assert run(capsys, *argv) == (code, "", f"error: {err}\n")
    assert len(err) < 200


# --- malformed generating-set documents -----------------------------------------------


@pytest.mark.parametrize("doc", [
    one_function(breakpoints=[["0", "0"], ["1/0", "1"]], markers=[]),
    one_function(markers=["1/0"]),
    one_function(markers=[float("inf")]),
    one_function(markers=[float("nan")]),
    '[{"breakpoints": [[0, 0], [1e400, 1]], "markers": []}]',
    one_function(name=5),
    one_function(name=None),
    one_function(name=["a"]),
])
def test_malformed_genset_json_is_a_parse_error(capsys, doc):
    assert run(capsys, "signature", one_function())[0] == 0
    err = expect_error(capsys, 2, "signature", doc)
    assert err.startswith("error: cannot parse generating set: ")


@pytest.mark.parametrize("doc, field", [
    # a two-character string or object key would otherwise read as a point
    (one_function(breakpoints=["00", ["1/4", "1/4"], ["1/2", "3/4"], "11"]), "breakpoints"),
    (one_function(breakpoints={"00": ["1/4", "1/4"], "11": ["1/2", "3/4"]}), "breakpoints"),
    (one_function(markers="1/2"), "markers"),
])
def test_genset_fields_must_be_arrays(capsys, doc, field):
    err = expect_error(capsys, 2, "signature", doc)
    assert err.startswith(f'error: cannot parse generating set: "{field}" of function 0 ')


@pytest.mark.parametrize("doc, reason", [
    # an object, not an array, once read as the empty set
    ("{}", "not an array of functions"),
    (json.dumps({"breakpoints": [], "markers": []}), "not an array of functions"),
    ("[1]", "function 0 is not an object"),
    ("[{}]", 'function 0 has no "breakpoints"'),
    ('[{"breakpoints": []}]', 'function 0 has no "markers"'),
    # JSON true once read as the coordinate 1
    (one_function(breakpoints=[["0", "0"], ["1/4", "1/4"], ["1/2", "3/4"], [True, "1"]]),
     "not a number: True"),
    (one_function(breakpoints=[[False, "0"], ["1/4", "1/4"], ["1/2", "3/4"], ["1", "1"]]),
     "not a number: False"),
    (one_function(markers=[True]), "not a number: True"),
    # a member other than "breakpoints", "markers" and "name", once ignored
    (one_function(colour="red"), "function 0 has an unknown member 'colour'"),
    (one_function(nmae="f"), "function 0 has an unknown member 'nmae'"),
    # a repeated key, once read as its last value, is refused as in a signature
    (one_function()[:-2] + ', "markers": []}]', "key 'markers' given more than once"),
])
def test_genset_document_shape(capsys, doc, reason):
    for verb in ("verify", "signature"):
        err = expect_error(capsys, 2, verb, doc)
        assert err == f"error: cannot parse generating set: {reason}\n"


@pytest.mark.parametrize("where", ["breakpoint", "marker"])
def test_exponent_notation_is_refused_before_it_is_expanded(capsys, where):
    # read as 10**10000000, this coordinate took seconds to build
    doc = (one_function(breakpoints=[["0", "0"], ["1e10000000", "1"], ["1", "1"]])
           if where == "breakpoint" else one_function(markers=["1e10000000"]))
    start = time.perf_counter()
    err = expect_error(capsys, 2, "signature", doc)
    assert time.perf_counter() - start < 0.5
    assert err.startswith("error: cannot parse generating set: ")


def test_coordinates_read_as_before(capsys):
    doc = one_function(breakpoints=[[" 0", "-0"], ["+1/4", "2/8"], ["1/2", "3/4"], [1, "1"]],
                        markers=[0.5])
    assert run(capsys, "signature", doc) == run(capsys, "signature", one_function())


@pytest.mark.parametrize("number, exact", [
    (0.1, "3602879701896397/36028797018963968"), (1e-3, "1152921504606847/1152921504606846976")])
def test_a_json_number_reads_as_its_exact_binary_value(capsys, number, exact):
    # the square that inflation prints carries the breakpoint (number, 1/2)
    def doc(x):
        return one_function(breakpoints=[["0", "0"], [x, "1/2"], ["1", "1"]], markers=["1/2"])
    code, out, err = run(capsys, "inflate", doc(number), "--at", "0")
    assert (code, err) == (0, "") and f'"{exact}"' in out
    assert run(capsys, "inflate", doc(exact), "--at", "0") == (code, out, err)


@pytest.mark.parametrize("value, reason", [
    (float("nan"), "cannot convert NaN to integer ratio"),
    (float("inf"), "cannot convert Infinity to integer ratio"),
    (None, "not a number: NoneType"),
    ([], "not a number: list"),
    (["1/2"] * 10 ** 4, "not a number: list"),
    ({}, "not a number: dict"),
], ids=["NaN", "Infinity", "null", "[]", "long array", "{}"])
@pytest.mark.parametrize("where", ["breakpoint", "marker"])
def test_a_coordinate_that_is_no_number_is_named_by_its_type(capsys, value, reason, where):
    doc = (one_function(breakpoints=[["0", "0"], ["1/4", "1/4"], ["1/2", value], ["1", "1"]])
           if where == "breakpoint" else one_function(markers=[value]))
    err = expect_error(capsys, 2, "signature", doc)
    assert err == f"error: cannot parse generating set: {reason}\n"


def _unreadable(path, monkeypatch):
    """path without read permission; also for a superuser, whom the mode
    does not stop."""
    path.write_text("1+1")
    path.chmod(0)
    real_open = open

    def denying_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", denying_open)
    return path


@pytest.mark.parametrize("case", ["directory", "unreadable", "not utf-8"])
def test_path_that_cannot_be_read_is_a_parse_error(capsys, monkeypatch, tmp_path, case):
    path = tmp_path / "arg"
    if case == "directory":
        path.mkdir()
    elif case == "unreadable":
        _unreadable(path, monkeypatch)
    else:
        path.write_bytes(b"1+\xff")
    for verb in ("rho", "signature", "ord"):
        err = expect_error(capsys, 2, verb, str(path))
        assert err.startswith(f"error: cannot read {str(path)!r}: ")


def test_a_file_wins_over_the_term_it_is_named(capsys, monkeypatch, tmp_path):
    # an argument naming an existing file is read from the file, even when
    # the argument is itself a valid term
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "rho", "1") == (0, "1\n", "")
    (tmp_path / "1").write_text("exp(1+1)")
    assert run(capsys, "rho", "1") == (0, "w\n", "")


@pytest.mark.parametrize("arg", ["1\x00", "1\ud800"])
def test_a_term_no_path_can_hold_is_read_as_a_term(capsys, arg):
    # a NUL or a lone surrogate makes no path, so the argument is a term,
    # and the term reader refuses the character
    err = expect_error(capsys, 2, "rho", arg)
    assert err == "error: cannot parse signature: trailing input (at position 1)\n"


def test_a_file_argument_is_read_up_to_the_bound(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_ARG_CHARS", 5)
    at, past = tmp_path / "at", tmp_path / "past"
    at.write_text("1+1+1")
    past.write_text("1+1+1\n")
    assert run(capsys, "rho", str(at)) == (0, "3\n", "")
    err = expect_error(capsys, 2, "rho", str(past))
    assert err == f"error: {str(past)!r} holds more than 5 characters\n"


def test_an_endless_file_argument_is_a_parse_error(capsys):
    # read up to the real bound, so the reader stops and exits at once
    err = expect_error(capsys, 2, "rho", "/dev/zero")
    assert err == f"error: '/dev/zero' holds more than {cli.MAX_ARG_CHARS} characters\n"


@pytest.mark.parametrize("term, argv", [
    ("E(1+1)", ["signature"]),
    ('{"n": 2, "o": {"0,1": 3}}', ["verify", "--format", "json"]),
    ("1*1*1", ["predicates", "--x", "0", "--y", "1", "--z", "2"]),
    ("E(1+1)", ["rotate"]),
    ("E(1+1)", ["inflate", "--at", "0"]),
], ids=["signature", "verify", "predicates", "rotate", "inflate"])
def test_a_pipe_is_read_as_a_file_argument(capsys, term, argv):
    # as a process, since /dev/stdin then names the pipe that realize's set
    # comes through: the verb prints what it prints for the set's text
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin on this platform")
    fns = run(capsys, "realize", term)[1]
    code, want, _ = run(capsys, argv[0], fns, *argv[1:])
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sigcalc.cli", argv[0], "/dev/stdin", *argv[1:]],
                          input=fns.encode(), capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, want, b"")


@pytest.mark.parametrize("case", ["directory", "missing directory"])
def test_output_path_that_cannot_be_written_is_a_parse_error(capsys, tmp_path, case):
    path = tmp_path if case == "directory" else tmp_path / "missing" / "out.json"
    for argv in (("normalize", "1"), ("realize", "exp(1+1)"), ("rotate", PAIR1)):
        code, out, err = run(capsys, *argv, "-o", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {str(path)!r}: ")


ENUMERATE_N5 = ["enumerate", "--n", "5", "--vmax", "3"]  # 112,415 bytes, more than a pipe holds
CHAIN_256 = ["realize", "*".join("1" * 256)]  # 574,453 bytes
# a child whose stdout would block, as a full pipe does that its reader reads only later
NON_BLOCKING = ["-c", "import os, sys; os.set_blocking(1, False); from sigcalc import cli; "
                "sys.exit(cli.main(sys.argv[1:]))"]


@pytest.mark.parametrize("stdout, args", [
    ("closed pipe", ENUMERATE_N5), ("closed pipe", ["verify", NOT_SGEN]),
    ("full device", ENUMERATE_N5), ("full device", ["verify", NOT_SGEN]),
    ("partial read", CHAIN_256), ("non-blocking pipe", ENUMERATE_N5),
    ("full stderr", ["rho", "x("]), ("full device and stderr", ENUMERATE_N5),
], ids=["closed pipe-enumerate", "closed pipe-verify", "full device-enumerate",
        "full device-verify", "partial read-realize", "non-blocking pipe-enumerate",
        "full stderr-rho", "full device and stderr-enumerate"])
def test_output_that_cannot_be_written_exits_2(stdout, args):
    # as a process, since the interpreter flushes stdout once more at exit,
    # with stdout block-buffered as by default and unbuffered: a reader that
    # closed the pipe, also after reading part of it, is told nothing, a full
    # device or a stdout that would block gets one line, also after a verb
    # printed its report and then failed (verify, exit 1 when stdout takes its report);
    # an error line that stderr cannot take leaves the exit code as it is
    argv = [sys.executable, *(NON_BLOCKING if stdout == "non-blocking pipe" else ["-m", "sigcalc.cli"]),
            *args]
    for unbuffered in ("", "1"):
        where = f"{stdout}, PYTHONUNBUFFERED={unbuffered!r}"
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        if "full" in stdout:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            with open("/dev/full", "w") as full:
                if stdout == "full device":
                    proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
                    assert (proc.returncode, proc.stderr) == (
                        2, b"error: cannot write the output: [Errno 28] No space left on device\n"), where
                    continue
                out = full if stdout == "full device and stderr" else subprocess.PIPE
                proc = subprocess.run(argv, stdout=out, stderr=full, env=env, timeout=60)
            assert (proc.returncode, proc.stdout or b"") == (2, b""), where
            continue
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                                bufsize=0)
        try:
            if stdout == "partial read":
                assert len(proc.stdout.read(10)) == 10, where
            if stdout != "non-blocking pipe":  # whose stdout is read only after it exits
                proc.stdout.close()
            got = proc.wait(timeout=60), proc.stderr.read()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        if stdout == "non-blocking pipe":
            assert got == (2, b"error: cannot write the output: [Errno %d] write could not "
                              b"complete without blocking\n" % errno.EAGAIN), where
        else:
            assert got == (2, b""), where


class _FillingPipe(io.FileIO):
    """A raw stdout that takes at most 7 bytes a write and, past `room`
    bytes, would block: it takes none and returns None, as a full
    non-blocking pipe does."""

    def __init__(self, path, room):
        super().__init__(path, "w")
        self.room = room

    def write(self, data):
        if not self.room:
            return None
        taken = super().write(data[:min(7, self.room)])
        self.room -= taken
        return taken


@pytest.mark.parametrize("room", [10 ** 6, 100])
def test_an_unbuffered_stdout_takes_the_output_in_parts(capsys, monkeypatch, tmp_path, room):
    # as PYTHONUNBUFFERED leaves it: the text layer writes through to the raw file
    path = tmp_path / "stdout"
    with _FillingPipe(path, room) as raw:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        code = cli.main(["realize", "exp(1+1)"])
    want = (PAIR1 + "\n").encode()
    if room > len(want):
        assert (code, path.read_bytes(), capsys.readouterr().err) == (0, want, "")
    else:  # no spin on a write that takes nothing
        assert (code, path.read_bytes(), capsys.readouterr().err) == (2, want[:room], (
            f"error: cannot write the output: [Errno {errno.EAGAIN}] "
            "write could not complete without blocking\n"))


def test_pair_outside_the_base(capsys):
    err = expect_error(capsys, 1, "rho", '{"n":2,"o":{"0,5":1}}')
    assert err == "error: pair (0,5) outside base 0..1\n"
    # every key is parsed before any is checked against the base
    err = expect_error(capsys, 2, "rho", '{"n":2,"o":{"0,5":1,"a,b":1}}')
    assert err.startswith("error: cannot parse signature: ")


def test_missing_pairs_message_is_bounded(capsys):
    err = expect_error(capsys, 1, "rho", '{"n": 40, "o": {"0,1": 0}}')
    assert "missing 779 of 780 pairs" in err
    assert "(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]" in err
    assert len(err) < 120


def test_bang_violation_message_is_bounded(capsys):
    doc = json.dumps({"n": 12, "o": {f"{i},{j}": 1 - (j == i + 1) for i in range(12)
                                      for j in range(i + 1, 12)}})
    err = expect_error(capsys, 1, "rho", doc)
    assert err == ("error: (!) fails at 55 triples, "
                   "first [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6)]\n")


def test_outside_family_message_is_bounded(capsys):
    x = "9" * 4300
    for expr, reason in ((f"w*{x}", "the rank is not an omega power"),
                         (f"w^(w*{x})", "the coefficient of the rank's log is not a power of two"),
                         ("w^(w^2+w)", "the rank's log is not a single normal-form term")):
        err = expect_error(capsys, 1, "ea", expr)
        assert err == f"error: outside computed family: {reason}\n"


def test_labels_survive_the_json_checks(capsys):
    doc = '{"labels": ["a", "b"], "n": 2, "o": {"0,1": 1}}'
    assert run(capsys, "normalize", doc)[0] == 0
    assert run(capsys, "rotate", doc) == (
        0, '{"labels": ["b^o", "a"], "n": 2, "o": {"0,1": 0}}\n', "")


# --- the package's exports -------------------------------------------------------------


def test_realization_exports_what_cli_and_bench_import():
    """`sigcalc.realization` exports exactly the names the command line and the
    benchmark import from it; tests import everything else from its submodules."""
    root = Path(__file__).resolve().parent.parent
    imported = set()
    for path in [root / "src" / "sigcalc" / "cli.py", *sorted((root / "bench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "sigcalc.realization"
                    or (node.level == 1 and node.module == "realization")):
                imported.update(alias.name for alias in node.names)
    assert len(realization.__all__) == len(set(realization.__all__))
    assert set(realization.__all__) == imported
    public = {name for name, value in vars(realization).items()
              if not name.startswith("_") and type(value) is not type(realization)}
    assert public == imported


# each rank verb, and rotate and inflate given a signature
RANK_CALLS = [
    ["rho", "exp(1+1)*exp(1)+1"], ["normalize", "1+exp(1)"], ["leq", "1", "1+1"],
    ["ea", "w^w"], ["ea", "w+1", "--target"], ["materialize", "w^w+1"], ["ord", "w", "mul", "w"],
    ["enumerate", "--n", "3", "--vmax", "1"], ["rotate", "exp(1+1)"],
    ["inflate", "1*exp(1)", "--at", "1"],
]
# in a fresh interpreter with no `site` (which may load `typing`): each call's
# exit code and the modules of UNUSED it leaves loaded
LOADED_BY_EACH_CALL = """
import io, json, sys
from sigcalc import cli
UNUSED = ("sigcalc.realization", "fractions", "decimal", "numbers", "typing")
report, sys.stdout = [], io.TextIOWrapper(io.BytesIO())
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append([argv, code, sorted(m for m in sys.modules if m.startswith(UNUSED))])
print(json.dumps(report), file=sys.__stdout__)
"""


def test_a_rank_verb_loads_no_pl_code():
    calls = [*RANK_CALLS, ["realize", "exp(1+1)"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_BY_EACH_CALL, json.dumps(calls)],
                          capture_output=True, env=env, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert [argv for argv, _, _ in report] == calls
    for argv, code, loaded in report[:-1]:
        assert (code, loaded) == (0, []), argv
    assert report[-1][1] == 0 and "sigcalc.realization" in report[-1][2]


# --- fuzzing main ----------------------------------------------------------------------


# Characters of free text: ASCII letters, digits and punctuation, JSON's
# escapes, controls, a combining mark, joiners and separators, a
# right-to-left override, a byte order mark and two characters outside the
# Basic Multilingual Plane.
_ODD = ("ab01,^ \"\\/{}[]\x00\x07\t\n\r\x7f\x85"
        "\u00e9\u0301\u200d\u2028\u202e\ufeff\U0001f600\U00010348")


def _text(rng, max_size, alphabet=_ODD):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_size)))


def _expression(rng, leaves, wraps, budget):
    """A sum, product or wrap of random leaves, with at most `budget` leaves
    and wraps in all."""
    r = rng.random()
    if budget <= 1 or r < 0.3:
        return rng.choice(leaves)
    if r < 0.65:
        left = rng.randint(1, budget - 1)
        return (_expression(rng, leaves, wraps, left) + rng.choice("+*")
                + _expression(rng, leaves, wraps, budget - left))
    return rng.choice(wraps).format(_expression(rng, leaves, wraps, budget - 1))


def _term(rng):
    """A signature term, well formed or free text over its alphabet."""
    if rng.random() < 0.5:
        return _text(rng, 12, "01+*()expE ")
    return _expression(rng, ["0", "1"], ["exp({})", "E({})", "({})"], 6)


_PAIR_KEYS = ["0,1", "0,2", "1,2", "0,3", "1,3", "2,3", "1,0", "a,b", "0"]
_PAIR_VALUES = [-1, 0, 1, 2, 3, 4, True, 1.5, None, "1"]


def _signature_json(rng):
    """A signature document: "n", and maybe "o" and "labels", each of the
    right type or not."""
    doc = {"n": rng.choice([-1, 0, 1, 2, 3, 4, "2", True, None])}
    if rng.random() < 0.5:
        doc["o"] = rng.choice([
            {rng.choice(_PAIR_KEYS): rng.choice(_PAIR_VALUES) for _ in range(rng.randint(0, 6))},
            [1], None])
    if rng.random() < 0.5:
        doc["labels"] = rng.choice([[_text(rng, 2) for _ in range(rng.randint(0, 4))], "ab"])
    return json.dumps(doc)


def _signature(rng):
    return _term(rng) if rng.random() < 0.5 else _signature_json(rng)


def _ordinal(rng):
    """An ordinal expression, well formed or free text over its alphabet."""
    if rng.random() < 0.5:
        return _text(rng, 10, "012w^+*() ")
    return _expression(rng, ["0", "1", "2", "w"], ["w^({})", "({})"], 5)


# Coordinates: fractions whose denominator may be 0, numbers, and JSON floats
# that are not finite.
_COORDS = ["0", "1", "1/2", "x", 0, 1, 0.5, True, None, float("inf"), float("nan")]


def _coord(rng):
    if rng.random() < 0.5:
        return "%d/%d" % (rng.randint(0, 4), rng.randint(0, 4))
    return rng.choice(_COORDS)


_SETS = [PAIR1, NOT_SGEN, NOT_FAST, TWO_BUMPS]


def _genset(rng):
    """A generating-set document: a valid set, one with a coordinate replaced
    where the loader reads it, an array of functions with random fields, or
    a document of the wrong shape."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(_SETS)
    if kind == 1:
        doc = json.loads(rng.choice(_SETS))
        f = rng.choice(doc)
        if rng.random() < 0.5:
            rng.choice(f["breakpoints"])[rng.randrange(2)] = _coord(rng)
        else:
            f["markers"][rng.randrange(len(f["markers"]))] = _coord(rng)
        return json.dumps(doc)
    if kind == 2:
        doc = []
        for _ in range(rng.randint(0, 3)):
            f = {"breakpoints": [[_coord(rng), _coord(rng)] for _ in range(rng.randint(0, 5))],
                 "markers": [_coord(rng) for _ in range(rng.randint(0, 2))]}
            if rng.random() < 0.5:
                f["name"] = rng.choice([_text(rng, 3), rng.randint(-10 ** 6, 10 ** 6), None])
            doc.append(f)
        return json.dumps(doc)
    return json.dumps(rng.choice([[1], {"a": 1}, "x", None]))


_BAD_TOKENS = ["0", "1^2", "0^-1", "a", "1,x", "0,1,2", "1^2^3"]


def _word(rng):
    """Up to four tokens: index,exponent pairs, with indices and exponents
    out of range too, and tokens in the other forms, malformed ones among
    them."""
    return " ".join("%d,%d" % (rng.randint(-1, 3), rng.randint(-3, 3)) if rng.random() < 0.5
                    else rng.choice(_BAD_TOKENS) for _ in range(rng.randint(0, 4)))


_ARGV = [
    lambda rng: ["ord", _ordinal(rng)],
    lambda rng: ["ord", _ordinal(rng), rng.choice(["cmp", "add", "mul"]), _ordinal(rng)],
    lambda rng: [rng.choice(["rho", "normalize", "realize", "rotate"]), _signature(rng)],
    lambda rng: ["leq", _signature(rng), _signature(rng)],
    lambda rng: ["inflate", rng.choice([_signature, _genset])(rng), "--at=%d" % rng.randint(-1, 4)],
    lambda rng: [rng.choice(["ea", "materialize"]), _ordinal(rng)],
    lambda rng: ["ea", _ordinal(rng), "--target"],
    lambda rng: [rng.choice(["signature", "diagram", "verify", "rotate"]), _genset(rng)],
    lambda rng: ["predicates", _genset(rng), "--x=" + _word(rng), "--y=" + _word(rng)]
    + ([] if rng.random() < 0.5 else ["--z=" + _word(rng)]),
    lambda rng: ["enumerate", "--n=%d" % rng.randint(-1, 6), "--vmax=%d" % rng.randint(-1, 6)],
]

# Each coordinate that is not a plain fraction, where the loader reads it: in
# a breakpoint of a valid set, and as its marker
_SPECIAL_COORDS = ["1/0", float("inf"), float("nan"), 0.5, True, None]
_EXPLICIT_ARGV = [
    ["signature", '[{"breakpoints": [["0","0"],["1/0","1"]], "markers": []}]'],
    ["verify", one_function(markers=["1/0"])],
    *(["signature", one_function(breakpoints=[["0", "0"], [c, "1/4"], ["1/2", "3/4"], [1, 1]])]
      for c in _SPECIAL_COORDS),
    *(["verify", one_function(markers=[c])] for c in _SPECIAL_COORDS),
    ["diagram", one_function(name="\ud800")],  # a name no encoding takes
]


def test_main_survives_generated_input():
    seed = "main"
    rng = random.Random(seed)
    cases = _EXPLICIT_ARGV + [rng.choice(_ARGV)(rng) for _ in range(100)]
    for i, argv in enumerate(cases):
        where = f"case {i} of seed {seed!r}: {argv!r}"
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as e:
            raise AssertionError(f"{where} raised {e!r}") from e
        assert code in (0, 1, 2), where
        assert err.getvalue().count("\n") <= 1, where
        assert (code == 0) == (err.getvalue() == ""), where
