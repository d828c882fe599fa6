"""The command-line front end: every verb's success and error paths, the
exit codes 0 (success), 1 (domain error) and 2 (parse error), and the exact
bytes some verbs print."""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sigcalc import cli, realization
from sigcalc.ordinal import MAX_NESTING
from sigcalc.signature import MAX_BASE, MAX_PAIR_VALUE
from sigcalc.realization import RealizationError, diagram, genset_from_json, genset_to_json
from oracles import excise, fig_g_set


def _set_json(fns) -> str:
    """A generating set as the CLI prints it: (breakpoints, markers, name)."""
    return json.dumps([
        {"breakpoints": [list(p) for p in pts], "markers": markers, "name": name}
        for pts, markers, name in fns], indent=2)


# realize 'exp(1+1)': the pair with oscillation 1
PAIR1 = _set_json([
    ([("0", "0"), ("9/16", "9/16"), ("217/384", "77/128"), ("29/48", "29/48"), ("1", "1")],
     ["217/384"], "0"),
    ([("0", "0"), ("19/48", "19/48"), ("7/16", "77/96"), ("15/16", "15/16"), ("1", "1")],
     ["7/16"], "1"),
])
NOT_SGEN = genset_to_json(fig_g_set())
NOT_FAST = _set_json([
    ([("0", "0"), ("1/8", "1/8"), ("5/32", "9/32"), ("3/8", "3/8"), ("1", "1")], ["5/32"], "f"),
    ([("0", "0"), ("1/8", "1/8"), ("5/32", "1/4"), ("5/16", "5/16"), ("1", "1")], ["5/32"], "h"),
])

# one function with two disjoint positive bumps: fast but not standard
TWO_BUMPS = _set_json([
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
    expect_error(capsys, 2, "ord", "w+")
    assert expect_error(capsys, 2, "ord", "w", "mul") == "error: ord mul needs a second ordinal\n"


def test_rho(capsys):
    assert run(capsys, "rho", "exp(1+1)") == (0, "w\n", "")
    assert run(capsys, "rho", "1+1", "--format", "json") == (
        0, '{"mode": "sorted", "rho": "2"}\n', "")
    expect_error(capsys, 2, "rho", "E(1")
    expect_error(capsys, 1, "rho", '{"n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 0}}')


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


def test_materialize(capsys):
    assert run(capsys, "materialize", "w^w") == (0, '{"n": 2, "o": {"0,1": 2}}\n', "")
    expect_error(capsys, 2, "materialize", "w^")


def test_materialize_base_bound(capsys):
    code, out, _ = run(capsys, "materialize", "w^255")
    assert code == 0 and json.loads(out)["n"] == MAX_BASE
    for xi in ("257", "100000", "w^256", "w^200*2", "w^(w^(w^300))"):
        err = expect_error(capsys, 1, "materialize", xi)
        assert err == "error: materialized signature has a base larger than 256\n"


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
    expect_error(capsys, 1, "signature", NOT_SGEN)
    expect_error(capsys, 1, "signature", NOT_FAST)
    expect_error(capsys, 1, "signature", TWO_BUMPS)
    expect_error(capsys, 2, "signature", "[1]")
    expect_error(capsys, 2, "signature", "[")


def test_diagram(capsys):
    code, out, _ = run(capsys, "diagram", PAIR1)
    assert code == 0 and out.startswith("digraph dynamical_diagram {")
    expect_error(capsys, 1, "diagram", NOT_FAST)
    expect_error(capsys, 2, "diagram", '[{"markers": []}]')


def test_diagram_escapes_names(capsys):
    doc = json.loads(PAIR1)
    doc[0]["name"], doc[1]["name"] = 'a"b', "c\\d"
    code, out, _ = run(capsys, "diagram", json.dumps(doc))
    assert code == 0
    assert 'label="a\\"b"' in out and 'label="c\\\\d"' in out


def test_diagram_and_excise_require_a_fast_set():
    fns = genset_from_json(NOT_FAST)
    with pytest.raises(RealizationError):
        diagram(fns)
    with pytest.raises(RealizationError):
        excise(fns)


def test_inflate(capsys):
    assert run(capsys, "inflate", "exp(1+1)", "--at", "1") == (
        0, '{"labels": ["0", "0^1", "1"], "n": 3, "o": {"0,1": 0, "0,2": 1, "1,2": 1}}\n', "")
    want = _set_json([
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


def test_rotate(capsys):
    assert run(capsys, "rotate", "E(1+1)") == (0, '{"n": 2, "o": {"0,1": 1}}\n', "")
    want = _set_json([
        ([("0", "0"), ("19/48", "19/48"), ("5/12", "41/96"), ("7/16", "7/16"), ("1", "1")],
         ["5/12"], "1^o"),
        ([("0", "0"), ("9/16", "9/16"), ("217/384", "77/128"), ("29/48", "29/48"), ("1", "1")],
         ["217/384"], "0"),
    ])
    assert run(capsys, "rotate", PAIR1) == (0, want + "\n", "")
    expect_error(capsys, 2, "rotate", "E(")
    expect_error(capsys, 1, "rotate", NOT_FAST)


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


def test_enumerate(capsys):
    assert run(capsys, "enumerate", "--n", "2", "--vmax", "1") == (
        0, '{"n": 2, "o": {"0,1": 0}}\n{"n": 2, "o": {"0,1": 1}}\ncount: 2\n', "")
    assert run(capsys, "enumerate", "--n", "2", "--vmax", "1", "--format", "json") == (
        0, '[{"n": 2, "o": {"0,1": 0}}, {"n": 2, "o": {"0,1": 1}}]\n', "")
    expect_error(capsys, 1, "enumerate", "--n", "6", "--vmax", "1")


def test_predicates(capsys):
    assert run(capsys, "predicates", PAIR1, "--x", "0", "--y", "1") == (
        0, "C: false\nD: true\n", "")
    assert run(capsys, "predicates", PAIR1, "--x", "0", "--y", "1", "--z", "0,1 1",
               "--format", "json") == (0, '{"C": false, "D": true, "T": false}\n', "")
    assert run(capsys, "predicates", PAIR1, "--x", "0^2", "--y", "0,-1") == (
        0, "C: true\nD: false\n", "")
    expect_error(capsys, 2, "predicates", PAIR1, "--x", "a", "--y", "1")
    expect_error(capsys, 1, "predicates", PAIR1, "--x", "5", "--y", "1")


def test_word_length_bound(capsys):
    assert cli.MAX_WORD_LETTERS == 64
    assert run(capsys, "predicates", PAIR1, "--x", "0^64", "--y", "1") == (
        0, "C: false\nD: true\n", "")
    for word in ("0^65", "0^-65", "0^-64 1", "0,32 1,-33"):
        err = expect_error(capsys, 2, "predicates", PAIR1, "--x", "1", "--y", word)
        assert err == "error: word longer than 64 letters\n"


# --- input limits ---------------------------------------------------------------------


def _nest(opening: str, core: str, depth: int) -> str:
    return opening * depth + core + ")" * depth


def test_nesting_bound(capsys):
    assert MAX_NESTING == 100
    # E( adds 2 to the pair value, so 32 of the 100 levels reach the value bound
    deep = _nest("(", _nest("E(", "1+1", 32), MAX_NESTING - 32)
    code, out, _ = run(capsys, "rho", deep)
    assert code == 0 and out.startswith("w^(w^(")
    assert run(capsys, "normalize", deep) == (0, '{"n": 2, "o": {"0,1": 64}}\n', "")
    code, out, _ = run(capsys, "ord", _nest("w^(", "1", MAX_NESTING))
    assert code == 0 and out.count("w^") == MAX_NESTING - 1
    for argv in (["rho", _nest("E(", "1+1", MAX_NESTING + 1)],
                 ["normalize", _nest("exp(", "1", MAX_NESTING + 1)],
                 ["rho", _nest("(", "1", MAX_NESTING + 1)],
                 ["ord", _nest("w^(", "1", MAX_NESTING + 1)],
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


def test_base_bound(capsys):
    assert MAX_BASE == 256
    assert run(capsys, "rho", "+".join(["1"] * MAX_BASE)) == (0, "256\n", "")
    for term in ("+".join(["1"] * (MAX_BASE + 1)), "*".join(["1"] * 3000), "exp(1)+" * 300 + "0"):
        err = expect_error(capsys, 2, "rho", term)
        leaf = [i for i, ch in enumerate(term) if ch == "1"][MAX_BASE]
        assert err == f"error: cannot parse signature: base larger than 256 (at position {leaf})\n"


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


# --- malformed generating-set documents -----------------------------------------------


def _one_function(breakpoints=(("0", "0"), ("1/4", "1/4"), ("1/2", "3/4"), ("1", "1")),
                  markers=("1/2",), **name):
    return json.dumps([dict(breakpoints=breakpoints, markers=markers, **name)])


@pytest.mark.parametrize("doc", [
    _one_function(breakpoints=[["0", "0"], ["1/0", "1"]], markers=[]),
    _one_function(markers=["1/0"]),
    _one_function(markers=[float("inf")]),
    _one_function(markers=[float("nan")]),
    '[{"breakpoints": [[0, 0], [1e400, 1]], "markers": []}]',
    _one_function(name=5),
    _one_function(name=None),
    _one_function(name=["a"]),
])
def test_malformed_genset_json_is_a_parse_error(capsys, doc):
    assert run(capsys, "signature", _one_function())[0] == 0
    err = expect_error(capsys, 2, "signature", doc)
    assert err.startswith("error: cannot parse generating set: ")


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


# --- fuzzing main ----------------------------------------------------------------------


_TERM = st.recursive(
    st.sampled_from(["0", "1"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("+".join),
        st.tuples(inner, inner).map("*".join),
        inner.map("exp({})".format),
        inner.map("E({})".format),
        inner.map("({})".format)),
    max_leaves=6,
) | st.text("01+*()expE ", max_size=12)

_SIGNATURE_JSON = st.builds(
    lambda doc: json.dumps(doc),
    st.fixed_dictionaries(
        {"n": st.integers(-1, 4) | st.sampled_from(["2", True, None])},
        optional={
            "o": st.dictionaries(
                st.sampled_from(["0,1", "0,2", "1,2", "0,3", "1,3", "2,3", "1,0", "a,b", "0"]),
                st.integers(-1, 4) | st.sampled_from([True, 1.5, None, "1"]), max_size=6)
            | st.sampled_from([[1], None]),
            "labels": st.lists(st.text(max_size=2), max_size=4) | st.just("ab"),
        }))

_SIGNATURE = _TERM | _SIGNATURE_JSON

_ORDINAL = st.recursive(
    st.sampled_from(["0", "1", "2", "w"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("+".join),
        st.tuples(inner, inner).map("*".join),
        inner.map("w^({})".format),
        inner.map("({})".format)),
    max_leaves=5,
) | st.text("012w^+*() ", max_size=10)

# Coordinates: fractions whose denominator may be 0, numbers, and JSON floats
# that are not finite.
_COORD = (st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda pq: "%d/%d" % pq)
          | st.sampled_from(["0", "1", "1/2", "x", 0, 1, 0.5, True, None,
                             float("inf"), float("nan")]))

_GENSET = st.sampled_from([PAIR1, NOT_SGEN, NOT_FAST, TWO_BUMPS]) | st.builds(
    lambda doc: json.dumps(doc),
    st.lists(st.fixed_dictionaries(
        {"breakpoints": st.lists(st.tuples(_COORD, _COORD), max_size=5),
         "markers": st.lists(_COORD, max_size=2)},
        optional={"name": st.text(max_size=3) | st.integers() | st.none()}), max_size=3)
    | st.sampled_from([[1], {"a": 1}, "x", None]))

_WORD = st.lists(
    st.tuples(st.integers(-1, 3), st.integers(-3, 3)).map(lambda ie: "%d,%d" % ie)
    | st.sampled_from(["0", "1^2", "0^-1", "a", "1,x"]), max_size=4).map(" ".join)

_ARGV = st.one_of(
    st.tuples(st.just("ord"), _ORDINAL).map(list),
    st.tuples(st.just("ord"), _ORDINAL, st.sampled_from(["cmp", "add", "mul"]), _ORDINAL)
    .map(list),
    st.tuples(st.sampled_from(["rho", "normalize", "realize", "rotate"]), _SIGNATURE).map(list),
    st.tuples(st.just("leq"), _SIGNATURE, _SIGNATURE).map(list),
    st.tuples(st.just("inflate"), _SIGNATURE | _GENSET, st.integers(-1, 4))
    .map(lambda a: [a[0], a[1], "--at=%d" % a[2]]),
    st.tuples(st.sampled_from(["ea", "materialize"]), _ORDINAL).map(list),
    st.tuples(st.just("ea"), _ORDINAL).map(lambda a: [*a, "--target"]),
    st.tuples(st.sampled_from(["signature", "diagram", "verify", "rotate"]), _GENSET).map(list),
    st.tuples(st.just("predicates"), _GENSET, _WORD, _WORD, st.none() | _WORD).map(
        lambda a: ["predicates", a[1], "--x=" + a[2], "--y=" + a[3]]
        + ([] if a[4] is None else ["--z=" + a[4]])),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(
        lambda nv: ["enumerate", "--n=%d" % nv[0], "--vmax=%d" % nv[1]]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_ARGV)
@example(["signature", '[{"breakpoints": [["0","0"],["1/0","1"]], "markers": []}]'])
@example(["verify", _one_function(markers=["1/0"])])
def test_main_survives_generated_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert (code == 0) == (err.getvalue() == "")
