"""The command-line front end: every verb's success and error paths, the
exit codes 0 (success), 1 (domain error) and 2 (parse error), and the exact
bytes some verbs print."""

import json

import pytest

from sigcalc import cli
from sigcalc.realization import fig_g_set, genset_to_json


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


def test_materialize(capsys):
    assert run(capsys, "materialize", "w^w") == (0, '{"n": 2, "o": {"0,1": 2}}\n', "")
    expect_error(capsys, 2, "materialize", "w^")


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
    expect_error(capsys, 2, "signature", "[1]")
    expect_error(capsys, 2, "signature", "[")


def test_diagram(capsys):
    code, out, _ = run(capsys, "diagram", PAIR1)
    assert code == 0 and out.startswith("digraph dynamical_diagram {")
    expect_error(capsys, 1, "diagram", NOT_FAST)
    expect_error(capsys, 2, "diagram", '[{"markers": []}]')


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


def test_labels_survive_the_json_checks(capsys):
    doc = '{"labels": ["a", "b"], "n": 2, "o": {"0,1": 1}}'
    assert run(capsys, "normalize", doc)[0] == 0
    assert run(capsys, "rotate", doc) == (
        0, '{"labels": ["b^o", "a"], "n": 2, "o": {"0,1": 0}}\n', "")
