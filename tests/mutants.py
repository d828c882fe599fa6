"""Mutants that the named checks must kill, as their own CI step:

    python tests/mutants.py

Each row of MUTANTS names a file under src/ or tests/, the exact text to
replace in it, the text to put there, the checks that must fail, and what the
row guards.  For each row the script copies src/, tests/, bench/ and
pyproject.toml to a temp dir, makes the one edit there, and runs only the
row's checks in a fresh process: pytest node ids in one run of pytest with
`-W error`, and any other check as a script under the copy with its
arguments.  A mutant is killed when a check fails.  A row whose old text is
not found exactly once is refused, and so is every row when its checks fail
on the unmutated copy.  The working tree is never edited.  Exits 1 when a
row is refused or a mutant survives, listing each.
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml")  # some tests read bench/inputs.py


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    checks: Sequence[str]  # pytest node ids, or "script.py args" run from the copy's root
    guards: str


CLI, WORDS, SIGNATURE = "src/sigcalc/cli.py", "src/sigcalc/realization/words.py", "src/sigcalc/signature.py"
BUILD, GENSET = "src/sigcalc/realization/build.py", "src/sigcalc/realization/genset.py"
MARKED = "src/sigcalc/realization/marked.py"
REALIZATION, TEST_CLI = "tests/test_realization.py", "tests/test_cli.py"
TEST_SIGNATURE = "tests/test_signature.py"
WALK_CHECKS = [f"{REALIZATION}::test_walk_agrees_with_recursive_definition",
               f"{REALIZATION}::test_is_sgen_exactly_when_signature_of_succeeds"]

MUTANTS = [
    Mutant("src/sigcalc/__init__.py", '__version__ = "0.1.0"',
           'from . import ordinal, signature, normalizer, realization\n\n__version__ = "0.1.0"',
           [f"{TEST_CLI}::test_a_rank_verb_loads_no_pl_code"],
           "importing the package loads no submodule, so a rank verb loads no PL code"),
    Mutant(CLI, "except (SignatureError, RealizationError, OutsideComputedFamily) as e:",
           "except (SignatureError, OutsideComputedFamily) as e:",
           [f"{TEST_CLI}::test_build_depth_is_a_domain_error"],
           "a domain error of the PL layer exits 1 with one line, not a traceback"),
    Mutant(CLI, "is_path = os.access(arg, os.F_OK)", "is_path = os.path.isfile(arg)",
           [f"{TEST_CLI}::test_a_pipe_is_read_as_a_file_argument"],
           "a file argument that names a pipe, such as /dev/stdin, is read"),
    Mutant(WORDS, '{"C": pred_C(x, y), "D": pred_D(x, y)}', '{"C": pred_D(x, y), "D": pred_C(x, y)}',
           [f"{TEST_CLI}::test_predicates"],
           "`predicates` reports C and D under their own names on realized sets"),
    Mutant(SIGNATURE, '.replace("exp", "\\x01").split()', '.replace("exp", "\\x01").split(" ")',
           [f"{TEST_CLI}::test_rho"],
           "a term reads the same whatever its whitespace, a tab included"),
    Mutant(SIGNATURE, "hi = lo + 1 + len(", "hi = lo + len(",
           [f"{TEST_SIGNATURE}::test_decompose_matches_pairwise_past_the_enumerated_bases"],
           "a part ends one past the last nonzero of its first row"),
    Mutant(SIGNATURE, "j * (j - 1) // 2 + i for i, j in _pairs(n)",
           "i * (i - 1) // 2 + j for i, j in _pairs(n)",
           [f"{TEST_SIGNATURE}::test_reader_matches_the_recursive_reader"],
           "a term's column-major values are read at o(i,j)'s column-major index"),
    Mutant(SIGNATURE, "if n > 2 else vals", "if n > 1 else vals",
           [f"{TEST_SIGNATURE}::test_reader_matches_the_recursive_reader"],
           "a term on two leaves keeps its one value, which a one-index getter returns as an int"),
    Mutant(SIGNATURE, "for j in idx[k + 1:]])\n",
           "for j in idx[k + 1:]])\n    if len(idx) < a.n - 1:\n        vals = bytearray(len(vals))\n",
           [f"{REALIZATION}::test_dropping_a_generator_restricts_the_signature"],
           "a subset of two or more fewer generators keeps its restricted values"),
    Mutant(BUILD, "max(rotation.vals[:sig.n - 1]) + 1", "max(rotation.vals[:sig.n - 1]) + 2",
           [f"{REALIZATION}::test_realized_n5_json_is_pinned"],
           "each rotated level reads its largest value against the top, which picks the wrap"),
    Mutant(BUILD, "(fns[1:] + (top,), frames + UNIT)",
           "(fns[1:] + (top,), frames[3:6] + frames[:3] + frames[6:] + UNIT)",
           [f"{REALIZATION}::test_dropping_a_generator_restricts_the_signature"],
           "a wrap keeps each retained generator in its own slot"),
    Mutant(BUILD, "if n * ud < un * d and lo[0] * d < n * lo[1]:",
           "if n * ud < un * d and (lo == M1 or n * lo[1] < lo[0] * d):",
           [f"{REALIZATION}::test_the_wraps_read_the_retained_feet_as_the_merged_spans_do"],
           "the general wrap's left wall is the nearest retained foot end left of u_t"),
    Mutant(BUILD, "_wrap_two(u, v)", "_wrap_two(u, place(frame, (5, 8)))",
           [f"{REALIZATION}::test_build_transports_only_the_general_wraps_rotated_top"],
           "the two-orbital wrap is handed the unit bump's placed support"),
    Mutant(BUILD, "_wrap_two(u, v)", "_wrap_two(u, M2)",
           [f"{REALIZATION}::test_the_wraps_read_the_retained_feet_as_the_merged_spans_do"],
           "no retained foot end lies inside the support the two-orbital wrap is handed"),
    Mutant(BUILD, "bp[:4], bp[-4:] = (0, 1, 0, 1), (1, 1, 1, 1)",
           "bp[:0], bp[-4:] = (0, 1, 0, 1), (1, 1, 1, 1)",
           [f"{REALIZATION}::test_realized_n5_json_is_pinned"],
           "a carried function's (0,0) replaces the image of its (0,0)"),
    Mutant(BUILD, "            == (yn * ud - un * yd) * xd * (un * bd - bn * ud) * ad):",
           "            != (yn * ud - un * yd) * xd * (un * bd - bn * ud) * ad):",
           [f"{REALIZATION}::test_general_wrap_drops_a_collinear_junction"],
           "the general wrap drops (u_t, u_t) only when the slopes into and out of it agree"),
    Mutant(BUILD, "        del middle[0]", "        del middle[-1]",
           [f"{REALIZATION}::test_general_wrap_drops_a_collinear_junction"],
           "the collinear junction dropped is the one at u_t, not the one at v_t"),
    Mutant(MARKED, "PLMap._make(tuple(bp), None, orbs)", "PLMap._make(tuple(bp), None, None)",
           [f"{REALIZATION}::test_transport_computes_no_orbitals"],
           "a rotation of three or more orbitals is handed its kept orbitals, so walks no map"),
    Mutant(GENSET, "key=lambda fi: ends[fi][-1])", "key=lambda fi: ends[fi][0])", WALK_CHECKS,
           "a set is ordered by the right end of each function's last orbital"),
    Mutant(GENSET, "if any(lo2 < hi1 for", "if any(lo2 <= hi1 for", WALK_CHECKS,
           "feet that touch do not overlap"),
    Mutant(GENSET, '"LR"[q // 2 % 2]', '"RL"[q // 2 % 2]',
           ["tests/test_diagram.py::test_diagram_counts_contraction"],
           "each foot keeps its side, which the diagram contracts by"),
    Mutant(GENSET, "return fns[:k] + [fn_rotate(fns[-1])] + fns[k:-1]",
           "return [fn_rotate(fns[-1])] + fns[:-1]",
           [f"{REALIZATION}::test_one_bump_rotation_of_a_bump_moving_points_near_0",
            f"{REALIZATION}::test_o_cut_one_on_realized"],
           "a rotated top goes where the top's summand starts"),
    Mutant(GENSET, "for x, x_conj in _inflated_base(sig, index)]",
           "for x, x_conj in sorted(_inflated_base(sig, index),\n"
           "                                    key=lambda p: (index if p[1] else p[0], p[1]))]",
           [f"{REALIZATION}::test_o_cut_one_on_realized"],
           "an inflation's conjugates go before its square"),
]


def copy_tree(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy(src, dest)


def checks_pass(root: str, checks: Sequence[str]) -> bool:
    """Whether every check passes in the copy at root, each run in a fresh process."""
    ids = [c for c in checks if "::" in c]
    runs = [["-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider", *ids]] if ids else []
    runs += [shlex.split(c) for c in checks if "::" not in c]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(os.path.join(root, d) for d in ("src", "tests")))
    return all(subprocess.run([sys.executable, *argv], cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0 for argv in runs)


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        if not checks_pass(clean, sorted({c for m in MUTANTS for c in m.checks})):
            print("refused: the named checks fail on the unmutated copy")
            return 1
        for i, m in enumerate(MUTANTS):
            row = os.path.join(tmp, f"row{i}")
            copy_tree(row)
            path = os.path.join(row, m.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(m.old) != 1:
                faults.append(f"row {i} refused: its old text is found {text.count(m.old)} times in {m.path}")
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(m.old, m.new))
                if checks_pass(row, m.checks):
                    faults.append(f"row {i} survived: {m.path}: {m.guards}")
                else:
                    print(f"row {i} killed: {m.path}: {m.guards}", flush=True)
            shutil.rmtree(row)
    for fault in faults:
        print(fault)
    print(f"{len(MUTANTS) - len(faults)} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
