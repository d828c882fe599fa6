"""The `raise` statements in src/sigcalc that Tier-1 never runs, as its own CI step:

    PYTHONPATH=src:tests python tests/unreached_raises.py

Runs the Tier-1 suite in this process under a `sys.settrace` line tracer
that records every line run in src/sigcalc, then lists each `raise`
statement (found with `ast`) whose first line never ran.  Exits 1 when a
test fails or a `raise` is unreached.
"""

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sigcalc")


def raises(path: str):
    """(line, enclosing function) of every `raise` statement in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((child.lineno, func))
            walk(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else func)
    walk(tree, "<module>")
    return found


class LineTracer:
    """Records (file, line) for every line run under SRC."""

    def __init__(self):
        self.hits = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None


def main() -> int:
    tracer = LineTracer()
    sys.settrace(tracer._global)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                        os.path.join(ROOT, "tests")])
    sys.settrace(None)
    unreached = []
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, SRC)
                unreached += [(rel, line, func) for line, func in raises(path)
                              if (path, line) not in tracer.hits]
    for rel, line, func in sorted(unreached):
        print(f"src/sigcalc/{rel}:{line}: raise in {func} never runs")
    print(f"{len(unreached)} unreached raise statements")
    return 1 if code or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
