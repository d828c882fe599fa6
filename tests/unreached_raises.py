"""The `raise` statements in src/sigcalc that Tier-1 never runs, as its own CI step:

    PYTHONPATH=src:tests python tests/unreached_raises.py

Finds every `raise` statement in src/sigcalc with `ast`, then runs the
Tier-1 suite in this process under a `sys.settrace` tracer that follows, line
by line, only the code objects that hold a `raise` line and records only
those lines, and lists each `raise` whose first line never ran.
Exits 1 when a test fails or a `raise` is unreached.
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
    """Records (file, line) for each of the given lines that runs.  A frame
    is traced line by line only when its code object holds one of them;
    which it holds is read once per code object, from its `co_lines()`."""

    def __init__(self, lines):
        self.lines = lines  # file -> its raise lines
        self.hits = set()
        self._local_of = {}  # code object -> its local tracer, or None

    def _local_for(self, code):
        raise_lines = self.lines.get(code.co_filename, ())
        wanted = raise_lines and {line for _, _, line in code.co_lines() if line in raise_lines}
        if not wanted:
            return None
        hits, path = self.hits, code.co_filename

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in wanted:
                hits.add((path, frame.f_lineno))
            return local
        return local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code not in self._local_of:
            self._local_of[code] = self._local_for(code)
        return self._local_of[code]


def main() -> int:
    found = []  # read before the run, so an edit made during it is not counted
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                found += [(path, line, func) for line, func in raises(path)]
    lines = {}
    for path, line, _ in found:
        lines.setdefault(path, set()).add(line)
    tracer = LineTracer(lines)
    sys.settrace(tracer._global)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                        os.path.join(ROOT, "tests")])
    sys.settrace(None)
    unreached = [(os.path.relpath(path, SRC), line, func) for path, line, func in found
                 if (path, line) not in tracer.hits]
    for rel, line, func in sorted(unreached):
        print(f"src/sigcalc/{rel}:{line}: raise in {func} never runs")
    print(f"{len(unreached)} unreached raise statements")
    return 1 if code or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
