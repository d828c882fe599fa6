"""The `raise` statements in src/sigcalc that Tier-1 never runs, as its own CI step:

    PYTHONPATH=src:tests python tests/unreached_raises.py

Reads each module of src/sigcalc once with `ast`, and compiles it with a call
put before each `raise` that records the line.  A meta-path finder imports
sigcalc's modules from that code, with no bytecode cache, so the Tier-1 suite
runs in this process with no trace function.  Then lists each `raise` whose
call never ran.  Exits 1 when a test fails or a `raise` is unreached.
"""

import ast
import importlib.abc
import os
import sys
from importlib.machinery import PathFinder

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARK = "_raise_reached"  # the module global that records a line


class Marker(ast.NodeTransformer):
    """Puts `_raise_reached(line)` before each `raise`, and lists (line,
    enclosing function) of each."""

    def __init__(self):
        self.found, self.func = [], "<module>"

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        self.found.append((node.lineno, self.func))
        mark = ast.Expr(ast.Call(ast.Name(MARK, ast.Load()), [ast.Constant(node.lineno)], []))
        return [ast.copy_location(mark, node), node]


class MarkedImports(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Imports the package under root from its marked code, compiled when
    made, so an edit made during the run is not counted."""

    def __init__(self, root: str, package: str):
        self.root, self.package = root, package
        self.found = []  # (file, line, enclosing function) of every raise
        self.code, self.reached = {}, {}  # file -> its code; file -> its lines that ran
        for dirpath, _, files in os.walk(os.path.join(root, package)):
            for path in sorted(os.path.join(dirpath, f) for f in files if f.endswith(".py")):
                marker = Marker()
                with open(path, encoding="utf-8") as fh:
                    tree = ast.fix_missing_locations(marker.visit(ast.parse(fh.read(), path)))
                self.code[path] = compile(tree, path, "exec", dont_inherit=True)
                self.reached[path] = set()
                self.found += [(path, line, func) for line, func in marker.found]

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] != self.package:
            return None
        spec = PathFinder.find_spec(name, path or [self.root])
        if spec is not None and spec.origin in self.code:
            spec.loader = self
        return spec

    def exec_module(self, module):
        path = module.__spec__.origin
        module.__dict__[MARK] = self.reached[path].add
        exec(self.code[path], module.__dict__)

    def unreached(self):
        return [(path, line, func) for path, line, func in self.found if line not in self.reached[path]]


def main() -> int:
    marked = MarkedImports(os.path.join(ROOT, "src"), "sigcalc")
    sys.meta_path.insert(0, marked)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                        os.path.join(ROOT, "tests")])
    unreached = marked.unreached()
    for path, line, func in sorted(unreached):
        print(f"{os.path.relpath(path, ROOT)}:{line}: raise in {func} never runs")
    print(f"{len(unreached)} unreached raise statements")
    return 1 if code or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
