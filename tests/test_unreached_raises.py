"""The raise check of tests/unreached_raises.py, on a small module that its
loader marks: a `raise` that runs is not reported, and one that never runs is."""

import importlib.util
import time

import pytest

from unreached_raises import MarkedImports

PROBE = """def f(x):
    if x:
        raise ValueError(x)
    raise KeyError(x)
"""


def test_only_the_raise_that_never_runs_is_reported(tmp_path):
    start = time.perf_counter()
    (tmp_path / "raise_probe").mkdir()
    path = tmp_path / "raise_probe" / "__init__.py"
    path.write_text(PROBE)
    marked = MarkedImports(str(tmp_path), "raise_probe")
    spec = marked.find_spec("raise_probe")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(ValueError):
        module.f(1)
    assert marked.unreached() == [(str(path), 4, "f")]
    assert time.perf_counter() - start < 1
