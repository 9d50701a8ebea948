import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_hits.py"


def grid_hits(hash_seed):
    """The tool's stdout for the seed-3 grid pass under PYTHONHASHSEED=hash_seed."""
    return subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--workload", "grid"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    ).stdout


@pytest.fixture(scope="module")
def grid_out():
    return grid_hits(1)


def test_grid_calls_the_driver_once_per_solve_and_never_the_oracle_value(grid_out):
    calls = {}
    for line in grid_out.splitlines():
        count, function, unrun = line.split()
        calls[function] = int(count)
    # 4 instances x 5 methods, lloo on the one simplex instance only
    assert calls["solvers.py:_solve"] == 17
    # the driver's points evaluate f from z; the four-method surface stays idle
    assert calls["problems.py:GlmOracle.value"] == 0


def test_grid_counts_do_not_follow_the_hash_seed(grid_out):
    # a count that walks a set of strings would follow its iteration order
    assert grid_hits(3) == grid_out


def test_walk_names_each_function_as_the_interpreter_does(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    line_hits = importlib.import_module("line_hits")
    found = line_hits.functions()
    names = {qualname for qualname, _ in found.values()}
    # a function, a method and a lambda in a function
    assert {"_solve", "GlmPoint._image_of", "_parse_rows.<locals>.<lambda>"} <= names
    # every function body is found under the key its running frame gives,
    # with the interpreter's own qualname where it has one (Python 3.11+)
    for path in line_hits.SRC.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += line_hits.nested(code)
            if code.co_flags & inspect.CO_OPTIMIZED:
                qualname, _ = found[line_hits.key(code)]
                assert qualname == getattr(code, "co_qualname", qualname)
