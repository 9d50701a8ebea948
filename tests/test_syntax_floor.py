"""Every Python file parses at the floor of `requires-python`.

This checks syntax only, and only as far as ``ast.parse``'s
``feature_version`` gates it: an ``except*`` clause (3.11) fails here, but
a name that exists only in a newer interpreter, such as the 3.11 code
attribute ``co_qualname``, still gets through.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def floor_version():
    """(major, minor) of the `>=X.Y` floor in pyproject.toml's `requires-python`."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, flags=re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize(
    "path",
    sorted(p.relative_to(ROOT).as_posix() for top in ("src", "tools", "tests") for p in (ROOT / top).rglob("*.py")),
)
def test_parses_at_the_declared_floor(path):
    source = (ROOT / path).read_text()
    ast.parse(source, filename=path, feature_version=floor_version())

