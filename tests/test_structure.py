"""Structure rules of the library's modules.

No module imports another module's private name.  A name that starts
with one underscore belongs to its module: another condgrad module that
needs it should get a public name, or the code that uses it should move
next to it.  The check reads ``from ... import`` statements only,
relative (``from .sets import _x``) or absolute (``from
condgrad.sets import _x``).  Attribute access such as
``point._require_domain`` or ``prob._something`` is out of its scope.

Only ``core`` imports ``numbers`` or tests a value's number type with
``isinstance`` (``bool``, ``int``, ``float``, a ``numbers`` or a numpy
scalar class): its ``finite_real``, ``positive_real``, ``integer`` and
``positive_int`` state the type rules of scalar arguments once.

``cli`` builds a profile table in one place: ``table_from_trace_dir``
is the one function that calls ``RunRecord`` or ``build_profile_table``,
so ``bench`` and ``profile`` read the same traces into the same table.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "condgrad"


def private_imports(source, filename="<source>"):
    """(line, module, name) of every private name a condgrad import brings in."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "condgrad":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_a_private_name(path):
    assert private_imports((SRC / path).read_text(), path) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .sets import Simplex, _argmin_finite\n", [(1, ".sets", "_argmin_finite")]),
        ("from condgrad.sets import _cost as cost\n", [(1, "condgrad.sets", "_cost")]),
        ("from . import _helpers\n", [(1, ".", "_helpers")]),
        ("def f():\n    from ..core import _x\n", [(2, "..core", "_x")]),
        ("from . import __version__\nfrom numpy import _NoValue\nfrom .sets import Simplex\n", []),
    ],
)
def test_the_check_reads_relative_and_absolute_imports(source, found):
    assert private_imports(source) == found


def imported_modules(source, filename="<source>"):
    """The top-level name of every module an import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py"))
def test_only_core_imports_numbers(path):
    assert "numbers" not in imported_modules((SRC / path).read_text(), path)


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numbers\n", {"numbers"}),
        ("from numbers import Integral\n", {"numbers"}),
        ("import numpy as np, os.path\nfrom . import numbers\n", {"numpy", "os"}),
    ],
)
def test_the_import_check_reads_both_forms(source, found):
    assert imported_modules(source) == found


_BUILTIN_NUMBERS = {"bool", "int", "float", "complex"}
_NUMPY_NUMBERS = {"bool_", "number", "integer", "signedinteger", "unsignedinteger", "inexact", "floating", "float64", "int64"}


def number_type_tests(source, filename="<source>"):
    """(line, class) of every number class an ``isinstance`` call tests against."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        for cls in ast.walk(node.args[1]):
            if isinstance(cls, ast.Name) and cls.id in _BUILTIN_NUMBERS:
                found.append((node.lineno, cls.id))
            elif isinstance(cls, ast.Attribute) and isinstance(cls.value, ast.Name) and (
                cls.value.id == "numbers" or cls.value.id in ("np", "numpy") and cls.attr in _NUMPY_NUMBERS
            ):
                found.append((node.lineno, f"{cls.value.id}.{cls.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py"))
def test_only_core_tests_a_number_type(path):
    assert number_type_tests((SRC / path).read_text(), path) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("isinstance(v, bool)\n", [(1, "bool")]),
        ("if isinstance(v, (int, float)):\n    pass\n", [(1, "int"), (1, "float")]),
        ("isinstance(v, numbers.Real)\nisinstance(v, np.integer)\n", [(1, "numbers.Real"), (2, "np.integer")]),
        ("isinstance(v, (str, tuple, np.ndarray))\nisinstance(v, dict)\n", []),
    ],
)
def test_the_number_type_check_reads_names_and_attributes(source, found):
    assert number_type_tests(source) == found


PROFILE_PRODUCERS = {"RunRecord", "build_profile_table"}


def profile_producer_calls(source, filename="<source>"):
    """(function, name) of every call of a PROFILE_PRODUCERS name, with the
    top-level function or class it sits in (None at module level), sorted."""
    found = []
    for top in ast.parse(source, filename=filename).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PROFILE_PRODUCERS:
                found.append((owner, name))
    return sorted(found, key=lambda pair: (pair[0] or "", pair[1]))


def test_cli_builds_a_profile_table_in_one_place():
    assert profile_producer_calls((SRC / "cli.py").read_text(), "cli.py") == [
        ("table_from_trace_dir", "RunRecord"),
        ("table_from_trace_dir", "build_profile_table"),
    ]


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(rs):\n    return build_profile_table([RunRecord(*r) for r in rs])\n",
         [("f", "RunRecord"), ("f", "build_profile_table")]),
        ("def g():\n    return profiles.build_profile_table([])\n", [("g", "build_profile_table")]),
        ("table = build_profile_table(records)\n", [(None, "build_profile_table")]),
        ("from .profiles import RunRecord, build_profile_table\nmake = RunRecord\n", []),
    ],
)
def test_the_producer_check_reads_names_attributes_and_owners(source, found):
    assert profile_producer_calls(source) == found
