"""The library names the benchmark under perfbench/ reads still resolve.

The benchmark's files are loaded from the checkout the way it loads them
itself; a rename in the library that breaks a traced or untraced run
fails here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import condgrad
from condgrad import cli, solvers, steps
from condgrad.problems import (
    gen_binary_design,
    gen_logistic_data,
    gen_portfolio_data,
    logistic_problem,
    poisson_problem,
    portfolio_problem,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_patched_call_sites_resolve(spans):
    for owner, attr, _ in spans.PATCHES:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
    assert callable(solvers.Simplex)
    originals = [getattr(owner, attr) for owner, attr, _ in spans.PATCHES]
    with spans.patched(spans.Tracer()):
        pass
    assert [getattr(owner, attr) for owner, attr, _ in spans.PATCHES] == originals


@pytest.mark.parametrize(
    "build",
    [
        lambda: portfolio_problem(gen_portfolio_data(6, 3, 0)),
        lambda: poisson_problem(gen_binary_design(6, 3, 0.5, 0), np.ones(6)),
        lambda: logistic_problem(*gen_logistic_data(6, 3, 0)),
    ],
    ids=["portfolio", "poisson", "logistic"],
)
def test_oracle_matrix_bytes(workloads, build):
    oracle = build().oracle
    assert workloads.oracle_matrix_bytes(oracle) == oracle.matrix.nbytes


def test_public_names_resolve():
    for name in condgrad.__all__:
        assert hasattr(condgrad, name), name


def test_other_names_the_benchmark_reads():
    assert condgrad.USING_NUMBA is False
    assert steps.GAMMA_UP > 1.0 > steps.GAMMA_DOWN > 0.0
    # oracle, feasible set, method, gap, iteration cap
    inspect.signature(cli.run_one).bind(None, None, "analytic", 1e-6, 10)
