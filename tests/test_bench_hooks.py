"""The library names the benchmark under perfbench/ reads still resolve.

The benchmark's files are loaded from the checkout the way it loads them
itself; a rename in the library that breaks a traced or untraced run
fails here instead.
"""

import dataclasses
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

from conftest import FourCalls

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


def test_traced_solves_record_every_solver_span(spans):
    # one tiny solve per method on a simplex and an l1-ball instance, traced
    # the way the benchmark traces them: each span must record a call, not
    # just wrap a name the solvers no longer look up
    tracer = spans.Tracer()
    problems = [
        portfolio_problem(gen_portfolio_data(12, 4, 0)),
        poisson_problem(gen_binary_design(20, 5, 0.3, 0), np.ones(20)),
    ]
    with spans.patched(tracer):
        for oracle, fs in problems:
            oracle, fs = spans.TracedOracle(tracer, oracle), spans.TracedSet(tracer, fs)
            for method in cli.METHODS:
                if method != "lloo" or fs.kind == "simplex":
                    cli.run_one(oracle, fs, method, 1e-6, 50)
    calls = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
    recorded = {name for name, n in zip(tracer.names, calls) if n}
    expected = {name for _, _, name in spans.PATCHES if name.split(".")[0] in ("solvers", "core", "steps")}
    expected |= {f"problems.{call}" for call in spans.ORACLE_CALLS}
    expected |= {"lloo.lloo_simplex", "sets.lmo", "sets.contains", "cli.run_one"}
    assert sorted(expected - recorded) == []


def answers(trace):
    """Everything a solve returns except `time_ns`, floats by their exact repr."""
    records = [dataclasses.replace(r, time_ns=0) for r in trace.records]
    return repr(records), trace.final_x.tobytes(), trace.termination, repr(trace.init_lipschitz)


@pytest.mark.parametrize("method", cli.METHODS)
def test_traced_solve_gives_the_untraced_answers(spans, method):
    # --trace 1 must time the program the untraced runs execute: the spans
    # and patched call sites may add time but never change a bit of an answer
    problems = [
        portfolio_problem(gen_portfolio_data(12, 4, 0)),
        poisson_problem(gen_binary_design(20, 5, 0.3, 0), np.ones(20)),
        logistic_problem(*gen_logistic_data(30, 10, 0)),
    ]
    for oracle, fs in problems:
        if method == "lloo" and fs.kind != "simplex":
            continue
        untraced = cli.run_one(FourCalls(oracle), fs, method, 1e-6, 50)
        tracer = spans.Tracer()
        with spans.patched(tracer):
            traced = cli.run_one(spans.TracedOracle(tracer, oracle), spans.TracedSet(tracer, fs), method, 1e-6, 50)
        calls = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
        assert calls[tracer.names.index("sets.lmo")] > 0
        assert answers(traced) == answers(untraced)


def test_traced_line_search_probes_derivatives(spans):
    # the base point's slope reads the gradient and a Hessian product per
    # probe of the line, so a traced search shows both under its span
    oracle, fs = poisson_problem(gen_binary_design(20, 5, 0.3, 0), np.ones(20))
    tracer = spans.Tracer()
    with spans.patched(tracer):
        cli.run_one(
            spans.TracedOracle(tracer, oracle),
            spans.TracedSet(tracer, fs),
            "line_search",
            1e-6,
            50,
        )
    a = tracer.arrays()
    name_of = np.array(tracer.names)[a["name_id"]]
    parent = a["parent"]
    under_search = (parent >= 0) & (name_of[np.maximum(parent, 0)] == "steps.exact_line_search")
    for call in ("problems.gradient", "problems.hess_vec"):
        assert np.count_nonzero(under_search & (name_of == call)) > 0, call


def test_traced_sigma_takes_the_column_loop(spans):
    # a traced oracle shows the four calls alone, so its sigma comes from the
    # base point's column loop instead of the GLM point's Gram product
    oracle, fs = portfolio_problem(gen_portfolio_data(12, 4, 0))
    x = fs.start_point()
    sigma = solvers.estimate_sigma(oracle, x)
    assert sigma > 0.0
    tracer = spans.Tracer()
    assert solvers.estimate_sigma(spans.TracedOracle(tracer, oracle), x) == pytest.approx(sigma, rel=1e-9)
    calls = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
    assert calls[tracer.names.index("problems.hess_vec")] == oracle.dim
    # each traced lloo solve records its own estimate
    tracer = spans.Tracer()
    with spans.patched(tracer):
        for _ in range(2):
            cli.run_one(spans.TracedOracle(tracer, oracle), spans.TracedSet(tracer, fs), "lloo", 1e-6, 50)
    calls = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
    assert calls[tracer.names.index("solvers.estimate_sigma")] == 2


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
    oracle, _ = build()
    assert workloads.oracle_matrix_bytes(oracle) == oracle.matrix.nbytes


def test_public_names_resolve():
    for name in condgrad.__all__:
        assert hasattr(condgrad, name), name


def test_other_names_the_benchmark_reads():
    assert condgrad.USING_NUMBA is False
    assert steps.GAMMA_UP > 1.0 > steps.GAMMA_DOWN > 0.0
    # oracle, feasible set, method, gap, iteration cap
    inspect.signature(cli.run_one).bind(None, None, "analytic", 1e-6, 10)
