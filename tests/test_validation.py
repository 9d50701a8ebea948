"""Every input check of the library raises its type with its message."""

import numpy as np
import pytest

from condgrad import lloo_simplex
from condgrad.cli import run_suite
from condgrad.core import DomainError, OraclePoint
from condgrad.problems import (
    LogisticOracle,
    PoissonOracle,
    PortfolioOracle,
    ParseError,
    gen_binary_design,
    gen_logistic_data,
    gen_portfolio_data,
    load_returns_csv,
    parse_libsvm,
    poisson_problem,
)
from condgrad.sets import L1Ball, NonnegL1Ball, Simplex
from condgrad.solvers import RunConfig, lloo_fw_solve, read_trace_csv
from condgrad.steps import analytic_step, backtrack_step, exact_line_search, init_lipschitz


def outside_point():
    """A point of a 1 x 2 portfolio whose image -0.5 leaves the domain."""
    return PortfolioOracle([[1.0, 1.0]]).point(np.array([-1.0, 0.5]))


def outside_base_point():
    """The same point through the four-method base class."""
    return OraclePoint(PortfolioOracle([[1.0, 1.0]]), np.array([-1.0, 0.5]))


def lloo_run(sigma_f):
    """An lloo solve of a 2 x 2 portfolio with the strong-convexity parameter sigma_f."""
    config = RunConfig(epsilon=1e-6, max_iter=10, policy="lloo")
    return lloo_fw_solve(PortfolioOracle([[1.0, 2.0], [2.0, 1.0]]), lloo_simplex, config, sigma_f)


def write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


CASES = [
    ("portfolio-1d", lambda tmp: PortfolioOracle([1.0, 2.0]), ValueError, "returns must be a T x n matrix"),
    (
        # 1e300 * 1e300 overflows, so the curvature 1/z^2 would read as 0
        "portfolio-entry-1e300",
        lambda tmp: PortfolioOracle([[1e300, 1.0]]),
        ValueError,
        "returns matrix entries must be at most 1.34e154: the curvature 1/z^2 underflows above",
    ),
    (
        "poisson-count-shape",
        lambda tmp: PoissonOracle([[1.0, 0.0]], [1.0, 1.0]),
        ValueError,
        "weights must be m x n with one count per row",
    ),
    ("poisson-negative", lambda tmp: PoissonOracle([[1.0, -1.0]], [1.0]), ValueError, "weights must be nonnegative"),
    (
        "poisson-count-inf",
        lambda tmp: PoissonOracle([[1.0, 0.0]], [np.inf]),
        ValueError,
        "counts must be nonnegative integers",
    ),
    ("logistic-label-nan", lambda tmp: LogisticOracle([[1.0, 0.0]], [np.nan]), ValueError, "labels must be finite"),
    ("logistic-mu-inf", lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0], mu=np.inf), ValueError, "mu must be finite"),
    (
        "logistic-gamma-inf",
        lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0], gamma=np.inf),
        ValueError,
        "gamma must be finite",
    ),
    ("libsvm-label-nan", lambda tmp: parse_libsvm("nan 1:1\n"), ParseError, "line 1: non-finite label 'nan'"),
    ("libsvm-value-inf", lambda tmp: parse_libsvm("+1 2:-inf\n"), ParseError, "line 1: non-finite value in '2:-inf'"),
    (
        "logistic-label-shape",
        lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0, -1.0]),
        ValueError,
        "features must be N x n with one label per row",
    ),
    ("logistic-gamma", lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0], gamma=0.0), ValueError, "gamma must be positive"),
    (
        # 5e-324 * 5e-301 underflows the start image to 0
        "poisson-start-underflow",
        lambda tmp: poisson_problem([[5e-324, 0.0]], [1.0], radius=1e-300),
        ValueError,
        "count rows leave the canonical start outside the domain",
    ),
    ("portfolio-data-size", lambda tmp: gen_portfolio_data(0, 3, 1), ValueError, "T must be at least 1, got 0"),
    ("design-rows", lambda tmp: gen_binary_design(0, 3, 0.2, 1), ValueError, "m must be at least 1, got 0"),
    ("design-columns", lambda tmp: gen_binary_design(5, 0, 0.2, 1), ValueError, "n must be at least 1, got 0"),
    ("design-columns-negative", lambda tmp: gen_binary_design(5, -2, 0.2, 1), ValueError, "n must be at least 1, got -2"),
    ("design-density-nan", lambda tmp: gen_binary_design(5, 3, np.nan, 1), ValueError, "density must be finite"),
    ("design-density-negative", lambda tmp: gen_binary_design(5, 3, -0.1, 1), ValueError, "density must lie in [0, 1]"),
    ("design-density-above-1", lambda tmp: gen_binary_design(5, 3, 1.5, 1), ValueError, "density must lie in [0, 1]"),
    ("logistic-data-rows", lambda tmp: gen_logistic_data(0, 3, 1), ValueError, "N must be at least 1, got 0"),
    ("logistic-data-columns", lambda tmp: gen_logistic_data(5, -1, 1), ValueError, "n must be at least 1, got -1"),
    (
        "returns-header",
        lambda tmp: load_returns_csv(write(tmp, "r.csv", "3,2\n1,1\n")),
        ValueError,
        "returns CSV must start with a `T,n,seed` line",
    ),
    ("simplex-dim", lambda tmp: Simplex(0), ValueError, "dimension must be at least 1, got 0"),
    ("simplex-dim-float", lambda tmp: Simplex(2.5), ValueError, "dimension must be an integer, got 2.5"),
    ("simplex-dim-integral-float", lambda tmp: Simplex(2.0), ValueError, "dimension must be an integer, got 2.0"),
    ("l1-dim-bool", lambda tmp: L1Ball(True, 1.0), ValueError, "dimension must be an integer, got True"),
    ("nonneg-l1-dim-float", lambda tmp: NonnegL1Ball(3.0, 1.0), ValueError, "dimension must be an integer, got 3.0"),
    ("l1-dim", lambda tmp: L1Ball(0, 1.0), ValueError, "dimension must be at least 1, got 0"),
    ("l1-radius", lambda tmp: L1Ball(2, 0.0), ValueError, "radius must be positive"),
    ("l1-radius-inf", lambda tmp: L1Ball(2, np.inf), ValueError, "radius must be finite"),
    ("nonneg-l1-dim", lambda tmp: NonnegL1Ball(0, 1.0), ValueError, "dimension must be at least 1, got 0"),
    ("nonneg-l1-radius", lambda tmp: NonnegL1Ball(2, -1.0), ValueError, "radius must be positive"),
    ("nonneg-l1-radius-nan", lambda tmp: NonnegL1Ball(2, np.nan), ValueError, "radius must be finite"),
    (
        "trace-header",
        lambda tmp: read_trace_csv(write(tmp, "t.csv", "k,f,gap\n")),
        ValueError,
        lambda tmp: f"{tmp / 't.csv'}: unexpected trace header 'k,f,gap'",
    ),
    (
        "lloo-shapes",
        lambda tmp: lloo_simplex(np.array([0.5, 0.5]), 0.1, np.ones(3)),
        ValueError,
        "center and cost must be 1-D vectors of equal length",
    ),
    (
        "lloo-cost-2d",
        lambda tmp: lloo_simplex(np.array([0.5, 0.5]), 0.1, np.ones((1, 2))),
        ValueError,
        "center and cost must be 1-D vectors of equal length",
    ),
    ("analytic-negative-e", lambda tmp: analytic_step(1.0, -1.0, 2.0), ValueError, "local distance e must be nonnegative"),
    (
        "backtrack-outside",
        lambda tmp: backtrack_step(outside_point(), np.array([1.0, 0.0]), 1.0, 1.0),
        DomainError,
        "backtrack_step: point outside the objective domain",
    ),
    (
        "init-lipschitz-outside",
        lambda tmp: init_lipschitz(outside_point(), np.array([1.0, 0.0])),
        DomainError,
        "init_lipschitz: point outside the objective domain",
    ),
    (
        "line-search-outside",
        lambda tmp: exact_line_search(outside_point(), np.array([1.0, 0.0])),
        DomainError,
        "exact_line_search: point outside the objective domain",
    ),
    (
        "line-search-outside-base-point",
        lambda tmp: exact_line_search(outside_base_point(), np.array([1.0, 0.0])),
        DomainError,
        "exact_line_search: point outside the objective domain",
    ),
    (
        "change-outside",
        lambda tmp: outside_point().change(0.5, np.array([1.0, 0.0])),
        DomainError,
        "change: point outside the objective domain",
    ),
    (
        "change-outside-base-point",
        lambda tmp: outside_base_point().change(0.5, np.array([1.0, 0.0])),
        DomainError,
        "change: point outside the objective domain",
    ),
    ("config-eps-inf", lambda tmp: RunConfig(epsilon=np.inf, max_iter=10), ValueError, "epsilon must be finite"),
    ("config-eps-nan", lambda tmp: RunConfig(epsilon=np.nan, max_iter=10), ValueError, "epsilon must be finite"),
    ("config-eps-bool", lambda tmp: RunConfig(epsilon=True, max_iter=10), ValueError, "epsilon must be a number, got True"),
    (
        "config-max-iter-float",
        lambda tmp: RunConfig(epsilon=1e-3, max_iter=2.5),
        ValueError,
        "max_iter must be an integer, got 2.5",
    ),
    (
        "config-max-iter-bool",
        lambda tmp: RunConfig(epsilon=1e-3, max_iter=True),
        ValueError,
        "max_iter must be an integer, got True",
    ),
    ("lloo-sigma-zero", lambda tmp: lloo_run(0.0), ValueError, "sigma_f must be positive"),
    ("lloo-sigma-nan", lambda tmp: lloo_run(np.nan), ValueError, "sigma_f must be finite"),
    ("lloo-sigma-inf", lambda tmp: lloo_run(np.inf), ValueError, "sigma_f must be finite"),
    (
        "bench-unknown-kind",
        lambda tmp: run_suite({"problems": [{"kind": "lasso"}]}, tmp / "out"),
        ValueError,
        "unknown problem kind 'lasso'",
    ),
    (
        "bench-poisson-no-columns",
        lambda tmp: run_suite({"problems": [{"kind": "poisson", "m": 5, "n": 0}]}, tmp / "out"),
        ValueError,
        "poisson problem spec 'n' must be at least 1, got 0",
    ),
    (
        "bench-eps-grid-nan",
        lambda tmp: run_suite({"problems": [], "eps_grid": [0.1, float("nan")]}, tmp / "out"),
        ValueError,
        "eps_grid entry must be finite",
    ),
    (
        "bench-eps-grid-negative",
        lambda tmp: run_suite({"problems": [], "eps_grid": [-1e-3]}, tmp / "out"),
        ValueError,
        "eps_grid entry must be nonnegative, got -0.001",
    ),
    (
        "bench-gap-tol-nan",
        lambda tmp: run_suite({"problems": [{"kind": "portfolio", "T": 3, "n": 2}], "gap_tol": np.nan}, tmp / "out"),
        ValueError,
        "bench config 'gap_tol' must be finite",
    ),
]

# Every scalar argument checked by one of core's rules, as (id, a call
# with the value, the name its message gives, the rule) ...
SCALAR_ARGS = [
    ("config-eps", lambda v: RunConfig(epsilon=v, max_iter=10), "epsilon", "positive_real"),
    ("config-max-iter", lambda v: RunConfig(epsilon=1e-3, max_iter=v), "max_iter", "positive_int"),
    ("lloo-sigma", lloo_run, "sigma_f", "positive_real"),
    ("simplex-dim", Simplex, "dimension", "positive_int"),
    ("l1-dim", lambda v: L1Ball(v, 1.0), "dimension", "positive_int"),
    ("nonneg-l1-dim", lambda v: NonnegL1Ball(v, 1.0), "dimension", "positive_int"),
    ("l1-radius", lambda v: L1Ball(2, v), "radius", "positive_real"),
    ("nonneg-l1-radius", lambda v: NonnegL1Ball(2, v), "radius", "positive_real"),
    ("logistic-mu", lambda v: LogisticOracle([[1.0, 0.0]], [1.0], mu=v), "mu", "finite_real"),
    ("logistic-gamma", lambda v: LogisticOracle([[1.0, 0.0]], [1.0], gamma=v), "gamma", "positive_real"),
    ("portfolio-data-T", lambda v: gen_portfolio_data(v, 3, 1), "T", "positive_int"),
    ("portfolio-data-n", lambda v: gen_portfolio_data(3, v, 1), "n", "positive_int"),
    ("design-m", lambda v: gen_binary_design(v, 3, 0.2, 1), "m", "positive_int"),
    ("design-n", lambda v: gen_binary_design(5, v, 0.2, 1), "n", "positive_int"),
    ("design-density", lambda v: gen_binary_design(5, 3, v, 1), "density", "finite_real"),
    ("logistic-data-N", lambda v: gen_logistic_data(v, 3, 1), "N", "positive_int"),
    ("logistic-data-n", lambda v: gen_logistic_data(5, v, 1), "n", "positive_int"),
    ("portfolio-data-seed", lambda v: gen_portfolio_data(3, 3, v), "seed", "integer"),
    ("design-seed", lambda v: gen_binary_design(5, 3, 0.2, v), "seed", "integer"),
    ("logistic-data-seed", lambda v: gen_logistic_data(5, 3, v), "seed", "integer"),
]
# ... and each rule's bad values, as (id, value, message after the name)
_NOT_NUMBERS = [("str", "1"), ("none", None), ("list", [1]), ("bool", True), ("np-bool", np.bool_(True))]
_FINITE = [(vid, v, f"must be a number, got {v!r}") for vid, v in _NOT_NUMBERS] + [
    ("nan", np.nan, "must be finite"),
    ("inf", np.inf, "must be finite"),
    ("huge", 10**400, "must be finite"),
]
_INTEGER = [
    (vid, v, f"must be an integer, got {v!r}")
    for vid, v in _NOT_NUMBERS + [("nan", np.nan), ("inf", np.inf), ("float", 2.5), ("integral-float", 2.0)]
]
BAD_VALUES = {
    "finite_real": _FINITE,
    "positive_real": _FINITE + [("zero", 0.0, "must be positive"), ("negative", -1.0, "must be positive")],
    "integer": _INTEGER,
    "positive_int": _INTEGER + [("zero", 0, "must be at least 1, got 0"), ("negative", -1, "must be at least 1, got -1")],
}
# a pair already written above is not repeated; gamma=None asks for its default 1/N
_SKIP = {case[0] for case in CASES} | {"logistic-gamma-none"}
CASES += [
    (f"{arg}-{vid}", lambda tmp, call=call, v=v: call(v), ValueError, f"{name} {message}")
    for arg, call, name, rule in SCALAR_ARGS
    for vid, v, message in BAD_VALUES[rule]
    if f"{arg}-{vid}" not in _SKIP
]


@pytest.mark.parametrize("call, exc, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises(tmp_path, call, exc, message):
    # a message that names a file is a function of the test's directory
    if callable(message):
        message = message(tmp_path)
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert type(info.value) is exc
    assert str(info.value) == message
