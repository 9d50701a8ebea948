"""Every input check of the library raises its type with its message."""

import numpy as np
import pytest

from condgrad.cli import run_suite
from condgrad.core import DomainError
from condgrad.lloo import lloo_simplex
from condgrad.problems import (
    LogisticOracle,
    PoissonOracle,
    PortfolioOracle,
    ParseError,
    gen_portfolio_data,
    load_returns_csv,
    parse_libsvm,
    poisson_problem,
)
from condgrad.sets import L1Ball, NonnegL1Ball, Simplex
from condgrad.solvers import read_trace_csv
from condgrad.steps import analytic_step, backtrack_step, init_lipschitz


def outside_point():
    """A point of a 1 x 2 portfolio whose image -0.5 leaves the domain."""
    return PortfolioOracle([[1.0, 1.0]]).point(np.array([-1.0, 0.5]))


def write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


CASES = [
    ("portfolio-1d", lambda tmp: PortfolioOracle([1.0, 2.0]), ValueError, "returns must be a T x n matrix"),
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
    ("logistic-mu-inf", lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0], mu=np.inf), ValueError, "mu and gamma must be finite"),
    (
        "logistic-gamma-inf",
        lambda tmp: LogisticOracle([[1.0, 0.0]], [1.0], gamma=np.inf),
        ValueError,
        "mu and gamma must be finite",
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
    ("portfolio-data-size", lambda tmp: gen_portfolio_data(0, 3, 1), ValueError, "matrix dimensions must be positive"),
    (
        "returns-header",
        lambda tmp: load_returns_csv(write(tmp, "r.csv", "3,2\n1,1\n")),
        ValueError,
        "returns CSV must start with a `T,n,seed` line",
    ),
    ("simplex-dim", lambda tmp: Simplex(0), ValueError, "dimension must be >= 1"),
    ("l1-dim", lambda tmp: L1Ball(0, 1.0), ValueError, "dimension must be >= 1"),
    ("l1-radius", lambda tmp: L1Ball(2, 0.0), ValueError, "radius must be positive"),
    ("l1-radius-inf", lambda tmp: L1Ball(2, np.inf), ValueError, "radius must be finite"),
    ("nonneg-l1-dim", lambda tmp: NonnegL1Ball(0, 1.0), ValueError, "dimension must be >= 1"),
    ("nonneg-l1-radius", lambda tmp: NonnegL1Ball(2, -1.0), ValueError, "radius must be positive"),
    ("nonneg-l1-radius-nan", lambda tmp: NonnegL1Ball(2, np.nan), ValueError, "radius must be finite"),
    (
        "trace-header",
        lambda tmp: read_trace_csv(write(tmp, "t.csv", "k,f,gap\n")),
        ValueError,
        "unexpected trace header 'k,f,gap'",
    ),
    (
        "lloo-shapes",
        lambda tmp: lloo_simplex(np.array([0.5, 0.5]), 0.1, np.ones(3)),
        ValueError,
        "center and cost must be 1-D vectors of equal length",
    ),
    ("analytic-negative-e", lambda tmp: analytic_step(1.0, -1.0, 2.0), ValueError, "local distance e must be nonnegative"),
    (
        "backtrack-outside",
        lambda tmp: backtrack_step(outside_point(), np.array([1.0, 0.0]), 1.0, 1.0),
        DomainError,
        "backtrack_step: base point outside the objective domain",
    ),
    (
        "init-lipschitz-outside",
        lambda tmp: init_lipschitz(outside_point(), np.array([1.0, 0.0])),
        DomainError,
        "init_lipschitz: start point outside the objective domain",
    ),
    (
        "bench-unknown-kind",
        lambda tmp: run_suite({"problems": [{"kind": "lasso"}]}, tmp / "out"),
        ValueError,
        "unknown problem kind 'lasso'",
    ),
]


@pytest.mark.parametrize("call, exc, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises(tmp_path, call, exc, message):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert type(info.value) is exc
    assert str(info.value) == message
