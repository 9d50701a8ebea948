"""Projection-free solvers for self-concordant objectives.

Conditional-gradient drivers with curvature-aware adaptive step sizes,
a locally-restricted linearly convergent variant on the simplex,
benchmark problem oracles, and a performance-profile harness.
"""

from .core import DomainError, GapResult, InvariantError, OraclePoint, ScOracle, bregman, dist_like, gap_and_target, local_norm, omega, omega_star
from .lloo import LlooResult, lloo_simplex
from .problems import (
    GlmOracle,
    LogisticOracle,
    LogisticProblem,
    ParseError,
    PoissonOracle,
    PoissonProblem,
    PortfolioOracle,
    PortfolioProblem,
    gen_portfolio_data,
    logistic_oracle,
    parse_libsvm,
    poisson_oracle,
    portfolio_oracle,
    portfolio_problem,
)
from .profiles import ProfileTable, RunRecord, build_profile_table, fraction_solved, iteration_ratio, relative_error, time_ratio
from .sets import FeasibleSet, L1Ball, NonnegL1Ball, Simplex, lmo_l1ball, lmo_nonneg_l1, lmo_simplex
from .solvers import (
    IterationRecord,
    LlooConfig,
    RunConfig,
    RunTrace,
    certificate_lower_bound,
    descent_constants,
    estimate_sigma,
    fw_solve,
    lloo_fw_solve,
    lloo_rate_floor,
)
from .steps import BacktrackState, StepResult, analytic_step, backtrack_step, exact_line_search, init_lipschitz, standard_step

__version__ = "0.1.0"

# no compiled kernels exist; perfbench/run.py still writes this flag into its environment record
USING_NUMBA = False

__all__ = [
    "DomainError",
    "GapResult",
    "InvariantError",
    "OraclePoint",
    "ScOracle",
    "bregman",
    "dist_like",
    "gap_and_target",
    "local_norm",
    "omega",
    "omega_star",
    "LlooResult",
    "lloo_simplex",
    "GlmOracle",
    "LogisticOracle",
    "LogisticProblem",
    "ParseError",
    "PoissonOracle",
    "PoissonProblem",
    "PortfolioOracle",
    "PortfolioProblem",
    "gen_portfolio_data",
    "logistic_oracle",
    "parse_libsvm",
    "poisson_oracle",
    "portfolio_oracle",
    "portfolio_problem",
    "ProfileTable",
    "RunRecord",
    "build_profile_table",
    "fraction_solved",
    "iteration_ratio",
    "relative_error",
    "time_ratio",
    "FeasibleSet",
    "L1Ball",
    "NonnegL1Ball",
    "Simplex",
    "lmo_l1ball",
    "lmo_nonneg_l1",
    "lmo_simplex",
    "IterationRecord",
    "LlooConfig",
    "RunConfig",
    "RunTrace",
    "certificate_lower_bound",
    "descent_constants",
    "estimate_sigma",
    "fw_solve",
    "lloo_fw_solve",
    "lloo_rate_floor",
    "BacktrackState",
    "StepResult",
    "analytic_step",
    "backtrack_step",
    "exact_line_search",
    "init_lipschitz",
    "standard_step",
]
