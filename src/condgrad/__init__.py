"""Projection-free solvers for self-concordant objectives.

Conditional-gradient drivers with curvature-aware adaptive step sizes,
a locally-restricted linearly convergent variant on the simplex,
benchmark problem oracles, and a performance-profile harness.
"""

from .core import DomainError, InvariantError, OraclePoint, ScOracle, dist_like, gap_and_target, omega, omega_star
from .lloo import lloo_simplex
from .problems import (
    GlmOracle,
    LogisticOracle,
    ParseError,
    PoissonOracle,
    PortfolioOracle,
    gen_portfolio_data,
    logistic_problem,
    parse_libsvm,
    poisson_problem,
    portfolio_problem,
)
from .profiles import ProfileTable, RunRecord, build_profile_table, fraction_solved, iteration_ratio, relative_error, time_ratio
from .sets import FeasibleSet, L1Ball, NonnegL1Ball, Simplex
from .solvers import (
    IterationRecord,
    RunConfig,
    RunTrace,
    certificate_lower_bound,
    estimate_sigma,
    fw_solve,
    lloo_fw_solve,
)
from .steps import analytic_step, backtrack_step, exact_line_search, init_lipschitz, standard_step

__version__ = "0.1.0"

# no compiled kernels exist; perfbench/run.py still writes this flag into its environment record
USING_NUMBA = False

__all__ = [
    "DomainError",
    "InvariantError",
    "OraclePoint",
    "ScOracle",
    "dist_like",
    "gap_and_target",
    "omega",
    "omega_star",
    "lloo_simplex",
    "GlmOracle",
    "LogisticOracle",
    "ParseError",
    "PoissonOracle",
    "PortfolioOracle",
    "gen_portfolio_data",
    "logistic_problem",
    "parse_libsvm",
    "poisson_problem",
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
    "IterationRecord",
    "RunConfig",
    "RunTrace",
    "certificate_lower_bound",
    "estimate_sigma",
    "fw_solve",
    "lloo_fw_solve",
    "analytic_step",
    "backtrack_step",
    "exact_line_search",
    "init_lipschitz",
    "standard_step",
]
