"""Conditional-gradient solver drivers with full per-iteration traces.

`fw_solve` and `lloo_fw_solve` are two entry points of one loop.
`fw_solve` runs the classic target-vertex iteration under one of four
step policies; `lloo_fw_solve` runs the locally-restricted variant on
the simplex, whose shrinking search radius yields linear convergence
when a strong-convexity parameter is available.
"""

import json
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .core import DomainError, InvariantError, dist_like, gap_and_target
from .sets import Simplex
from .steps import BacktrackState, analytic_step, backtrack_step, exact_line_search, init_lipschitz, standard_step

POLICIES = ("standard", "line_search", "analytic", "backtracking")

STALL_ALPHA = 1e-16
STALL_RUNS = 10
DESCENT_SLACK = 1e-9

CSV_HEADER = "k,f,gap,alpha,e,L,time_ns"


@dataclass
class RunConfig:
    epsilon: float
    max_iter: int
    policy: str = "analytic"
    record_times: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.policy not in POLICIES and self.policy != "lloo":
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass
class IterationRecord:
    k: int
    f: float
    gap: float
    alpha: float
    e: float
    lipschitz: float | None = None
    time_ns: int = 0
    evals: int | None = None
    radius: float | None = None
    contraction: float | None = None


@dataclass
class RunTrace:
    records: list[IterationRecord]
    final_x: np.ndarray
    termination: str
    config: RunConfig | None = None
    init_lipschitz: float | None = None

    def save_csv(self, path):
        with open(path, "w") as fh:
            fh.write(format_trace_csv(self))

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(trace_to_json_dict(self), fh, indent=1)


def _fmt(v):
    return format(v, ".17g")


def format_trace_csv(trace):
    lines = [CSV_HEADER]
    for r in trace.records:
        lip = "" if r.lipschitz is None else _fmt(r.lipschitz)
        lines.append(
            f"{r.k},{_fmt(r.f)},{_fmt(r.gap)},{_fmt(r.alpha)},{_fmt(r.e)},{lip},{r.time_ns}"
        )
    return "\n".join(lines) + "\n"


def read_trace_csv(path):
    """Read back a trace CSV as a list of IterationRecord."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, f, gap, alpha, e, lip, t = line.split(",")
            records.append(
                IterationRecord(
                    k=int(k),
                    f=float(f),
                    gap=float(gap),
                    alpha=float(alpha),
                    e=float(e),
                    lipschitz=float(lip) if lip else None,
                    time_ns=int(t),
                )
            )
    return records


def trace_to_json_dict(trace):
    rows = []
    for r in trace.records:
        row = {
            "k": r.k,
            "f": r.f,
            "gap": r.gap,
            "alpha": r.alpha,
            "e": r.e,
            "L": r.lipschitz,
            "time_ns": r.time_ns,
        }
        if r.radius is not None:
            row["radius"] = r.radius
            row["contraction"] = r.contraction
        rows.append(row)
    out = {
        "config": asdict(trace.config) if trace.config is not None else None,
        "termination": trace.termination,
        "final_x": [float(v) for v in np.asarray(trace.final_x)],
        "iterations": rows,
    }
    if trace.init_lipschitz is not None:
        out["init_lipschitz"] = trace.init_lipschitz
    return out


def fw_solve(oracle, feasible_set, config, x0=None):
    """Run the conditional-gradient iteration with the configured policy.

    Starts from `feasible_set.start_point()` unless `x0` is given and
    steps toward the linear oracle's vertex.  Stops once the duality gap
    falls to `config.epsilon`, the iteration budget runs out, or the run
    stalls (ten consecutive negligible steps, or an open-loop/line-search
    step leaving the objective domain, in which case `final_x` is the
    offending point).  Every in-domain iterate is recorded; under the
    analytic policy a failure to decrease by the model amount raises
    :class:`InvariantError`, and so does an analytic or backtracking step
    leaving the domain.  The iterate is the oracle's point
    (:meth:`ScOracle.point`); a gap below `epsilon` is accepted only as
    evaluated at a refreshed point.
    """
    if config.policy not in POLICIES:
        raise ValueError(f"fw_solve cannot run policy {config.policy!r}")
    return _solve(oracle, feasible_set, config, x0)


@dataclass
class LlooConfig:
    """Parameters of the locally-restricted run.

    `sigma_f` is the strong-convexity parameter on the initial level set
    (user-supplied, see :func:`estimate_sigma` for a heuristic).
    """

    sigma_f: float

    def __post_init__(self):
        if not self.sigma_f > 0:
            raise ValueError("sigma_f must be positive")


def lloo_step_size(contraction, gap0, e, M):
    """Step size of the locally-restricted iteration.

    min{contraction * gap0 / ((4/M^2) e^2), 1} / (1 + e); always keeps
    alpha * e < 1.
    """
    if e == 0.0:
        return 1.0
    ratio = contraction * gap0 / ((4.0 / (M * M)) * e * e)
    return min(ratio, 1.0) / (1.0 + e)


def lloo_fw_solve(oracle, lloo, config, lloo_config, x0=None):
    """Conditional gradient with a local linear oracle on the simplex.

    `lloo` is a callable (x, r, c) -> result with a `.point` attribute,
    queried with the radius r0 * sqrt(c_k), which shrinks geometrically
    as the accumulated steps grow (contraction c_k = exp(-sum alpha / 2));
    the global duality gap still drives the stopping test and the trace.
    Rows additionally record the radius and contraction factor used.
    `config.policy` must be "lloo".  Start, stopping and stalling are
    those of :func:`fw_solve`; a step leaving the domain raises
    :class:`InvariantError`.
    """
    if config.policy != "lloo":
        raise ValueError(f"lloo_fw_solve cannot run policy {config.policy!r}")
    return _solve(oracle, Simplex(oracle.dim), config, x0, lloo, lloo_config.sigma_f)


def _solve(oracle, feasible_set, config, x0, lloo=None, sigma_f=None):
    """The conditional-gradient loop behind `fw_solve` and `lloo_fw_solve`.

    Every iteration takes the gap at the linear oracle's vertex, then
    steps under `config.policy`: toward that vertex for the four step
    policies, or toward the local oracle's point within radius
    r0 * sqrt(c_k) for "lloo".  Only the standard and line-search steps
    carry no domain guarantee; when one leaves the domain the run ends
    as stalled, while for the other policies that raises.
    """
    x0 = feasible_set.start_point() if x0 is None else np.asarray(x0, dtype=float).copy()
    point = oracle.point(x0)
    if not point.in_domain:
        raise DomainError("start point outside the objective domain")
    if not feasible_set.contains(x0):
        raise ValueError("start point outside the feasible set")

    policy = config.policy
    records = []
    state = None
    init_lip = None
    prev_f = None
    prev_required = None
    gap0 = None
    r0 = None
    alpha_sum = 0.0
    tiny_steps = 0
    k = 0
    t0 = time.perf_counter_ns()

    while True:
        t_row = time.perf_counter_ns() - t0 if config.record_times else 0
        f_k = point.f
        # no monotonicity check for lloo: the locally-restricted step
        # contracts the error bound gap0 * c_k, but the raw objective may wobble up
        if policy == "analytic" and prev_required is not None and f_k > prev_required:
            raise InvariantError(
                f"objective rose above the guaranteed level at iteration {k}: "
                f"{f_k} > {prev_required}"
            )
        res = gap_and_target(feasible_set, point)
        gap, e, s = res.gap, res.e, res.target
        radius = contraction = None
        if policy == "lloo":
            if gap0 is None:
                gap0 = gap
                r0 = float(np.sqrt(6.0 * gap0 / sigma_f))
            contraction = float(np.exp(-0.5 * alpha_sum))
            radius = r0 * float(np.sqrt(contraction))

        termination = None
        if gap <= config.epsilon:
            exact = point.refreshed()
            if exact is not point:
                # accept the gap only as evaluated without carried state
                point = exact
                continue
            termination = "gap_below_eps"
        elif k >= config.max_iter:
            termination = "max_iter"
        if termination is not None:
            records.append(
                IterationRecord(k, f_k, gap, 0.0, e, None, t_row, None, radius, contraction)
            )
            return RunTrace(records, point.x, termination, config, init_lip)

        lip_used = None
        evals = None
        if policy == "standard":
            alpha = standard_step(k)
        elif policy == "line_search":
            alpha = exact_line_search(point, s, e)
        elif policy == "analytic":
            sr = analytic_step(gap, e, oracle.M)
            alpha = sr.alpha
            prev_required = f_k - sr.model_decrease + DESCENT_SLACK
        elif policy == "backtracking":
            if state is None:
                init_lip = init_lipschitz(point, s)
                state = BacktrackState(init_lip)
            if prev_f is not None:
                state.prev_decrease = prev_f - f_k
            sr = backtrack_step(point, s, gap, state)
            alpha = sr.alpha
            lip_used = sr.lipschitz
            evals = sr.evals_used
        else:
            s = lloo(point.x, radius, point.gradient).point
            e = dist_like(point, s)
            alpha = lloo_step_size(contraction, gap0, e, oracle.M)

        records.append(
            IterationRecord(k, f_k, gap, alpha, e, lip_used, t_row, evals, radius, contraction)
        )

        tiny_steps = tiny_steps + 1 if alpha < STALL_ALPHA else 0
        if tiny_steps >= STALL_RUNS:
            return RunTrace(records, point.x, "stalled", config, init_lip)

        nxt = point.move(alpha, s)
        if not nxt.in_domain:
            if policy in ("standard", "line_search"):
                # the open-loop/line-search baselines carry no domain guarantee
                return RunTrace(records, nxt.x, "stalled", config, init_lip)
            raise InvariantError(f"{policy} step left the objective domain at iteration {k}")
        prev_f = f_k
        alpha_sum += alpha
        point = nxt
        k += 1


def certificate_lower_bound(trace):
    """Best dual certificate max_k (f_k - gap_k), a valid lower bound on f*."""
    records = trace.records if isinstance(trace, RunTrace) else trace
    if not records:
        raise ValueError("empty trace")
    return max(r.f - r.gap for r in records)


def estimate_sigma(oracle, x, iters=30):
    """Smallest Hessian eigenvalue at x via inverse power iteration.

    Heuristic stand-in for the strong-convexity parameter over the level
    set, which is what the linear-convergence analysis actually needs.
    Each of the `iters` steps applies the inverse Hessian action through
    conjugate gradients on the Hessian-vector product of one point at x.
    """
    n = oracle.dim
    point = oracle.point(x)
    op = LinearOperator((n, n), matvec=point.hess_vec)
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iters):
        z, _ = cg(op, v, rtol=1e-12, atol=0.0)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            break
        v = z / nz
    return float(np.dot(v, point.hess_vec(v)))


def lloo_rate_floor(sigma_f, lipschitz, rho, M, diam):
    """Guaranteed per-iteration step floor of the locally-restricted run.

    Diagnostic only: needs the strong-convexity and gradient-Lipschitz
    parameters over the level set.  Every accepted step is at least this
    large, so the error contracts by exp(-floor/2) per iteration.
    """
    return min(sigma_f / (6.0 * lipschitz * rho * rho), 1.0) / (
        1.0 + np.sqrt(lipschitz) * M * diam / 2.0
    )


def descent_constants(M, lipschitz, diam):
    """Constants (a, b) of the per-iteration decrease bound
    Delta_k >= min(a * gap, b * gap^2) under the analytic policy,
    given a gradient-Lipschitz bound over the visited set."""
    one_minus_ln2 = 1.0 - np.log(2.0)
    a = min(0.5, 2.0 * one_minus_ln2 / (M * np.sqrt(lipschitz) * diam))
    b = one_minus_ln2 / (lipschitz * diam * diam)
    return float(a), float(b)
