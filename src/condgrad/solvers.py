"""Conditional-gradient solver drivers with full per-iteration traces.

`fw_solve` and `lloo_fw_solve` are two entry points of one loop.
`fw_solve` runs the classic target-vertex iteration under one of four
step policies; `lloo_fw_solve` runs the locally-restricted variant on
the simplex, whose shrinking search radius yields linear convergence
when a strong-convexity parameter is available.
"""

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import DomainError, InvariantError, dist_like, gap_and_target
from .sets import Simplex
from .steps import analytic_step, backtrack_step, exact_line_search, init_lipschitz, standard_step

POLICIES = ("standard", "line_search", "analytic", "backtracking")
METHODS = POLICIES + ("lloo",)

STALL_ALPHA = 1e-16
STALL_RUNS = 10
DESCENT_SLACK = 1e-9

CSV_HEADER = "k,f,gap,alpha,e,L,time_ns"
# one row of the trace CSV, without and with a backtracking estimate in `L`
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,,%d"
_CSV_ROW_L = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d"
# the columns `read_trace_csv` returns, named after the IterationRecord fields
_CSV_COLUMNS = np.dtype(
    [("k", np.int64), ("f", float), ("gap", float), ("alpha", float), ("e", float),
     ("lipschitz", float), ("time_ns", np.int64)]
)


@dataclass
class RunConfig:
    epsilon: float
    max_iter: int
    policy: str = "analytic"

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.policy not in METHODS:
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
        lines = [CSV_HEADER]
        lines += [
            _CSV_ROW % (r.k, r.f, r.gap, r.alpha, r.e, r.time_ns)
            if r.lipschitz is None
            else _CSV_ROW_L % (r.k, r.f, r.gap, r.alpha, r.e, r.lipschitz, r.time_ns)
            for r in self.records
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def save_json(self, path):
        """Write the trace as JSON; a row holds every record field, `lipschitz` as "L"."""
        rows = [
            {("L" if name == "lipschitz" else name): v for name, v in asdict(r).items()}
            for r in self.records
        ]
        out = {
            "config": asdict(self.config) if self.config is not None else None,
            "termination": self.termination,
            "final_x": [float(v) for v in np.asarray(self.final_x)],
            "iterations": rows,
        }
        if self.init_lipschitz is not None:
            out["init_lipschitz"] = self.init_lipschitz
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)


def read_trace_csv(path):
    """Read back a trace CSV as columns named after the IterationRecord fields.

    Returns a structured array with one element per row: `k` and
    `time_ns` int64, `f`, `gap`, `alpha`, `e` and `lipschitz` float, an
    empty `L` cell read as NaN.  The body is parsed in one `np.loadtxt`
    pass; an empty line is skipped.  A file that is not text, a wrong
    header or a trace without rows raises ValueError naming the file.  A
    row that does not parse, has a non-finite f or gap, a `k` other than
    its row number or a `time_ns` below the previous row's raises
    ValueError naming the file and the line.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected trace header {header!r}")
            try:
                cols = _parse_rows(fh)
            except ValueError:
                _reject(path, fh)
            k, t = cols["k"], cols["time_ns"]
            if not (
                len(cols)
                and np.isfinite(cols["f"]).all()
                and np.isfinite(cols["gap"]).all()
                and np.array_equal(k, np.arange(len(k)))
                and (t[1:] >= t[:-1]).all()
            ):
                _reject(path, fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cols


def _parse_rows(lines):
    """The trace rows of `lines` (a file or a list of strings) as `_CSV_COLUMNS`."""
    with warnings.catch_warnings():
        # a body without rows is `read_trace_csv`'s error, not numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(
            lines, dtype=_CSV_COLUMNS, delimiter=",", comments=None, ndmin=1,
            converters={5: lambda cell: float(cell) if cell else math.nan},
        )


def _reject(path, fh):
    """Raise the ValueError of a trace file `fh` that `read_trace_csv`
    rejects, naming the first line to blame.

    It parses the body again line by line with `_parse_rows`, so a line
    is refused with numpy's own message.  A body in which no line is to
    blame has no rows.
    """
    fh.seek(0)
    fh.readline()
    k_next, t_prev = 0, -math.inf
    for lineno, line in enumerate(fh, start=2):
        try:
            for row in _parse_rows([line]):  # none for an empty line
                if not (math.isfinite(row["f"]) and math.isfinite(row["gap"])):
                    raise ValueError("non-finite f or gap")
                k, t = row["k"], row["time_ns"]
                if k != k_next:
                    raise ValueError(f"k is {k}, expected {k_next}")
                if t < t_prev:
                    raise ValueError(f"time_ns {t} is below the previous row's {t_prev}")
                k_next, t_prev = k_next + 1, t
        except ValueError as exc:
            # numpy's message ends in " at row ..." counting from this one line
            raise ValueError(f"{path}, line {lineno}: {str(exc).rsplit(' at row ', 1)[0]}") from None
    raise ValueError(f"{path}: the trace has no rows")


def fw_solve(oracle, feasible_set, config, x0=None):
    """Run the conditional-gradient iteration with the configured policy.

    Starts from `feasible_set.start_point()` unless `x0` is given and
    steps toward the linear oracle's vertex.  Stops once the duality gap
    falls to `config.epsilon`, the iteration budget runs out, or the run
    stalls (ten consecutive negligible steps, or an open-loop step
    leaving the objective domain, in which case `final_x` is the
    offending point).  Every in-domain iterate is recorded; under the
    analytic policy a failure to decrease by the model amount raises
    :class:`InvariantError`, and so does an analytic step leaving the
    domain.  A line-search or backtracking trial outside it has
    f = +inf and is rejected.
    The iterate is the oracle's point (:meth:`ScOracle.point`); a gap
    below `epsilon` is accepted only as evaluated at a refreshed point.
    """
    if config.policy not in POLICIES:
        raise ValueError(f"fw_solve cannot run policy {config.policy!r}")
    return _solve(oracle, feasible_set, config, x0)


def lloo_step_size(contraction, gap0, e, M):
    """Step size of the locally-restricted iteration.

    min{contraction * gap0 / ((4/M^2) e^2), 1} / (1 + e); always keeps
    alpha * e < 1.
    """
    if e == 0.0:
        return 1.0
    ratio = contraction * gap0 / ((4.0 / (M * M)) * e * e)
    return min(ratio, 1.0) / (1.0 + e)


def lloo_fw_solve(oracle, lloo, config, sigma_f, x0=None):
    """Conditional gradient with a local linear oracle on the simplex.

    `lloo` is a callable (x, r, c) -> point of the simplex, queried with
    the radius r0 * sqrt(c_k), which shrinks geometrically as the
    accumulated steps grow (contraction c_k = exp(-sum alpha / 2)); the
    global duality gap still drives the stopping test and the trace.
    `sigma_f` > 0 is the strong-convexity parameter on the initial level
    set (user-supplied, see :func:`estimate_sigma` for a heuristic); it
    sets r0 = sqrt(6 gap0 / sigma_f).
    Rows additionally record the radius and contraction factor used.
    `config.policy` must be "lloo".  Start, stopping and stalling are
    those of :func:`fw_solve`; a local point equal to x is a null step
    (alpha = 0, c_k unchanged), so a run whose gap stops falling ends as
    stalled.  A step leaving the domain raises :class:`InvariantError`.
    """
    if config.policy != "lloo":
        raise ValueError(f"lloo_fw_solve cannot run policy {config.policy!r}")
    if not sigma_f > 0:
        raise ValueError("sigma_f must be positive")
    return _solve(oracle, Simplex(oracle.dim), config, x0, lloo, sigma_f)


def _solve(oracle, feasible_set, config, x0, lloo=None, sigma_f=None):
    """The conditional-gradient loop behind `fw_solve` and `lloo_fw_solve`.

    Every iteration takes the gap at the linear oracle's vertex (i, value),
    then steps under `config.policy`: toward that vertex for the four
    step policies, or toward the local oracle's point within radius
    r0 * sqrt(c_k) for "lloo".  Only the standard step carries no domain
    guarantee; when it leaves the domain the run ends as stalled, while
    for the other policies that raises.  The analytic step's guaranteed
    decrease is checked next to that, on the point the step returns.
    """
    x0 = feasible_set.start_point() if x0 is None else np.asarray(x0, dtype=float).copy()
    if not feasible_set.contains(x0):
        raise ValueError("start point outside the feasible set")
    point = oracle.point(x0)
    if not point.in_domain:
        raise DomainError("start point outside the objective domain")

    policy = config.policy
    records = []
    init_lip = lipschitz = None
    gap0 = None
    r0 = None
    alpha_sum = 0.0
    tiny_steps = 0
    t0 = time.perf_counter_ns()

    while True:
        k = len(records)
        t_row = time.perf_counter_ns() - t0
        f_k = point.f
        gap, s = gap_and_target(feasible_set, point)
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
                IterationRecord(
                    k, f_k, gap, 0.0, dist_like(point, s), None, t_row, None, radius, contraction
                )
            )
            return RunTrace(records, point.x, termination, config, init_lip)

        evals, required = None, math.inf
        if policy == "lloo":
            # the step goes toward the local oracle's point, so only a
            # termination row reads the vertex's distance
            s = lloo(point.x, radius, point.gradient)
            e = dist_like(point, s)
            if e == 0.0 and np.array_equal(s, point.x):
                # the local point is x itself: a null step, which counts
                # toward a stall and does not advance the contraction
                alpha = 0.0
            else:
                alpha = lloo_step_size(contraction, gap0, e, oracle.M)
        else:
            e = dist_like(point, s)
            if policy == "standard":
                alpha = standard_step(k)
            elif policy == "line_search":
                alpha = exact_line_search(point, s)
            elif policy == "analytic":
                alpha, decrease = analytic_step(gap, e, oracle.M)
                required = f_k - decrease + DESCENT_SLACK
            else:
                if init_lip is None:
                    init_lip = lipschitz = init_lipschitz(point, s)
                alpha, lipschitz, evals = backtrack_step(point, s, gap, lipschitz)

        records.append(
            IterationRecord(k, f_k, gap, alpha, e, lipschitz, t_row, evals, radius, contraction)
        )

        tiny_steps = tiny_steps + 1 if alpha < STALL_ALPHA else 0
        if tiny_steps >= STALL_RUNS:
            return RunTrace(records, point.x, "stalled", config, init_lip)

        nxt = point.move(alpha, s)
        if not nxt.in_domain:
            if policy == "standard":
                # the open-loop baseline carries no domain guarantee
                return RunTrace(records, nxt.x, "stalled", config, init_lip)
            raise InvariantError(f"{policy} step left the objective domain at iteration {k}")
        # only the analytic step guarantees a level; lloo gets no such check:
        # its step contracts the error bound gap0 * c_k, but f may wobble up
        if nxt.f > required:
            raise InvariantError(
                f"objective rose above the guaranteed level at iteration {k + 1}: "
                f"{nxt.f} > {required}"
            )
        alpha_sum += alpha
        point = nxt


def certificate_lower_bound(trace):
    """Best dual certificate max_k (f_k - gap_k), a valid lower bound on f*."""
    if not trace.records:
        raise ValueError("empty trace")
    return max(r.f - r.gap for r in trace.records)


def estimate_sigma(oracle, x):
    """Smallest eigenvalue of the Hessian at x, or 0.0 when it is singular.

    Stand-in for the strong-convexity parameter over the level set,
    which is what the linear-convergence analysis actually needs.  The
    point at x forms the dense Hessian (a GLM point from one Gram
    product, the base point from `dim` Hessian products); one dense
    eigenvalue solve gives its spectrum.  It counts as singular when the
    smallest eigenvalue is at most dim * eps times the largest (numpy's
    `matrix_rank` tolerance): rounding leaves a zero eigenvalue anywhere
    in that band, either sign.
    """
    lam = np.linalg.eigvalsh(oracle.point(x).hessian())
    if lam[0] <= oracle.dim * np.finfo(float).eps * lam[-1]:
        return 0.0
    return float(lam[0])


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
