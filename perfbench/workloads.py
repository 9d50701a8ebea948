"""Workload definitions, seeded inputs and output checks of the solve benchmark.

Each workload is a stated set of problem instances and methods with one
gap tolerance and one iteration cap.  The seed does not pick new
instances: time to a gap varies by more than 100x between portfolio
instances of the same size (0.01 s to 6.8 s for the five methods at
T=50, n=20), so a seeded draw of instances would measure the draw.
Instead the seed draws a row and a column permutation of every
instance.  Every solver and feasible set here is equivariant under such
permutations, so the work to the gap is the same for every seed while
the bytes the program reads differ.  The permuted data go through the
CLI's file ingestion (`build_problem` with a `data` path), as a user's
files would.
"""

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from condgrad import cli, steps
from condgrad import problems as prob
from condgrad.profiles import RunRecord
from condgrad.solvers import certificate_lower_bound

ROOT = Path(__file__).resolve().parent.parent
POISSON200 = ROOT / "tests" / "data" / "poisson200.libsvm"

# relative slack of the cross-solve certificate check: best f may not
# undercut another solve's certified lower bound by more than this
CERTIFICATE_SLACK = 1e-9
TERMINATIONS = ("gap_below_eps", "max_iter", "stalled")


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str  # "portfolio" (returns CSV) or "poisson"/"logistic" (LIBSVM)
    source: tuple  # ("portfolio", T, n, seed) | ("libsvm", path) | ("binary", m, n, seed) | ("logistic", N, n, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    methods: tuple
    gap: float
    max_iter: int
    warm_up: tuple  # (instance name, method) solved once per process, untimed

    def keys(self):
        """Every (instance, method) solve of one pass; lloo runs on simplex problems only."""
        return [
            (inst.name, m)
            for inst in self.instances
            for m in self.methods
            if m != "lloo" or inst.kind == "portfolio"
        ]


WORKLOADS = {
    "desk": Workload(
        name="desk",
        instances=(
            Instance("portfolio_T50_n20_s1", "portfolio", ("portfolio", 50, 20, 1)),
            Instance("portfolio_T50_n20_s7", "portfolio", ("portfolio", 50, 20, 7)),
        ),
        methods=cli.METHODS,
        gap=1e-5,
        max_iter=100000,
        warm_up=("portfolio_T50_n20_s1", "analytic"),
    ),
    "paper": Workload(
        name="paper",
        instances=(Instance("portfolio_T1000_n800_s7", "portfolio", ("portfolio", 1000, 800, 7)),),
        methods=("standard", "analytic", "backtracking", "lloo"),
        gap=1e-2,
        max_iter=20000,
        warm_up=("portfolio_T1000_n800_s7", "analytic"),
    ),
    "grid": Workload(
        name="grid",
        instances=(
            Instance("poisson200", "poisson", ("libsvm", POISSON200)),
            Instance("poisson_m200_n30_s0", "poisson", ("binary", 200, 30, 0)),
            Instance("logistic_N200_n50_s0", "logistic", ("logistic", 200, 50, 0)),
            Instance("portfolio_T50_n20_s7", "portfolio", ("portfolio", 50, 20, 7)),
        ),
        methods=cli.METHODS,
        gap=1e-6,
        max_iter=500,
        warm_up=("poisson200", "analytic"),
    ),
}


def _reference_data(source):
    """Unpermuted data of an instance: (matrix, labels or None)."""
    tag = source[0]
    if tag == "portfolio":
        _, T, n, seed = source
        return prob.gen_portfolio_data(T, n, seed), None
    if tag == "libsvm":
        with open(source[1]) as fh:
            return prob.parse_libsvm(fh)
    if tag == "binary":
        _, m, n, seed = source
        return prob.gen_binary_design(m, n, 0.2, seed), np.ones(m)
    if tag == "logistic":
        _, N, n, seed = source
        return prob.gen_logistic_data(N, n, seed)
    raise ValueError(f"unknown instance source {tag!r}")


def write_inputs(workload, seed, data_dir):
    """Write the seed's permuted instance files; returns one build spec per
    instance (`shape` is the reference shape, which `build_problem` ignores)."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i, inst in enumerate(workload.instances):
        matrix, labels = _reference_data(inst.source)
        gen = np.random.default_rng([seed, i])
        rows = gen.permutation(matrix.shape[0])
        cols = gen.permutation(matrix.shape[1])
        permuted = matrix[rows][:, cols]
        if inst.kind == "portfolio":
            path = data_dir / f"{inst.name}.csv"
            prob.save_returns_csv(path, permuted, inst.source[-1])
        else:
            path = data_dir / f"{inst.name}.libsvm"
            path.write_text(prob.format_libsvm(permuted, labels[rows]))
        specs.append({"kind": inst.kind, "data": str(path), "name": inst.name, "shape": matrix.shape})
    return specs


def build_all(specs):
    """Build every instance through the CLI; returns {name: (oracle, set)}."""
    built = {}
    for spec in specs:
        name, oracle, feasible_set = cli.build_problem(spec)
        built[name] = (oracle, feasible_set)
    return built


def check_shapes(specs, built):
    """LIBSVM sets the width from the largest index seen, so a permutation
    that moved an all-zero column last would change the problem."""
    for spec in specs:
        oracle, _ = built[spec["name"]]
        if oracle.dim != spec["shape"][1]:
            raise RuntimeError(f"{spec['name']}: ingested dimension {oracle.dim} != {spec['shape'][1]}")


def oracle_matrix_bytes(oracle):
    for attr in ("returns", "weights", "features"):
        if hasattr(oracle, attr):
            return getattr(oracle, attr).nbytes
    raise TypeError(f"no data matrix on {type(oracle).__name__}")


def check_solve(oracle, feasible_set, method, trace):
    """Reason the solve's output is wrong, or None.

    A `stalled` run may end on the point that left the domain (the open-loop
    and line-search baselines carry no domain guarantee), so only its
    feasibility is checked.
    """
    x = trace.final_x
    if not feasible_set.contains(x):
        return "final x outside the feasible set"
    if trace.termination != "stalled" and not oracle.in_domain(x):
        return "final x outside the objective domain"
    last = trace.records[-1]
    if not (math.isfinite(last.f) and math.isfinite(last.gap)):
        return f"non-finite final f={last.f} or gap={last.gap}"
    if method == "backtracking":
        return check_backtracking_evals(trace)
    return None


def check_backtracking_evals(trace):
    """Cumulative evaluations stay within (k+1)(1 + ln(1/gamma_d)/ln gamma_u)
    + log_{gamma_u}(gamma_u mu_max / L_0), the policy's proven bound."""
    recs = [r for r in trace.records if r.evals is not None]
    if not recs:
        return None
    evals = np.cumsum([r.evals for r in recs])
    mu_max = max(r.lipschitz for r in recs)
    log_up = math.log(steps.GAMMA_UP)
    per_iter = 1.0 + math.log(1.0 / steps.GAMMA_DOWN) / log_up
    extra = max(0.0, math.log(steps.GAMMA_UP * mu_max / trace.init_lipschitz) / log_up)
    bound = per_iter * np.arange(1, len(recs) + 1) + extra
    over = np.nonzero(evals > bound)[0]
    if over.size:
        k = int(over[0])
        return f"backtracking evaluations {int(evals[k])} exceed bound {bound[k]:.3f} at k={k}"
    return None


def check_certificates(solves):
    """No solve's best f lies below another solve's certified lower bound
    on the same instance; marks violators failed."""
    by_instance = {}
    for s in solves:
        if s.trace_ok:
            by_instance.setdefault(s.instance, []).append(s)
    for group in by_instance.values():
        top = max(group, key=lambda s: s.lower_bound)
        for s in group:
            slack = CERTIFICATE_SLACK * max(1.0, abs(top.lower_bound))
            if s.reason is None and s.best_f < top.lower_bound - slack:
                s.reason = (
                    f"best f {s.best_f!r} below {top.method}'s certified lower bound {top.lower_bound!r}"
                )


@dataclass
class Solve:
    """One attempted solve: its timing, outcome and check result."""

    instance: str
    method: str
    seconds: float  # wall time rescaled to the nominal machine speed
    wall_s: float = math.nan
    iterations: int = 0
    termination: str = "error"
    best_f: float = math.nan
    lower_bound: float = math.nan
    iter_ns: np.ndarray | None = None
    reason: str | None = None
    trace_ok: bool = False

    @classmethod
    def from_trace(cls, instance, method, seconds, trace):
        f = np.array([r.f for r in trace.records])
        t = np.array([r.time_ns for r in trace.records], dtype=np.int64)
        return cls(
            instance,
            method,
            seconds,
            iterations=len(trace.records) - 1,
            termination=trace.termination,
            best_f=float(np.min(f)),
            lower_bound=float(certificate_lower_bound(trace)),
            iter_ns=np.diff(t),
            trace_ok=True,
        )


def covered_records(records):
    """Keep methods with a trace on every problem, as `condgrad bench` does."""
    problems = {r.problem for r in records}
    pairs = {(r.method, r.problem) for r in records}
    covered = {r.method for r in records if all((r.method, p) in pairs for p in problems)}
    return [r for r in records if r.method in covered]


def write_report(workload, traces, out_dir):
    """The `bench` + `profile` path: trace CSVs, summary.json and profiles.csv,
    then the profile table read back from the traces.

    `traces` maps (instance, method) to a RunTrace.  Returns the in-memory
    table, the read-back table and the bytes of trace CSV written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs, records, trace_bytes = [], [], 0
    for (name, method), trace in sorted(traces.items()):
        path = out_dir / f"{method}__{name}.csv"
        trace.save_csv(path)
        trace_bytes += path.stat().st_size
        f_series = np.array([r.f for r in trace.records])
        t_series = np.array([r.time_ns for r in trace.records])
        runs.append(
            {
                "method": method,
                "problem": name,
                "termination": trace.termination,
                "iterations": len(trace.records) - 1,
                "best_f": float(np.min(f_series)),
                "lower_bound": float(certificate_lower_bound(trace)),
                "wall_ns": int(t_series[-1]),
                "trace": path.name,
            }
        )
        records.append(RunRecord(method, name, f_series, t_series))
    config = {"workload": workload.name, "gap_tol": workload.gap, "max_iter": workload.max_iter}
    (out_dir / "summary.json").write_text(json.dumps({"config": config, "runs": runs}, indent=1))
    table = cli.build_profile_table(covered_records(records))
    (out_dir / "profiles.csv").write_text(cli.format_profiles_csv(table, cli.DEFAULT_EPS_GRID))
    back = cli.table_from_trace_dir(out_dir)
    return table, back, trace_bytes


def tables_equal(a, b):
    """Bit-for-bit equality of two profile tables."""
    if a.methods != b.methods or a.problems != b.problems or a.best != b.best:
        return False
    if a.rel_err.keys() != b.rel_err.keys() or a.time_ns.keys() != b.time_ns.keys():
        return False
    return all(np.array_equal(a.rel_err[k], b.rel_err[k]) for k in a.rel_err) and all(
        np.array_equal(a.time_ns[k], b.time_ns[k]) for k in a.time_ns
    )


def solve_seconds(solves):
    """Sum over the workload's (instance, method) solves of each one's median wall time."""
    by_key = {}
    for s in solves:
        by_key.setdefault((s.instance, s.method), []).append(s.seconds)
    return sum(statistics.median(v) for v in by_key.values())


def method_metrics(solves, latest):
    """Iterations, time to the gap and per-iteration time of each method;
    the per-iteration times are the library's own `time_ns` rows.  Methods
    the workload does not run read 0."""
    m = {}
    for method in cli.METHODS:
        mine = [s for s in solves if s.method == method]
        rows = [s.iter_ns for s in mine if s.iter_ns is not None and s.iter_ns.size]
        us = np.concatenate(rows) / 1e3 if rows else np.zeros(0)
        m[f"solvers.{method}.iters"] = sum(
            len(t.records) - 1 for (_, meth), t in latest.items() if meth == method
        )
        m[f"solvers.{method}.solve_s"] = solve_seconds(mine)
        m[f"solvers.{method}.iter_us.p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        m[f"solvers.{method}.iter_us.p99"] = float(np.percentile(us, 99)) if us.size else 0.0
        m[f"solvers.{method}.iter_samples"] = us.size
    for t in TERMINATIONS:
        m[f"solvers.termination.{t}"] = sum(1 for tr in latest.values() if tr.termination == t)
    return m


def per_layer_units():
    """Name and unit of every metric the traced run prints."""
    units = {}
    for call in ("value", "gradient", "hess_vec", "in_domain"):
        units[f"problems.{call}.calls_per_iter"] = "calls/iter"
        units[f"problems.{call}.us"] = "us"
    units.update(
        {
            "problems.share": "ratio",
            "problems.passes_per_iter": "passes/iter",
            "problems.bytes_per_iter": "B/iter",
            "sets.lmo.us": "us",
            "sets.contains.us": "us",
            "sets.share": "ratio",
            "core.gap_and_target.self_us": "us",
            "core.dist_like.self_us": "us",
            "solvers.self_us_per_iter": "us/iter",
            "control.share": "ratio",
            "steps.analytic_step.us": "us",
            "steps.backtrack_step.self_us": "us",
            "steps.backtrack_step.evals_per_call": "evals/call",
            "steps.exact_line_search.probes_per_call": "probes/call",
            "steps.exact_line_search.self_us": "us",
            "steps.init_lipschitz.us": "us",
            "lloo.lloo_simplex.us": "us",
            "solvers.estimate_sigma.s": "s",
            "solvers.estimate_sigma.hess_vec_calls": "count",
        }
    )
    for m in cli.METHODS:
        units[f"solvers.{m}.iters"] = "count"
        units[f"solvers.{m}.solve_s"] = "s"
        units[f"solvers.{m}.iter_us.p50"] = "us"
        units[f"solvers.{m}.iter_us.p99"] = "us"
        units[f"solvers.{m}.iter_samples"] = "count"
    for t in TERMINATIONS:
        units[f"solvers.termination.{t}"] = "count"
    units.update(
        {
            "cli.build_problem.s": "s",
            "cli.parse_libsvm.s": "s",
            "cli.load_returns_csv.s": "s",
            "cli.save_csv.s": "s",
            "cli.trace_bytes": "B",
            "cli.read_trace_csv.s": "s",
            "cli.table_from_trace_dir.s": "s",
            "cli.format_profiles_csv.s": "s",
            "profiles.build_profile_table.s": "s",
            "profiles.metrics.s": "s",
            "machine.probe_us": "us",
            "trace.overhead_frac": "ratio",
            "fail_frac": "ratio",
        }
    )
    return units
