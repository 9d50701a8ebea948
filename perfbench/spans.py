"""Span tracing of the benchmark's calls into each condgrad layer.

Nothing here touches the library's source.  The traced run wraps the
oracle and feasible set it passes to `cli.run_one`, and swaps the
`steps`, `core`, `lloo`, `solvers` and report functions for timing
wrappers through the module attributes their callers look up.  Spans
(name, start, end, parent, solve id) are kept in flat arrays in memory
and written out once the run ends; self time is a span's duration minus
the part its child spans cover.
"""

import contextlib
import time
from array import array

import numpy as np

from condgrad import cli, core, solvers
from condgrad import problems as prob
from condgrad.core import ScOracle
from condgrad.sets import FeasibleSet, Simplex

DRIVERS = ("solvers.fw_solve", "solvers.lloo_fw_solve")
ORACLE_CALLS = ("value", "gradient", "hess_vec", "in_domain")
# passes over the data matrix (one matvec each) per oracle call, read off
# the numpy kernels: value A x; in_domain A x; gradient A x, A^T w; hess_vec
# A x, A u, A^T w.  Portfolio and Poisson gradient/hess_vec first test the
# domain (one more pass); the logistic domain is everything (no pass).
_CHECKED = {"value": 1, "gradient": 3, "hess_vec": 4, "in_domain": 1}
PASSES = {
    "PortfolioOracle": _CHECKED,
    "PoissonOracle": _CHECKED,
    "LogisticOracle": {"value": 1, "gradient": 2, "hess_vec": 3, "in_domain": 0},
}


class Tracer:
    """In-memory span log, one row per call into a wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.solve_id = -1
        self._stack = [-1]

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, solve, stack = (
            self.name_id, self.start, self.end, self.parent, self.solve, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            solve.append(self.solve_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "solve": np.frombuffer(self.solve, dtype=np.int32),
        }

    def save(self, path, solves):
        """Write the spans, the name table and the solve table as one .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            solve_instance=np.array([s[0] for s in solves]),
            solve_method=np.array([s[1] for s in solves]),
            **self.arrays(),
        )


class TracedOracle(ScOracle):
    """The four oracle calls of `inner`, each recorded as a span."""

    def __init__(self, tracer, inner):
        self.dim = inner.dim
        self.M = inner.M
        for call in ORACLE_CALLS:
            setattr(self, call, tracer.wrap(f"problems.{call}", getattr(inner, call)))


class TracedSet(FeasibleSet):
    """`lmo` and `contains` of `inner`, each recorded as a span."""

    def __init__(self, tracer, inner):
        self.dim = inner.dim
        self.kind = inner.kind
        self.start_point = inner.start_point
        self.lmo = tracer.wrap("sets.lmo", inner.lmo)
        self.contains = tracer.wrap("sets.contains", inner.contains)


# (module or class, attribute, span name): the call sites the traced run swaps
PATCHES = (
    (cli, "fw_solve", "solvers.fw_solve"),
    (cli, "lloo_fw_solve", "solvers.lloo_fw_solve"),
    (cli, "estimate_sigma", "solvers.estimate_sigma"),
    (cli, "lloo_simplex", "lloo.lloo_simplex"),
    (cli, "run_one", "cli.run_one"),
    (cli, "build_problem", "cli.build_problem"),
    (cli, "table_from_trace_dir", "cli.table_from_trace_dir"),
    (cli, "read_trace_csv", "cli.read_trace_csv"),
    (cli, "format_profiles_csv", "cli.format_profiles_csv"),
    (cli, "build_profile_table", "profiles.build_profile_table"),
    (cli, "fraction_solved", "profiles.fraction_solved"),
    (cli, "iteration_ratio", "profiles.iteration_ratio"),
    (cli, "time_ratio", "profiles.time_ratio"),
    (prob, "parse_libsvm", "cli.parse_libsvm"),
    (prob, "load_returns_csv", "cli.load_returns_csv"),
    (solvers, "gap_and_target", "core.gap_and_target"),
    (solvers, "dist_like", "core.dist_like"),
    (core, "dist_like", "core.dist_like"),
    (solvers, "analytic_step", "steps.analytic_step"),
    (solvers, "backtrack_step", "steps.backtrack_step"),
    (solvers, "exact_line_search", "steps.exact_line_search"),
    (solvers, "init_lipschitz", "steps.init_lipschitz"),
    (solvers, "standard_step", "steps.standard_step"),
    (solvers.RunTrace, "save_csv", "cli.save_csv"),
)


@contextlib.contextmanager
def patched(tracer):
    """Swap every call site in PATCHES (and the simplex `lloo_fw_solve`
    builds) for traced versions; restore the originals on exit."""
    saved = []
    wrapped = {}
    for owner, attr, name in PATCHES:
        original = getattr(owner, attr)
        if name not in wrapped:
            wrapped[name] = tracer.wrap(name, original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped[name])
    saved.append((solvers, "Simplex", solvers.Simplex))
    solvers.Simplex = lambda dim: TracedSet(tracer, Simplex(dim))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _under(parent, mask):
    """Spans that are, or descend from, a span in `mask` (parents precede children)."""
    flag = mask.copy()
    has_parent = parent >= 0
    while True:
        nxt = mask | (has_parent & flag[np.where(has_parent, parent, 0)])
        if np.array_equal(nxt, flag):
            return flag
        flag = nxt


def layer_metrics(tracer, solve_info, iterations):
    """Per-layer counts and times from the spans of the traced run.

    `solve_info` maps a solve id to (oracle class name, data matrix bytes);
    `iterations` is the number of driver iterations the traced solves ran.
    Per-iteration oracle figures count calls made inside the two driver
    loops; `estimate_sigma` (run before the lloo loop) is reported apart.
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    name, parent, solve = a["name_id"], a["parent"], a["solve"]
    dur = (a["end"] - a["start"]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child

    def is_(n):
        return name == ids[n] if n in ids else np.zeros(len(name), dtype=bool)

    def count(mask):
        return int(np.count_nonzero(mask))

    def mean_us(values, mask):
        return float(values[mask].mean()) / 1e3 if mask.any() else 0.0

    def total_s(mask):
        return float(dur[mask].sum()) / 1e9

    solve_total = float(dur[is_("cli.run_one")].sum())
    drivers = is_(DRIVERS[0]) | is_(DRIVERS[1])
    in_driver = _under(parent, drivers)
    in_sigma = _under(parent, is_("solvers.estimate_sigma"))
    per_iter = max(iterations, 1)
    m = {}

    oracle_all = np.zeros(len(name), dtype=bool)
    passes = 0.0
    bytes_moved = 0.0
    for call in ORACLE_CALLS:
        mask = is_(f"problems.{call}")
        oracle_all |= mask
        loop = mask & in_driver
        m[f"problems.{call}.calls_per_iter"] = count(loop) / per_iter
        m[f"problems.{call}.us"] = mean_us(dur, loop)
        for sid, n_calls in enumerate(np.bincount(solve[loop], minlength=len(solve_info))):
            kind, nbytes = solve_info[sid]
            p = PASSES[kind][call]
            passes += p * n_calls
            bytes_moved += p * n_calls * nbytes
    m["problems.share"] = float(dur[oracle_all].sum()) / solve_total
    m["problems.passes_per_iter"] = passes / per_iter
    m["problems.bytes_per_iter"] = bytes_moved / per_iter

    lmo, contains = is_("sets.lmo"), is_("sets.contains")
    m["sets.lmo.us"] = mean_us(dur, lmo)
    m["sets.contains.us"] = mean_us(dur, contains)
    m["sets.share"] = float(dur[lmo | contains].sum()) / solve_total

    m["core.gap_and_target.self_us"] = mean_us(self_t, is_("core.gap_and_target"))
    m["core.dist_like.self_us"] = mean_us(self_t, is_("core.dist_like"))
    m["solvers.self_us_per_iter"] = float(self_t[drivers].sum()) / 1e3 / per_iter

    control = drivers | lmo | contains | is_("core.gap_and_target") | is_("core.dist_like")
    for n in ids:
        if n.startswith("steps."):
            control |= is_(n)
    m["control.share"] = float(self_t[control].sum()) / solve_total

    value_parent = parent[is_("problems.value") & has_parent]
    bt, ls = is_("steps.backtrack_step"), is_("steps.exact_line_search")
    m["steps.analytic_step.us"] = mean_us(dur, is_("steps.analytic_step"))
    m["steps.backtrack_step.self_us"] = mean_us(self_t, bt)
    m["steps.backtrack_step.evals_per_call"] = (
        count(bt[value_parent]) / count(bt) if bt.any() else 0.0
    )
    m["steps.exact_line_search.probes_per_call"] = (
        count(ls[value_parent]) / count(ls) if ls.any() else 0.0
    )
    m["steps.exact_line_search.self_us"] = mean_us(self_t, ls)
    m["steps.init_lipschitz.us"] = mean_us(dur, is_("steps.init_lipschitz"))

    sigma = is_("solvers.estimate_sigma")
    m["lloo.lloo_simplex.us"] = mean_us(dur, is_("lloo.lloo_simplex"))
    m["solvers.estimate_sigma.s"] = total_s(sigma) / count(sigma) if sigma.any() else 0.0
    m["solvers.estimate_sigma.hess_vec_calls"] = (
        count(is_("problems.hess_vec") & in_sigma) / count(sigma) if sigma.any() else 0.0
    )

    m["cli.build_problem.s"] = total_s(is_("cli.build_problem"))
    m["cli.parse_libsvm.s"] = total_s(is_("cli.parse_libsvm"))
    m["cli.load_returns_csv.s"] = total_s(is_("cli.load_returns_csv"))
    m["cli.save_csv.s"] = total_s(is_("cli.save_csv"))
    m["cli.read_trace_csv.s"] = total_s(is_("cli.read_trace_csv"))
    m["cli.table_from_trace_dir.s"] = total_s(is_("cli.table_from_trace_dir"))
    m["cli.format_profiles_csv.s"] = total_s(is_("cli.format_profiles_csv"))
    m["profiles.build_profile_table.s"] = total_s(is_("profiles.build_profile_table"))
    m["profiles.metrics.s"] = total_s(
        is_("profiles.fraction_solved") | is_("profiles.iteration_ratio") | is_("profiles.time_ratio")
    )
    return m
