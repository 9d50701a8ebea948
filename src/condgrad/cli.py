"""Command-line benchmark harness.

Subcommands:

* ``solve``    -- one (problem, method) run, trace written as CSV/JSON
* ``bench``    -- a method x problem grid from a JSON config
* ``profile``  -- recompute profile metrics from a directory of traces
* ``gen-data`` -- write a synthetic returns matrix as CSV
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import problems as prob
from .core import finite_real, integer, positive_int, positive_real
from .profiles import RunRecord, build_profile_table, fraction_solved, iteration_ratio, time_ratio
from .sets import lloo_simplex
from .solvers import (
    METHODS, POLICIES, RunConfig, certificate_lower_bound, estimate_sigma, fw_solve, lloo_fw_solve, read_trace_csv
)

DEFAULT_EPS_GRID = [10.0**-p for p in range(1, 9)]
DEFAULT_MAX_ITER = 50000
DEFAULT_GAP_TOL = 1e-10


def _required(mapping, key, what):
    """mapping[key]; a missing key is a ValueError that names it."""
    if key not in mapping:
        raise ValueError(f"{what} lacks the key {key!r}")
    return mapping[key]


def _eps_levels(values):
    """The profile's relative-error levels as floats: each entry passes
    `finite_real` and is >= 0, or a ValueError names `eps_grid entry`."""
    levels = [finite_real("eps_grid entry", e) for e in values]
    for eps in levels:
        if eps < 0.0:
            raise ValueError(f"eps_grid entry must be nonnegative, got {eps!r}")
    return levels


# the spec keys each problem kind reads: generated, and from a `data` file
_SPEC_KEYS = {
    "portfolio": ({"T", "n", "seed"}, {"data"}),
    "poisson": ({"m", "n", "density", "radius", "seed"}, {"data", "radius"}),
    "logistic": ({"N", "n", "radius", "gamma", "mu", "seed"}, {"data", "radius", "gamma", "mu"}),
}
_TABLE_KEYS = set().union(*(generated | with_data for generated, with_data in _SPEC_KEYS.values()))


def build_problem(spec):
    """Instantiate a problem from a config entry; returns (name, oracle, set).

    A key of `_SPEC_KEYS` that the spec's kind does not read is a
    ValueError; `kind`, `name` and other keys pass unread.
    """
    kind = _required(spec, "kind", "problem spec")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    what = f"{kind} problem spec"
    unread = sorted((spec.keys() & _TABLE_KEYS) - _SPEC_KEYS[kind]["data" in spec])
    if unread:
        raise ValueError(f"{what} does not read {', '.join(map(repr, unread))}")

    def size(key):
        return positive_int(f"{what} {key!r}", _required(spec, key, what))

    seed = integer(f"{what} 'seed'", spec.get("seed", 0))
    if kind != "portfolio":
        radius = positive_real(f"{what} 'radius'", spec.get("radius", prob.DEFAULT_RADIUS))
    if "data" in spec and kind == "portfolio":
        matrix, seed = prob.load_returns_csv(spec["data"])
    elif "data" in spec:
        with open(spec["data"]) as fh:
            matrix, labels = prob.parse_libsvm(fh)
    elif kind == "portfolio":
        matrix = prob.gen_portfolio_data(size("T"), size("n"), seed)
    elif kind == "poisson":
        m, n = size("m"), size("n")
        matrix = prob.gen_binary_design(m, n, finite_real(f"{what} 'density'", spec.get("density", 0.2)), seed)
    else:
        matrix, labels = prob.gen_logistic_data(size("N"), size("n"), seed)
    rows, cols = matrix.shape
    if kind == "portfolio":
        oracle, feasible_set = prob.portfolio_problem(matrix)
        default = f"portfolio_n{cols}_T{rows}_s{seed}"
    elif kind == "poisson":
        oracle, feasible_set = prob.poisson_problem(matrix, np.ones(rows), radius)
        default = f"poisson_m{rows}_n{cols}_s{seed}"
    else:
        gamma = None if spec.get("gamma") is None else positive_real(f"{what} 'gamma'", spec["gamma"])
        mu = finite_real(f"{what} 'mu'", spec.get("mu", 0.0))
        labels = np.where(labels > 0, 1.0, -1.0)
        oracle, feasible_set = prob.logistic_problem(matrix, labels, mu=mu, gamma=gamma, radius=radius)
        default = f"logistic_N{rows}_n{cols}_s{seed}"
    if "data" in spec and kind != "portfolio":
        default = f"{kind}_{Path(spec['data']).stem}"
    name = spec.get("name", default)
    if not isinstance(name, str) or "/" in name or "\0" in name:
        raise ValueError(f"{what} 'name' must be a string without '/' or NUL, got {name!r}")
    return name, oracle, feasible_set


def run_one(oracle, feasible_set, method, eps, max_iter):
    config = RunConfig(epsilon=eps, max_iter=max_iter, policy=method)
    if method == "lloo":
        if feasible_set.kind != "simplex":
            raise ValueError("the lloo method runs on simplex problems only")
        sigma = estimate_sigma(oracle, feasible_set.start_point())
        if not sigma > 0:
            raise ValueError(
                "the Hessian at the start point is singular, so the lloo method "
                "has no strong-convexity estimate; a portfolio needs T >= n"
            )
        return lloo_fw_solve(oracle, lloo_simplex, config, sigma)
    return fw_solve(oracle, feasible_set, config)


def cmd_solve(args):
    spec = {"kind": args.problem}
    if args.data:
        spec["data"] = args.data
    reads = _SPEC_KEYS[args.problem][bool(args.data)]
    rows = "m" if args.problem == "poisson" else "N"
    for flag, key in (("T", "T"), ("n", "n"), ("samples", rows), ("radius", "radius"), ("seed", "seed")):
        value = getattr(args, flag)
        if value is None:
            continue
        if key not in reads:
            source = " read from --data" if args.data else ""
            raise ValueError(f"--{flag} does not apply to a {args.problem} problem{source}")
        spec[key] = value
    name, oracle, feasible_set = build_problem(spec)
    trace = run_one(oracle, feasible_set, args.method, args.eps, args.max_iter)
    trace.save_csv(args.out)
    if args.json:
        trace.save_json(args.json)
    last = trace.records[-1]
    print(
        f"{name} [{args.method}] {trace.termination} after {last.k} iterations: "
        f"f={last.f:.12g} gap={last.gap:.3e} lower_bound={certificate_lower_bound(trace):.12g}"
    )
    return 0


def _list_field(cfg, key, default):
    """cfg[key], or `default` when absent; a value that is not a list, or
    an empty list, is a ValueError."""
    value = cfg.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"bench config {key!r} must be a list, got {value!r}")
    if not value:
        raise ValueError(f"bench config {key!r} must not be empty")
    return value


def _expand_problems(cfg):
    seeds = _list_field(cfg, "seeds", [0])
    specs = []
    _required(cfg, "problems", "bench config")
    for entry in _list_field(cfg, "problems", None):
        if not isinstance(entry, dict):
            raise ValueError(f"bench config 'problems' entries must be objects, got {entry!r}")
        if "seed" in entry or "data" in entry:
            specs.append(dict(entry))
        else:
            for s in seeds:
                e = dict(entry)
                e["seed"] = s
                specs.append(e)
    return specs


def run_suite(cfg, out_dir):
    """Execute a bench config; returns the summary dict and the table that
    `table_from_trace_dir` reads from the traces written (None without one).

    A run that raises, or whose trace file cannot be written, is listed
    in the summary with its `error` message and `error_type`; the
    remaining runs go on.  `out_dir` keeps no `<method>__<problem>.csv`
    trace and no `profiles.csv` of an earlier grid.
    """
    eps_grid = _eps_levels(_list_field(cfg, "eps_grid", DEFAULT_EPS_GRID))
    methods = _list_field(cfg, "methods", list(POLICIES))
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(
                f"bench config 'methods' has unknown method {method!r}; known: {', '.join(METHODS)}"
            )
        # a second run of a method would write over the first one's traces
        if method in methods[:i]:
            raise ValueError(f"bench config names method {method!r} more than once")
    specs = _expand_problems(cfg)
    max_iter = positive_int("bench config 'max_iter'", cfg.get("max_iter", DEFAULT_MAX_ITER))
    gap_tol = positive_real("bench config 'gap_tol'", cfg.get("gap_tol", DEFAULT_GAP_TOL))
    instances = [build_problem(spec) for spec in specs]
    # two problems of one name would write their runs to one trace file
    repeated = [name for name, count in Counter(name for name, _, _ in instances).items() if count > 1]
    if repeated:
        raise ValueError(f"bench config has more than one problem named {repeated[0]!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # `profile` reads every trace of the directory: an earlier grid's would
    # read as this one's
    for stale in out_dir.glob("*__*.csv"):
        stale.unlink()

    runs = []
    for name, oracle, feasible_set in instances:
        for method in methods:
            entry = {"method": method, "problem": name}
            path = out_dir / f"{method}__{name}.csv"
            try:
                trace = run_one(oracle, feasible_set, method, gap_tol, max_iter)
                trace.save_csv(path)
            except Exception as exc:  # a failed run is recorded and the grid goes on
                entry["error"] = str(exc)
                entry["error_type"] = type(exc).__name__
                runs.append(entry)
                continue
            last = trace.records[-1]
            entry.update(
                termination=trace.termination,
                iterations=len(trace.records) - 1,
                final_f=float(last.f),
                best_f=float(min(r.f for r in trace.records)),
                final_gap=float(last.gap),
                lower_bound=float(certificate_lower_bound(trace)),
                wall_ns=int(last.time_ns),
                trace=path.name,
            )
            runs.append(entry)
    summary = {"config": cfg, "runs": runs}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))

    table = table_from_trace_dir(out_dir)
    if table is None:
        # an earlier grid's table would read as this one's
        (out_dir / "profiles.csv").unlink(missing_ok=True)
    else:
        (out_dir / "profiles.csv").write_text(format_profiles_csv(table, eps_grid))
    return summary, table


def format_profiles_csv(table, eps_grid):
    lines = ["method,eps,frac_solved,iter_ratio,time_ratio"]
    for eps in eps_grid:
        frac = fraction_solved(table, eps)
        try:
            iters = iteration_ratio(table, eps)
            times = time_ratio(table, eps)
        except ValueError:
            iters = times = None
        for m in table.methods:
            it = "" if iters is None else format(iters[m], ".17g")
            tt = "" if times is None else format(times[m], ".17g")
            lines.append(f"{m},{format(eps, '.17g')},{format(frac[m], '.17g')},{it},{tt}")
    return "\n".join(lines) + "\n"


def table_from_trace_dir(trace_dir):
    """The ProfileTable of the `<method>__<problem>.csv` traces in
    `trace_dir`, or None when no method has a trace on every problem.

    A method without a trace on some problem (e.g. the simplex-only
    local-oracle method on non-simplex problems) is dropped.
    """
    records = []
    for path in sorted(Path(trace_dir).glob("*__*.csv")):
        method, _, problem = path.stem.partition("__")
        cols = read_trace_csv(path)
        records.append(RunRecord(method, problem, cols["f"], cols["time_ns"]))
    problems = {r.problem for r in records}
    runs = Counter(r.method for r in records)
    records = [r for r in records if runs[r.method] == len(problems)]
    return build_profile_table(records) if records else None


def cmd_bench(args):
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"bench config must be a JSON object, got {cfg!r}")
    out_dir = args.out or cfg.get("out_dir", "bench_out")
    if not isinstance(out_dir, str):
        raise ValueError(f"bench config 'out_dir' must be a string, got {out_dir!r}")
    summary, table = run_suite(cfg, out_dir)
    failures = [r for r in summary["runs"] if "error" in r]
    print(f"{len(summary['runs']) - len(failures)} runs completed, {len(failures)} failed -> {out_dir}")
    return 0


def cmd_profile(args):
    eps_grid = DEFAULT_EPS_GRID
    if args.eps_grid is not None:
        try:
            eps_grid = [float(text) for text in args.eps_grid.split(",")]
        except ValueError:
            raise ValueError(f"--eps-grid entries must be numbers, got {args.eps_grid!r}") from None
        eps_grid = _eps_levels(eps_grid)
    table = table_from_trace_dir(args.traces)
    if table is None:
        raise ValueError(f"no complete method traces found under {args.traces}")
    text = format_profiles_csv(table, eps_grid)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_data(args):
    returns = prob.gen_portfolio_data(args.T, args.n, args.seed)
    prob.save_returns_csv(args.out, returns, args.seed)
    print(f"wrote {args.T}x{args.n} returns matrix (seed {args.seed}) to {args.out}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(prog="condgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one method on one problem")
    p.add_argument("--problem", required=True, choices=["portfolio", "poisson", "logistic"])
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--eps", type=float, default=DEFAULT_GAP_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--seed", type=int, help="generated problems: instance seed (default 0)")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--json", help="optional trace JSON path")
    p.add_argument("--T", type=int, help="portfolio: number of periods")
    p.add_argument("--n", type=int, help="problem dimension")
    p.add_argument("--samples", type=int, help="poisson/logistic: number of rows")
    p.add_argument("--data", help="LIBSVM file (poisson/logistic) or returns CSV (portfolio)")
    p.add_argument("--radius", type=float, help="feasible-set radius where applicable")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a method x problem grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("profile", help="recompute profile metrics from stored traces")
    p.add_argument("--traces", required=True, help="directory of <method>__<problem>.csv files")
    p.add_argument("--eps-grid", help="comma-separated relative-error levels")
    p.add_argument("--out", help="profiles CSV path (default: stdout)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gen-data", help="write a synthetic returns matrix")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None):
    """Run one subcommand; bad input (a ValueError or OSError) or a size
    that does not fit in memory (a MemoryError) prints one line to stderr
    and returns 2, any other exception propagates."""
    # argparse reads a value like "-inf" or "-1e-3" as an option name, so a
    # value of --eps or --radius that starts with "-" is joined to it first
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--eps", "--radius") and arg[:1] == "-" and arg[1:2] != "-":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = make_parser().parse_args(joined)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"condgrad: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
