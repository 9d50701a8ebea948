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
from .profiles import RunRecord, build_profile_table, fraction_solved, iteration_ratio, time_ratio
from .lloo import lloo_simplex
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


def _number_field(mapping, key, kind, what, default=None):
    """kind(mapping[key]) for kind int or float, `default` standing in for
    an absent key when one is given.  A missing key, a value of a type
    kind() refuses (a list or null), a string or an int it cannot read,
    a bool and, for an int, a non-integral number are each a ValueError
    naming the key; a numeric string such as "50" is read."""
    value = _required(mapping, key, what) if default is None else mapping.get(key, default)
    if isinstance(value, bool) or kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} {key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except TypeError:
        raise ValueError(f"{what} {key!r} must be a number, got {value!r}") from None
    except (ValueError, OverflowError) as exc:  # OverflowError: a JSON int beyond float
        raise ValueError(f"{what} {key!r}: {exc}") from None


def _size_field(spec, key, what):
    """A problem size spec[key] as an int; below 1 is a ValueError naming the key."""
    value = _number_field(spec, key, int, what)
    if value < 1:
        raise ValueError(f"{what} {key!r} must be at least 1, got {value}")
    return value


def _eps_levels(values):
    """The profile's relative-error levels as floats, each finite and >= 0;
    an entry that is no number (a list, null, a bool, a word) is a ValueError naming `eps_grid`."""
    try:
        if any(isinstance(e, bool) for e in values):
            raise TypeError
        levels = [float(e) for e in values]
    except (TypeError, ValueError):
        raise ValueError(f"eps_grid entries must be numbers, got {values!r}") from None
    for eps in levels:
        if not 0.0 <= eps < np.inf:
            raise ValueError(f"profile levels must be finite and nonnegative, got {eps!r}")
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
    seed = _number_field(spec, "seed", int, what, 0)
    if kind != "portfolio":
        radius = _number_field(spec, "radius", float, what, prob.DEFAULT_RADIUS)
    if "data" in spec and kind == "portfolio":
        matrix, seed = prob.load_returns_csv(spec["data"])
    elif "data" in spec:
        with open(spec["data"]) as fh:
            matrix, labels = prob.parse_libsvm(fh)
    elif kind == "portfolio":
        matrix = prob.gen_portfolio_data(_size_field(spec, "T", what), _size_field(spec, "n", what), seed)
    elif kind == "poisson":
        m, n = _size_field(spec, "m", what), _size_field(spec, "n", what)
        matrix = prob.gen_binary_design(m, n, _number_field(spec, "density", float, what, 0.2), seed)
    else:
        matrix, labels = prob.gen_logistic_data(_size_field(spec, "N", what), _size_field(spec, "n", what), seed)
    rows, cols = matrix.shape
    if kind == "portfolio":
        oracle, feasible_set = prob.portfolio_problem(matrix)
        default = f"portfolio_n{cols}_T{rows}_s{seed}"
    elif kind == "poisson":
        oracle, feasible_set = prob.poisson_problem(matrix, np.ones(rows), radius)
        default = f"poisson_m{rows}_n{cols}_s{seed}"
    else:
        gamma = None if spec.get("gamma") is None else _number_field(spec, "gamma", float, what)
        mu = _number_field(spec, "mu", float, what, 0.0)
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
    for flag in ("T", "n", "samples"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be positive")
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
    """Execute a bench config; returns (summary dict, ProfileTable or None).

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
    max_iter = _number_field(cfg, "max_iter", int, "bench config", DEFAULT_MAX_ITER)
    if max_iter < 1:
        raise ValueError(f"bench config 'max_iter' must be at least 1, got {max_iter}")
    gap_tol = _number_field(cfg, "gap_tol", float, "bench config", DEFAULT_GAP_TOL)
    if not 0.0 < gap_tol < np.inf:
        raise ValueError(f"bench config 'gap_tol' must be finite and positive, got {gap_tol!r}")
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
    records = []
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
            f_series = np.array([r.f for r in trace.records])
            t_series = np.array([r.time_ns for r in trace.records])
            entry.update(
                termination=trace.termination,
                iterations=len(trace.records) - 1,
                final_f=float(trace.records[-1].f),
                best_f=float(np.min(f_series)),
                final_gap=float(trace.records[-1].gap),
                lower_bound=float(certificate_lower_bound(trace)),
                wall_ns=int(t_series[-1]),
                trace=path.name,
            )
            runs.append(entry)
            records.append(RunRecord(method, name, f_series, t_series))
    summary = {"config": cfg, "runs": runs}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))

    table = None
    usable = _fully_covered_records(records)
    if usable:
        table = build_profile_table(usable)
        (out_dir / "profiles.csv").write_text(format_profiles_csv(table, eps_grid))
    else:
        # an earlier grid's table would read as this one's
        (out_dir / "profiles.csv").unlink(missing_ok=True)
    return summary, table


def _fully_covered_records(records):
    """Drop methods that lack a trace on some problem (e.g. the simplex-only
    local-oracle method on non-simplex problems)."""
    problems = {r.problem for r in records}
    runs = Counter(method for method, _ in {(r.method, r.problem) for r in records})
    return [r for r in records if runs[r.method] == len(problems)]


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
    """Rebuild a ProfileTable from `<method>__<problem>.csv` traces.

    Methods without a trace on every problem in the directory are dropped,
    mirroring what `bench` does when it writes profiles.csv.
    """
    records = []
    for path in sorted(Path(trace_dir).glob("*__*.csv")):
        method, _, problem = path.stem.partition("__")
        cols = read_trace_csv(path)
        records.append(RunRecord(method, problem, cols["f"], cols["time_ns"]))
    records = _fully_covered_records(records)
    if not records:
        raise ValueError(f"no complete method traces found under {trace_dir}")
    return build_profile_table(records)


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
    eps_grid = DEFAULT_EPS_GRID if args.eps_grid is None else _eps_levels(args.eps_grid.split(","))
    table = table_from_trace_dir(args.traces)
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
