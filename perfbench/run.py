"""Solve benchmark of condgrad: time to a stated duality gap.

Run from the root of a checkout (the library is imported from `src/`):

    python3 perfbench/run.py --workload {desk,paper,grid} --seed N --seconds S --trace {0,1}

Each workload is a closed loop of back-to-back solves in one process,
driven through `cli.build_problem` and `cli.run_one`; every solve stops
at the workload's gap tolerance or its iteration cap and is checked.
`--trace 0` measures the end-to-end metrics with nothing wrapped; their
timings are wall seconds rescaled to a nominal machine speed (see
`SpeedProbe`).
`--trace 1` runs the same loop for half the time untraced and half
traced, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  perfbench/README.md explains how to read it.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# The machine's speed drifts: on a shared two-core machine a fixed
# pure-Python loop ran up to 1.5x slower from one minute to the next, and
# the desk and grid solves and `import condgrad` slowed with it
# (correlation 0.9).  Every end-to-end timing is therefore rescaled by
# the loop's time around it to the speed at which the loop takes
# PROBE_NOMINAL_S (its median there), so that a run measures the
# program and not the neighbours.
PROBE_LOOP = 100_000
PROBE_NOMINAL_S = 0.0041
# a set-up or report sample times a block of calls at least this long
BLOCK_SECONDS = 0.2
MIN_SIDE_SAMPLES = 4
# share of the run's time the side samples may take
SIDE_SHARE = 0.3
IMPORT_PROBE = "import time; t = time.perf_counter(); import condgrad; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "import_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "report_s": "s",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("desk", "paper", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS to one thread; must run before numpy is imported.

    On a shared two-core machine two BLAS threads made `paper` runs vary
    from 6.5 s to 8.5 s between consecutive runs; one thread held them
    within 13.6-14.4 s.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def git_sha():
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def environment(threads):
    import numpy
    import scipy

    import condgrad

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "using_numba": bool(condgrad.USING_NUMBA),
    }


def import_seconds():
    """Time of `import condgrad` in a fresh interpreter."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout)


class SpeedProbe:
    """Rescales wall times to the nominal speed of a fixed Python loop."""

    def __init__(self):
        self.last = self.loop()
        self.samples = [self.last]

    @staticmethod
    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i
        return time.perf_counter() - t0

    def rescale(self, seconds):
        """`seconds` measured just now, at the speed the loop shows before and after."""
        now = self.loop()
        self.samples.append(now)
        speed = 0.5 * (self.last + now)
        self.last = now
        return seconds * PROBE_NOMINAL_S / speed


def block_seconds(fn, min_seconds):
    """Mean wall time of `fn()` over a block of calls lasting at least
    `min_seconds`, so that millisecond steps are not single-shot timings;
    returns (seconds per call, last result)."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls, result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "condgrad" / "__init__.py").is_file():
        print(f"perfbench: no condgrad package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    # numpy, and everything importing it, only after the BLAS pin
    import numpy as np

    import spans
    import workloads as wls
    from condgrad import cli

    wl = wls.WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    env = environment(threads)
    specs = wls.write_inputs(wl, args.seed, out_dir / "data")
    order = np.random.default_rng(args.seed)
    probe = SpeedProbe()

    def solve(key, built, wrap=None):
        inst, method = key
        oracle, fs = built[inst]
        call_oracle, call_fs = wrap(oracle, fs) if wrap else (oracle, fs)
        t0 = time.perf_counter()
        try:
            trace = cli.run_one(call_oracle, call_fs, method, wl.gap, wl.max_iter)
        except Exception as exc:  # a failed solve is recorded and the workload goes on
            wall = time.perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
            return wls.Solve(inst, method, probe.rescale(wall), wall_s=wall, reason=reason), None
        wall = time.perf_counter() - t0
        record = wls.Solve.from_trace(inst, method, probe.rescale(wall), trace)
        record.wall_s = wall
        record.reason = wls.check_solve(oracle, fs, method, trace)
        return record, trace

    def report(latest):
        """The report path over the latest traces; (in-memory table,
        read-back table, trace bytes), or None when it raised."""
        try:
            return wls.write_report(wl, latest, out_dir / "traces")
        except Exception as exc:  # a failed report is recorded and the run goes on
            report_errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def passes(built, seconds, wrap=None, after_solve=None):
        """Closed loop over the workload's solves in seeded order, until
        `seconds` are up and one full pass is done.
        `after_solve(latest, full)` runs between solves, untimed; `full`
        tells whether a full pass is done."""
        keys = wl.keys()
        done, latest, last_seconds = [], {}, {}
        t_end = time.perf_counter() + seconds
        while True:
            for i in order.permutation(len(keys)):
                # once a full pass is done, stop before a solve that would overrun
                expected = last_seconds.get(keys[i], 0.0)
                if len(done) >= len(keys) and time.perf_counter() + expected >= t_end:
                    return done, latest
                record, trace = solve(keys[i], built, wrap)
                last_seconds[keys[i]] = record.seconds
                done.append(record)
                if trace is not None:
                    latest[keys[i]] = trace
                if after_solve is not None:
                    after_solve(latest, len(done) >= len(keys))

    metrics = {}
    report_errors = []
    if args.trace == 0:
        built = wls.build_all(specs)
        wls.check_shapes(specs, built)
        solve(wl.warm_up, built)
        import_seconds()  # fills the bytecode cache
        # the import, set-up and report samples are taken between solves in
        # turn, so that each median spans the run, not one stretch of it
        samples = {"import_s": [], "setup_s": [], "report_s": []}
        turns = itertools.cycle(samples)
        side_time, began = 0.0, time.perf_counter()
        tables = None

        def take(name, latest):
            nonlocal tables
            if name == "import_s":
                seconds = import_seconds()
            elif name == "setup_s":
                seconds = block_seconds(lambda: wls.build_all(specs), BLOCK_SECONDS)[0]
            else:
                seconds, tables = block_seconds(lambda: report(latest), BLOCK_SECONDS)
            samples[name].append(probe.rescale(seconds))

        def side_samples(latest, full):
            nonlocal side_time
            while side_time <= SIDE_SHARE * (time.perf_counter() - began):
                now = time.perf_counter()
                name = next(turns)
                if name != "report_s" or full:  # the report needs a trace per solve
                    take(name, latest)
                side_time += time.perf_counter() - now

        done, latest = passes(built, args.seconds, after_solve=side_samples)
        for name, values in samples.items():
            while len(values) < MIN_SIDE_SAMPLES:
                take(name, latest)
        wls.check_certificates(done)
        metrics["solve_s"] = wls.solve_seconds(done)
        metrics.update({name: statistics.median(v) for name, v in samples.items()})
    else:
        built = wls.build_all(specs)
        wls.check_shapes(specs, built)
        solve(wl.warm_up, built)
        untraced, latest = passes(built, args.seconds / 2)
        tracer = spans.Tracer()
        solve_info = []

        def traced(oracle, fs):
            tracer.solve_id = len(solve_info)
            solve_info.append((type(oracle).__name__, wls.oracle_matrix_bytes(oracle)))
            return spans.TracedOracle(tracer, oracle), spans.TracedSet(tracer, fs)

        with spans.patched(tracer):
            wls.build_all(specs)
            traced_done, traced_latest = passes(built, args.seconds / 2, wrap=traced)
            tracer.solve_id = -1
            tables = report(traced_latest)
        done = untraced + traced_done
        wls.check_certificates(done)
        metrics.update(spans.layer_metrics(tracer, solve_info, sum(s.iterations for s in traced_done)))
        metrics.update(wls.method_metrics(untraced, latest))
        metrics["cli.trace_bytes"] = tables[2] if tables else 0
        metrics["machine.probe_us"] = statistics.median(probe.samples) * 1e6
        metrics["trace.overhead_frac"] = wls.solve_seconds(traced_done) / wls.solve_seconds(untraced) - 1.0
        tracer.save(out_dir / "spans.npz", [(s.instance, s.method) for s in traced_done])

    failures = [{"instance": s.instance, "method": s.method, "reason": s.reason} for s in done if s.reason]
    if tables is not None and not wls.tables_equal(tables[0], tables[1]):
        report_errors.append("profile table read back from the trace files differs from the in-memory one")
    failures += [{"instance": "*", "method": "report", "reason": r} for r in dict.fromkeys(report_errors)]
    attempted, failed = len(done), sum(1 for s in done if s.reason)
    if args.trace == 0:
        metrics["solved_frac"] = (attempted - failed) / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    else:
        metrics["fail_frac"] = failed / attempted
        units = wls.per_layer_units()
    for f in failures:
        print(f"perfbench: FAILED {f['instance']} [{f['method']}]: {f['reason']}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not report_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    solves = [[s.instance, s.method, s.seconds, s.wall_s, s.iterations, s.termination] for s in done]
    record = {
        "args": vars(args),
        "environment": env,
        "probe_us_median": statistics.median(probe.samples) * 1e6,
        "failures": failures,
        **result,
        "solves": solves,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
