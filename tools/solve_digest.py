"""Digest every solve of the benchmark workloads: the same-answers check.

    python tools/solve_digest.py --seed 3 [--workload desk] [--root DIR]

For each workload (all three unless `--workload` names some) the tool
writes the seed's inputs with `perfbench.workloads.write_inputs` into a
temporary directory, runs every (instance, method) solve through
`cli.run_one` with BLAS pinned to one thread, and prints one line per
solve:

    workload instance method termination iterations sha256 files_sha256 f gap

The first SHA-256 covers every field of every record except `time_ns`,
then `final_x` and `init_lipschitz`, each float by its exact hex form, so
it changes with any one-ulp change of an answer and never with timing.
The second covers the bytes that `RunTrace.save_csv` and then
`RunTrace.save_json` write for a copy of the trace whose `time_ns` are
all 0, so it also catches a change in how a trace is written.  The
last row's f and gap close the line (`.17g`), so a diff of two runs
shows how far a changed answer moved.
`--root DIR` imports `src/` and `perfbench/` from another checkout (a
`git worktree` or `git archive` of the parent commit), so

    python tools/solve_digest.py --seed 3 --root ../parent > parent.txt
    python tools/solve_digest.py --seed 3 > change.txt
    diff parent.txt change.txt

checks that a change leaves every answer bit-identical, or shows which
answers a deliberate change moved and where they ended.

`--inputs` prints one line per built instance instead (7 over the three
workloads), so the same diff checks ingestion alone:

    workload instance rows x cols set_kind sha256

The SHA-256 covers the instance's name, its data matrix (shape, dtype and
bytes), its labels or counts, `M`, `gamma`, the set kind and the radius.

`--ladder` prints, per solve, the rows and time it took to reach each
relative gap rung instead:

    workload instance method termination iterations 1e-02:k:time_ns 1e-04:k:time_ns 1e-06:k:time_ns

where k is the first row with gap <= rung * max(1, |f|), f that row's
value, and time_ns its time since the start of the solve; a rung no row
reaches reads `-:-`.  The times come from one run and are noisy.
`--max-iter N` caps every solve at N rows in place of the workload's cap.
"""

import argparse
import dataclasses
import functools
import hashlib
import numbers
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk", "paper", "grid")
LADDER_RUNGS = (1e-2, 1e-4, 1e-6)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _exact(v):
    """A value as text that round-trips: integers in decimal, floats in hex."""
    if v is None:
        return "None"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return float(v).hex()


def trace_digest(trace):
    """SHA-256 over the trace's answers: records without `time_ns`, `final_x`, `init_lipschitz`."""
    h = hashlib.sha256()
    for r in trace.records:
        for field in dataclasses.fields(r):
            if field.name != "time_ns":
                h.update(f"{field.name}={_exact(getattr(r, field.name))};".encode())
        h.update(b"\n")
    h.update(" ".join(_exact(v) for v in trace.final_x).encode())
    h.update(f"\ninit_lipschitz={_exact(trace.init_lipschitz)}".encode())
    return h.hexdigest()


def files_digest(trace):
    """SHA-256 over the CSV and JSON files of the trace, `time_ns` set to 0 on a copy."""
    untimed = dataclasses.replace(
        trace, records=[dataclasses.replace(r, time_ns=0) for r in trace.records]
    )
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp, "trace.csv"), Path(tmp, "trace.json")
        untimed.save_csv(csv_path)
        untimed.save_json(json_path)
        return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


def digest_line(workload, name, method, trace):
    """The line of one solve: its keys, termination, iterations, both digests, last f and gap."""
    last = trace.records[-1]
    return (
        f"{workload} {name} {method} {trace.termination} {len(trace.records) - 1} "
        f"{trace_digest(trace)} {files_digest(trace)} {last.f:.17g} {last.gap:.17g}"
    )


def ladder_line(workload, name, method, trace):
    """The ladder line of one solve: its keys, termination and iterations,
    then per rung the first row with gap <= rung * max(1, |f|) and its `time_ns`."""
    cells = []
    for rung in LADDER_RUNGS:
        first = next((r for r in trace.records if r.gap <= rung * max(1.0, abs(r.f))), None)
        cells.append(f"{rung:.0e}:-:-" if first is None else f"{rung:.0e}:{first.k}:{first.time_ns}")
    return f"{workload} {name} {method} {trace.termination} {len(trace.records) - 1} " + " ".join(cells)


def inputs_line(workload, name, oracle, feasible_set):
    """The line of one built instance: its keys, shape, set kind and a SHA-256
    over its name, matrix, labels or counts, M, gamma, set kind and radius."""
    matrix = oracle.matrix
    h = hashlib.sha256(f"{name}\n{matrix.shape} {matrix.dtype.str}\n".encode())
    h.update(matrix.tobytes())
    for attr in ("labels", "counts"):
        if hasattr(oracle, attr):
            h.update(f"\n{attr}=".encode() + getattr(oracle, attr).tobytes())
    radius = getattr(feasible_set, "radius", None)
    h.update(
        f"\nM={_exact(oracle.M)};gamma={_exact(oracle.gamma)};"
        f"set={feasible_set.kind};radius={_exact(radius)}".encode()
    )
    rows, cols = matrix.shape
    return f"{workload} {name} {rows} x {cols} {feasible_set.kind} {h.hexdigest()}"


def use_checkout(root):
    """Pin BLAS to one thread and put `src/` and `perfbench/` of `root` first on the path.

    Call it before numpy loads: threaded reductions may round differently.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]


def built_inputs(workload, seed):
    """The workload and its instances on the seed's inputs, {name: (oracle, set)}."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        return wl, workloads.build_all(workloads.write_inputs(wl, seed, tmp))


def digest_lines(workload, seed, line=digest_line, max_iter=None):
    """One `line` per solve of the workload on the seed's inputs, each
    solve capped at `max_iter` rows (the workload's cap when None)."""
    from condgrad import cli

    wl, built = built_inputs(workload, seed)
    for name, method in wl.keys():
        oracle, feasible_set = built[name]
        trace = cli.run_one(oracle, feasible_set, method, wl.gap, max_iter or wl.max_iter)
        yield line(workload, name, method, trace)


def inputs_lines(workload, seed):
    """One line per instance of the workload, built on the seed's inputs."""
    _, built = built_inputs(workload, seed)
    for name, (oracle, feasible_set) in built.items():
        yield inputs_line(workload, name, oracle, feasible_set)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to import src/ and perfbench/ from")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--inputs", action="store_true", help="one line per built instance, no solves")
    output.add_argument("--ladder", action="store_true", help="per solve, the first row at each relative gap rung")
    parser.add_argument("--max-iter", type=int, help="cap every solve at this many rows, not the workload's cap")
    args = parser.parse_args(argv)
    if args.max_iter is not None and (args.inputs or args.max_iter < 1):
        parser.error("--max-iter takes a positive count and needs solves (not --inputs)")
    use_checkout(args.root)
    if args.inputs:
        lines = inputs_lines
    else:
        lines = functools.partial(
            digest_lines, line=ladder_line if args.ladder else digest_line, max_iter=args.max_iter
        )
    for workload in args.workload or WORKLOADS:
        for line in lines(workload, args.seed):
            print(line, flush=True)


if __name__ == "__main__":
    main()
