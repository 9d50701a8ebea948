"""Line hits of the benchmark's solves: which condgrad code they run, and how often.

    python tools/line_hits.py --seed 3 [--workload grid] [--show _solve]

For each workload (all three unless `--workload` names some) the tool
builds the seed's inputs with `solve_digest.built_inputs`, then runs
every (instance, method) solve through `cli.run_one`, as
`solve_digest.py` does, and the workload's report path
(`workloads.write_report`) under `sys.settrace`.  Only the code of
`src/condgrad` is followed; building the inputs is not traced.  It
prints one line per function of `src/condgrad`, counted over all the
workloads named:

    calls  file:qualname  unrun

`calls` counts the function's calls (a generator counts each
resumption) and `unrun` lists, as ranges, its statement lines that no
traced call executed ("-" when every one ran).  `--show NAME` (a
qualname such as `_solve` or `GlmPoint._image_of`; repeatable) also
prints each statement line of that function with its hit count.
Tracing makes the solves several times slower; the counts do not
depend on timing.
"""

import argparse
import inspect
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

import solve_digest

SRC = solve_digest.ROOT / "src" / "condgrad"
COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def key(code):
    """(file name, first line, name) of a code object: how a function is keyed here."""
    return Path(code.co_filename).name, code.co_firstlineno, code.co_name


def nested(code):
    """The code objects defined directly in `code`."""
    return [c for c in code.co_consts if isinstance(c, types.CodeType)]


def functions():
    """{key: (qualname, statement lines)} of every function under SRC.

    The qualname is built on the walk down from each module, as Python
    3.11+ builds `co_qualname`: a class body or a comprehension adds
    "name.", any other function "name.<locals>.".
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [("", code) for code in nested(compile(path.read_text(), str(path), "exec"))]
        while stack:
            prefix, code = stack.pop()
            qualname = prefix + code.co_name
            # a class body runs at import, a function body when called
            if code.co_flags & inspect.CO_OPTIMIZED:
                lines = {line for _, _, line in code.co_lines() if line is not None}
                found[key(code)] = qualname, lines
                if code.co_name not in COMPREHENSIONS:
                    qualname += ".<locals>"
            stack += [(qualname + ".", c) for c in nested(code)]
    return found


class Hits:
    """A `sys.settrace` function counting calls and line events of the code under SRC."""

    def __init__(self):
        self.calls = Counter()  # code object -> calls
        self.lines = Counter()  # (code object, line) -> line events
        self._ours = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = Path(code.co_filename).resolve().parent == SRC
        if not ours:
            return None
        self.calls[code] += 1
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code, frame.f_lineno] += 1
        return self._line

    def by_function(self):
        """({function key: calls}, {(function key, line): hits}) keyed as `functions()`."""
        calls, lines = Counter(), Counter()
        for code, n in self.calls.items():
            calls[key(code)] += n
        for (code, line), n in self.lines.items():
            lines[key(code), line] += n
        return calls, lines


def run_workload(workload, seed, hits):
    """Run every solve of the workload, then its report path, under `hits`."""
    import workloads
    from condgrad import cli

    wl, built = solve_digest.built_inputs(workload, seed)
    traces = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(hits)
        try:
            for name, method in wl.keys():
                oracle, feasible_set = built[name]
                traces[name, method] = cli.run_one(oracle, feasible_set, method, wl.gap, wl.max_iter)
            workloads.write_report(wl, traces, tmp)
        finally:
            sys.settrace(None)


def ranges(lines):
    """Sorted line numbers as "3,5-7"; "-" for none."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans) or "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=solve_digest.WORKLOADS)
    parser.add_argument("--show", action="append", default=[], metavar="NAME")
    args = parser.parse_args(argv)
    solve_digest.use_checkout(solve_digest.ROOT)
    hits = Hits()
    for workload in args.workload or solve_digest.WORKLOADS:
        run_workload(workload, args.seed, hits)
    calls, line_hits = hits.by_function()
    for fn, (qualname, lines) in sorted(functions().items(), key=lambda item: item[0][:2]):
        name, first, co_name = fn
        if not co_name.startswith("<"):
            # a def's first line is its entry, not a statement; a lambda or
            # comprehension has its body there
            lines = lines - {first}
        unrun = {line for line in lines if not line_hits[fn, line]}
        print(f"{calls[fn]:9d}  {name}:{qualname}  {ranges(unrun)}")
        if qualname in args.show:
            for line in sorted(lines):
                print(f"{line_hits[fn, line]:9d}      {name}:{line}")


if __name__ == "__main__":
    main()
