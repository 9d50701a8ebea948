import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condgrad.cli import build_problem
from condgrad.sets import Simplex
from condgrad.solvers import RunConfig, fw_solve

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("solve_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest(tool):
    return tool.trace_digest


@pytest.fixture
def trace(log_barrier2):
    config = RunConfig(epsilon=1e-8, max_iter=20, policy="analytic")
    return fw_solve(log_barrier2, Simplex(2), config, x0=np.array([0.25, 0.75]))


def test_equal_traces_digest_equally(digest, trace, log_barrier2):
    config = RunConfig(epsilon=1e-8, max_iter=20, policy="analytic")
    again = fw_solve(log_barrier2, Simplex(2), config, x0=np.array([0.25, 0.75]))
    assert digest(again) == digest(trace)


def test_one_ulp_in_f_changes_the_digest(digest, trace):
    before = digest(trace)
    r = trace.records[3]
    trace.records[3] = dataclasses.replace(r, f=float(np.nextafter(r.f, np.inf)))
    assert digest(trace) != before


def test_time_ns_does_not_enter_the_digest(digest, trace):
    before = digest(trace)
    trace.records = [dataclasses.replace(r, time_ns=r.time_ns + 12345) for r in trace.records]
    assert digest(trace) == before


def test_files_digest_ignores_time_ns_and_sees_one_ulp(tool, trace):
    times = [r.time_ns for r in trace.records]
    before = tool.files_digest(trace)
    assert [r.time_ns for r in trace.records] == times  # zeroed on a copy only
    timed = [dataclasses.replace(r, time_ns=r.time_ns + 12345) for r in trace.records]
    assert tool.files_digest(dataclasses.replace(trace, records=timed)) == before
    r = trace.records[3]
    trace.records[3] = dataclasses.replace(r, e=float(np.nextafter(r.e, np.inf)))
    assert tool.files_digest(trace) != before


def test_line_ends_with_the_last_f_and_gap(tool, trace):
    fields = tool.digest_line("desk", "inst", "analytic", trace).split()
    last = trace.records[-1]
    assert fields[:5] == ["desk", "inst", "analytic", trace.termination, str(len(trace.records) - 1)]
    assert fields[5:7] == [tool.trace_digest(trace), tool.files_digest(trace)]
    assert fields[7:] == [f"{last.f:.17g}", f"{last.gap:.17g}"]
    assert (float(fields[7]), float(fields[8])) == (last.f, last.gap)


def test_the_tool_digests_every_desk_solve():
    # the whole tool over a benchmark workload: its inputs, every solve
    # and one line of the nine fields per solve
    run = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--workload", "desk"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = run.stdout.splitlines()
    assert len(lines) == 10
    for line in lines:
        fields = line.split()
        assert len(fields) == 9
        assert fields[0] == "desk" and fields[3] == "gap_below_eps"
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in fields[5:7])


def test_one_ulp_in_one_matrix_entry_changes_the_inputs_line(tool):
    name, oracle, feasible_set = build_problem({"kind": "logistic", "N": 12, "n": 5})
    before = tool.inputs_line("grid", name, oracle, feasible_set)
    assert before.split()[:6] == ["grid", name, "12", "x", "5", "l1_ball"]
    again = build_problem({"kind": "logistic", "N": 12, "n": 5})[1]
    assert tool.inputs_line("grid", name, again, feasible_set) == before
    oracle.matrix[3, 2] = np.nextafter(oracle.matrix[3, 2], np.inf)
    assert tool.inputs_line("grid", name, oracle, feasible_set) != before


def test_the_tool_prints_one_line_per_instance_with_inputs():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--inputs"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = run.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["desk", "portfolio_T50_n20_s1"],
        ["desk", "portfolio_T50_n20_s7"],
        ["paper", "portfolio_T1000_n800_s7"],
        ["grid", "poisson200"],
        ["grid", "poisson_m200_n30_s0"],
        ["grid", "logistic_N200_n50_s0"],
        ["grid", "portfolio_T50_n20_s7"],
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[-1]) for line in lines)


def test_ladder_line_names_the_first_row_at_each_rung(tool, trace):
    fields = tool.ladder_line("desk", "inst", "analytic", trace).split()
    assert fields[:5] == ["desk", "inst", "analytic", trace.termination, str(len(trace.records) - 1)]
    assert len(fields) == 8
    for cell, rung in zip(fields[5:], (1e-2, 1e-4, 1e-6)):
        label, k, time_ns = cell.split(":")
        assert float(label) == rung
        reached = [r for r in trace.records if r.gap <= rung * max(1.0, abs(r.f))]
        assert reached, rung  # the run ends at gap 1e-8, below every rung
        assert (int(k), int(time_ns)) == (reached[0].k, reached[0].time_ns)
    assert fields[5] != fields[7]  # the rungs are reached at different rows


def test_ladder_marks_a_rung_no_row_reaches(tool, trace):
    first = trace.records[0]
    assert first.gap > 1e-2 * max(1.0, abs(first.f))
    fields = tool.ladder_line("desk", "inst", "analytic", dataclasses.replace(trace, records=[first])).split()
    assert fields[5:] == ["1e-02:-:-", "1e-04:-:-", "1e-06:-:-"]


def test_the_tool_prints_a_ladder_line_per_solve_under_a_cap():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--workload", "desk", "--ladder", "--max-iter", "40"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = run.stdout.splitlines()
    assert len(lines) == 10
    for line in lines:
        fields = line.split()
        assert fields[0] == "desk" and int(fields[4]) <= 40
        assert [cell.split(":")[0] for cell in fields[5:]] == ["1e-02", "1e-04", "1e-06"]
        assert all(re.fullmatch(r"\d+:\d+|-:-", cell.split(":", 1)[1]) for cell in fields[5:])
