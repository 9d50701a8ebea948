import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_hits.py"


def test_grid_calls_the_driver_once_per_solve_and_never_the_oracle_value():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "3", "--workload", "grid"],
        capture_output=True, text=True, check=True,
    ).stdout
    calls = {}
    for line in out.splitlines():
        count, function, unrun = line.split()
        calls[function] = int(count)
    # 4 instances x 5 methods, lloo on the one simplex instance only
    assert calls["solvers.py:_solve"] == 17
    # the driver's points evaluate f from z; the four-method surface stays idle
    assert calls["problems.py:GlmOracle.value"] == 0
