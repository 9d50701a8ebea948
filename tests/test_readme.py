"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_blocks_run_in_order_and_end_at_their_gap(tmp_path, monkeypatch, capsys):
    # the quick start, then the lloo example that reuses its oracle and set
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        assert namespace["trace"].termination == "gap_below_eps"
    assert (tmp_path / "run.csv").exists()
    assert capsys.readouterr().out.startswith("gap_below_eps ")
