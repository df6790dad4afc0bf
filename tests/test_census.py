"""Smoke test of ``tools/solve_census.py``, the replay whose digests show
that a change leaves the benchmark's outputs byte-identical."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"1 0 .+ [0-9a-f]{64} attempted \d+ failed 0 problems 0")


@pytest.mark.parametrize("workload, round_fn", [
    ("cli-batch", "cli_batch_round"),
    ("newton-1d", "newton_1d_round"),
])
def test_census_replays_one_round(workload, round_fn, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    try:
        import workloads

        tasks = getattr(workloads, round_fn)(np.random.default_rng(1), tmp_path)
    finally:
        sys.modules.pop("workloads", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_census.py"), "--workload", workload,
         "--seeds", "1", "--rounds", "1"],
        capture_output=True, text=True, env=subprocess_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, total = proc.stdout.splitlines()
    assert len(lines) == len(tasks)
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert re.fullmatch(r"total attempted \d+ failed 0 problems 0 open 0", total)
