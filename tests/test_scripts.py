"""Experiment scripts: each one runs at a small size and prints its result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script name -> arguments; "{tmp}" stands for a per-test directory
SCRIPT_ARGS = {
    "economics_demo": ["--txs", "2000", "--shards", "4"],
    "sweep_cross_cost": ["--txs", "2000", "--shards", "4", "--costs", "1,2"],
    "sweep_shards": ["--txs", "2000", "--shards", "4,8", "--accounts", "400",
                     "--communities", "40", "--csv", "{tmp}/shards.csv"],
    "tune_zipf": ["--accounts", "200"],
}


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_runs(name, tmp_path):
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in SCRIPT_ARGS[name]]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for out in tmp_path.iterdir():
        assert out.stat().st_size > 0
