"""Experiment scripts: each one runs at a small size and prints its result;
and the package imports nothing outside the standard library but numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script name -> arguments
SCRIPT_ARGS = {
    "economics_demo": ["--txs", "2000", "--shards", "4"],
    "tune_zipf": ["--accounts", "200"],
}


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_runs(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *SCRIPT_ARGS[name]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for out in tmp_path.iterdir():
        assert out.stat().st_size > 0


def test_package_imports_only_stdlib_and_numpy():
    # scipy or networkx may be installed alongside, so a stray import would
    # pass every other test yet break an install from pyproject's dependencies
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    stray = []
    for path in sorted((ROOT / "src" / "shardsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not stray
