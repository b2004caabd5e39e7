"""Experiment scripts: each one runs at a small size and prints its result;
the package imports nothing outside the standard library but numpy, and it
exports only its run boundary."""

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
    "src_lines": [],
    "tune_zipf": ["--accounts", "200"],
}


def _run_script(name, args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_runs(name, tmp_path):
    proc = _run_script(name, SCRIPT_ARGS[name], tmp_path)
    assert proc.stdout.strip()
    for out in tmp_path.iterdir():
        assert out.stat().st_size > 0


_COUNTED_MODULE = '''"""Module docstring,
two lines."""

# a comment
import os


class A:
    """Class docstring."""

    def f(self):
        """One line."""
        text = """not a docstring,
        but a string that spans two lines"""
        return os.sep + text  # trailing comment
'''


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path):
    # 15 raw lines: the import, the class and def lines, the two lines of the
    # assigned string and the return are code; the rest are not
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(_COUNTED_MODULE, encoding="utf-8")
    rows = _run_script("src_lines", [str(tmp_path)], tmp_path).stdout.splitlines()
    assert rows[1].split() == ["pkg/mod.py", "15", "6"]
    assert rows[-1].split() == ["total", "15", "6"]


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


def test_package_exports_only_the_run_boundary():
    # the entry points and the records they take and return: the internals of
    # core, policies and economics check nothing, trusting what SimConfig,
    # Simulation, load_trace and SyntheticSpec accepted
    import shardsim

    boundary = ["Account", "FinalSummary", "Livelock", "RoundReport", "SimConfig", "Simulation",
                "SyntheticSpec", "Transaction", "finalize", "generate", "load_trace", "run"]
    assert sorted(shardsim.__all__) == boundary
    namespace = {}
    exec("from shardsim import *", namespace)  # raises on a listed name the package lacks
    assert sorted(set(namespace) - {"__builtins__"}) == boundary
