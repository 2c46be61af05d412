"""The benchmark harness's self-tests and its workload checks, run against the
current package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["table1", "ellipse_sweeps"])
def test_benchmark_workload_passes_its_checks(workload, tmp_path):
    # the benchmark's own command, one pass: its eigenvalues against
    # perfbench/reference.json, the golden cells, the closed form and the
    # sweep verdicts.  It runs on a copy of src/ and perfbench/, so its
    # one-pass record lands in the copy's out/ and leaves the records of
    # full benchmark runs in perfbench/out/ alone.
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    record = tmp_path / "perfbench" / "out" / f"{workload}-seed0-trace0.json"
    assert json.loads(record.read_text())["workload"] == workload
