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


def run_one_pass(tmp_path, workload, trace):
    """The benchmark's own command, one pass, on a copy of src/ and
    perfbench/, so its record lands in the copy's out/ and leaves the
    records of full benchmark runs in perfbench/out/ alone; returns the
    record."""
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    record = tmp_path / "perfbench" / "out" / f"{workload}-seed0-trace{trace}.json"
    return json.loads(record.read_text())


@pytest.mark.parametrize("workload", ["table1", "ellipse_sweeps", "fine_solve"])
def test_benchmark_workload_passes_its_checks(workload, tmp_path):
    # its eigenvalues against perfbench/reference.json, the golden cells,
    # the closed form and the sweep verdicts
    assert run_one_pass(tmp_path, workload, 0)["workload"] == workload


def test_traced_pass_sees_every_settle_distance(tmp_path):
    # the table-1 domains are not graded, so `size_field` measures no outer
    # distance and every one goes through `region_signed_distance`, which
    # the trace wraps where meshing looks it up; it runs at every settle's
    # free points as well as at the centroids of every Qhull call
    metrics = run_one_pass(tmp_path, "table1", 1)["metrics"]
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert (value["domains.region_signed_distance.points"]
            == value["domains.outer_signed_distance.points"])
    assert (value["domains.region_signed_distance.calls"]
            > value["meshing.delaunay.calls"])
