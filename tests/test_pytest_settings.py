"""The repository's pytest settings: every warning is an error, and a failing
hypothesis test is reported like any other failure instead of ending the
session."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 0


def test_warning_fails():
    warnings.warn("an ordinary deprecation", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    sample = tmp_path / "test_sample.py"
    sample.write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(sample)],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 is an internal error
    assert "INTERNALERROR" not in out
    assert re.search(r"\b2 failed, 1 passed\b", proc.stdout.splitlines()[-1]), out
    assert "test_warning_fails" in proc.stdout  # other warnings stay errors
