"""The session set-up in conftest.py: a failing property test is reported, and the run goes on."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# One property test that fails on its first example, then one plain test.
_FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_after_it_runs():
    pass
'''


def test_failing_property_test_is_a_normal_failure(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    report = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in report, report
    assert proc.returncode == 1, report
    assert "1 failed, 1 passed" in report, report
