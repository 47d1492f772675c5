"""The benchmark's self-test, run as part of the test suite.

perfbench attributes each stage's work through the spans of its
encoder_block, so a forward restructure that moves a layer outside the
block shows here as a failing self-test, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
