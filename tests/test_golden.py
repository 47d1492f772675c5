"""Forward masks at 64x64 must match the recorded golden files.

The files were written by tests/golden/regenerate.py as float32, so the
comparison allows 1e-7 absolute (float32 rounding of values in [0, 1] is
below 6e-8).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden.regenerate import CASES, golden_input, golden_path
from wavescan import fileio
from wavescan.pipeline import forward

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Writes the stacked masks of every golden case, in sorted order, to argv[1].
MASKS_SCRIPT = """
import sys
import numpy as np
from golden.regenerate import CASES, golden_input
from wavescan.pipeline import forward
image = golden_input()
np.save(sys.argv[1], np.stack([forward(image, CASES[name]).data for name in sorted(CASES)]))
"""


@pytest.fixture(scope="module")
def image():
    return golden_input()


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_matches_golden(name, image):
    with open(golden_path(name), "rb") as fh:
        want = fileio.read_tensor(fh)
    got = forward(image, CASES[name]).data
    assert got.shape == want.shape == (1, 64, 64)
    assert np.abs(got - want).max() <= 1e-7


def test_golden_cases_are_distinct():
    masks = {}
    for name in CASES:
        with open(golden_path(name), "rb") as fh:
            masks[name] = fileio.read_tensor(fh)
    names = sorted(masks)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert np.abs(masks[a] - masks[b]).max() > 1e-5, (a, b)


def test_masks_agree_across_blas_thread_counts(tmp_path):
    # A fixed OpenBLAS thread count gives bit-identical masks.  Another count
    # may partition a GEMM differently and move the last bits: 3.9e-15 was
    # measured between one and two threads.
    masks = []
    for threads in ("1", "2"):
        out = tmp_path / f"masks_{threads}.npy"
        path = filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", MASKS_SCRIPT, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        masks.append(np.load(out))
    assert masks[0].shape == (len(CASES), 1, 64, 64)
    assert np.abs(masks[0] - masks[1]).max() <= 1e-12
