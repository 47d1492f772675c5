"""Forward masks at 64x64 must match the recorded golden files.

The files were written by tests/golden/regenerate.py as float32, so the
comparison allows 1e-7 absolute (float32 rounding of values in [0, 1] is
below 6e-8).
"""

import numpy as np
import pytest

from golden.regenerate import CASES, golden_input, golden_path
from wavescan import fileio
from wavescan.pipeline import forward


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
