"""Peak-memory guards for the H x W layers and metrics, measured with tracemalloc.

tracemalloc counts every numpy data buffer allocated while it traces, so
these peaks are deterministic for a given numpy; they do not depend on
timing or on the machine's load.
"""

import tracemalloc

import numpy as np

from wavescan.grid import FeatureGrid
from wavescan.metrics import ods, skeletonize
from wavescan.nn import conv2d
from wavescan.pipeline import PipelineConfig, default_weights, forward
from wavescan.synth import SynthConfig, generate_sample

MB = 1e6


def traced_peak_mb(fn) -> float:
    """Peak traced bytes allocated by ``fn()`` beyond what was live before it, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return (peak - base) / MB


def test_conv2d_peak_is_bounded_by_row_blocks():
    # The full im2col buffer of this call is 16*9*256*256*8 B = 75.5 MB.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 256, 256))
    w = rng.normal(size=(16, 16, 3, 3))
    b = rng.normal(size=16)
    peak = traced_peak_mb(lambda: conv2d(x, w, b))
    assert peak < 40.0, f"conv2d peak {peak:.1f} MB"


def test_forward_peak_at_256():
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    image = FeatureGrid(np.random.default_rng(1).uniform(size=(1, 256, 256)))
    forward(image, cfg, weights)  # warm the scan-order caches
    peak = traced_peak_mb(lambda: forward(image, cfg, weights))
    assert peak <= 70.0, f"forward peak {peak:.1f} MB"


def test_ods_peak_over_eight_pairs_at_256():
    # A thresholds x pixels comparison would hold 99*256*256 booleans (6.5 MB) per pair.
    rng = np.random.default_rng(2)
    gts = [rng.uniform(size=(256, 256)) < 0.05 for _ in range(8)]
    preds = [np.clip(0.7 * g + 0.15 + rng.normal(0.0, 0.2, g.shape), 0.0, 1.0) for g in gts]
    peak = traced_peak_mb(lambda: ods(preds, gts))
    assert peak < 4.0, f"ods peak {peak:.1f} MB"


def test_skeletonize_peak_at_256():
    mask = generate_sample(SynthConfig(height=256, width=256, seed=0)).gt
    peak = traced_peak_mb(lambda: skeletonize(mask))
    assert peak < 1.0, f"skeletonize peak {peak:.2f} MB"
