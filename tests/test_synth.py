import re
import time

import numpy as np
import pytest

from wavescan.errors import ConfigError
from wavescan.grid import FeatureGrid
from wavescan.scanorder import ScanKind, along_structure_gaps, build_scan_order
from wavescan.synth import SynthConfig, _dilate, _line_cells, _value_noise, generate_sample


def reference_bezier_cells(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """The Bezier centreline cells, deduplicated as whole (row, col) rows."""
    h, w = cfg.height, cfg.width
    p0 = rng.uniform([0.1 * h, 0.0], [0.9 * h, 0.15 * w])
    p2 = rng.uniform([0.1 * h, 0.85 * w], [0.9 * h, float(w - 1)])
    p1 = (p0 + p2) / 2.0 + rng.uniform(-0.25, 0.25, 2) * np.array([h, w])
    t = np.linspace(0.0, 1.0, 4 * max(h, w))[:, None]
    cells = np.rint((1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2).astype(int)
    keep = (cells[:, 0] >= 0) & (cells[:, 0] < h) & (cells[:, 1] >= 0) & (cells[:, 1] < w)
    return np.unique(cells[keep], axis=0)


def reference_dilate(skeleton: np.ndarray, width: int) -> np.ndarray:
    """Stamp every offset of the width's disc, clipped to the canvas, however far it reaches."""
    if width <= 1:
        return skeleton.copy()
    radius = (width - 1) / 2.0
    span = int(np.ceil(radius))
    out = np.zeros_like(skeleton)
    rows, cols = np.nonzero(skeleton)
    h, w = skeleton.shape
    for dr in range(-span, span + 1):
        for dc in range(-span, span + 1):
            if dr * dr + dc * dc <= radius * radius + 1e-9:
                out[np.clip(rows + dr, 0, h - 1), np.clip(cols + dc, 0, w - 1)] = True
    return out


def reference_value_noise(h: int, w: int, rng: np.random.Generator, cell: int = 8) -> np.ndarray:
    """Bilinear value noise from the four gathered corner planes."""
    lattice = rng.uniform(0.0, 1.0, (h // cell + 2, w // cell + 2))
    ys, xs = np.arange(h) / cell, np.arange(w) / cell
    y0, x0 = ys.astype(int), xs.astype(int)
    fy, fx = (ys - y0)[:, None], (xs - x0)[None, :]
    v00 = lattice[np.ix_(y0, x0)]
    v01 = lattice[np.ix_(y0, x0 + 1)]
    v10 = lattice[np.ix_(y0 + 1, x0)]
    v11 = lattice[np.ix_(y0 + 1, x0 + 1)]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(height=2)
        with pytest.raises(ConfigError):
            SynthConfig(width_min=3, width_max=2)
        with pytest.raises(ConfigError):
            SynthConfig(contrast=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(orientation="spiral")

    @pytest.mark.parametrize("kwargs, says", [
        ({"height": 2}, "canvas must be at least 4x4, got 2x64"),
        ({"width": 3}, "canvas must be at least 4x4, got 64x3"),
        ({"curves": 0}, "curves must be at least 1, got 0"),
        ({"width_min": 0}, "widths must satisfy 1 <= width_min <= width_max, got 0 and 1"),
        ({"width_min": 3, "width_max": 2}, "width_min <= width_max, got 3 and 2"),
        ({"contrast": 0}, "contrast must lie in (0, 1], got 0"),
        ({"contrast": 1.5}, "contrast must lie in (0, 1], got 1.5"),
        ({"texture": -0.5}, "texture amplitude must be at least 0, got -0.5"),
        ({"orientation": "spiral"}, "got 'spiral'"),
    ], ids=["height", "width", "curves", "width_min", "width_max", "contrast-0",
            "contrast-1.5", "texture", "orientation"])
    def test_bad_value_rejected_with_the_value(self, kwargs, says):
        with pytest.raises(ConfigError, match=re.escape(says)):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["contrast", "texture"])
    def test_non_finite_setting_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite, got {value}"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_bezier_canvas_too_narrow_for_its_endpoints(self, width):
        # the end column is drawn from [0.85 w, w - 1], empty below 7 columns
        with pytest.raises(ConfigError, match=f"width {width}"):
            SynthConfig(height=32, width=width, orientation="bezier")
        assert generate_sample(SynthConfig(height=32, width=width)).gt.any()

    @pytest.mark.parametrize("seed", range(10))
    def test_narrowest_bezier_canvas_renders(self, seed):
        sample = generate_sample(SynthConfig(height=7, width=7, orientation="bezier", seed=seed))
        assert sample.gt.any()


class TestGeneration:
    def test_deterministic_per_seed(self):
        cfg = SynthConfig(seed=5, orientation="bezier", texture=0.4, width_max=3)
        a = generate_sample(cfg)
        b = generate_sample(cfg)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.gt, b.gt)
        assert np.array_equal(a.skeleton, b.skeleton)
        c = generate_sample(SynthConfig(seed=6, orientation="bezier", texture=0.4, width_max=3))
        assert not np.array_equal(a.image.data, c.image.data)

    def test_full_contrast_no_texture_is_two_level(self):
        sample = generate_sample(SynthConfig(contrast=1.0, texture=0.0, seed=0,
                                             orientation="diagonal", width_max=2))
        thresholded = sample.image.data[0] < 0.5
        assert np.array_equal(thresholded, sample.gt)
        assert set(np.unique(sample.image.data)) <= {0.0, 1.0}

    def test_gt_contains_skeleton(self):
        for seed in range(10):
            sample = generate_sample(SynthConfig(seed=seed, curves=2, width_min=1,
                                                 width_max=4, orientation="bezier"))
            assert np.all(sample.gt[sample.skeleton])

    def test_width_one_axis_aligned_skeleton_equals_gt(self):
        cfg = SynthConfig(orientation="horizontal", width_min=1, width_max=1, seed=3)
        sample = generate_sample(cfg)
        assert np.array_equal(sample.gt, sample.skeleton)
        mask = FeatureGrid(sample.gt[None].astype(float))
        order = build_scan_order(ScanKind.HORIZONTAL, cfg.height, cfg.width)
        stats = along_structure_gaps(mask, order)
        assert stats.mean == 1.0 and stats.unit_fraction == 1.0

    def test_foreground_fraction_bounded_over_seeds(self):
        fracs = [
            generate_sample(SynthConfig(seed=s, curves=1, width_min=1, width_max=3,
                                        orientation="axis-aligned")).gt.mean()
            for s in range(100)
        ]
        assert 0.0 < min(fracs)
        assert max(fracs) < 0.2

    def test_bezier_curves_stay_in_bounds_and_never_fail(self):
        for seed in range(20):
            sample = generate_sample(SynthConfig(height=32, width=32, curves=3,
                                                 orientation="bezier", width_max=5,
                                                 seed=seed))
            assert sample.gt.shape == (32, 32)
            assert sample.gt.any()

    @pytest.mark.parametrize("height, width", [(32, 32), (37, 64), (64, 21), (255, 256)])
    def test_bezier_cells_match_row_deduplication(self, height, width):
        cfg = SynthConfig(height=height, width=width, orientation="bezier")
        for seed in range(25):
            got = _line_cells(cfg, np.random.default_rng(seed), "bezier")
            want = reference_bezier_cells(cfg, np.random.default_rng(seed))
            assert got.shape == want.shape and np.array_equal(got, want), seed

    @pytest.mark.parametrize("height, width", [(32, 32), (37, 64), (64, 21), (255, 256)])
    def test_value_noise_matches_corner_formula(self, height, width):
        for seed in range(5):
            got = _value_noise(height, width, np.random.default_rng(seed))
            want = reference_value_noise(height, width, np.random.default_rng(seed))
            assert np.array_equal(got, want), seed

    def test_structures_darker_than_background(self):
        sample = generate_sample(SynthConfig(contrast=0.6, texture=0.2, seed=9,
                                             orientation="vertical", width_max=2))
        img = sample.image.data[0]
        assert img[sample.gt].mean() < img[~sample.gt].mean()


class TestDilate:
    def test_matches_the_uncapped_loop(self):
        # Widths up to well past the canvas, on sparse and dense skeletons of
        # canvases from 1 x 1 up; beyond the canvas the loop stops at h - 1
        # rows and w - 1 columns.
        rng = np.random.default_rng(17)
        for _ in range(150):
            h, w = (int(n) for n in rng.integers(1, 13, size=2))
            skeleton = rng.uniform(size=(h, w)) < rng.choice([0.05, 0.3, 0.9])
            width = int(rng.integers(1, 3 * max(h, w) + 4))
            assert np.array_equal(_dilate(skeleton, width), reference_dilate(skeleton, width)), \
                (h, w, width)

    def test_width_far_beyond_the_canvas_renders_fast(self):
        # A 1001-wide stroke on a 16 x 16 canvas walks 31 x 31 offsets, not
        # 1001 x 1001; the uncapped loop took seconds.
        cfg = SynthConfig(height=16, width=16, width_min=1001, width_max=1001,
                          orientation="bezier", seed=0)
        start = time.perf_counter()
        sample = generate_sample(cfg)
        assert time.perf_counter() - start < 1.0
        assert sample.gt.all()
