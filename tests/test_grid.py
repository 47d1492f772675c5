import numpy as np
import pytest

from wavescan import grid
from wavescan.errors import DimensionError
from wavescan.grid import (
    FeatureGrid,
    NormCoord,
    _resize_axis,
    bilinear_gradient,
    bilinear_sample,
    resize_bilinear,
    sample_px,
)


def brute_force_sample(data, x, y):
    """Direct evaluation of the corner-aligned bilinear formula (scalar)."""
    _, h, w = data.shape
    col = (x + 1.0) * (w - 1) / 2.0 if w > 1 else 0.0
    row = (y + 1.0) * (h - 1) / 2.0 if h > 1 else 0.0
    col = min(max(col, 0.0), w - 1.0)
    row = min(max(row, 0.0), h - 1.0)
    c0 = min(int(np.floor(col)), w - 2) if w > 1 else 0
    r0 = min(int(np.floor(row)), h - 2) if h > 1 else 0
    fx = col - c0
    fy = row - r0
    c1 = min(c0 + 1, w - 1)
    r1 = min(r0 + 1, h - 1)
    out = np.empty(data.shape[0])
    for ch in range(data.shape[0]):
        top = data[ch, r0, c0] * (1 - fx) + data[ch, r0, c1] * fx
        bot = data[ch, r1, c0] * (1 - fx) + data[ch, r1, c1] * fx
        out[ch] = top * (1 - fy) + bot * fy
    return out


class TestFeatureGrid:
    def test_shape_properties(self):
        g = FeatureGrid.zeros(3, 4, 5)
        assert (g.channels, g.height, g.width) == (3, 4, 5)

    def test_rejects_bad_rank(self):
        with pytest.raises(DimensionError):
            FeatureGrid(np.zeros((4, 5)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            FeatureGrid(np.zeros((0, 4, 4)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureGrid(data)


class TestBilinearSample:
    def test_constant_grid(self):
        g = FeatureGrid.full(2, 5, 7, 5.0)
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        assert np.allclose(bilinear_sample(g, pts), 5.0)

    def test_1x2_midpoint(self):
        g = FeatureGrid(np.array([[[3.0, 9.0]]]))
        out = bilinear_sample(g, NormCoord(0.0, 0.0))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        g = FeatureGrid(rng.normal(size=(1, 8, 8)))
        pts = rng.uniform(-1.2, 1.2, (100, 2))
        got = bilinear_sample(g, pts)
        for k, (x, y) in enumerate(pts):
            want = brute_force_sample(g.data, x, y)
            assert abs(got[k, 0] - want[0]) <= 1e-6

    def test_exact_at_lattice_points(self):
        rng = np.random.default_rng(1)
        g = FeatureGrid(rng.normal(size=(2, 6, 9)))
        for r in range(6):
            for c in range(9):
                x = -1.0 + 2.0 * c / 8.0
                y = -1.0 + 2.0 * r / 5.0
                got = bilinear_sample(g, (x, y))[0]
                assert np.allclose(got, g.data[:, r, c], atol=1e-9)

    def test_linearity_in_grid(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 8, 8))
        b = rng.normal(size=(3, 8, 8))
        pts = rng.uniform(-1, 1, (30, 2))
        mixed = bilinear_sample(FeatureGrid(2.5 * a - 1.5 * b), pts)
        parts = 2.5 * bilinear_sample(FeatureGrid(a), pts) - 1.5 * bilinear_sample(FeatureGrid(b), pts)
        assert np.abs(mixed - parts).max() <= 1e-6

    def test_out_of_range_clamps_to_border(self):
        g = FeatureGrid(np.arange(16, dtype=float).reshape(1, 4, 4))
        left = bilinear_sample(g, (-5.0, 0.0))
        right = bilinear_sample(g, (5.0, 0.0))
        assert left[0, 0] == pytest.approx(bilinear_sample(g, (-1.0, 0.0))[0, 0])
        assert right[0, 0] == pytest.approx(bilinear_sample(g, (1.0, 0.0))[0, 0])

    def test_degenerate_single_column(self):
        g = FeatureGrid(np.array([[[1.0], [2.0]]]))  # 1 x 2 x 1
        for x in (-1.0, 0.0, 1.0):
            assert bilinear_sample(g, (x, -1.0))[0, 0] == pytest.approx(1.0)

    def test_rejects_nan_coords(self):
        g = FeatureGrid.zeros(1, 4, 4)
        with pytest.raises(ValueError):
            bilinear_sample(g, (np.nan, 0.0))


class TestBilinearGradient:
    def test_constant_field_zero_gradient(self):
        g = FeatureGrid.full(1, 6, 6, 3.3)
        grad = bilinear_gradient(g, np.random.default_rng(0).uniform(-1, 1, (10, 2)))
        assert np.allclose(grad, 0.0)

    def test_linear_ramp_chain_rule(self):
        # f(col) = col on a 4-wide grid: d/dx = (W-1)/2 = 1.5 everywhere interior
        data = np.tile(np.arange(4.0), (4, 1))[None]
        g = FeatureGrid(data)
        pts = np.random.default_rng(3).uniform(-0.9, 0.9, (25, 2))
        grad = bilinear_gradient(g, pts)
        assert np.allclose(grad[:, 0], 1.5, atol=1e-12)
        assert np.allclose(grad[:, 1], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        g = FeatureGrid(rng.normal(size=(1, 8, 8)))
        pts = rng.uniform(-0.85, 0.85, (50, 2))
        grad = bilinear_gradient(g, pts)
        h = 1e-4
        for k, (x, y) in enumerate(pts):
            fd_x = (bilinear_sample(g, (x + h, y))[0, 0] - bilinear_sample(g, (x - h, y))[0, 0]) / (2 * h)
            fd_y = (bilinear_sample(g, (x, y + h))[0, 0] - bilinear_sample(g, (x, y - h))[0, 0]) / (2 * h)
            for got, want in ((grad[k, 0], fd_x), (grad[k, 1], fd_y)):
                scale = max(abs(want), 1e-6)
                assert abs(got - want) / scale <= 1e-4

    def test_zero_normal_derivative_when_clamped(self):
        rng = np.random.default_rng(8)
        g = FeatureGrid(rng.normal(size=(1, 8, 8)))
        grad = bilinear_gradient(g, (1.5, 0.2))
        assert grad[0] == 0.0
        assert grad[1] != 0.0

    def test_single_coord_returns_vector(self):
        g = FeatureGrid.zeros(1, 4, 4)
        assert bilinear_gradient(g, NormCoord(0.1, 0.2)).shape == (2,)

    def test_requires_single_channel(self):
        g = FeatureGrid.zeros(2, 4, 4)
        with pytest.raises(DimensionError):
            bilinear_gradient(g, (0.0, 0.0))


class TestResize:
    def test_identity(self):
        g = FeatureGrid(np.random.default_rng(0).normal(size=(2, 5, 7)))
        out = resize_bilinear(g, 5, 7)
        assert np.array_equal(out.data, g.data)

    def test_upsample_preserves_corners(self):
        g = FeatureGrid(np.random.default_rng(1).normal(size=(1, 4, 4)))
        out = resize_bilinear(g, 9, 9)
        assert out.data[0, 0, 0] == pytest.approx(g.data[0, 0, 0])
        assert out.data[0, -1, -1] == pytest.approx(g.data[0, -1, -1])
        assert out.data[0, 0, -1] == pytest.approx(g.data[0, 0, -1])

    def test_matches_full_bilinear(self):
        g = FeatureGrid(np.random.default_rng(2).normal(size=(3, 6, 5)))
        out = resize_bilinear(g, 11, 8)
        xs = np.linspace(-1, 1, 8)
        ys = np.linspace(-1, 1, 11)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                want = brute_force_sample(g.data, x, y)
                assert np.allclose(out.data[:, i, j], want, atol=1e-9)


def oracle_sample_px(data, cols, rows):
    """The previous sample_px: four gathers blended into new arrays."""
    _, h, w = data.shape
    if w > 1:
        cols = np.clip(cols, 0.0, float(w - 1))
        c0 = np.minimum(np.floor(cols).astype(np.intp), w - 2)
        fx = cols - c0
        c1 = c0 + 1
    else:
        c0 = c1 = np.zeros(np.shape(cols), dtype=np.intp)
        fx = np.zeros(np.shape(cols))
    if h > 1:
        rows = np.clip(rows, 0.0, float(h - 1))
        r0 = np.minimum(np.floor(rows).astype(np.intp), h - 2)
        fy = rows - r0
        r1 = r0 + 1
    else:
        r0 = r1 = np.zeros(np.shape(rows), dtype=np.intp)
        fy = np.zeros(np.shape(rows))
    top = data[:, r0, c0] * (1.0 - fx) + data[:, r0, c1] * fx
    bot = data[:, r1, c0] * (1.0 - fx) + data[:, r1, c1] * fx
    return top * (1.0 - fy) + bot * fy


def oracle_resize_axis(data, axis, out_size):
    """The previous _resize_axis: two full-size gathers, blended."""
    size = data.shape[axis]
    if out_size == size:
        return data
    if size == 1:
        return np.repeat(data, out_size, axis=axis)
    pos = np.linspace(0.0, size - 1.0, out_size)
    i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
    frac = pos - i0
    lo = np.take(data, i0, axis=axis)
    hi = np.take(data, i0 + 1, axis=axis)
    shape = [1] * data.ndim
    shape[axis] = out_size
    frac = frac.reshape(shape)
    return lo * (1.0 - frac) + hi * frac


class TestInPlaceRewrites:
    @pytest.mark.parametrize("shape", [(3, 9, 11), (2, 1, 7), (2, 6, 1), (1, 1, 1), (4, 16, 16)])
    def test_sample_px_bit_identical(self, shape):
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(size=shape)
        _, h, w = shape
        # Positions inside, on and beyond the borders, on integers and between them.
        cols = rng.uniform(-2.0, w + 1.0, size=(5, 13))
        rows = rng.uniform(-2.0, h + 1.0, size=(5, 13))
        cols[0] = np.round(cols[0])
        rows[1] = np.round(rows[1])
        got = sample_px(data, cols, rows)
        assert got.shape == (shape[0], 5, 13)
        assert np.array_equal(got, oracle_sample_px(data, cols, rows))

    @pytest.mark.parametrize("shape", [(3, 9, 11), (2, 1, 7), (2, 6, 1), (1, 2, 2)])
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("out_size", [1, 2, 5, 9, 11, 23])
    def test_resize_axis_bit_identical(self, shape, axis, out_size):
        data = np.random.default_rng(out_size).normal(size=shape)
        got = _resize_axis(data, axis, out_size)
        want = oracle_resize_axis(data, axis, out_size)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_resize_axis_on_a_strided_view(self):
        data = np.random.default_rng(3).normal(size=(3, 10, 12))[:, ::2, 1:]
        for axis in (1, 2):
            assert np.array_equal(_resize_axis(data, axis, 17), oracle_resize_axis(data, axis, 17))


def oracle_bilinear_sample(data, pts):
    """The previous bilinear_sample: pixel positions (0 on a size-1 axis), then sample_px."""
    _, h, w = data.shape
    cols = (pts[:, 0] + 1.0) * ((w - 1) / 2.0) if w > 1 else np.zeros(len(pts))
    rows = (pts[:, 1] + 1.0) * ((h - 1) / 2.0) if h > 1 else np.zeros(len(pts))
    return oracle_sample_px(data, cols, rows).T


def oracle_axis(norm, size):
    """The previous _axis_positions: clamped corner indices, fraction and clamp flags."""
    pos = (norm + 1.0) * ((size - 1) / 2.0)
    if size == 1:
        idx = np.zeros(norm.shape, dtype=np.intp)
        return idx, idx, np.zeros(norm.shape), np.ones(norm.shape, dtype=bool)
    clamped = (pos < 0.0) | (pos > size - 1.0)
    pos = np.clip(pos, 0.0, float(size - 1))
    i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
    return i0, i0 + 1, pos - i0, clamped


def oracle_bilinear_gradient(field, pts):
    """The previous bilinear_gradient of an (H, W) field at (N, 2) normalized points."""
    h, w = field.shape
    c0, c1, fx, cx_clamped = oracle_axis(pts[:, 0], w)
    r0, r1, fy, cy_clamped = oracle_axis(pts[:, 1], h)
    v00, v01, v10, v11 = field[r0, c0], field[r0, c1], field[r1, c0], field[r1, c1]
    gx = ((1.0 - fy) * (v01 - v00) + fy * (v11 - v10)) * ((w - 1) / 2.0)
    gy = ((1.0 - fx) * (v10 - v00) + fx * (v11 - v01)) * ((h - 1) / 2.0)
    gx[cx_clamped] = 0.0
    gy[cy_clamped] = 0.0
    return np.stack([gx, gy], axis=1)


def per_channel_resize_axis(data, axis, out_size):
    """The previous _resize_axis: one channel at a time into a preallocated output."""
    size = data.shape[axis]
    if out_size == size:
        return data
    if size == 1:
        return np.repeat(data, out_size, axis=axis)
    pos = np.linspace(0.0, size - 1.0, out_size)
    i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
    shape = [1, 1]
    shape[axis - 1] = out_size
    frac = (pos - i0).reshape(shape)
    out_shape = list(data.shape)
    out_shape[axis] = out_size
    out = np.empty(out_shape)
    hi = np.empty(out_shape[1:])
    for lo, src in zip(out, data):
        np.take(src, i0, axis=axis - 1, out=lo, mode="clip")
        np.take(src, i0 + 1, axis=axis - 1, out=hi, mode="clip")
        lo *= 1.0 - frac
        hi *= frac
        lo += hi
    return out


def spread_points(rng, n=60):
    """Normalized points inside, on and beyond the borders, some on lattice values."""
    pts = rng.uniform(-1.4, 1.4, (n, 2))
    pts[:8] = rng.choice([-1.0, 1.0], (8, 2))
    pts[8:16] = np.round(pts[8:16] * 4.0) / 4.0
    pts[16:20, 0] = [-2.0, 2.0, -1.0, 1.0]
    return pts


GRID_SHAPES = [(1, 1), (1, 7), (6, 1), (5, 8), (2, 2), (17, 17), (32, 64)]


class TestSharedCornerLookup:
    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_bilinear_sample_matches_previous(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        data = rng.normal(size=(3,) + shape)
        pts = spread_points(rng)
        assert np.array_equal(bilinear_sample(FeatureGrid(data), pts),
                              oracle_bilinear_sample(data, pts))

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_bilinear_gradient_matches_previous(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + 1)
        data = rng.normal(size=(1,) + shape)
        pts = spread_points(rng)
        assert np.array_equal(bilinear_gradient(FeatureGrid(data), pts),
                              oracle_bilinear_gradient(data[0], pts))

    def test_corner_clamp_flags(self):
        from wavescan.grid import _norm_corners

        pts = np.array([[-1.0, 1.0], [-1.5, 0.0], [0.2, 1.01], [1.0, -1.0]])
        k = _norm_corners(pts, 5, 9)
        assert k.x_clamped.tolist() == [False, True, False, False]
        assert k.y_clamped.tolist() == [False, False, True, False]
        flat = _norm_corners(pts, 1, 9)
        assert flat.y_clamped.all() and not flat.x_clamped[0]


class TestResizeBlocks:
    # One channel per block, two, all five, a short last block of one
    # (three per block), and a budget far above the whole output.
    @pytest.mark.parametrize("planes", [0, 1, 2, 3, 5, 1000])
    @pytest.mark.parametrize("shape, axis, out_size", [
        ((5, 9, 11), 1, 23), ((5, 9, 11), 2, 4), ((5, 1, 7), 1, 6), ((5, 6, 1), 2, 3),
        ((5, 1, 7), 2, 13), ((1, 4, 4), 1, 9),
    ])
    def test_matches_per_channel_oracle(self, monkeypatch, planes, shape, axis, out_size):
        data = np.random.default_rng(planes + out_size).normal(size=shape)
        out_shape = list(shape)
        out_shape[axis] = out_size
        plane_bytes = 8 * out_shape[1] * out_shape[2]
        monkeypatch.setattr(grid, "_RESIZE_BLOCK_BYTES", planes * plane_bytes)
        got = _resize_axis(data, axis, out_size)
        assert got.shape == tuple(out_shape)
        assert np.array_equal(got, per_channel_resize_axis(data, axis, out_size))

    def test_block_of_a_strided_view(self, monkeypatch):
        data = np.random.default_rng(4).normal(size=(5, 10, 12))[:, ::2, 1:]
        monkeypatch.setattr(grid, "_RESIZE_BLOCK_BYTES", 2 * 8 * 17 * 11)
        for axis in (1, 2):
            assert np.array_equal(_resize_axis(data, axis, 17),
                                  per_channel_resize_axis(data, axis, 17))

    # Each plane of a resize_bilinear block is one row-pass plane plus one
    # output plane.
    @pytest.mark.parametrize("planes", [0, 1, 2, 1000])
    @pytest.mark.parametrize("shape, out_h, out_w", [
        ((5, 9, 11), 23, 4), ((5, 9, 11), 4, 23), ((5, 1, 7), 6, 13), ((5, 6, 1), 3, 5),
        ((3, 7, 5), 7, 9), ((3, 7, 5), 11, 5), ((3, 7, 5), 1, 1), ((1, 4, 4), 9, 9),
    ])
    def test_resize_bilinear_matches_two_passes(self, monkeypatch, planes, shape, out_h, out_w):
        data = np.random.default_rng(planes + out_h).normal(size=shape)
        want = _resize_axis(_resize_axis(data, 1, out_h), 2, out_w)
        monkeypatch.setattr(grid, "_RESIZE_BLOCK_BYTES", planes * 8 * out_h * (shape[2] + out_w))
        got = resize_bilinear(FeatureGrid(data), out_h, out_w).data
        assert got.shape == (shape[0], out_h, out_w)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("planes", [0, 1, 2, 1000])
    def test_resize_bilinear_of_a_strided_view(self, monkeypatch, planes):
        data = np.random.default_rng(5).normal(size=(5, 10, 12))[:, ::2, 1:]
        want = _resize_axis(_resize_axis(data, 1, 9), 2, 17)
        monkeypatch.setattr(grid, "_RESIZE_BLOCK_BYTES", planes * 8 * 9 * (11 + 17))
        assert np.array_equal(resize_bilinear(FeatureGrid(data), 9, 17).data, want)
