import numpy as np
import pytest

from wavescan import nn
from wavescan.errors import DimensionError
from wavescan.grid import FeatureGrid, resize_bilinear
from wavescan.nn import (
    avg_pool_2x2,
    conv1x1,
    conv2d,
    depthwise_conv2d,
    global_avg_pool,
    sigmoid,
    softplus,
)


def naive_conv(x, w, b, stride=1):
    c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    oh = -(-h // stride)
    ow = -(-width // stride)
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for r in range(oh):
            for c in range(ow):
                patch = xp[:, r * stride : r * stride + kh, c * stride : c * stride + kw]
                out[o, r, c] = (w[o] * patch).sum() + (b[o] if b is not None else 0.0)
    return out


class TestConv:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        assert np.abs(conv2d(x, w, b) - naive_conv(x, w, b)).max() <= 1e-10

    def test_stride_two(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 8, 10))
        w = rng.normal(size=(5, 2, 3, 3))
        got = conv2d(x, w, None, stride=2)
        assert got.shape == (5, 4, 5)
        assert np.abs(got - naive_conv(x, w, None, stride=2)).max() <= 1e-10

    def test_replicate_padding_keeps_constant_maps_constant(self):
        x = np.full((2, 6, 6), 3.0)
        w = np.random.default_rng(2).normal(size=(3, 2, 3, 3))
        out = conv2d(x, w, None)
        for o in range(3):
            assert np.allclose(out[o], out[o, 0, 0])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("shape,stride", [
        ((64, 41, 43), 1),  # two row blocks, the last one short
        ((64, 81, 87), 2),  # three row blocks, the last one a single row
        ((3, 1, 5), 1),
        ((5, 9, 7), 2),
    ])
    def test_row_blocks_match_naive_oracle(self, shape, stride):
        c_in, h, width = shape
        oh, ow = -(-h // stride), -(-width // stride)
        if c_in == 64:
            assert c_in * 9 * oh * ow * 8 > nn._TAP_BLOCK_BYTES
            assert oh % (nn._TAP_BLOCK_BYTES // (c_in * 9 * ow * 8)) != 0
        rng = np.random.default_rng(h)
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, c_in, 3, 3))
        b = rng.normal(size=3)
        got = conv2d(x, w, b, stride=stride)
        assert got.shape == (3, oh, ow)
        assert np.abs(got - naive_conv(x, w, b, stride=stride)).max() <= 1e-10


class TestDepthwise:
    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 6, 5))
        w = rng.normal(size=(3, 3, 3))
        b = rng.normal(size=3)
        want = np.stack([
            naive_conv(x[c : c + 1], w[c][None, None], b[c : c + 1])[0]
            for c in range(3)
        ])
        assert np.abs(depthwise_conv2d(x, w, b) - want).max() <= 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            depthwise_conv2d(np.zeros((2, 4, 4)), np.zeros((3, 3, 3)))


class TestSmallOps:
    def test_conv1x1_is_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(2, 3))
        want = np.einsum("oc,chw->ohw", w, x)
        assert np.allclose(conv1x1(x, w), want)

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        assert np.allclose(global_avg_pool(x), [1.5, 5.5])

    def test_avg_pool_2x2(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = avg_pool_2x2(x)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4.0)

    def test_avg_pool_needs_even(self):
        with pytest.raises(DimensionError):
            avg_pool_2x2(np.zeros((1, 3, 4)))

    def test_sigmoid_stable_extremes(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_softplus_matches_reference(self):
        x = np.linspace(-20, 20, 41)
        assert np.allclose(softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0))


class TestInputsUnchanged:
    """Every op computes in place only on arrays it allocated itself."""

    @staticmethod
    def assert_unchanged(fn, *arrays):
        before = [a.copy() for a in arrays]
        fn()
        for a, want in zip(arrays, before):
            assert np.array_equal(a, want)

    def test_conv2d(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(64, 41, 43)), rng.normal(size=(3, 64, 3, 3)), rng.normal(size=3)
        self.assert_unchanged(lambda: conv2d(x, w, b), x, w, b)
        self.assert_unchanged(lambda: conv2d(x, w, b, stride=2), x, w, b)

    def test_depthwise_conv2d(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.normal(size=(4, 9, 11)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        self.assert_unchanged(lambda: depthwise_conv2d(x, w, b), x, w, b)

    def test_conv1x1(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(4, 9, 11)), rng.normal(size=(2, 4)), rng.normal(size=2)
        self.assert_unchanged(lambda: conv1x1(x, w, b), x, w, b)

    @pytest.mark.parametrize("out_h,out_w", [(18, 22), (9, 22), (18, 11), (9, 11), (1, 5)])
    def test_resize_bilinear(self, out_h, out_w):
        grid = FeatureGrid(np.random.default_rng(8).normal(size=(2, 9, 11)))
        self.assert_unchanged(lambda: resize_bilinear(grid, out_h, out_w), grid.data)
