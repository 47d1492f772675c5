import numpy as np
import pytest

from wavescan import nn
from wavescan.asgp import ProbeSet, asgp_weight_spec, coarse_potential, refine_mask
from wavescan.errors import DimensionError
from wavescan.grid import FeatureGrid, resize_bilinear, sample_px
from wavescan.nn import (
    conv1x1,
    conv2d,
    depthwise_conv2d,
    global_avg_pool,
    sigmoid,
    softplus,
)
from wavescan.pipeline import (
    PipelineConfig,
    brm,
    default_weights,
    forward,
    gfa,
    pipeline_weight_spec,
)
from wavescan.ssm import SsmParams, _coefficients, ssm_scan_parallel
from wavescan.weights import seeded_init


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


def im2col_block_bytes(c_in, width, kh, kw, stride, rows):
    """Bytes of one im2col block of output rows: its taps and its padded input rows."""
    ow = -(-width // stride)
    return (c_in * kh * kw * rows * ow + c_in * ((rows - 1) * stride + kh) * (width + kw - 1)) * 8


def im2col_row_blocks(c_in, h, width, kh, kw, stride):
    """(first row, rows) of each im2col block: the fewest that fit the budget, near-equal."""
    oh = -(-h // stride)
    count = 1
    while count < oh and im2col_block_bytes(c_in, width, kh, kw, stride,
                                            -(-oh // count)) > nn._IM2COL_BLOCK_BYTES:
        count += 1
    starts = [k * oh // count for k in range(count + 1)]
    return [(r0, r1 - r0) for r0, r1 in zip(starts, starts[1:])]


def full_pad_conv2d(x, w, b=None, stride=1):
    """conv2d's im2col orientation on one edge-padded copy of the whole input, same row blocks."""
    c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    oh = -(-h // stride)
    ow = -(-width // stride)
    depth = c_in * kh * kw
    wmat = w.reshape(c_out, depth)
    out = np.empty((c_out, oh, ow))
    flat_out = out.reshape(c_out, oh * ow)
    for r0, rows in im2col_row_blocks(c_in, h, width, kh, kw, stride):
        taps = np.empty((c_in, kh * kw, rows, ow))
        top = r0 * stride
        bottom = top + (rows - 1) * stride + 1
        for i in range(kh):
            for j in range(kw):
                taps[:, i * kw + j] = xp[:, i + top : i + bottom : stride, j : j + width : stride]
        np.matmul(wmat, taps.reshape(depth, rows * ow),
                  out=flat_out[:, r0 * ow : (r0 + rows) * ow])
    if b is not None:
        out += b[:, None, None]
    return out


def full_pad_tap_major(x, w, b=None):
    """conv2d's tap-major orientation on one edge-padded copy of the whole input, same row blocks."""
    c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    wp = width + kw - 1
    stack = kh * kw * c_out
    block = max(1, min(h, nn._TAP_BLOCK_BYTES // (max(stack, c_in) * wp * 8)))
    wtap = w.transpose(2, 3, 0, 1).reshape(stack, c_in)
    out = np.empty((c_out, h, width))
    for r0 in range(0, h, block):
        rows = min(block, h - r0)
        span = rows + kh - 1
        planes = (wtap @ xp[:, r0 : r0 + span].reshape(c_in, span * wp)).reshape(
            kh, kw, c_out, span, wp)
        acc = planes[0, 0, :, :rows, :width].copy()
        for k in range(1, kh * kw):
            i, j = divmod(k, kw)
            acc += planes[i, j, :, i : i + rows, j : j + width]
        out[:, r0 : r0 + rows] = acc
    if b is not None:
        out += b[:, None, None]
    return out


def full_pad_depthwise(x, w, b=None):
    """The previous depthwise_conv2d: a padded copy and a scratch as large as the input."""
    c, h, width = x.shape
    kh, kw = w.shape[1], w.shape[2]
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    out = w[:, 0, 0, None, None] * xp[:, :h, :width]
    for k in range(1, kh * kw):
        i, j = divmod(k, kw)
        out += w[:, i, j, None, None] * xp[:, i : i + h, j : j + width]
    if b is not None:
        out += b[:, None, None]
    return out


# (channels, H, W, kernel, stride): odd sizes, 1-wide axes, 5x5 and 1x3 kernels.
BLOCK_CASES = [
    (3, 7, 9, 3, 1),
    (2, 8, 10, 3, 2),
    (4, 13, 11, 3, 2),
    (3, 1, 5, 3, 1),
    (3, 5, 1, 3, 1),
    (2, 1, 1, 3, 2),
    (2, 9, 7, 5, 1),
    (3, 10, 9, 5, 2),
    (2, 6, 8, (1, 3), 1),
]


# (C_in, C_out, H, W, kernel) with C_out < C_in at stride 1, the tap-major
# orientation: odd sizes, 1-wide axes, 1x1, 5x5 and 1x3 kernels.
TAP_CASES = [
    (6, 1, 7, 9, 3),
    (4, 3, 13, 11, 3),
    (3, 1, 1, 5, 3),
    (3, 2, 5, 1, 3),
    (2, 1, 1, 1, 3),
    (3, 2, 9, 7, 5),
    (4, 1, 10, 9, 5),
    (5, 2, 11, 8, (1, 3)),
    (6, 2, 5, 7, 1),
]


def _kernel_dims(k):
    return k if isinstance(k, tuple) else (k, k)


def count_row_blocks(monkeypatch):
    """Counts the row blocks the convolutions pad: one _pad_rows call each."""
    calls = []
    pad_rows = nn._pad_rows

    def counted(*args):
        calls.append(args[3])
        return pad_rows(*args)

    monkeypatch.setattr(nn, "_pad_rows", counted)
    return calls


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
        ((64, 41, 43), 1),  # tap-major (64 -> 3): one block
        ((64, 81, 87), 2),  # im2col: 41 rows in 14 blocks of 2 or 3 rows
        ((3, 1, 5), 1),
        ((5, 9, 7), 2),
    ])
    def test_row_blocks_match_naive_oracle(self, monkeypatch, shape, stride):
        c_in, h, width = shape
        oh, ow = -(-h // stride), -(-width // stride)
        blocks = count_row_blocks(monkeypatch)
        rng = np.random.default_rng(h)
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, c_in, 3, 3))
        b = rng.normal(size=3)
        got = conv2d(x, w, b, stride=stride)
        if c_in == 64 and stride == 2:
            # several row blocks of unequal sizes
            sizes = np.diff([top // stride for top in blocks] + [oh])
            assert len(blocks) > 1 and sizes.min() < sizes.max()
        assert got.shape == (3, oh, ow)
        assert np.abs(got - naive_conv(x, w, b, stride=stride)).max() <= 1e-10

    @pytest.mark.parametrize("budget", [None, 1, 700, 3000, 40000])
    @pytest.mark.parametrize("c_in,h,width,k,stride", BLOCK_CASES + [
        (16, 64, 64, 3, 2), (16, 256, 256, 3, 1), (64, 81, 87, 3, 2), (1, 256, 256, 3, 1)])
    def test_im2col_blocks_are_near_equal_and_fewest(self, monkeypatch, budget, c_in, h, width,
                                                     k, stride):
        # The output rows split into blocks within one row of each other; one
        # fewer block would hold more rows than the budget takes, counting the
        # taps and the padded input rows of a block.
        if budget is not None:
            monkeypatch.setattr(nn, "_IM2COL_BLOCK_BYTES", budget)
        kh, kw = _kernel_dims(k)
        blocks = count_row_blocks(monkeypatch)
        x = np.random.default_rng(h).normal(size=(c_in, h, width))
        conv2d(x, np.ones((c_in, c_in, kh, kw)), stride=stride)
        oh = -(-h // stride)
        sizes = np.diff([top // stride for top in blocks] + [oh])
        assert sizes.sum() == oh and sizes.max() - sizes.min() <= 1
        fits = im2col_block_bytes(c_in, width, kh, kw, stride, sizes.max()) \
            <= nn._IM2COL_BLOCK_BYTES
        assert fits or sizes.max() == 1  # a single row that does not fit runs alone
        if len(blocks) > 1:
            fewer = -(-oh // (len(blocks) - 1))
            assert im2col_block_bytes(c_in, width, kh, kw, stride, fewer) > nn._IM2COL_BLOCK_BYTES

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("c_in,c_out,scale,stride", [
        (1, 16, 0, 1),  # stem
        (16, 32, 0, 2),  # down1
        (32, 64, 1, 2),  # down2
        (64, 128, 2, 2),  # down3
        (16, 16, 0, 1),  # gfa's fuse
    ])
    def test_pipeline_im2col_shapes_bit_identical_to_full_pad(self, size, c_in, c_out, scale,
                                                              stride):
        assert not nn._tap_major(c_out, c_in, stride)
        rng = np.random.default_rng(size + c_out)
        x = rng.normal(size=(c_in, size >> scale, size >> scale))
        w = rng.normal(size=(c_out, c_in, 3, 3))
        b = rng.normal(size=c_out)
        assert np.array_equal(conv2d(x, w, b, stride=stride), full_pad_conv2d(x, w, b, stride))


    @pytest.mark.parametrize("budget", [None, 1, 700, 3000])
    @pytest.mark.parametrize("c_in,h,width,k,stride", BLOCK_CASES)
    def test_bit_identical_to_full_pad(self, monkeypatch, budget, c_in, h, width, k, stride):
        # A small byte budget forces one or a few rows per block, with a short last block.
        if budget is not None:
            monkeypatch.setattr(nn, "_IM2COL_BLOCK_BYTES", budget)
        kh, kw = _kernel_dims(k)
        rng = np.random.default_rng(c_in * 100 + h * 10 + width)
        x = rng.normal(size=(c_in, h, width))
        w = rng.normal(size=(4, c_in, kh, kw))
        b = rng.normal(size=4)
        assert c_in <= 4  # C_out = 4 >= C_in: the im2col orientation
        got = conv2d(x, w, b, stride=stride)
        assert np.array_equal(got, full_pad_conv2d(x, w, b, stride=stride))
        assert np.abs(got - naive_conv(x, w, b, stride=stride)).max() <= 1e-10

    @pytest.mark.parametrize("budget", [None, 1, 700, 3000])
    @pytest.mark.parametrize("c_in,c_out,h,width,k", TAP_CASES)
    def test_tap_major_bit_identical_to_full_pad(self, monkeypatch, budget, c_in, c_out, h,
                                                 width, k):
        if budget is not None:
            monkeypatch.setattr(nn, "_TAP_BLOCK_BYTES", budget)
        kh, kw = _kernel_dims(k)
        rng = np.random.default_rng(c_in * 100 + h * 10 + width)
        x = rng.normal(size=(c_in, h, width))
        w = rng.normal(size=(c_out, c_in, kh, kw))
        b = rng.normal(size=c_out)
        got = conv2d(x, w, b)
        assert np.array_equal(got, full_pad_tap_major(x, w, b))
        assert np.array_equal(conv2d(x, w), full_pad_tap_major(x, w))
        assert np.abs(got - naive_conv(x, w, b)).max() <= 1e-10

    def test_tap_major_row_blocks_with_a_short_last_block(self, monkeypatch):
        # 6 -> 1 at 7 x 9 takes 9 * 11 * 8 B per row: 3-row blocks, 3 + 3 + 1 rows.
        monkeypatch.setattr(nn, "_TAP_BLOCK_BYTES", 3000)
        blocks = count_row_blocks(monkeypatch)
        rng = np.random.default_rng(16)
        x, w = rng.normal(size=(6, 7, 9)), rng.normal(size=(1, 6, 3, 3))
        assert np.array_equal(conv2d(x, w), full_pad_tap_major(x, w))
        assert blocks == [0, 3, 6]

    @pytest.mark.parametrize("budget", ["_IM2COL_BLOCK_BYTES", "_TAP_BLOCK_BYTES"])
    def test_each_orientation_reads_its_own_budget(self, monkeypatch, budget):
        # A one-byte budget gives one-row blocks to its own orientation only:
        # 2 -> 2 runs im2col and 2 -> 1 tap-major, each on 9 rows.
        monkeypatch.setattr(nn, budget, 1)
        blocks = count_row_blocks(monkeypatch)
        rng = np.random.default_rng(18)
        x, w = rng.normal(size=(2, 9, 11)), rng.normal(size=(2, 2, 3, 3))
        conv2d(x, w)
        im2col_blocks = len(blocks)
        conv2d(x, w[:1])
        tap_blocks = len(blocks) - im2col_blocks
        want = (9, 1) if budget == "_IM2COL_BLOCK_BYTES" else (1, 9)
        assert (im2col_blocks, tap_blocks) == want

    @pytest.mark.parametrize("shape,stride", [((64, 41, 43), 1), ((64, 81, 87), 2)])
    def test_bit_identical_to_full_pad_at_default_budget(self, shape, stride):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, shape[0], 3, 3))
        # 64 -> 3 is tap-major at stride 1 and im2col at stride 2.
        if stride == 1:
            want = full_pad_tap_major(x, w)
        else:
            want = full_pad_conv2d(x, w, None, stride=stride)
        assert np.array_equal(conv2d(x, w, None, stride=stride), want)

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_stored_align_kernels_match_c_ordered_copies(self, stage, size):
        # The store holds align.w1 and align.w2 in (kh, kw, C_out, C_in) order,
        # so conv2d reads them without a copy; a C-ordered copy of the same
        # kernel goes through the per-call reorder and must give the same bits.
        # align runs on stage N's LL band, size >> N on a side.
        store = default_weights(PipelineConfig())
        rng = np.random.default_rng(100 * stage + size)
        for name in ("align.w1", "align.w2"):
            w = store[f"s{stage}.{name}"]
            assert w.transpose(2, 3, 0, 1).flags.c_contiguous
            b = rng.normal(size=w.shape[0])
            x = rng.normal(size=(w.shape[1], size >> stage, size >> stage))
            assert np.array_equal(conv2d(x, w, b), conv2d(x, np.ascontiguousarray(w), b))

    def test_orientation_of_every_pipeline_conv(self, monkeypatch):
        """Tap-major exactly for stride 1 with C_out < C_in, over every conv of a forward."""
        seen = {"tap": set(), "im2col": set()}
        tap_major, im2col = nn._conv2d_tap_major, nn._conv2d_im2col

        def record_tap(x, w):
            seen["tap"].add((x.shape[0], w.shape[0], w.shape[2], 1))
            return tap_major(x, w)

        def record_im2col(x, w, stride):
            seen["im2col"].add((x.shape[0], w.shape[0], w.shape[2], stride))
            return im2col(x, w, stride)

        monkeypatch.setattr(nn, "_conv2d_tap_major", record_tap)
        monkeypatch.setattr(nn, "_conv2d_im2col", record_im2col)
        image = FeatureGrid(np.random.default_rng(17).uniform(size=(1, 64, 64)))
        for cfg in (PipelineConfig(), PipelineConfig(stem_stride=2)):
            forward(image, cfg)
        # (C_in, C_out, k, stride): align's two predictor convs per stage and
        # the folded edge branch of brm; stem, downsamples and the gfa fuse.
        assert seen["tap"] == {(48, 8, 3, 1), (8, 2, 3, 1), (96, 16, 3, 1), (16, 2, 3, 1),
                               (192, 32, 3, 1), (32, 2, 3, 1), (384, 64, 3, 1),
                               (64, 2, 3, 1), (16, 1, 3, 1)}
        assert seen["im2col"] == {(1, 16, 3, 1), (1, 16, 3, 2), (16, 32, 3, 2),
                                  (32, 64, 3, 2), (64, 128, 3, 2), (16, 16, 3, 1)}


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

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            depthwise_conv2d(np.zeros((1, 4, 4)), np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("budget", [None, 1, 300, 2000])
    @pytest.mark.parametrize("c,h,width,k,_stride", BLOCK_CASES)
    def test_bit_identical_to_full_pad(self, monkeypatch, budget, c, h, width, k, _stride):
        if budget is not None:
            monkeypatch.setattr(nn, "_DEPTHWISE_BLOCK_BYTES", budget)
        blocks = count_row_blocks(monkeypatch)
        kh, kw = _kernel_dims(k)
        rng = np.random.default_rng(c * 100 + h * 10 + width)
        x = rng.normal(size=(c, h, width))
        w = rng.normal(size=(c, kh, kw))
        b = rng.normal(size=c)
        assert np.array_equal(depthwise_conv2d(x, w, b), full_pad_depthwise(x, w, b))
        if budget is not None and h > 1 and budget < x.nbytes:
            assert len(blocks) > 1  # the patched budget splits the rows
        assert np.array_equal(depthwise_conv2d(x, w), full_pad_depthwise(x, w))

    def test_bit_identical_over_default_row_blocks(self, monkeypatch):
        # 64 x 300 float64 rows give 6-row blocks: nine of 6 rows and one of 6.
        blocks = count_row_blocks(monkeypatch)
        x = np.random.default_rng(9).normal(size=(64, 60, 300))
        w = np.random.default_rng(10).normal(size=(64, 3, 3))
        assert np.array_equal(depthwise_conv2d(x, w), full_pad_depthwise(x, w))
        assert blocks == list(range(0, 60, 6))


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

    def test_sigmoid_stable_extremes(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_softplus_matches_reference(self):
        x = np.linspace(-20, 20, 41)
        assert np.allclose(softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0))

    def test_softplus_within_4_ulp_of_logaddexp(self):
        rng = np.random.default_rng(18)
        x = np.concatenate([
            [-800.0, 800.0, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, 36.0, -36.0,
             709.0, 710.0, -745.0, 1e300, -1e300],
            rng.normal(scale=3.0, size=20000), rng.uniform(-60, 60, 20000),
            rng.normal(scale=1e-8, size=2000),
        ])
        want = np.logaddexp(0.0, x)
        got = softplus(x)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])  # +inf
        ulp = np.spacing(want[finite])
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * ulp)
        assert np.isnan(softplus(np.array([np.nan, 1.0, np.nan]))).tolist() == [True, False, True]
        assert softplus(0.0) == np.logaddexp(0.0, 0.0)  # a scalar gives a 0-d result


class TestInputsUnchanged:
    """Every op that writes in place does so only on arrays it allocated itself."""

    @staticmethod
    def assert_unchanged(fn, *arrays):
        before = [a.copy() for a in arrays]
        fn()
        for a, want in zip(arrays, before):
            assert np.array_equal(a, want)

    def test_conv2d(self):
        # 64 -> 3 runs tap-major at stride 1 and im2col at stride 2.
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

    def test_depthwise_conv2d_over_row_blocks(self, monkeypatch):
        monkeypatch.setattr(nn, "_DEPTHWISE_BLOCK_BYTES", 200)
        monkeypatch.setattr(nn, "_TAP_BLOCK_BYTES", 200)
        monkeypatch.setattr(nn, "_IM2COL_BLOCK_BYTES", 200)
        blocks = count_row_blocks(monkeypatch)
        rng = np.random.default_rng(9)
        x, w, b = rng.normal(size=(2, 9, 11)), rng.normal(size=(2, 3, 3)), rng.normal(size=2)
        self.assert_unchanged(lambda: depthwise_conv2d(x, w, b), x, w, b)
        assert len(blocks) == 9
        # 2 -> 2 runs im2col, 2 -> 1 tap-major; both over one-row blocks.
        w2 = w[:, None].repeat(2, 1)
        self.assert_unchanged(lambda: conv2d(x, w2, b), x, w, w2, b)
        self.assert_unchanged(lambda: conv2d(x, w2[:1], b[:1]), x, w, w2, b)
        assert len(blocks) == 27

    def test_sample_px(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(3, 7, 9))
        cols, rows = rng.uniform(-1, 10, (4, 5)), rng.uniform(-1, 8, (4, 5))
        self.assert_unchanged(lambda: sample_px(data, cols, rows), data, cols, rows)

    def test_ssm_coefficients_and_parallel_scan(self):
        p = SsmParams.random(3, 4, seed=12)
        u = np.random.default_rng(12).normal(size=(37, 3))
        params = [p.a_log, p.d_skip, p.delta_w, p.delta_b, p.b_w, p.c_w]
        self.assert_unchanged(lambda: _coefficients(p, u), u, *params)
        self.assert_unchanged(lambda: ssm_scan_parallel(p, u), u, *params)
        s = SsmParams.random(3, 4, seed=13, selective=False)
        self.assert_unchanged(lambda: ssm_scan_parallel(s, u), u, s.delta, s.b, s.c)

    def test_asgp_masks(self):
        rng = np.random.default_rng(14)
        probes = ProbeSet(coords=rng.uniform(-1, 1, (5, 2)), embeddings=rng.normal(size=(5, 4)),
                          scores=rng.uniform(size=5))
        x = FeatureGrid(rng.normal(size=(3, 6, 7)))
        store = seeded_init(asgp_weight_spec(3, 4, 5), 14)
        arrays = [probes.coords, probes.embeddings, probes.scores, x.data,
                  *(arr for _, arr in store.items())]
        self.assert_unchanged(lambda: refine_mask(probes, (6, 7)), *arrays)
        self.assert_unchanged(lambda: coarse_potential(probes, x, store), *arrays)

    def test_decoder(self):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = seeded_init(pipeline_weight_spec(cfg), 15)
        rng = np.random.default_rng(15)
        levels = [FeatureGrid(rng.normal(size=(c, 16 >> i, 16 >> i)))
                  for i, c in enumerate(cfg.channels)]
        weights = [arr for name, arr in store.items()
                   if name.startswith(("gfa.", "brm.", "head."))]
        self.assert_unchanged(lambda: gfa(levels, store), *(lvl.data for lvl in levels), *weights)
        self.assert_unchanged(lambda: brm(levels[0], store), levels[0].data, *weights)
