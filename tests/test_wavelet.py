import numpy as np
import pytest

from wavescan import wavelet
from wavescan.errors import DimensionError
from wavescan.grid import FeatureGrid
from wavescan.pipeline import PipelineConfig
from wavescan.wavelet import SubbandSet, dwt_haar, idwt_haar

BANDS = ("ll", "lh", "hl", "hh")


def band_energy(bands):
    return sum(float((b.data ** 2).sum()) for b in (bands.ll, bands.lh, bands.hl, bands.hh))


def oracle_dwt(x: np.ndarray) -> dict[str, np.ndarray]:
    """The Hadamard formulas over four strided quarter views of the edge-padded input."""
    x = np.pad(x, ((0, 0), (0, x.shape[1] % 2), (0, x.shape[2] % 2)), mode="edge")
    a, b, c, d = x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]
    return {"ll": (a + b + c + d) / 2.0, "lh": (a + b - c - d) / 2.0,
            "hl": (a - b + c - d) / 2.0, "hh": (a - b - c + d) / 2.0}


def oracle_idwt(ll, lh, hl, hh, target_h, target_w) -> np.ndarray:
    """The Hadamard formulas written into the four quarter views, then cropped."""
    ch, bh, bw = ll.shape
    out = np.empty((ch, 2 * bh, 2 * bw))
    out[:, 0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[:, 0::2, 1::2] = (ll + lh - hl - hh) / 2.0
    out[:, 1::2, 0::2] = (ll - lh + hl - hh) / 2.0
    out[:, 1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out[:, :target_h, :target_w]


def pipeline_stage_shapes(size=256):
    """(C, H, W) of every grid a default forward at size x size splits: each
    encoder block's input and, at half its size, the carrier fa_scan splits."""
    shapes = []
    for stage, ch in enumerate(PipelineConfig().channels):
        side = size >> stage
        shapes += [(ch, side, side), (ch, side // 2, side // 2)]
    return shapes


def strided(rng, shape):
    """A non-contiguous (C, H, W) view: every other row of a transposed array."""
    ch, h, w = shape
    return rng.normal(size=(ch, w, 2 * h)).transpose(0, 2, 1)[:, ::2]


ORACLE_CASES = {
    "even": lambda rng: rng.normal(size=(3, 16, 12)),
    "odd-h": lambda rng: rng.normal(size=(2, 7, 10)),
    "odd-w": lambda rng: rng.normal(size=(2, 8, 11)),
    "odd-hw": lambda rng: rng.normal(size=(3, 9, 5)),
    "2x2": lambda rng: rng.normal(size=(4, 2, 2)),
    "1-channel": lambda rng: rng.normal(size=(1, 14, 18)),
    "strided": lambda rng: strided(rng, (3, 12, 10)),
    **{f"stage-{c}x{h}x{w}": (lambda rng, s=(c, h, w): rng.normal(size=s))
       for c, h, w in pipeline_stage_shapes()},
}


def assert_matches_oracles(x: np.ndarray):
    """dwt_haar and idwt_haar of x within 1e-14 * max|x| of the oracles."""
    tol = 1e-14 * np.abs(x).max()
    bands = dwt_haar(FeatureGrid(x))
    want = oracle_dwt(x)
    for name in BANDS:
        got = getattr(bands, name).data
        assert got.shape == want[name].shape, name
        assert np.abs(got - want[name]).max() <= tol, name
    h, w = x.shape[1:]
    recon = idwt_haar(bands, h, w).data
    assert np.abs(recon - oracle_idwt(*(want[n] for n in BANDS), h, w)).max() <= tol
    assert np.abs(recon - x).max() <= tol


class TestForward:
    def test_constant_block(self):
        g = FeatureGrid(np.ones((1, 2, 2)))
        s = dwt_haar(g)
        assert s.ll.data[0, 0, 0] == pytest.approx(2.0)
        for band in (s.lh, s.hl, s.hh):
            assert band.data[0, 0, 0] == pytest.approx(0.0)

    def test_horizontal_edge_activates_lh(self):
        g = FeatureGrid(np.array([[[1.0, 1.0], [0.0, 0.0]]]))
        s = dwt_haar(g)
        assert s.ll.data[0, 0, 0] == pytest.approx(1.0)
        assert s.lh.data[0, 0, 0] == pytest.approx(1.0)
        assert s.hl.data[0, 0, 0] == pytest.approx(0.0)
        assert s.hh.data[0, 0, 0] == pytest.approx(0.0)

    def test_energy_conservation(self):
        rng = np.random.default_rng(0)
        g = FeatureGrid(rng.normal(size=(3, 16, 16)))
        total_in = float((g.data ** 2).sum())
        assert abs(total_in - band_energy(dwt_haar(g))) <= 1e-5 * total_in

    def test_band_shapes_ceil_half(self):
        g = FeatureGrid(np.random.default_rng(1).normal(size=(2, 5, 7)))
        s = dwt_haar(g)
        assert all(band.shape == (2, 3, 4) for band in (s.ll, s.lh, s.hl, s.hh))

    def test_rejects_tiny_input(self):
        with pytest.raises(DimensionError):
            dwt_haar(FeatureGrid(np.zeros((1, 1, 5))))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        mixed = dwt_haar(FeatureGrid(1.5 * x + 0.25 * y))
        sx = dwt_haar(FeatureGrid(x))
        sy = dwt_haar(FeatureGrid(y))
        for name in ("ll", "lh", "hl", "hh"):
            want = 1.5 * getattr(sx, name).data + 0.25 * getattr(sy, name).data
            assert np.abs(getattr(mixed, name).data - want).max() <= 1e-6


class TestInverse:
    def test_roundtrip_even_dims(self):
        rng = np.random.default_rng(3)
        for h, w in ((2, 2), (8, 8), (16, 12), (30, 64)):
            g = FeatureGrid(rng.normal(size=(2, h, w)))
            recon = idwt_haar(dwt_haar(g), h, w)
            assert np.abs(recon.data - g.data).max() <= 1e-5

    def test_roundtrip_odd_dims_crops_padding(self):
        rng = np.random.default_rng(4)
        g = FeatureGrid(rng.normal(size=(1, 7, 9)))
        recon = idwt_haar(dwt_haar(g), 7, 9)
        assert np.abs(recon.data - g.data).max() <= 1e-5

    def test_zero_bands_give_zero_grid(self):
        zero = FeatureGrid.zeros(1, 2, 2)
        out = idwt_haar(SubbandSet(zero, zero, zero, zero))
        assert np.all(out.data == 0.0)

    def test_constant_ll_gives_constant_ones(self):
        ll = FeatureGrid.full(1, 2, 2, 2.0)
        zero = FeatureGrid.zeros(1, 2, 2)
        out = idwt_haar(SubbandSet(ll, zero, zero, zero))
        assert np.allclose(out.data, 1.0)

    def test_inconsistent_bands_rejected(self):
        with pytest.raises(DimensionError):
            SubbandSet(FeatureGrid.zeros(1, 2, 2), FeatureGrid.zeros(1, 2, 3),
                       FeatureGrid.zeros(1, 2, 2), FeatureGrid.zeros(1, 2, 2))

    def test_bad_target_rejected(self):
        bands = dwt_haar(FeatureGrid.zeros(1, 4, 4))
        with pytest.raises(DimensionError):
            idwt_haar(bands, 7, 4)


class TestDirectionality:
    def test_horizontal_stripes_land_in_lh(self):
        data = np.zeros((1, 16, 16))
        data[0, ::2, :] = 1.0  # horizontal stripes
        s = dwt_haar(FeatureGrid(data))
        lh = float((s.lh.data ** 2).sum())
        hl = float((s.hl.data ** 2).sum())
        assert lh > 100.0 * max(hl, 1e-30)

    def test_transpose_swaps_detail_bands_exactly(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(1, 12, 12))
        s = dwt_haar(FeatureGrid(data))
        st = dwt_haar(FeatureGrid(data.transpose(0, 2, 1)))
        assert float((st.lh.data ** 2).sum()) == pytest.approx(float((s.hl.data ** 2).sum()))
        assert float((st.hl.data ** 2).sum()) == pytest.approx(float((s.lh.data ** 2).sum()))
        assert float((st.hh.data ** 2).sum()) == pytest.approx(float((s.hh.data ** 2).sum()))


class TestQuadrantSigns:
    def test_each_quadrant_has_its_own_signs(self):
        # One unit coefficient per band: every quadrant sees +-1/2 with the Hadamard signs.
        signs = {"ll": (1, 1, 1, 1), "lh": (1, 1, -1, -1), "hl": (1, -1, 1, -1),
                 "hh": (1, -1, -1, 1)}
        for name, want in signs.items():
            bands = {b: FeatureGrid.zeros(1, 1, 1) for b in signs}
            bands[name] = FeatureGrid.full(1, 1, 1, 1.0)
            out = idwt_haar(SubbandSet(**bands)).data[0]
            assert tuple(out.ravel() * 2.0) == want, name


class TestButterflyAgainstOracles:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bands_and_reconstruction_match_oracles(self, case):
        assert_matches_oracles(ORACLE_CASES[case](np.random.default_rng(7)))

    def test_strided_input_is_not_contiguous(self):
        x = strided(np.random.default_rng(0), (3, 12, 10))
        assert x.shape == (3, 12, 10) and not x.flags.c_contiguous

    def test_idwt_of_strided_bands_matches_oracle(self):
        rng = np.random.default_rng(8)
        bands = {n: strided(rng, (2, 5, 6)) for n in BANDS}
        got = idwt_haar(SubbandSet(**{n: FeatureGrid(b) for n, b in bands.items()}), 9, 12).data
        want = oracle_idwt(*(bands[n] for n in BANDS), 9, 12)
        assert np.abs(got - want).max() <= 1e-14 * max(np.abs(b).max() for b in bands.values())

    @pytest.mark.parametrize("planes", [None, 1, 2, 3, 10])
    @pytest.mark.parametrize("shape", [(7, 10, 12), (7, 9, 11)])
    def test_channel_blocks(self, monkeypatch, shape, planes):
        # Budgets of one channel, below one channel (None: 100 B, still one
        # channel a block), 2 and 3 channels (a short last block of 1), and
        # every channel in one block.
        ch, h, w = shape
        plane = (h + h % 2) * (w + w % 2) * 8
        monkeypatch.setattr(wavelet, "_HAAR_BLOCK_BYTES", 100 if planes is None else planes * plane)
        assert_matches_oracles(np.random.default_rng(9).normal(size=shape))

    def test_bands_are_slots_of_one_buffer(self):
        bands = dwt_haar(FeatureGrid(np.random.default_rng(10).normal(size=(3, 8, 6))))
        buffer = bands.ll.data.base
        assert buffer is not None and buffer.shape == (4, 3, 4, 3)
        for slot, name in enumerate(BANDS):
            assert np.shares_memory(getattr(bands, name).data, buffer[slot])


class TestNoSharedState:
    def test_inputs_unchanged(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 9, 12))
        before = x.copy()
        bands = dwt_haar(FeatureGrid(x))
        assert np.array_equal(x, before)
        kept = {n: getattr(bands, n).data.copy() for n in BANDS}
        idwt_haar(bands, 9, 12)
        for name in BANDS:
            assert np.array_equal(getattr(bands, name).data, kept[name]), name

    def test_calls_return_distinct_buffers(self):
        x = FeatureGrid(np.random.default_rng(12).normal(size=(2, 8, 8)))
        want, tol = oracle_dwt(x.data), 1e-14 * np.abs(x.data).max()
        first = dwt_haar(x)
        for name in BANDS:
            getattr(first, name).data[...] = 7.0
        second = dwt_haar(x)
        for name in BANDS:
            assert not np.shares_memory(getattr(first, name).data, getattr(second, name).data)
            assert np.abs(getattr(second, name).data - want[name]).max() <= tol, name
        out = idwt_haar(second)
        out.data[...] = -3.0
        again = idwt_haar(second)
        assert not np.shares_memory(out.data, again.data)
        assert np.abs(again.data - x.data).max() <= tol
