import numpy as np
import pytest

from wavescan.errors import DimensionError
from wavescan.grid import FeatureGrid
from wavescan.wavelet import SubbandSet, dwt_haar, idwt_haar


def band_energy(bands):
    return sum(float((b.data ** 2).sum()) for b in (bands.ll, bands.lh, bands.hl, bands.hh))


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
        assert s.band_shape == (2, 3, 4)

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
