import numpy as np
import pytest

from wavescan import fablock
from wavescan.errors import ConfigError, DimensionError
from wavescan.fablock import (
    ScanAssignment,
    cross_scan,
    fa_scan,
    lgb,
    lgb_gate,
    lgb_weight_spec,
)
from wavescan.flops import cross_scan_macs, fa_scan_macs
from wavescan.grid import FeatureGrid
from wavescan.nn import conv1x1, depthwise_conv2d, global_avg_pool, relu, sigmoid
from wavescan.pipeline import PipelineConfig, default_weights, stage_weight_spec
from wavescan.scanorder import ScanKind, build_scan_order, deserialize, serialize
from wavescan.ssm import SsmParams, _coefficients, ssm_scan_sequential
from wavescan.wavelet import SubbandSet, dwt_haar, idwt_haar
from wavescan.weights import WeightStore, seeded_init


class TestScanAssignment:
    def test_default_paths(self):
        a = ScanAssignment()
        assert (a.ll, a.lh, a.hl, a.hh) == (
            ScanKind.HILBERT, ScanKind.HORIZONTAL, ScanKind.VERTICAL, ScanKind.HILBERT,
        )

    def test_parse_and_format_roundtrip(self):
        a = ScanAssignment.parse("ll=hilbert,lh=h,hl=v,hh=hilbert")
        assert a == ScanAssignment()
        assert ScanAssignment.parse(a.format()) == a

    def test_parse_partial_keeps_defaults(self):
        a = ScanAssignment.parse("hh=raster")
        assert a.hh is ScanKind.RASTER
        assert a.lh is ScanKind.HORIZONTAL

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ScanAssignment.parse("xx=hilbert")

    @pytest.mark.parametrize("text", ["", " ", "ll=h,,", ",lh=v", "hh=v, "])
    def test_parse_rejects_an_empty_entry(self, text):
        with pytest.raises(ConfigError, match="^bad assignment entry '', want band=kind$"):
            ScanAssignment.parse(text)

    def test_parse_rejects_a_repeated_band_by_name(self):
        with pytest.raises(ConfigError, match="band 'lh' is assigned more than once"):
            ScanAssignment.parse("lh=v,lh=h")

    def test_swapped_exchanges_detail_paths(self):
        s = ScanAssignment.swapped()
        assert s.lh is ScanKind.VERTICAL
        assert s.hl is ScanKind.HORIZONTAL


class TestFaScan:
    def test_zero_input_zero_output(self):
        psi = SsmParams.random(2, 3, seed=0)
        psi = SsmParams(state_dim=3, a_log=psi.a_log, d_skip=np.zeros(2), selective=True,
                        delta_w=psi.delta_w, delta_b=psi.delta_b, b_w=psi.b_w, c_w=psi.c_w)
        out = fa_scan(FeatureGrid.zeros(2, 8, 8), psi)
        assert np.allclose(out.data, 0.0)

    def test_all_raster_matches_hand_composition(self):
        rng = np.random.default_rng(1)
        x = FeatureGrid(rng.normal(size=(3, 8, 8)))
        psi = SsmParams.random(3, 2, seed=2)
        got = fa_scan(x, psi, ScanAssignment.uniform(ScanKind.RASTER))
        bands = dwt_haar(x)
        order = build_scan_order(ScanKind.RASTER, 4, 4)
        scanned = []
        for band in (bands.ll, bands.lh, bands.hl, bands.hh):
            seq = serialize(band, order).T
            scanned.append(deserialize(ssm_scan_sequential(psi, seq).T, order))
        want = idwt_haar(SubbandSet(*scanned), 8, 8)
        assert np.abs(got.data - want.data).max() <= 1e-9

    def test_identity_operator_is_roundtrip(self):
        rng = np.random.default_rng(3)
        x = FeatureGrid(rng.normal(size=(2, 12, 12)))
        out = fa_scan(x, SsmParams.identity(2))
        assert np.abs(out.data - x.data).max() <= 1e-5

    @pytest.mark.parametrize("size", [4, 6, 16, 32, 64])
    def test_shape_preserved(self, size):
        x = FeatureGrid(np.random.default_rng(size).normal(size=(1, size, size)))
        out = fa_scan(x, SsmParams.static(1, transition=0.5))
        assert out.shape == x.shape

    def test_aligned_beats_swapped_on_horizontal_stripe(self):
        rng = np.random.default_rng(4)
        psi = SsmParams.static(1, transition=0.5)
        wins = 0
        for seed in range(20):
            data = np.zeros((1, 16, 16))
            row = int(np.random.default_rng(seed).integers(1, 15))
            data[0, row, :] = 1.0
            x = FeatureGrid(data)
            on = data[0] > 0
            aligned = np.abs(fa_scan(x, psi, ScanAssignment()).data[0][on]).mean()
            swapped = np.abs(fa_scan(x, psi, ScanAssignment.swapped()).data[0][on]).mean()
            wins += aligned > swapped
        assert wins >= 19

    def test_odd_dims_pad_and_crop(self):
        x = FeatureGrid(np.random.default_rng(9).normal(size=(1, 7, 9)))
        out = fa_scan(x, SsmParams.identity(1))
        assert out.shape == x.shape
        assert np.abs(out.data - x.data).max() <= 1e-5

    def test_too_small_rejected(self):
        # dwt_haar's own size check stops both scans.
        with pytest.raises(DimensionError):
            fa_scan(FeatureGrid.zeros(1, 1, 8), SsmParams.identity(1))
        with pytest.raises(DimensionError):
            cross_scan(FeatureGrid.zeros(1, 8, 1), SsmParams.identity(1))

    @pytest.mark.parametrize("shape", [(3, 8, 8), (2, 7, 9)])
    def test_kept_carrier_matches_handed_over_and_is_unchanged(self, shape):
        # fa_scan drops its reference once the carrier is split; a caller
        # that keeps the carrier gets the same bits and an untouched carrier.
        data = np.random.default_rng(10).normal(size=shape)
        psi = SsmParams.random(shape[0], 3, seed=11)
        kept = FeatureGrid(data.copy())
        got = fa_scan(kept, psi)
        held = [FeatureGrid(data.copy())]
        assert np.array_equal(got.data, fa_scan(held.pop(), psi).data)
        assert np.array_equal(kept.data, data)

    def test_parallel_and_sequential_paths_agree(self, monkeypatch):
        x = FeatureGrid(np.random.default_rng(5).normal(size=(2, 8, 8)))
        psi = SsmParams.random(2, 3, seed=6)
        a = fa_scan(x, psi)
        calls = []

        def sequential(params, u):
            calls.append(len(u))
            return ssm_scan_sequential(params, u)

        monkeypatch.setattr(fablock, "ssm_scan_parallel", sequential)
        b = fa_scan(x, psi)
        assert calls == [16] * 4
        assert np.abs(a.data - b.data).max() <= 1e-9


# The paper's propagation claim, on the forward's own stage operators: a
# pixel raised on a thin line moves the output of a scan matched to the
# line's orientation along the line, and that of a mismatched scan across it.
_SIDE, _OFFSETS = 64, np.arange(8, 41)


def _window(centre):
    """Positions 8-40 px from ``centre`` on both sides, clipped to the carrier."""
    at = np.concatenate([centre - _OFFSETS, centre + _OFFSETS])
    return at[(at >= 0) & (at < _SIDE)]


def line_influence(psi, assign, vertical, seed):
    """Influence of one raised line pixel along a 2-px line over that across it.

    The carrier is 64x64 with psi.channels channels, each a gain from
    U(0.5, 1.5) times the line (rows 31-32, or columns 31-32 when
    ``vertical``) plus 0.05 N(0, 1) noise.  Pixel (32, 11), or (11, 32), is
    raised by 0.5 in every channel; a 2x2 block at even coordinates would be
    pure LL and reach no detail scan.  Influence is |change of fa_scan's
    output| summed over channels, averaged at offsets 8-40 px on both sides
    of the pixel, as a causal scan carries state only downstream.
    """
    rng = np.random.default_rng(seed)
    line = np.zeros((_SIDE, _SIDE))
    line[31:33] = 1.0
    if vertical:
        line = line.T
    data = (rng.uniform(0.5, 1.5, psi.channels)[:, None, None] * line
            + 0.05 * rng.normal(size=(psi.channels, _SIDE, _SIDE)))
    bumped = data.copy()
    bumped[(slice(None), 11, 32) if vertical else (slice(None), 32, 11)] += 0.5
    delta = np.abs(fa_scan(FeatureGrid(bumped), psi, assign).data
                   - fa_scan(FeatureGrid(data), psi, assign).data).sum(axis=0)
    if vertical:
        delta = delta.T  # the pixel at (32, 11) and the line along row 32
    return delta[32, _window(11)].mean() / delta[_window(32), 11].mean()


@pytest.fixture(scope="module")
def pipeline_weights():
    return default_weights(PipelineConfig())


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_stage_operator_propagates_along_a_matched_line(pipeline_weights, stage):
    # Over 20 seeds the aligned reading was 36 at its lowest and the swapped
    # one 0.33 at its highest (README "Tests" has the table).
    psi = SsmParams.from_store(pipeline_weights, f"s{stage}.")
    for vertical in (False, True):
        for seed in range(2):
            aligned = line_influence(psi, ScanAssignment(), vertical, seed)
            swapped = line_influence(psi, ScanAssignment.swapped(), vertical, seed)
            assert aligned > 10 and swapped < 1, (vertical, seed, aligned, swapped)


def strip_recurrence(decay, drive, reverse):
    """Affine recurrence along axis 1 of (B, L, C, N), strips independent."""
    if reverse:
        decay = decay[:, ::-1]
        drive = drive[:, ::-1]
    out = np.empty_like(drive)
    state = drive[:, 0].copy()
    out[:, 0] = state
    for t in range(1, drive.shape[1]):
        state = decay[:, t] * state + drive[:, t]
        out[:, t] = state
    return out[:, ::-1] if reverse else out


def strip_four_directions(band, psi):
    """Oracle for one band of cross_scan: the strip loop over (strip, step)
    axes, with fresh state buffers for each of the four passes."""
    c, h, w = band.shape
    tokens = band.data.reshape(c, -1).T
    decay, drive, c_t = _coefficients(psi, tokens)
    n = psi.state_dim
    decay = decay.reshape(h, w, c, n)
    drive = drive.reshape(h, w, c, n)
    c_grid = c_t.reshape(h, w, n)
    acc = np.zeros((h, w, c))
    for reverse in (False, True):
        acc += np.einsum("hwcn,hwn->hwc", strip_recurrence(decay, drive, reverse), c_grid)
    decay_t = decay.transpose(1, 0, 2, 3)
    drive_t = drive.transpose(1, 0, 2, 3)
    for reverse in (False, True):
        hs = strip_recurrence(decay_t, drive_t, reverse).transpose(1, 0, 2, 3)
        acc += np.einsum("hwcn,hwn->hwc", hs, c_grid)
    out = acc / 4.0 + psi.d_skip * tokens.reshape(h, w, c)
    return FeatureGrid(np.ascontiguousarray(out.transpose(2, 0, 1)))


def params_arrays(psi):
    return {k: v.copy() for k, v in vars(psi).items() if isinstance(v, np.ndarray)}


class TestCrossScan:
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 9), (6, 11), (9, 4), (2, 10), (10, 2), (2, 2)])
    @pytest.mark.parametrize("selective", [True, False])
    @pytest.mark.parametrize("state_dim", [1, 3])
    def test_matches_strip_oracle(self, h, w, selective, state_dim):
        rng = np.random.default_rng([h, w, state_dim])
        x = FeatureGrid(rng.normal(size=(3, h, w)))
        x_before = x.data.copy()
        psi = SsmParams.random(3, state_dim, seed=h * w, selective=selective)
        psi_before = params_arrays(psi)
        got = cross_scan(x, psi)
        bands = dwt_haar(x)
        want = idwt_haar(SubbandSet(*(strip_four_directions(b, psi) for b in
                                      (bands.ll, bands.lh, bands.hl, bands.hh))), h, w)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(x.data, x_before)
        after = params_arrays(psi)
        assert after.keys() == psi_before.keys()
        for name, value in psi_before.items():
            assert np.array_equal(after[name], value), name

    def test_zero_input(self):
        psi = SsmParams.static(1, transition=0.5)
        out = cross_scan(FeatureGrid.zeros(1, 8, 8), psi)
        assert np.allclose(out.data, 0.0)

    def test_mirror_invariance_of_direction_average(self):
        # left-right symmetric input, symmetric (static) operator
        rng = np.random.default_rng(7)
        left = rng.normal(size=(1, 16, 8))
        x = FeatureGrid(np.concatenate([left, left[:, :, ::-1]], axis=2))
        psi = SsmParams.static(1, transition=0.5)
        out = cross_scan(x, psi).data
        mirrored = out[:, :, ::-1]
        scale = np.abs(out).max()
        assert np.abs(out - mirrored).max() <= 1e-5 * scale

    def test_single_direction_is_not_mirror_invariant(self):
        # sanity: the symmetry really comes from averaging directions
        rng = np.random.default_rng(8)
        left = rng.normal(size=(1, 16, 8))
        x = FeatureGrid(np.concatenate([left, left[:, :, ::-1]], axis=2))
        psi = SsmParams.static(1, transition=0.5)
        out = fa_scan(x, psi, ScanAssignment.uniform(ScanKind.RASTER)).data
        assert np.abs(out - out[:, :, ::-1]).max() > 1e-3 * np.abs(out).max()

    def test_costs_more_than_aligned_scan(self):
        assert cross_scan_macs(4, 16, 16, 8) > fa_scan_macs(4, 16, 16, 8)


class TestLgb:
    def make(self, letter="E", channels=8, seed=0):
        return seeded_init(lgb_weight_spec(channels, letter), seed)

    def test_policy_validation(self):
        for policy in ("EEG", "EEXX", "EEGGE", "eegg"):
            with pytest.raises(ConfigError,
                               match=f"^policy must be 4 letters from E/G, got '{policy}'$"):
                PipelineConfig(policy=policy)

    def test_default_policy_letters(self):
        # ECA gates in stages 1 and 2, squeeze/excite in stages 3 and 4.
        cfg = PipelineConfig()
        assert cfg.policy == "EEGG"
        for stage, gate_block in ((1, "eca_w"), (2, "eca_w"), (3, "gse_w1"), (4, "gse_w1")):
            names = [name for name, _ in stage_weight_spec(cfg.channels[stage - 1], cfg, stage)]
            assert f"s{stage}.lgb.{gate_block}" in names

    @pytest.mark.parametrize("letter", ["X", "", "EG", "e"])
    def test_unknown_letter_rejected(self, letter):
        says = f"^gate letter must be 'E' or 'G', got {letter!r}$"
        with pytest.raises(ValueError, match=says):
            lgb_weight_spec(8, letter)
        with pytest.raises(ValueError, match=says):
            lgb_gate(FeatureGrid.zeros(8, 4, 4), letter, WeightStore())

    def test_zero_branch_is_exact_identity(self):
        store = self.make()
        for name in store.names():
            if not name.endswith(("eca_w", "eca_b")):
                store[name] = np.zeros_like(store[name])
        y = FeatureGrid(np.random.default_rng(1).normal(size=(8, 6, 6)))
        out = lgb(y, "E", store)
        assert np.array_equal(out.data, y.data)

    @pytest.mark.parametrize("stage,letter", [(1, "E"), (3, "G")])
    def test_gate_driven_negative_annihilates_branch(self, stage, letter):
        assert PipelineConfig().policy[stage - 1] == letter
        store = self.make(letter)
        if letter == "E":
            store["lgb.eca_w"] = np.zeros_like(store["lgb.eca_w"])
            store["lgb.eca_b"] = np.array([-20.0])
        else:
            store["lgb.gse_w2"] = np.zeros_like(store["lgb.gse_w2"])
            store["lgb.gse_b2"] = np.full_like(store["lgb.gse_b2"], -20.0)
        y = FeatureGrid(np.random.default_rng(2).normal(size=(8, 6, 6)))
        out = lgb(y, letter, store)
        assert np.abs(out.data - y.data).max() <= 1e-6

    @pytest.mark.parametrize("stage", [1, 4])
    def test_matches_step_by_step_oracle(self, stage):
        letter = PipelineConfig().policy[stage - 1]
        store = self.make(letter, seed=5)
        y = FeatureGrid(np.random.default_rng(3).normal(size=(8, 5, 7)))
        got = lgb(y, letter, store)
        gate = lgb_gate(y, letter, store)
        assert np.all(gate > 0.0) and np.all(gate < 1.0)
        # independent recomputation
        pooled = global_avg_pool(y.data)
        if letter == "E":
            pre = np.correlate(pooled, store["lgb.eca_w"], mode="same") + store["lgb.eca_b"][0]
        else:
            pre = store["lgb.gse_w2"] @ relu(store["lgb.gse_w1"] @ pooled + store["lgb.gse_b1"]) + store["lgb.gse_b2"]
        branch = relu(conv1x1(y.data, store["lgb.down_w"], store["lgb.down_b"]))
        branch = relu(depthwise_conv2d(branch, store["lgb.dw_w"], store["lgb.dw_b"]))
        branch = conv1x1(branch, store["lgb.up_w"], store["lgb.up_b"])
        want = y.data + sigmoid(pre)[:, None, None] * branch
        assert np.abs(got.data - want).max() <= 1e-5

    def test_channels_must_divide_by_four(self):
        with pytest.raises(DimensionError):
            lgb(FeatureGrid.zeros(6, 4, 4), "E", self.make())

    def test_parameter_count_vs_expansion_ffn(self):
        # the bottleneck replacement costs a few percent of a 4x-expansion
        # feed-forward at equal width; the squeeze/excite gate of late
        # stages adds another C^2/2
        channels = 64
        ffn = channels * 4 * channels * 2
        branch = sum(
            int(np.prod(shape))
            for name, shape in lgb_weight_spec(channels, "E")
            if not name.startswith("lgb.eca")
        )
        assert 0.06 <= branch / ffn <= 0.072
        eca_total = sum(int(np.prod(s)) for _, s in lgb_weight_spec(channels, "E"))
        assert 0.06 <= eca_total / ffn <= 0.08
        gse_total = sum(int(np.prod(s)) for _, s in lgb_weight_spec(channels, "G"))
        assert gse_total / ffn <= 0.14
