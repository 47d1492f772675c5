import numpy as np
import pytest

from wavescan import pipeline
from wavescan.asgp import asgp_gate, coarse_potential, evolve_probes, refine_mask
from wavescan.errors import ConfigError, DimensionError, InputError
from wavescan.fablock import fa_scan, lgb
from wavescan.flops import conv_macs, cross_scan_macs, fa_scan_macs, flop_estimate
from wavescan.grid import FeatureGrid
from wavescan.pipeline import (
    PipelineConfig,
    _check_input,
    _stack_bands,
    _stage_probes,
    align,
    align_weight_spec,
    brm,
    default_weights,
    downsample,
    encoder_block,
    forward,
    gfa,
    pipeline_weight_spec,
    stage_weight_spec,
    stem,
)
from wavescan.ssm import SsmParams
from wavescan.wavelet import SubbandSet, dwt_haar, idwt_haar
from wavescan.weights import WeightStore, seeded_init


from block_helpers import zero_identity_block_store as zero_block_store


class TestAlign:
    def make_inputs(self, channels=4, size=8, seed=0):
        rng = np.random.default_rng(seed)
        x = FeatureGrid(rng.normal(size=(channels, size, size)))
        bands = [FeatureGrid(rng.normal(size=(channels, size, size))) for _ in range(3)]
        return x, bands

    def test_zero_predictor_is_exact_identity(self):
        x, bands = self.make_inputs()
        store = WeightStore({n: np.zeros(s) for n, s in align_weight_spec(4)})
        out = align(x, bands, store)
        assert np.array_equal(out.data, x.data)

    def test_constant_one_pixel_shift_matches_manual_shift(self):
        # 17-wide ramp image, offset of exactly one pixel in +x
        w = 17
        ramp = np.tile(np.arange(w, dtype=float), (w, 1))[None]
        x = FeatureGrid(ramp)
        bands = [FeatureGrid.zeros(1, w, w) for _ in range(3)]
        store = WeightStore({n: np.zeros(s) for n, s in align_weight_spec(1)})
        one_px = 2.0 / (w - 1)  # normalized units
        raw = np.arctanh(one_px / 0.25)
        store["align.b2"] = np.array([raw, 0.0])
        out = align(x, bands, store)
        want = np.tile(np.minimum(np.arange(w) + 1.0, w - 1.0), (w, 1))[None]
        assert np.abs(out.data - want).max() <= 1e-9

    def test_saturated_offsets_stay_bounded_and_finite(self):
        x, bands = self.make_inputs(seed=1)
        store = WeightStore({n: np.zeros(s) for n, s in align_weight_spec(4)})
        store["align.b2"] = np.array([50.0, -50.0])  # tanh saturates at +-1
        out = align(x, bands, store)
        assert np.all(np.isfinite(out.data))

    def test_dwt_detail_bands_are_stacked_as_a_view(self):
        sub = dwt_haar(FeatureGrid(np.random.default_rng(2).normal(size=(4, 16, 16))))
        bands = [b.data for b in sub.high()]
        stacked = _stack_bands(bands)
        assert np.shares_memory(stacked, sub.lh.data)
        assert np.array_equal(stacked, np.concatenate(bands))

    @pytest.mark.parametrize("pick", [
        lambda sub: [b.data.copy() for b in sub.high()],
        lambda sub: [sub.hl.data, sub.lh.data, sub.hh.data],
        lambda sub: [sub.ll.data, sub.lh.data, sub.hl.data],
    ], ids=["copies", "reordered", "with_ll"])
    def test_other_bands_are_stacked_as_a_copy(self, pick):
        sub = dwt_haar(FeatureGrid(np.random.default_rng(3).normal(size=(4, 16, 16))))
        bands = pick(sub)
        stacked = _stack_bands(bands)
        assert not any(np.shares_memory(stacked, b) for b in bands)
        assert np.array_equal(stacked, np.concatenate(bands))

    def test_view_and_copy_align_identically(self):
        sub = dwt_haar(FeatureGrid(np.random.default_rng(4).normal(size=(4, 16, 16))))
        copies = [FeatureGrid(b.data.copy()) for b in sub.high()]
        store = seeded_init(align_weight_spec(4), 4)
        want = align(sub.ll, copies, store)
        assert np.array_equal(align(sub.ll, sub.high(), store).data, want.data)

    def test_band_shape_mismatch_rejected(self):
        x, bands = self.make_inputs()
        bands[1] = FeatureGrid.zeros(4, 4, 8)
        store = WeightStore({n: np.zeros(s) for n, s in align_weight_spec(4)})
        with pytest.raises(DimensionError):
            align(x, bands, store)


class TestEncoderBlock:
    def test_identity_degeneracy_is_roundtrip(self):
        cfg = PipelineConfig(gate_mode="unit")
        channels = cfg.channels[0]
        store = zero_block_store(channels, cfg, stage=1)
        x = FeatureGrid(np.random.default_rng(0).normal(size=(channels, 16, 16)))
        out = encoder_block(x, cfg, store, stage=1)
        assert np.abs(out.data - x.data).max() <= 1e-5

    def test_zero_input_zero_weights_gives_zero(self):
        cfg = PipelineConfig(gate_mode="unit")
        channels = cfg.channels[0]
        store = zero_block_store(channels, cfg, stage=1)
        out = encoder_block(FeatureGrid.zeros(channels, 8, 8), cfg, store, stage=1)
        assert np.allclose(out.data, 0.0)

    def test_matches_hand_chained_composition(self):
        cfg = PipelineConfig()
        channels = cfg.channels[0]
        store = seeded_init(stage_weight_spec(channels, cfg, 1), 3)
        from wavescan.asgp import probe_grid_coords

        store["s1.asgp.probe_coords"] = probe_grid_coords(cfg.probes, 1)
        x = FeatureGrid(np.random.default_rng(1).normal(size=(channels, 16, 16)))
        got = encoder_block(x, cfg, store, stage=1)

        bands = dwt_haar(x)
        aligned = align(bands.ll, bands.high(), store, "s1.")
        psi = SsmParams.from_store(store, "s1.")
        carrier = lgb(fa_scan(aligned, psi, cfg.assign), cfg.policy[0], store, "s1.")
        probes = _stage_probes(store, cfg, channels, "s1.")
        m0 = coarse_potential(probes, aligned, store, "s1.")
        moved = evolve_probes(m0, aligned, probes, cfg.steps, store, "s1.")
        m1 = refine_mask(moved, (8, 8))
        gated = asgp_gate(m0, m1, bands.high())
        want = idwt_haar(SubbandSet(carrier, *gated), 16, 16)
        assert np.abs(got.data - want.data).max() <= 1e-5

    @pytest.mark.parametrize("gate_mode", ["probe", "unit"])
    def test_kept_input_is_unchanged_and_gives_the_handed_over_output(self, gate_mode):
        # forward hands each stage input over (block(held.pop(), ...)) so the
        # block can free it; a caller that keeps its grid must see no change.
        cfg = PipelineConfig(gate_mode=gate_mode)
        store = default_weights(cfg)
        data = np.random.default_rng(2).normal(size=(cfg.channels[0], 32, 32))
        before = data.copy()
        kept = FeatureGrid(data)
        got = encoder_block(kept, cfg, store, stage=1)
        assert np.array_equal(data, before)
        held = [FeatureGrid(before.copy())]
        handed = encoder_block(held.pop(), cfg, store, stage=1)
        assert np.array_equal(got.data, handed.data)

    def test_stage_outside_one_to_four_rejected(self):
        # The stage picks its policy letter, so 0 must not wrap to stage 4's.
        for stage in (0, 5):
            with pytest.raises(ValueError, match=f"^stage must be 1..4, got {stage}$"):
                stage_weight_spec(16, PipelineConfig(), stage)

    def test_rejects_small_or_odd_inputs(self):
        cfg = PipelineConfig(gate_mode="unit")
        store = zero_block_store(cfg.channels[0], cfg)
        with pytest.raises(DimensionError):
            encoder_block(FeatureGrid.zeros(cfg.channels[0], 2, 8), cfg, store)
        with pytest.raises(DimensionError):
            encoder_block(FeatureGrid.zeros(cfg.channels[0], 10, 9), cfg, store)


class TestDecoder:
    def make_levels(self, ce=8, seed=0):
        rng = np.random.default_rng(seed)
        dims = [(ce, 16, 16), (ce * 2, 8, 8), (ce * 4, 4, 4), (ce * 8, 2, 2)]
        return [FeatureGrid(rng.normal(size=d)) for d in dims]

    def gfa_store(self, cfg, zero_bias=True, seed=0):
        spec = [(n, s) for n, s in pipeline_weight_spec(cfg) if n.startswith(("gfa.", "brm.", "head."))]
        store = seeded_init(spec, seed)
        if zero_bias:
            for name in store.names():
                if name.rsplit("_", 1)[-1] in ("b", "b1", "b2") or name.endswith(".b"):
                    store[name] = np.zeros_like(store[name])
        return store

    def test_single_live_level_drives_output(self):
        from wavescan.grid import resize_bilinear
        from wavescan.nn import conv1x1, conv2d, global_avg_pool, relu, sigmoid

        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg)
        levels = self.make_levels()
        zeros = [FeatureGrid.zeros(*lvl.shape) for lvl in levels]
        got = gfa([zeros[0], levels[1], zeros[2], zeros[3]], store)
        assert np.abs(got.data).max() > 0
        # with zero biases the dead levels vanish: the fused map is exactly
        # the gated, upsampled projection of the single live level
        proj = resize_bilinear(FeatureGrid(conv1x1(levels[1].data, store["gfa.phi2_w"])), 16, 16)
        gate = sigmoid(store["gfa.gate2_w2"] @ relu(store["gfa.gate2_w1"] @ global_avg_pool(proj.data)))
        want = conv2d(gate[:, None, None] * proj.data, store["gfa.fuse_w"])
        assert np.abs(got.data - want).max() <= 1e-9

    def test_gate_suppression(self):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg, zero_bias=False, seed=1)
        levels = self.make_levels(seed=2)
        zeros = [FeatureGrid.zeros(*lvl.shape) for lvl in levels]
        base = gfa([levels[0], zeros[1], zeros[2], zeros[3]], store)
        store["gfa.gate1_w2"] = np.zeros_like(store["gfa.gate1_w2"])
        store["gfa.gate1_b2"] = np.full_like(store["gfa.gate1_b2"], -20.0)
        suppressed = gfa([levels[0], zeros[1], zeros[2], zeros[3]], store)
        # with dead biases elsewhere, the fused map collapses to ~fuse(0)
        dead = gfa(zeros, store)
        assert np.abs(suppressed.data - dead.data).max() <= 1e-6 * max(1.0, np.abs(base.data).max())

    def test_shapes_and_gate_range(self):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg, zero_bias=False, seed=3)
        levels = self.make_levels(seed=4)
        out = gfa(levels, store)
        assert out.shape == (8, 16, 16)

    def test_wrong_level_count_rejected(self):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg)
        with pytest.raises(ConfigError):
            gfa(self.make_levels()[:3], store)

    @pytest.mark.parametrize("count", [3, 5])
    def test_wrong_level_count_rejected_before_any_projection(self, monkeypatch, count):
        from wavescan import pipeline

        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg)
        levels = self.make_levels()
        levels = (levels + levels)[:count]
        calls = []
        monkeypatch.setattr(pipeline, "conv1x1", lambda *args: calls.append(args))
        with pytest.raises(ConfigError):
            gfa(levels, store)
        with pytest.raises(ConfigError):
            gfa(iter(levels), store)
        assert calls == []

    def test_generator_matches_list(self):
        # A generator that hands its levels over gives the bits of a list
        # whose levels the caller keeps, and the kept levels are unchanged.
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg, zero_bias=False, seed=9)
        levels = self.make_levels(seed=10)
        copies = [lvl.data.copy() for lvl in levels]
        got = gfa(levels, store)
        handed = gfa((FeatureGrid(data.copy()) for data in copies), store)
        assert np.array_equal(got.data, handed.data)
        assert all(np.array_equal(lvl.data, data) for lvl, data in zip(levels, copies))

    def test_brm_zero_weights_identity(self):
        # A refiner with zero weights passes its input on unchanged to the head.
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg)
        for name in store.names():
            if name.startswith("brm."):
                store[name] = np.zeros_like(store[name])
        store["head.b"] = np.array([0.3])
        fused = FeatureGrid(np.random.default_rng(5).normal(size=(8, 12, 12)))
        # the fold adds exact zeros to the head's own projection
        assert np.array_equal(brm(fused, store).data, head(fused.data, store))

    def test_brm_laplacian_edge_branch_ignores_constants(self):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg, zero_bias=True, seed=6)
        lap = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
        store["brm.edge_dw_w"] = np.tile(lap, (8, 1, 1))
        store["brm.ctx_dw_w"] = np.zeros_like(store["brm.ctx_dw_w"])
        store["brm.ctx_pw_w"] = np.zeros_like(store["brm.ctx_pw_w"])
        fused = FeatureGrid.full(8, 10, 10, 3.7)
        out = brm(fused, store)
        assert np.abs(out.data - head(fused.data, store)).max() <= 1e-9

    def test_brm_matches_step_oracle(self):
        from wavescan.nn import conv1x1, depthwise_conv2d, relu

        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        store = self.gfa_store(cfg, zero_bias=False, seed=7)
        fused = FeatureGrid(np.random.default_rng(8).normal(size=(8, 6, 6)))
        got = brm(fused, store)
        ctx = conv1x1(relu(depthwise_conv2d(fused.data, store["brm.ctx_dw_w"],
                                            store["brm.ctx_dw_b"])),
                      store["brm.ctx_pw_w"], store["brm.ctx_pw_b"])
        edge = depthwise_conv2d(fused.data, store["brm.edge_dw_w"], store["brm.edge_dw_b"])
        refined = fused.data + conv1x1(np.concatenate([ctx, edge]), store["brm.proj_w"],
                                       store["brm.proj_b"])
        assert got.shape == (1, 6, 6)
        assert np.abs(got.data - head(refined, store)).max() <= 1e-5


def head(refined, store):
    """The previous head: one projection of the refined decoder map to a logit."""
    from wavescan.nn import conv1x1

    return conv1x1(refined, store["head.w"], store["head.b"])


def concat_brm(fused, store):
    """The first brm: both branches concatenated, then one projection."""
    from wavescan.nn import conv1x1, depthwise_conv2d, relu

    ctx = conv1x1(relu(depthwise_conv2d(fused, store["brm.ctx_dw_w"], store["brm.ctx_dw_b"])),
                  store["brm.ctx_pw_w"], store["brm.ctx_pw_b"])
    edge = depthwise_conv2d(fused, store["brm.edge_dw_w"], store["brm.edge_dw_b"])
    proj = conv1x1(np.concatenate([ctx, edge], axis=0), store["brm.proj_w"], store["brm.proj_b"])
    proj += fused
    return proj


def split_brm(fused, store):
    """The brm before the head was folded in: each branch projected by its half of brm.proj_w."""
    from wavescan.nn import conv1x1, depthwise_conv2d

    ce = fused.shape[0]
    proj_w = store["brm.proj_w"]
    ctx = depthwise_conv2d(fused, store["brm.ctx_dw_w"], store["brm.ctx_dw_b"])
    np.maximum(ctx, 0.0, out=ctx)
    ctx = conv1x1(ctx, store["brm.ctx_pw_w"], store["brm.ctx_pw_b"])
    proj = conv1x1(ctx, proj_w[:, :ce], store["brm.proj_b"])
    edge = depthwise_conv2d(fused, store["brm.edge_dw_w"], store["brm.edge_dw_b"])
    proj += conv1x1(edge, proj_w[:, ce:])
    proj += fused
    return proj


def oracle_gfa(features, store):
    """The previous gfa: each gated projection added to the total as a new product."""
    from wavescan.grid import resize_bilinear
    from wavescan.nn import conv1x1, conv2d, global_avg_pool, relu, sigmoid

    ce = store["gfa.phi1_w"].shape[0]
    out_h, out_w = features[0].height, features[0].width
    total = np.zeros((ce, out_h, out_w))
    for level, feat in enumerate(features, start=1):
        proj = FeatureGrid(conv1x1(feat.data, store[f"gfa.phi{level}_w"],
                                   store[f"gfa.phi{level}_b"]))
        if (proj.height, proj.width) != (out_h, out_w):
            proj = resize_bilinear(proj, out_h, out_w)
        hidden = relu(store[f"gfa.gate{level}_w1"] @ global_avg_pool(proj.data)
                      + store[f"gfa.gate{level}_b1"])
        gate = sigmoid(store[f"gfa.gate{level}_w2"] @ hidden + store[f"gfa.gate{level}_b2"])
        total += gate[:, None, None] * proj.data
    return conv2d(total, store["gfa.fuse_w"], store["gfa.fuse_b"])


class TestDecoderOracles:
    @pytest.mark.parametrize("shape", [(8, 6, 6), (8, 9, 13), (8, 1, 7), (8, 5, 1),
                                       (16, 64, 64), (16, 256, 256)])
    def test_split_projection_brm_matches_concat(self, shape):
        # The folded logits against the head of both earlier refiners, up to
        # the pipeline's 256^2 map, whose whole-map depthwise in the oracles
        # runs in eight row blocks while brm's per-channel one runs in one.
        cfg = PipelineConfig(channels=tuple(shape[0] << i for i in range(4)))
        spec = [(n, s) for n, s in pipeline_weight_spec(cfg) if n.startswith(("brm.", "head."))]
        store = seeded_init(spec, shape[1])
        fused = FeatureGrid(np.random.default_rng(shape[2]).normal(size=shape))
        got = brm(fused, store).data
        for oracle in (concat_brm, split_brm):
            want = head(oracle(fused.data, store), store)
            assert got.shape == want.shape == (1,) + shape[1:]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("base", [(16, 16), (18, 14), (8, 8)])
    def test_gfa_bit_identical_to_oracle(self, base):
        cfg = PipelineConfig(channels=(8, 16, 32, 64))
        spec = [(n, s) for n, s in pipeline_weight_spec(cfg) if n.startswith("gfa.")]
        store = seeded_init(spec, 11)
        rng = np.random.default_rng(base[0])
        h, w = base
        levels = [FeatureGrid(rng.normal(size=(c, max(1, h >> i), max(1, w >> i))))
                  for i, c in enumerate(cfg.channels)]
        assert np.array_equal(gfa(levels, store).data, oracle_gfa(levels, store))


class TestForward:
    def test_deterministic_bit_identical(self):
        cfg = PipelineConfig(seed=3)
        img = FeatureGrid(np.random.default_rng(0).uniform(size=(1, 32, 32)))
        a = forward(img, cfg)
        b = forward(img, cfg)
        assert np.array_equal(a.data, b.data)

    def test_output_shape_and_range(self):
        cfg = PipelineConfig()
        img = FeatureGrid(np.random.default_rng(1).uniform(size=(1, 48, 64)))
        mask = forward(img, cfg)
        assert mask.shape == (1, 48, 64)
        assert np.all(mask.data > 0.0) and np.all(mask.data < 1.0)

    def test_64x64_completes_with_default_config(self):
        img = FeatureGrid(np.random.default_rng(2).uniform(size=(1, 64, 64)))
        mask = forward(img)
        assert mask.shape == (1, 64, 64)

    def test_matches_hand_chained_stages(self):
        cfg = PipelineConfig(seed=9)
        w = default_weights(cfg)
        img = FeatureGrid(np.random.default_rng(3).uniform(size=(1, 32, 32)))
        got = forward(img, cfg, w)

        from wavescan.nn import sigmoid

        x = stem(img, cfg, w)
        taps = []
        for stage in range(1, 5):
            x = encoder_block(x, cfg, w, stage)
            taps.append(x)
            if stage < 4:
                x = downsample(x, cfg, w, stage)
        want = sigmoid(head(split_brm(gfa(taps, w).data, w), w))
        assert np.abs(got.data - want).max() <= 1e-5

    def test_weight_bundle_roundtrip_preserves_output(self, tmp_path):
        cfg = PipelineConfig(seed=2)
        w = default_weights(cfg)
        path = tmp_path / "w.fgw"
        w.save(path)
        loaded = WeightStore.load(path)
        img = FeatureGrid(np.random.default_rng(5).uniform(size=(1, 32, 32)))
        assert np.array_equal(forward(img, cfg, w).data, forward(img, cfg, loaded).data)

    def test_stem_stride_two_upsamples_back(self):
        cfg = PipelineConfig(stem_stride=2)
        img = FeatureGrid(np.random.default_rng(4).uniform(size=(1, 64, 64)))
        mask = forward(img, cfg)
        assert mask.shape == (1, 64, 64)

    def test_64x64_forward_checks_only_the_scan_outputs(self, monkeypatch):
        # Layers wrap what they compute unchecked; only deserialize, whose
        # sequence may come from a caller, checks: 4 stages x 4 bands.
        img = FeatureGrid(np.random.default_rng(6).uniform(size=(1, 64, 64)))
        w = default_weights(PipelineConfig())
        checked = []
        check = FeatureGrid.__post_init__

        def counting(grid):
            checked.append(grid.shape)
            check(grid)

        monkeypatch.setattr(FeatureGrid, "__post_init__", counting)
        forward(img, PipelineConfig(), w)
        assert len(checked) == 16

    @pytest.mark.parametrize("name", ["stem.b", "s2.align.w1", "s3.lgb.up_w", "s4.asgp.key_w",
                                      "gfa.fuse_w", "brm.edge_dw_w", "s2.asgp.sem_w1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_built_in_code_rejected_by_name(self, name, value):
        w = default_weights(PipelineConfig())
        bad = w[name].copy()
        bad.flat[-1] = value
        w[name] = bad
        img = FeatureGrid(np.random.default_rng(7).uniform(size=(1, 32, 32)))
        with pytest.raises(InputError, match=f"block '{name}' holds 1 non-finite"):
            forward(img, PipelineConfig(), w)

    def test_integrator_limit_in_a_log_runs(self):
        w = default_weights(PipelineConfig())
        a_log = w["s1.ssm.a_log"].copy()
        a_log[0] = -np.inf
        w["s1.ssm.a_log"] = a_log
        img = FeatureGrid(np.random.default_rng(7).uniform(size=(1, 32, 32)))
        assert np.isfinite(forward(img, PipelineConfig(), w).data).all()

    def test_store_scan_width_must_match_state_dim(self):
        w = default_weights(PipelineConfig())
        img = FeatureGrid(np.random.default_rng(8).uniform(size=(1, 32, 32)))
        with pytest.raises(DimensionError, match="block 's1.ssm.a_log' has shape \\(16, 8\\), "
                                                 "consumer expects \\(16, 4\\)"):
            forward(img, PipelineConfig(state_dim=4), w)

    def test_input_constraints(self):
        cfg = PipelineConfig()
        with pytest.raises(DimensionError):
            forward(FeatureGrid.zeros(1, 24, 32), cfg)
        with pytest.raises(DimensionError):
            forward(FeatureGrid.zeros(1, 40, 40), cfg)
        with pytest.raises(DimensionError):
            forward(FeatureGrid.zeros(2, 32, 32), cfg)

    def test_stem_stride_two_rejects_32x32_before_the_stem(self, monkeypatch):
        # The stem halves 32 to 16, so the fourth block would get 2x2.
        def no_stem(*args):
            raise AssertionError("ran the stem before checking the input")

        monkeypatch.setattr(pipeline, "stem", no_stem)
        with pytest.raises(DimensionError, match="at least 64x64, got 32x32"):
            forward(FeatureGrid.zeros(1, 32, 32), PipelineConfig(stem_stride=2))

    def test_input_rule_is_the_block_rule_and_flop_estimate_follows_it(self, monkeypatch):
        def no_stem(*args):
            raise AssertionError("ran the stem on a rejected input")

        def blocks_run(side, stride):
            # stem (padded, so ceil), then each block needs even sides >= 4
            # and each downsample halves them
            side = -(-side // stride)
            for _ in range(4):
                if side % 2 or side < 4:
                    return False
                side //= 2
            return True

        monkeypatch.setattr(pipeline, "stem", no_stem)
        sides = range(16, 129, 8)
        for stride in (1, 2):
            cfg = PipelineConfig(stem_stride=stride)
            for h in sides:
                for w in sides:
                    if blocks_run(h, stride) and blocks_run(w, stride):
                        _check_input(cfg, h, w)
                        assert flop_estimate(cfg, (h, w))["total"] > 0
                        continue
                    for reject in (lambda: _check_input(cfg, h, w),
                                   lambda: flop_estimate(cfg, (h, w)),
                                   lambda: forward(FeatureGrid.zeros(1, h, w), cfg)):
                        with pytest.raises(DimensionError):
                            reject()
        # test_stem_stride_two_upsamples_back runs the smallest accepted stride-2 input

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(channels=(16, 32, 64))
        with pytest.raises(ConfigError):
            PipelineConfig(channels=(15, 32, 64, 128))
        with pytest.raises(ConfigError):
            PipelineConfig(stem_stride=3)
        with pytest.raises(ConfigError):
            PipelineConfig(gate_mode="sometimes")

    @pytest.mark.parametrize("kwargs", [{"probes": 0}, {"probes": -3}, {"steps": -1},
                                        {"seed": -1}])
    def test_config_rejects_bad_value_by_name(self, kwargs):
        (key, _), = kwargs.items()
        with pytest.raises(ConfigError, match=key):
            PipelineConfig(**kwargs)


class TestFlops:
    def test_conv_closed_form(self):
        assert conv_macs(16, 16, 3, 8, 3) == 16 * 16 * 3 * 8 * 9
        assert conv_macs(10, 10, 4, 4, 1) == 10 * 10 * 16

    def test_doubling_resolution_quadruples_conv(self):
        assert conv_macs(32, 32, 8, 8, 3) == 4 * conv_macs(16, 16, 8, 8, 3)

    def test_cross_scan_costs_about_four_directional_passes(self):
        from wavescan.flops import scan_macs

        channels, h, w, n = 8, 16, 16, 4
        fa = fa_scan_macs(channels, h, w, n)
        cross = cross_scan_macs(channels, h, w, n)
        assert cross > fa
        scan_term = scan_macs((h // 2) * (w // 2), channels, n)
        assert cross - fa == 3 * 4 * scan_term

    def test_forward_breakdown_contains_every_component(self):
        cfg = PipelineConfig()
        report = flop_estimate(cfg, (64, 64))
        assert report["stem"] == conv_macs(64, 64, 1, 16, 3)
        for stage in range(1, 5):
            for part in ("align", "scan", "lgb", "asgp", "merge"):
                assert report[f"s{stage}.{part}"] > 0
        assert report["total"] == sum(v for k, v in report.items() if k != "total")

    def test_quadratic_area_scaling_of_total(self):
        cfg = PipelineConfig()
        small = flop_estimate(cfg, (64, 64))["total"]
        large = flop_estimate(cfg, (128, 128))["total"]
        assert 3.4 <= large / small <= 4.1
