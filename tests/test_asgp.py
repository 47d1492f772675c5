import numpy as np
import pytest

from wavescan.asgp import (
    ProbeSet,
    _offset_weights,
    _offsets,
    asgp_gate,
    asgp_weight_spec,
    coarse_potential,
    evolve_probes,
    init_probes,
    probe_grid_coords,
    refine_mask,
    repulsion_forces,
)
from wavescan import asgp, pipeline
from wavescan.errors import ConfigError, DimensionError
from wavescan.grid import FeatureGrid, bilinear_gradient, bilinear_sample
from wavescan.nn import sigmoid
from wavescan.pipeline import PipelineConfig
from wavescan.synth import SynthConfig, generate_sample
from wavescan.weights import WeightStore, seeded_init

SIGMOID_1 = 1.0 / (1.0 + np.exp(-1.0))


def zero_store(channels, embed_dim, probes):
    store = WeightStore()
    for name, shape in asgp_weight_spec(channels, embed_dim, probes):
        store[name] = np.zeros(shape)
    return store


def make_probes(coords, embed_dim=4, scores=None):
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    return ProbeSet(
        coords=coords,
        embeddings=np.zeros((n, embed_dim)),
        scores=np.full(n, 0.5) if scores is None else np.asarray(scores, float),
    )


def gaussian_peak_field(size=33, sigma=0.6, center=(0.0, 0.0)):
    xs = np.linspace(-1, 1, size)
    xx, yy = np.meshgrid(xs, xs)
    bump = np.exp(-((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / (2 * sigma ** 2))
    return FeatureGrid((0.1 + 0.8 * bump)[None])


class TestConfig:
    def test_defaults_are_calibrated(self):
        cfg = PipelineConfig()
        assert (cfg.steps, cfg.probes) == (3, 64)
        assert (asgp._RADIUS, asgp._GRAD_GAIN, asgp._REPULSION_GAIN, asgp._EPS) == (
            0.15, 0.1, 0.05, 1e-5)
        assert (asgp._SPLAT_SIGMA, asgp._BLEND) == (0.1, 0.5)

    def test_validation(self):
        with pytest.raises(ConfigError, match="steps must be at least 0, got -1"):
            PipelineConfig(steps=-1)
        with pytest.raises(ConfigError, match="probes must be at least 1, got 0"):
            PipelineConfig(probes=0)


class TestProbeSet:
    def test_init_probes_grid_jitter(self):
        emb = np.zeros((64, 4))
        probes = init_probes(64, emb, seed=0)
        assert probes.count == 64
        assert np.all(np.abs(probes.coords) <= 1.0)
        again = init_probes(64, emb, seed=0)
        assert np.array_equal(probes.coords, again.coords)
        other = init_probes(64, emb, seed=1)
        assert not np.array_equal(probes.coords, other.coords)

    def test_grid_spacing_keeps_probes_apart(self):
        coords = probe_grid_coords(64, seed=3)
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0.05

    def test_coords_outside_range_rejected(self):
        with pytest.raises(ValueError):
            make_probes([[1.2, 0.0]])


class TestCoarsePotential:
    def test_uniform_attention_gives_sigmoid_one(self):
        x = FeatureGrid.zeros(3, 6, 8)
        store = zero_store(3, 4, 2)
        probes = make_probes([[0.0, 0.0], [0.5, -0.5]])
        m0 = coarse_potential(probes, x, store)
        assert m0.shape == (1, 6, 8)
        assert np.abs(m0.data - SIGMOID_1).max() <= 1e-12

    def test_dominant_key_concentrates_mass(self):
        channels, d = 2, 2
        x = FeatureGrid.zeros(channels, 4, 4)
        data = x.data.copy()
        data[:, 2, 3] = 40.0
        x = FeatureGrid(data)
        store = zero_store(channels, d, 1)
        store["asgp.key_w"] = np.eye(d)
        probes = ProbeSet(coords=np.zeros((1, 2)), embeddings=np.ones((1, d)),
                          scores=np.array([0.5]))
        m0 = coarse_potential(probes, x, store)
        assert np.unravel_index(np.argmax(m0.data[0]), (4, 4)) == (2, 3)

    def test_values_in_open_unit_interval_and_probe_order_invariant(self):
        rng = np.random.default_rng(0)
        x = FeatureGrid(rng.normal(size=(3, 8, 8)))
        store = seeded_init(asgp_weight_spec(3, 4, 5), 1)
        emb = rng.normal(size=(5, 4))
        probes = ProbeSet(coords=rng.uniform(-1, 1, (5, 2)), embeddings=emb,
                          scores=np.full(5, 0.5))
        m0 = coarse_potential(probes, x, store)
        assert np.all(m0.data > 0.0) and np.all(m0.data < 1.0)
        perm = rng.permutation(5)
        shuffled = ProbeSet(coords=probes.coords[perm], embeddings=emb[perm],
                            scores=np.full(5, 0.5))
        m0p = coarse_potential(shuffled, x, store)
        assert np.abs(m0.data - m0p.data).max() <= 1e-12


class TestEvolution:
    def test_pure_gradient_step_on_linear_ramp(self):
        # field value 0.5 + 0.2x: normalized-space gradient (0.2, 0)
        w = 9
        xs = np.linspace(-1, 1, w)
        field = FeatureGrid(np.tile(0.5 + 0.2 * xs, (w, 1))[None])
        store = zero_store(1, 4, 1)
        probes = make_probes([[0.1, -0.2]], embed_dim=4)
        out = evolve_probes(field, FeatureGrid.zeros(1, w, w), probes, 1, store)
        assert out.coords[0, 0] == pytest.approx(0.1 + 0.02, abs=1e-12)
        assert out.coords[0, 1] == pytest.approx(-0.2, abs=1e-12)

    def test_two_probe_repulsion_displacement(self):
        store = zero_store(1, 4, 2)
        flat = FeatureGrid.full(1, 9, 9, 0.5)
        probes = make_probes([[-0.0375, 0.0], [0.0375, 0.0]], embed_dim=4)
        out = evolve_probes(flat, FeatureGrid.zeros(1, 9, 9), probes, 1, store)
        moved = out.coords[:, 0] - probes.coords[:, 0]
        assert abs(moved[0] + 0.025) <= 1e-5
        assert abs(moved[1] - 0.025) <= 1e-5
        separation = out.coords[1, 0] - out.coords[0, 0]
        assert separation == pytest.approx(0.125, abs=2e-5)

    def test_forces_truncate_beyond_radius(self):
        forces = repulsion_forces(np.array([[0.0, 0.0], [0.3, 0.0]]))
        assert np.allclose(forces, 0.0)

    def test_clamp_projects_to_unit_box(self):
        # gradient 0.5 in x pushes the probe past the border; clamp holds it
        w = 9
        xs = np.linspace(-1, 1, w)
        field = FeatureGrid(np.tile(0.25 + 0.5 * (xs + 1) / 2, (w, 1))[None])
        store = zero_store(1, 4, 1)
        probes = make_probes([[0.999, 0.0]], embed_dim=4)
        out = evolve_probes(field, FeatureGrid.zeros(1, w, w), probes, 1, store)
        assert out.coords[0, 0] == pytest.approx(1.0)

    def test_coords_stay_in_box_random_weights(self):
        rng = np.random.default_rng(4)
        x = FeatureGrid(rng.normal(size=(3, 16, 16)))
        field = gaussian_peak_field()
        store = seeded_init(asgp_weight_spec(3, 4, 16), 2)
        probes = init_probes(16, store["asgp.probe_embed"], 5)
        trajectory: list[np.ndarray] = []
        evolve_probes(field, x, probes, 5, store, trajectory=trajectory)
        assert len(trajectory) == 6
        for coords in trajectory:
            assert np.all(np.abs(coords) <= 1.0)

    def test_flat_field_min_distance_non_decreasing(self):
        store = zero_store(1, 4, 9)
        flat = FeatureGrid.full(1, 17, 17, 0.5)
        clump = np.array([
            [0.00, 0.00], [0.05, 0.00], [-0.06, 0.02], [0.02, 0.07],
            [-0.03, -0.06], [0.6, 0.6], [-0.6, 0.6], [0.6, -0.6], [-0.6, -0.6],
        ])
        coords = clump
        def min_dist(c):
            diff = c[:, None, :] - c[None, :, :]
            d = np.sqrt((diff ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            return d.min()
        history = [min_dist(coords)]
        probes = make_probes(coords, embed_dim=4)
        trajectory: list[np.ndarray] = []
        evolve_probes(flat, FeatureGrid.zeros(1, 17, 17), probes, 3, store,
                      trajectory=trajectory)
        dists = [min_dist(c) for c in trajectory]
        for before, after in zip(dists, dists[1:]):
            assert after >= before - 1e-12

    def test_without_repulsion_probes_collapse_to_peak(self, monkeypatch):
        monkeypatch.setattr(asgp, "_REPULSION_GAIN", 1e-12)
        field = gaussian_peak_field()
        store = zero_store(1, 4, 8)
        rng = np.random.default_rng(6)
        start = rng.uniform(-0.8, 0.8, (8, 2))
        probes = make_probes(start, embed_dim=4)
        out = evolve_probes(field, FeatureGrid.zeros(1, 33, 33), probes, 6, store)
        before = np.sqrt((start ** 2).sum(1)).mean()
        after = np.sqrt((out.coords ** 2).sum(1)).mean()
        assert after < before

    def test_single_probe_ascent_is_monotone(self):
        from wavescan.grid import bilinear_sample

        field = gaussian_peak_field()
        store = zero_store(1, 4, 1)
        probes = make_probes([[0.55, -0.35]], embed_dim=4)
        trajectory: list[np.ndarray] = []
        evolve_probes(field, FeatureGrid.zeros(1, 33, 33), probes, 10, store,
                      trajectory=trajectory)
        values = [bilinear_sample(field, c)[0, 0] for c in trajectory]
        for before, after in zip(values, values[1:]):
            assert after >= before - 1e-12

    def test_repulsion_resolution_invariant(self):
        # radius is normalized, so the force field ignores grid resolution
        coords = np.array([[-0.05, 0.0], [0.05, 0.0], [0.3, 0.3]])
        moved = []
        for size in (9, 17, 33):
            store = zero_store(1, 4, 3)
            flat = FeatureGrid.full(1, size, size, 0.5)
            out = evolve_probes(flat, FeatureGrid.zeros(1, size, size),
                                make_probes(coords, 4), 1, store)
            moved.append(out.coords)
        assert np.abs(moved[0] - moved[1]).max() <= 1e-12
        assert np.abs(moved[1] - moved[2]).max() <= 1e-12


class TestRefineMask:
    def test_zero_scores_give_half(self):
        probes = make_probes([[0.0, 0.0], [0.5, 0.5]], scores=[0.0, 0.0])
        m1 = refine_mask(probes, (6, 6))
        assert np.abs(m1.data - 0.5).max() <= 1e-12

    def test_single_probe_peak_at_center(self):
        probes = make_probes([[0.0, 0.0]], scores=[0.99])
        m1 = refine_mask(probes, (17, 17))
        center = m1.data[0, 8, 8]
        assert center == m1.data.max()
        # radially decreasing along a row
        row = m1.data[0, 8]
        assert np.all(np.diff(row[: 9]) >= -1e-12)
        assert np.all(np.diff(row[8:]) <= 1e-12)

    def test_mirror_symmetric_probes_give_symmetric_mask(self):
        probes = make_probes([[-0.4, 0.2], [0.4, 0.2]], scores=[0.7, 0.7])
        m1 = refine_mask(probes, (16, 16))
        assert np.abs(m1.data - m1.data[:, :, ::-1]).max() <= 1e-6


class TestGate:
    def test_zero_masks_halve_bands(self):
        m0 = FeatureGrid.zeros(1, 4, 4)
        m1 = FeatureGrid.zeros(1, 4, 4)
        band = FeatureGrid(np.random.default_rng(0).normal(size=(2, 4, 4)))
        gated = asgp_gate(m0, m1, [band])
        assert np.abs(gated[0].data - 0.5 * band.data).max() <= 1e-12

    def test_blend_formula(self):
        m0 = FeatureGrid.full(1, 2, 2, 0.8)
        m1 = FeatureGrid.full(1, 2, 2, 0.4)
        band = FeatureGrid(np.ones((1, 2, 2)))
        gated = asgp_gate(m0, m1, [band])
        want = 1.0 / (1.0 + np.exp(-0.6))
        assert np.abs(gated[0].data - want).max() <= 1e-9

    def test_zero_bands_stay_zero(self):
        m0 = FeatureGrid.full(1, 4, 4, 0.9)
        m1 = FeatureGrid.full(1, 4, 4, 0.1)
        gated = asgp_gate(m0, m1, [FeatureGrid.zeros(3, 4, 4)])
        assert np.all(gated[0].data == 0.0)

    def test_full_resolution_masks_rejected(self):
        # Both callers pass masks at the bands' shape; a 2H x 2W mask is an error.
        small, full, band = (FeatureGrid.zeros(1, 4, 4), FeatureGrid.zeros(1, 8, 8),
                             FeatureGrid.zeros(1, 4, 4))
        for m0, m1 in ((full, small), (small, full)):
            with pytest.raises(DimensionError, match="got 8x8 and 4x4"):
                asgp_gate(m0, m1, [band])

    def test_gate_never_flips_sign_and_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        m0 = FeatureGrid(rng.uniform(size=(1, 6, 6)))
        m1 = FeatureGrid(rng.uniform(size=(1, 6, 6)))
        band = FeatureGrid(rng.normal(size=(2, 6, 6)))
        gated = asgp_gate(m0, m1, [band])[0]
        assert np.all(np.sign(gated.data) == np.sign(band.data))
        ratio = gated.data[band.data != 0] / band.data[band.data != 0]
        assert np.all(ratio > 0.0) and np.all(ratio < 1.0)

    def test_mismatched_masks_rejected(self):
        with pytest.raises(DimensionError):
            asgp_gate(FeatureGrid.zeros(1, 5, 5), FeatureGrid.zeros(1, 4, 4),
                      [FeatureGrid.zeros(1, 4, 4)])

    def test_bands_and_masks_unchanged(self):
        # encoder_block frees the band buffer once the gate has read it,
        # so the gate must return new arrays and leave its inputs as they are.
        rng = np.random.default_rng(3)
        m0 = FeatureGrid(rng.uniform(size=(1, 4, 4)))
        m1 = FeatureGrid(rng.uniform(size=(1, 4, 4)))
        buffer = rng.normal(size=(4, 2, 4, 4))
        bands = [FeatureGrid(slot) for slot in buffer[1:]]
        inputs = [m0.data, m1.data, buffer]
        before = [a.copy() for a in inputs]
        gated = asgp_gate(m0, m1, bands)
        for a, want in zip(inputs, before):
            assert np.array_equal(a, want)
        assert not any(np.shares_memory(g.data, a) for g in gated for a in inputs)


def splat_stack_mask(probes, shape, sigma):
    """The previous refine_mask: a probes x H x W stack of Gaussian splats, summed."""
    h, width = shape
    xs = np.linspace(-1.0, 1.0, width) if width > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    px, py = np.meshgrid(xs, ys)
    dx = px[None, :, :] - probes.coords[:, 0, None, None]
    dy = py[None, :, :] - probes.coords[:, 1, None, None]
    splats = np.exp(-(dx ** 2 + dy ** 2) / (2.0 * sigma ** 2))
    field = (probes.scores[:, None, None] * splats).sum(axis=0)
    return sigmoid(field)[None, :, :]


def softmax_mean_potential(probes, x_ll, store):
    """The previous coarse_potential: softmax per probe, then the probe mean."""
    channels, h, width = x_ll.shape
    keys = store["asgp.key_w"] @ x_ll.data.reshape(channels, -1) + store["asgp.key_b"][:, None]
    logits = (probes.embeddings @ keys) / np.sqrt(probes.embed_dim)
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    attn = expl / expl.sum(axis=1, keepdims=True)
    field = attn.mean(axis=0) * (h * width)
    return sigmoid(field).reshape(1, h, width)


def max_rel_err(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


class TestReassociatedOracles:
    @pytest.mark.parametrize("n,shape,sigma", [
        (1, (17, 17), 0.1),
        (64, (33, 47), 0.1),
        (7, (1, 9), 0.3),
        (7, (9, 1), 0.05),
        (5, (1, 1), 0.1),
        (64, (128, 128), 0.1),
    ])
    def test_separable_splat_matches_stack(self, monkeypatch, n, shape, sigma):
        monkeypatch.setattr(asgp, "_SPLAT_SIGMA", sigma)
        rng = np.random.default_rng(n + shape[0])
        probes = ProbeSet(coords=rng.uniform(-1, 1, (n, 2)), embeddings=np.zeros((n, 2)),
                          scores=rng.uniform(0.0, 1.0, n))
        got = refine_mask(probes, shape).data
        want = splat_stack_mask(probes, shape, sigma)
        assert got.shape == want.shape == (1,) + shape
        assert max_rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("n,shape,channels,d", [
        (1, (4, 4), 2, 2),
        (5, (8, 9), 3, 4),
        (64, (16, 16), 16, 16),
        (3, (1, 7), 2, 3),
        (3, (7, 1), 2, 3),
    ])
    def test_weighted_mean_matches_softmax_mean(self, n, shape, channels, d):
        rng = np.random.default_rng(n * 10 + channels)
        x = FeatureGrid(3.0 * rng.normal(size=(channels,) + shape))
        store = seeded_init(asgp_weight_spec(channels, d, n), n)
        probes = ProbeSet(coords=rng.uniform(-1, 1, (n, 2)),
                          embeddings=2.0 * rng.normal(size=(n, d)), scores=np.full(n, 0.5))
        got = coarse_potential(probes, x, store).data
        want = softmax_mean_potential(probes, x, store)
        assert max_rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("budget,shape", [
        (None, (100, 97)),  # 9700 columns: one 8192-column block and a short one
        (None, (1, 1)),
        (1, (9, 7)),  # one column per block
        (1, (1, 1)),
        (1 << 40, (100, 97)),  # one block
    ])
    def test_key_column_blocks_match_softmax_mean(self, monkeypatch, budget, shape):
        if budget is not None:
            monkeypatch.setattr(asgp, "_KEY_BLOCK_BYTES", budget)
        rng = np.random.default_rng(shape[0])
        x = FeatureGrid(3.0 * rng.normal(size=(16,) + shape))
        store = seeded_init(asgp_weight_spec(16, 16, 64), 12)
        probes = ProbeSet(coords=rng.uniform(-1, 1, (64, 2)),
                          embeddings=2.0 * rng.normal(size=(64, 16)), scores=np.full(64, 0.5))
        got = coarse_potential(probes, x, store).data
        want = softmax_mean_potential(probes, x, store)
        assert max_rel_err(got, want) <= 1e-12


def semantic_offsets(features, w, prefix=""):
    """Bounded learned offsets: tanh of the two-layer head on sampled features."""
    return _offsets(features, *_offset_weights(w, prefix, features.shape[1]))


def oracle_repulsion(coords):
    """The previous repulsion_forces: an N x N x 2 offset stack, weighted and summed."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    weight = np.maximum(0.0, 1.0 - dist / asgp._RADIUS) / (dist + asgp._EPS)
    np.fill_diagonal(weight, 0.0)
    return (diff * weight[:, :, None]).sum(axis=1)


def oracle_evolve(m0, x_ll, probes, steps, w, prefix=""):
    """The previous evolve_probes: the public sampler, head, gradient and repulsion
    called once each per step.  Returns (trajectory, final scores)."""
    coords = probes.coords.copy()
    trajectory = [coords.copy()]
    for _ in range(steps):
        feats = bilinear_sample(x_ll, coords)
        sem = semantic_offsets(feats, w, prefix)
        grad = bilinear_gradient(m0, coords)
        force = oracle_repulsion(coords)
        coords = np.clip(coords + sem + asgp._GRAD_GAIN * grad + asgp._REPULSION_GAIN * force,
                         -1.0, 1.0)
        trajectory.append(coords.copy())
    feats = bilinear_sample(x_ll, coords)
    score_w = w.get(prefix + "asgp.score_w", (1, x_ll.channels))
    score_b = w.get(prefix + "asgp.score_b", (1,))
    return trajectory, sigmoid(feats @ score_w.T + score_b).ravel()


def stage_probe_inputs(size):
    """(m0, carrier, probes, steps, store, prefix) of each stage of a default forward."""
    calls = []

    def record(m0, x_ll, probes, steps, w, prefix="", trajectory=None):
        calls.append((m0, x_ll, probes, steps, w, prefix))
        return evolve_probes(m0, x_ll, probes, steps, w, prefix, trajectory)

    cfg = PipelineConfig()
    image = generate_sample(SynthConfig(height=size, width=size, curves=3, seed=size)).image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "evolve_probes", record)
        pipeline.forward(image, cfg, pipeline.default_weights(cfg))
    return calls


def small_case(kind):
    """(m0, carrier, probes, steps, store) of one edge case of the probe step."""
    rng = np.random.default_rng(len(kind))
    channels, n, shape, m0_shape, steps = 3, 16, (16, 16), (16, 16), 3
    coords = rng.uniform(-1, 1, (n, 2))
    if kind == "m0-17-carrier-16":
        m0_shape = (17, 17)
    elif kind in ("row", "column"):
        shape = m0_shape = (1, 9) if kind == "row" else (9, 1)
    elif kind == "on-border":
        coords[:8] = rng.choice([-1.0, 1.0], (8, 2))
    elif kind == "coincident":
        coords[1::2] = coords[::2]
        coords[3] = coords[0]
    elif kind in ("steps-0", "steps-5"):
        steps = int(kind[-1])
    elif kind == "single":
        n, coords = 1, coords[:1]
    store = seeded_init(asgp_weight_spec(channels, 4, n), len(kind))
    if kind == "past-border":
        # Offsets of about +-1 push every probe beyond the box on both axes.
        store["asgp.sem_b2"] = np.array([40.0, -40.0])
        coords[:4] = [[0.9, -0.9], [1.0, -1.0], [0.5, 0.0], [-1.0, 1.0]]
    x = FeatureGrid(rng.normal(size=(channels,) + shape))
    m0 = FeatureGrid(rng.uniform(size=(1,) + m0_shape))
    probes = ProbeSet(coords=coords, embeddings=store["asgp.probe_embed"],
                      scores=np.full(n, 0.5))
    return m0, x, probes, steps, store


SMALL_CASES = ["m0-17-carrier-16", "row", "column", "on-border", "past-border", "coincident",
               "steps-0", "steps-5", "single"]


def assert_matches_oracle(m0, x, probes, steps, store, prefix=""):
    trajectory: list[np.ndarray] = []
    out = evolve_probes(m0, x, probes, steps, store, prefix, trajectory=trajectory)
    want_traj, want_scores = oracle_evolve(m0, x, probes, steps, store, prefix)
    assert len(trajectory) == len(want_traj) == steps + 1
    for got, want in zip(trajectory, want_traj):
        assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(out.coords, trajectory[-1])
    assert np.abs(out.scores - want_scores).max() <= 1e-12
    return trajectory


class TestProbeStepOracle:
    @pytest.mark.parametrize("size", [64, 256])
    def test_pipeline_stages_match_per_step_oracle(self, size):
        calls = stage_probe_inputs(size)
        assert [c[5] for c in calls] == ["s1.", "s2.", "s3.", "s4."]
        for m0, x, probes, steps, store, prefix in calls:
            assert m0.shape[1:] == x.shape[1:]
            assert_matches_oracle(m0, x, probes, steps, store, prefix)

    @pytest.mark.parametrize("kind", SMALL_CASES)
    def test_edge_cases_match_per_step_oracle(self, kind):
        trajectory = assert_matches_oracle(*small_case(kind))
        if kind == "past-border":
            # The clamp holds probes that the offsets push past the border.
            assert np.any(np.abs(trajectory[-1]) == 1.0)
            assert np.all(np.abs(trajectory[-1]) <= 1.0)

    @pytest.mark.parametrize("n, spread", [(1, 1.0), (2, 0.01), (9, 0.1), (64, 1.0), (64, 0.2)])
    def test_repulsion_matches_stack_oracle(self, n, spread):
        rng = np.random.default_rng(n)
        coords = rng.uniform(-spread, spread, (n, 2))
        got = repulsion_forces(coords)
        assert got.shape == (n, 2)
        assert np.abs(got - oracle_repulsion(coords)).max() <= 1e-15
        # Both sum each probe's pairs in the same order.
        assert np.array_equal(got, oracle_repulsion(coords))

    def test_repulsion_of_coincident_probes_matches_oracle(self):
        coords = np.array([[0.1, 0.2], [0.1, 0.2], [0.15, 0.2], [0.1, 0.2], [-0.5, 0.5]])
        got = repulsion_forces(coords)
        assert np.all(np.isfinite(got))
        assert np.abs(got - oracle_repulsion(coords)).max() <= 1e-15

    def test_inf_offset_weight_still_raises(self):
        # A zero carrier would meet the inf weight as inf * 0 and turn the
        # offsets NaN; the weight check at the lookup names the block first.
        m0, _, probes, _, store = small_case("steps-0")
        store["asgp.sem_w1"] = store["asgp.sem_w1"].copy()
        store["asgp.sem_w1"][0, 0] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="'asgp.sem_w1' holds 1 non-finite"):
            evolve_probes(m0, FeatureGrid.zeros(3, 16, 16), probes, 1, store)

    def test_overflowing_offsets_stop_at_the_coordinate_check(self):
        # Finite weights whose hidden layer overflows: inf - inf turns the
        # offsets NaN, and the second step's coordinate check stops the loop.
        m0, _, probes, _, store = small_case("steps-0")
        store["asgp.sem_w1"] = np.full((4, 3), 1e308)
        store["asgp.sem_w2"] = np.array([[1.0, -1.0, 0.0, 0.0]] * 2)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="coordinates must be"):
            evolve_probes(m0, FeatureGrid.full(3, 16, 16, 1.0), probes, 2, store)

    def test_offset_head_shape_still_checked(self):
        m0, x, probes, steps, store = small_case("steps-0")
        store["asgp.sem_w1"] = np.zeros((4, 5))
        with pytest.raises(DimensionError, match="offset head"):
            evolve_probes(m0, x, probes, steps, store)

    def test_multichannel_potential_rejected(self):
        _, x, probes, steps, store = small_case("steps-0")
        with pytest.raises(DimensionError, match="potential field"):
            evolve_probes(FeatureGrid.zeros(2, 16, 16), x, probes, steps, store)


class TestProbeSetFinite:
    @pytest.mark.parametrize("field", ["coords", "embeddings", "scores"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected_by_name(self, field, value):
        arrays = {"coords": np.zeros((3, 2)), "embeddings": np.zeros((3, 4)),
                  "scores": np.full(3, 0.5)}
        arrays[field].flat[1] = value
        with pytest.raises(ValueError, match=f"probe {field} must be finite"):
            ProbeSet(**arrays)
