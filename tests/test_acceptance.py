"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import wavescan
from wavescan.asgp import ProbeSet, asgp_weight_spec, evolve_probes
from wavescan.fablock import ScanAssignment, cross_scan, fa_scan, lgb, lgb_weight_spec
from wavescan.flops import conv_macs, cross_scan_macs, fa_scan_macs
from wavescan.grid import FeatureGrid, bilinear_gradient, bilinear_sample
from wavescan.metrics import ODS_THRESHOLDS, cldice, dice, ods, region_metrics
from wavescan.nn import conv1x1
from wavescan.pipeline import (
    PipelineConfig,
    align,
    align_weight_spec,
    brm,
    default_weights,
    encoder_block,
    pipeline_weight_spec,
)
from wavescan.scanorder import ScanKind, along_structure_gaps, build_scan_order, locality_cost
from wavescan.ssm import SsmParams, ssm_scan_parallel, ssm_scan_sequential
from wavescan.synth import SynthConfig, generate_sample
from wavescan.wavelet import dwt_haar, idwt_haar
from wavescan.weights import WeightStore, seeded_init


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        line = f"[criterion {self.number:02d}] {self.name}: {status} ({elapsed:.2f}s"
        line += f" / budget {self.budget_s:.0f}s)"
        if detail:
            line += f"  {detail}"
        print(line)
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"


def test_criterion_01_wavelet_invertibility():
    crit = Criterion(1, "wavelet invertibility + energy conservation", 10.0)
    rng = np.random.default_rng(101)
    worst_recon, worst_energy = 0.0, 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 9))
        h = int(rng.integers(2, 33)) * 2
        w = int(rng.integers(2, 33)) * 2
        grid = FeatureGrid(rng.normal(size=(c, h, w)))
        bands = dwt_haar(grid)
        recon = idwt_haar(bands, h, w)
        worst_recon = max(worst_recon, float(np.abs(recon.data - grid.data).max()))
        energy_in = float((grid.data ** 2).sum())
        energy_out = sum(float((b.data ** 2).sum())
                         for b in (bands.ll, bands.lh, bands.hl, bands.hh))
        worst_energy = max(worst_energy, abs(energy_in - energy_out) / energy_in)
    ok = worst_recon <= 1e-5 and worst_energy <= 1e-5
    crit.finish(ok, f"max |recon err| {worst_recon:.2e}, max energy rel {worst_energy:.2e}")


def test_criterion_02_bijectivity_and_hilbert_adjacency():
    crit = Criterion(2, "serialization bijectivity + Hilbert adjacency", 5.0)
    ok = True
    for h in range(1, 65):
        for w in range(1, 65):
            expected = np.arange(h * w)
            for kind in ScanKind:
                order = build_scan_order(kind, h, w)
                if not np.array_equal(np.sort(order.forward), expected):
                    ok = False
    for k in range(1, 7):
        n = 1 << k
        coords = build_scan_order(ScanKind.HILBERT, n, n).visit_coords()
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        if not np.all(steps == 1):
            ok = False
        if len({tuple(c) for c in coords}) != n * n:
            ok = False
    crit.finish(ok, "6 kinds x all sizes <= 64x64; Hilbert 4-neighbor steps k <= 6")


# Exact arithmetic mean 4-neighbour index gap of the N x N Hilbert traversal,
# from exhaustive pair enumeration. Quadrant-boundary gaps ~ N^2 dominate it,
# so it exceeds raster's (N+1)/2; the ordering is asserted on the typical gap.
HILBERT_MEAN_GAP = {
    4: Fraction(8, 3),
    8: Fraction(71, 14),
    16: Fraction(119, 12),
    32: Fraction(157, 8),
    64: Fraction(13121, 336),
}


def neighbour_gaps(order):
    """|forward(u) - forward(v)| for every horizontal and vertical 4-neighbour pair."""
    h, w = order.height, order.width
    pos = [int(p) for p in order.forward]
    gaps = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                gaps.append(abs(pos[r * w + c] - pos[r * w + c + 1]))
            if r + 1 < h:
                gaps.append(abs(pos[r * w + c] - pos[(r + 1) * w + c]))
    return gaps


def test_criterion_03_locality_ordering():
    crit = Criterion(3, "locality: enumerated mean gaps + Hilbert typical gap < raster", 5.0)
    ok = True
    details = []
    for n in (4, 8, 16, 32, 64):
        raster = build_scan_order(ScanKind.RASTER, n, n)
        hilbert = build_scan_order(ScanKind.HILBERT, n, n)
        r_gaps, h_gaps = neighbour_gaps(raster), neighbour_gaps(hilbert)
        r_arith = Fraction(sum(r_gaps), len(r_gaps))
        h_arith = Fraction(sum(h_gaps), len(h_gaps))
        if r_arith != Fraction(n + 1, 2) or h_arith != HILBERT_MEAN_GAP[n]:
            ok = False
        if locality_cost(raster) != pytest.approx(float(r_arith), rel=1e-12):
            ok = False
        if locality_cost(hilbert) != pytest.approx(float(h_arith), rel=1e-12):
            ok = False
        # geometric mean against sqrt(N), exactly: prod(gaps)^2 against N^count.
        # Raster: half the gaps are 1 and half are N, so equality holds.
        if math.prod(r_gaps) ** 2 != n ** len(r_gaps):
            ok = False
        if not math.prod(h_gaps) ** 2 < n ** len(h_gaps):
            ok = False
        r_geom = math.exp(sum(map(math.log, r_gaps)) / len(r_gaps))
        h_geom = math.exp(sum(map(math.log, h_gaps)) / len(h_gaps))
        details.append(
            f"N={n}: arith hilbert {float(h_arith):.4f} vs raster {float(r_arith):.1f};"
            f" geom hilbert {h_geom:.4f} vs raster {r_geom:.4f}"
        )
    crit.finish(ok, "; ".join(details))


def test_criterion_04_geometry_mismatch_reproduction():
    crit = Criterion(4, "geometry mismatch: gaps + directional response", 60.0)
    ok = True
    # exact gap statistics for 1-px axis-aligned lines
    for n in (8, 16):
        for idx in range(n):
            horiz = np.zeros((1, n, n))
            horiz[0, idx, :] = 1.0
            mask = FeatureGrid(horiz)
            aligned = along_structure_gaps(mask, build_scan_order(ScanKind.HORIZONTAL, n, n))
            across = along_structure_gaps(mask, build_scan_order(ScanKind.VERTICAL, n, n))
            if not (aligned.mean == 1.0 and aligned.max == 1 and across.mean == float(n)
                    and across.max == n):
                ok = False
    # directional response probe: aligned assignment vs swapped assignment
    psi = SsmParams.static(1, transition=0.5)
    wins = 0
    for seed in range(100):
        sample = generate_sample(SynthConfig(
            height=16, width=16, curves=1, width_min=1, width_max=1,
            orientation="axis-aligned", contrast=1.0, texture=0.0, seed=seed,
        ))
        x = FeatureGrid(sample.gt[None].astype(float))
        on = sample.gt
        resp_aligned = np.abs(fa_scan(x, psi, ScanAssignment()).data[0][on]).mean()
        resp_swapped = np.abs(fa_scan(x, psi, ScanAssignment.swapped()).data[0][on]).mean()
        wins += resp_aligned > resp_swapped
    if wins < 95:
        ok = False
    crit.finish(ok, f"aligned beats swapped on {wins}/100 stripe images")


def test_criterion_05_ssm_correctness():
    crit = Criterion(5, "scan operator: sequential vs parallel + closed forms", 30.0)
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(200):
        channels = int(rng.integers(1, 9))
        states = int(rng.integers(1, 9))
        length = int(rng.integers(1, 1025))
        selective = bool(trial % 2)
        params = SsmParams.random(channels, states, seed=trial, selective=selective)
        u = rng.normal(size=(length, channels))
        seq = ssm_scan_sequential(params, u)
        par = ssm_scan_parallel(params, u)
        worst = max(worst, float(np.max(np.abs(par - seq) / np.maximum(np.abs(seq), 1e-9))))
    ok = worst <= 1e-5
    p = SsmParams.static(1, transition=1.0)
    y = ssm_scan_sequential(p, np.array([[1.0], [2.0], [3.0]]))
    ok &= bool(np.abs(y.ravel() - [1.0, 3.0, 6.0]).max() <= 1e-6)
    p = SsmParams.static(1, transition=0.5)
    y = ssm_scan_sequential(p, np.array([[1.0], [0.0], [0.0]]))
    ok &= bool(np.abs(y.ravel() - [1.0, 0.5, 0.25]).max() <= 1e-6)
    crit.finish(ok, f"max rel deviation over 200 configs: {worst:.2e}")


def test_criterion_06_gradient_fidelity():
    crit = Criterion(6, "analytic bilinear gradients vs finite differences", 10.0)
    rng = np.random.default_rng(606)
    h_step = 1e-4
    worst = 0.0
    for _ in range(50):
        grid = FeatureGrid(rng.normal(size=(1, 8, 8)))
        pts = rng.uniform(-0.9, 0.9, (50, 2))
        # keep sample points away from interpolation knots, where the
        # surface is only one-sided differentiable
        px = (pts + 1.0) * 3.5
        frac = px - np.floor(px)
        pts[np.abs(frac - np.round(frac)) < 5e-3] += 0.01
        grads = bilinear_gradient(grid, pts)
        for k, (x, y) in enumerate(pts):
            fd_x = (bilinear_sample(grid, (x + h_step, y))[0, 0]
                    - bilinear_sample(grid, (x - h_step, y))[0, 0]) / (2 * h_step)
            fd_y = (bilinear_sample(grid, (x, y + h_step))[0, 0]
                    - bilinear_sample(grid, (x, y - h_step))[0, 0]) / (2 * h_step)
            for got, want in ((grads[k, 0], fd_x), (grads[k, 1], fd_y)):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-6))
    ok = worst <= 1e-4
    crit.finish(ok, f"max rel gradient error {worst:.2e} over 2500 probes")


def test_criterion_07_probe_dynamics():
    crit = Criterion(7, "probe evolution dynamics", 10.0)
    cfg = PipelineConfig()  # steps 3, probes 64; radius 0.15 and gains 0.1 / 0.05 are fixed
    ok = cfg.steps == 3 and cfg.probes == 64

    # (a) coordinates stay inside the unit box under random weights
    rng = np.random.default_rng(707)
    carrier = FeatureGrid(rng.normal(size=(4, 16, 16)))
    store = seeded_init(asgp_weight_spec(4, 4, 64), 1)
    xs = np.linspace(-1, 1, 17)
    xx, yy = np.meshgrid(xs, xs)
    peak = FeatureGrid((0.1 + 0.8 * np.exp(-(xx ** 2 + yy ** 2) / 0.72))[None])
    probes = ProbeSet(coords=rng.uniform(-1, 1, (64, 2)),
                      embeddings=store["asgp.probe_embed"], scores=np.full(64, 0.5))
    trajectory: list[np.ndarray] = []
    evolve_probes(peak, carrier, probes, cfg.steps, store, trajectory=trajectory)
    ok &= all(np.all(np.abs(c) <= 1.0) for c in trajectory)

    # (b) flat field: min pairwise distance is non-decreasing
    zero_store = WeightStore({n: np.zeros(s) for n, s in asgp_weight_spec(1, 4, 64)})
    flat = FeatureGrid.full(1, 17, 17, 0.5)
    clustered = rng.uniform(-0.12, 0.12, (64, 2))
    probes_b = ProbeSet(coords=clustered, embeddings=np.zeros((64, 4)),
                        scores=np.full(64, 0.5))
    traj_b: list[np.ndarray] = []
    evolve_probes(flat, FeatureGrid.zeros(1, 17, 17), probes_b, cfg.steps, zero_store,
                  trajectory=traj_b)

    def min_dist(c):
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        return d.min()

    dists = [min_dist(c) for c in traj_b]
    ok &= all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    # (c) single-probe ascent on a smooth peak is monotone in the field value
    one_store = WeightStore({n: np.zeros(s) for n, s in asgp_weight_spec(1, 4, 1)})
    probe_c = ProbeSet(coords=np.array([[0.55, -0.35]]), embeddings=np.zeros((1, 4)),
                       scores=np.array([0.5]))
    traj_c: list[np.ndarray] = []
    evolve_probes(peak, FeatureGrid.zeros(1, 17, 17), probe_c, cfg.steps, one_store,
                  trajectory=traj_c)
    values = [bilinear_sample(peak, c)[0, 0] for c in traj_c]
    ok &= all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    # (d) two probes at radius/2: repulsion displacement 0.025 each
    two_store = WeightStore({n: np.zeros(s) for n, s in asgp_weight_spec(1, 4, 2)})
    pair = ProbeSet(coords=np.array([[-0.0375, 0.0], [0.0375, 0.0]]),
                    embeddings=np.zeros((2, 4)), scores=np.array([0.5, 0.5]))
    out = evolve_probes(flat, FeatureGrid.zeros(1, 17, 17), pair, 1, two_store)
    moved = out.coords[:, 0] - pair.coords[:, 0]
    ok &= abs(moved[0] + 0.025) <= 1e-5 and abs(moved[1] - 0.025) <= 1e-5
    crit.finish(ok, f"min-dist trace {['%.4f' % d for d in dists[:2]]}..., "
                    f"pair displacement {moved[1]:.6f}")


def test_criterion_08_identity_degeneracies():
    crit = Criterion(8, "zeroed branches reduce to identity", 10.0)
    rng = np.random.default_rng(808)
    ok = True

    channels = 8
    cfg_block = PipelineConfig(channels=(8, 16, 32, 64), gate_mode="unit")
    y = FeatureGrid(rng.normal(size=(channels, 12, 12)))

    lgb_store = WeightStore({n: np.zeros(s)
                             for n, s in lgb_weight_spec(channels, "E")})
    ok &= bool(np.array_equal(lgb(y, "E", lgb_store).data, y.data))

    # brm carries the head: with zero refiner weights it is the head alone
    brm_spec = [(n, s) for n, s in pipeline_weight_spec(cfg_block)
                if n.startswith(("brm.", "head."))]
    brm_store = seeded_init(brm_spec, 808)
    for name in brm_store.names():
        if name.startswith("brm."):
            brm_store[name] = np.zeros_like(brm_store[name])
    head_only = conv1x1(y.data, brm_store["head.w"], brm_store["head.b"])
    ok &= bool(np.array_equal(brm(y, brm_store).data, head_only))

    align_store = WeightStore({n: np.zeros(s) for n, s in align_weight_spec(channels)})
    bands = [FeatureGrid(rng.normal(size=(channels, 12, 12))) for _ in range(3)]
    ok &= bool(np.array_equal(align(y, bands, align_store).data, y.data))

    from block_helpers import zero_identity_block_store

    store = zero_identity_block_store(channels, cfg_block, stage=1)
    x = FeatureGrid(rng.normal(size=(channels, 16, 16)))
    out = encoder_block(x, cfg_block, store, stage=1)
    roundtrip_err = float(np.abs(out.data - x.data).max())
    ok &= roundtrip_err <= 1e-5
    crit.finish(ok, f"block roundtrip err {roundtrip_err:.2e}")


def test_criterion_09_metric_oracles():
    crit = Criterion(9, "metric suite vs enumeration oracles", 20.0)
    rng = np.random.default_rng(909)
    ok = True
    preds, gts = [], []
    for _ in range(50):
        pred = rng.uniform(size=(32, 32))
        gt = rng.uniform(size=(32, 32)) > 0.65
        preds.append(pred)
        gts.append(gt)
        t = float(rng.uniform(0.1, 0.9))
        m = region_metrics(pred, gt, t)
        binned = pred >= t
        tp = int((binned & gt).sum())
        fp = int((binned & ~gt).sum())
        fn = int((~binned & gt).sum())
        tn = int((~binned & ~gt).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        miou = ((tp / (tp + fp + fn) if tp + fp + fn else 1.0)
                + (tn / (tn + fp + fn) if tn + fp + fn else 1.0)) / 2
        ok &= (m.precision, m.recall, m.f1, m.miou) == (precision, recall, f1, miou)

    got = ods(preds, gts)
    best_f1, best_t = 0.0, None
    for t in ODS_THRESHOLDS:
        tp = fp = fn = 0
        for p, g in zip(preds, gts):
            b = p >= t
            tp += int((b & g).sum())
            fp += int((b & ~g).sum())
            fn += int((~b & g).sum())
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        if f1 > best_f1:
            best_f1, best_t = f1, t
    ok &= got.f1 == pytest.approx(best_f1) and got.threshold == pytest.approx(best_t)

    sample = generate_sample(SynthConfig(height=32, width=32, orientation="bezier",
                                         width_max=3, seed=4))
    ok &= cldice(sample.gt, sample.gt) == 1.0

    line = np.zeros((5, 24), dtype=bool)
    line[2, 2:22] = True
    broken = line.copy()
    broken[2, 12] = False
    ok &= abs(cldice(broken, line) - 2 * 0.95 / 1.95) <= 1e-6

    for length in (15, 21, 27, 33):
        bar = np.zeros((9, length + 6), dtype=bool)
        bar[3:6, 3 : 3 + length] = True
        cut = bar.copy()
        cut[:, 3 + length // 2] = False
        ok &= cldice(cut, bar) < dice(cut, bar)
    crit.finish(ok, f"ODS {got.f1:.4f} @ {got.threshold:.2f}; broken-line clDice matched")


def _seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_10_efficiency_ordering():
    crit = Criterion(10, "efficiency ordering: MAC model + fa_scan/cross_scan timing", 15.0)
    ok = cross_scan_macs(16, 64, 64, 8) > fa_scan_macs(16, 64, 64, 8)
    ok &= conv_macs(64, 64, 16, 32, 3) == 64 * 64 * 16 * 32 * 9
    ok &= conv_macs(128, 128, 16, 32, 3) == 4 * conv_macs(64, 64, 16, 32, 3)
    # The paper's claim, timed on the stage carriers of a 256x256 forward:
    # the median fa_scan/cross_scan time ratio over 15 alternating pairs is
    # below 1.  Single pairs read up to 1.94, and with two BLAS threads a
    # host stall has slowed the first 4 pairs of a stage in a row, so only
    # the median of many pairs is judged.
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    rng = np.random.default_rng(10)
    medians = []
    for stage, channels in enumerate(cfg.channels, start=1):
        side = 128 >> (stage - 1)
        carrier = FeatureGrid(rng.normal(size=(channels, side, side)))
        psi = SsmParams.from_store(weights, f"s{stage}.")
        fa_scan(carrier, psi)
        cross_scan(carrier, psi)
        ratios = []
        for pair in range(15):
            if pair % 2 == 0:  # cross_scan first in the odd pairs, counting from 1
                cross_s = _seconds(cross_scan, carrier, psi)
                fa_s = _seconds(fa_scan, carrier, psi)
            else:
                fa_s = _seconds(fa_scan, carrier, psi)
                cross_s = _seconds(cross_scan, carrier, psi)
            ratios.append(fa_s / cross_s)
        medians.append(float(np.median(ratios)))
    ok &= all(m < 1.0 for m in medians)
    crit.finish(ok, "median fa/cross time " + ", ".join(
        f"s{stage} {m:.2f}" for stage, m in enumerate(medians, start=1)))
