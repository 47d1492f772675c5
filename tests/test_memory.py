"""Peak-memory guards for the H x W layers and metrics, measured with tracemalloc.

tracemalloc counts every numpy data buffer allocated while it traces, so
these peaks are deterministic for a given numpy; they do not depend on
timing or on the machine's load.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from wavescan import fileio
from wavescan.asgp import (
    _KEY_BLOCK_BYTES,
    ProbeSet,
    asgp_weight_spec,
    coarse_potential,
    refine_mask,
)
from wavescan.cli import main
from wavescan.grid import _RESIZE_BLOCK_BYTES, FeatureGrid, resize_bilinear
from wavescan.metrics import ods, skeletonize
from wavescan.fablock import fa_scan
from wavescan.nn import _IM2COL_BLOCK_BYTES, _TAP_BLOCK_BYTES, conv2d
from wavescan.pipeline import (
    PipelineConfig,
    brm,
    default_weights,
    encoder_block,
    forward,
    gfa,
)
from wavescan.ssm import SsmParams, ssm_scan_parallel
from wavescan.weights import seeded_init
from wavescan.synth import SynthConfig, generate_sample
from wavescan.wavelet import _HAAR_BLOCK_BYTES, dwt_haar, idwt_haar

MB = 1e6


def traced_peak_mb(fn) -> float:
    """Peak traced bytes allocated by ``fn()`` beyond what was live before it, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return (peak - base) / MB


def test_conv2d_peak_is_bounded_by_row_blocks():
    # gfa's fuse conv (16 -> 16) and down1 (16 -> 32, stride 2) at 256^2, on
    # im2col.  The full im2col buffer of the fuse is 16*9*256*256*8 B = 75.5 MB.
    # Each call holds its output and one row block's taps and padded input
    # rows, which share the budget; a padded copy of the whole input would add
    # 8.5 MB, and a block sized by its taps alone puts down1's padded rows
    # (0.5 MB) beside 1 MB of taps.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 256, 256))
    for c_out, stride in ((16, 1), (32, 2)):
        w = rng.normal(size=(c_out, 16, 3, 3))
        b = rng.normal(size=c_out)
        bound = c_out * (256 // stride) ** 2 * 8 / MB + _IM2COL_BLOCK_BYTES / MB + 0.25
        peak = traced_peak_mb(lambda: conv2d(x, w, b, stride=stride))
        assert peak <= bound, f"conv2d stride {stride} peak {peak:.2f} MB, bound {bound:.2f} MB"


def test_brm_peak_holds_no_context_map():
    # brm at 16 x 256 x 256.  The context branch runs one channel at a time,
    # so beside the logits it holds one channel's depthwise; the edge branch's
    # tap-major conv then holds its output and one row block's padded input
    # (16 channels) and tap planes (9).  A 16-channel context map would add
    # 8.4 MB; brm peaked at 11.15 MB with it.
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    fused = FeatureGrid(np.random.default_rng(12).normal(size=(16, 256, 256)))
    plane = 256 * 256 * 8 / MB
    rows = _TAP_BLOCK_BYTES // (16 * 258 * 8)
    tap_mb = (16 + 9) * (rows + 2) * 258 * 8 / MB
    bound = 2 * plane + tap_mb + 0.25
    peak = traced_peak_mb(lambda: brm(fused, weights))
    assert peak <= bound, f"brm peak {peak:.2f} MB, bound {bound:.2f} MB"


def test_resize_bilinear_peak_holds_one_channel_block():
    # (16, 128, 128) -> 256 x 256: both passes run per channel block into
    # the output, so only one block's row pass and gather sit beside it; a
    # whole row pass would add 4.2 MB and its gather as much again.
    x = FeatureGrid(np.random.default_rng(6).normal(size=(16, 128, 128)))
    out_mb = 16 * 256 * 256 * 8 / MB
    peak = traced_peak_mb(lambda: resize_bilinear(x, 256, 256))
    assert peak <= out_mb + _RESIZE_BLOCK_BYTES / MB + 0.25, \
        f"resize_bilinear peak {peak:.2f} MB for a {out_mb:.2f} MB output"


def test_haar_peaks_are_bounded_by_channel_blocks():
    # At 16 x 256 x 256 each direction holds its 8.4 MB output and two
    # scratch arrays of half a channel block each; a temporary per Hadamard
    # term, as the four-view formulas make, would add whole-band arrays.
    x = FeatureGrid(np.random.default_rng(7).normal(size=(16, 256, 256)))
    bands = dwt_haar(x)
    out_mb = x.data.nbytes / MB
    for name, fn in (("dwt_haar", lambda: dwt_haar(x)), ("idwt_haar", lambda: idwt_haar(bands))):
        peak = traced_peak_mb(fn)
        assert peak <= out_mb + 2 * _HAAR_BLOCK_BYTES / MB + 0.25, \
            f"{name} peak {peak:.2f} MB for a {out_mb:.2f} MB output"


def warm_forward_peak_mb(size: int) -> float:
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    image = FeatureGrid(np.random.default_rng(1).uniform(size=(1, size, size)))
    forward(image, cfg, weights)  # warm the scan-order caches
    return traced_peak_mb(lambda: forward(image, cfg, weights))


def test_forward_peak_at_256():
    # Stage 1's scan coefficients set the 20.79 MB peak, then
    # coarse_potential (20.0 MB) and align's sampling (18.7 MB).  Projecting
    # gfa's level 1 before the coarser levels raises it to 24.1 MB; keeping
    # the aligned carrier through fa_scan, to 22.9 MB; 4 MB im2col blocks,
    # to 21.8 MB; the whole key map in coarse_potential, to 21.1 MB; keeping
    # a stage input through its block, or the band buffer through the scan,
    # to 29.2 MB.
    peak = warm_forward_peak_mb(256)
    assert peak <= 21.5, f"forward peak {peak:.2f} MB"


def test_forward_peak_at_64():
    # 2.08 MB, set by gfa's resize of level 2 (16 x 32 x 32) to 64 x 64.
    # brm's whole-map context depthwise read 2.31 MB; im2col blocks sized by
    # their taps alone, 2.31 MB in stage 1's downsample and 2.23 MB in gfa's
    # fuse conv.  Stage 4's align.w1 (64 x 384 x 3 x 3) is held in the tap
    # order conv2d reads; reordering a C-ordered copy on each call puts a
    # fresh 1.77 MB kernel on top.
    peak = warm_forward_peak_mb(64)
    assert peak <= 2.15, f"forward peak {peak:.2f} MB"


def test_stored_tap_major_kernel_is_read_without_a_copy():
    # Stage 4's align conv of a 64^2 forward, 384 -> 64 on a 4 x 4 band: the
    # stored kernel is read as it is held, and a C-ordered copy of it is
    # reordered into a fresh array of the kernel's 1.77 MB first.
    w = default_weights(PipelineConfig())["s4.align.w1"]
    c_ordered = np.ascontiguousarray(w)
    x = np.random.default_rng(11).normal(size=(384, 4, 4))
    stored_peak = traced_peak_mb(lambda: conv2d(x, w))
    copied_peak = traced_peak_mb(lambda: conv2d(x, c_ordered))
    assert stored_peak <= copied_peak - w.nbytes / MB, \
        f"stored-kernel conv2d peak {stored_peak:.2f} MB, C-ordered {copied_peak:.2f} MB"


def test_forward_peak_at_512():
    # 82.91 MB, set by stage 1's scan coefficients as at 256^2.
    peak = warm_forward_peak_mb(512)
    assert peak <= 86.0, f"forward peak {peak:.2f} MB"


def test_gfa_projects_the_coarse_levels_first():
    # 256^2 levels of the default widths, made as gfa reads them.  gfa reads
    # all four, projects levels 2-4 and drops them, then projects level 1:
    # its tap and projection (8.4 MB each) and the three 16-channel coarse
    # projections (2.75 MB) are live.  Resizing level 2 holds as much, with
    # the resized map in place of the level-1 tap, plus one resize channel
    # block: 20.6 MB.  Projecting level 1 first, while the coarse taps
    # (7.3 MB) are live, reads 24.1 MB.
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    rng = np.random.default_rng(9)
    datas = [rng.normal(size=(ch, 256 >> n, 256 >> n)) for n, ch in enumerate(cfg.channels)]
    ce = cfg.decoder_channels
    tap_mb = datas[0].nbytes / MB
    coarse_mb = sum(ce * data.shape[1] * data.shape[2] * 8 for data in datas[1:]) / MB
    bound = 2 * tap_mb + coarse_mb + _RESIZE_BLOCK_BYTES / MB + 0.25
    peak = traced_peak_mb(lambda: gfa((FeatureGrid(data.copy()) for data in datas), weights))
    assert peak <= bound, f"gfa peak {peak:.2f} MB, bound {bound:.2f} MB"


def test_fa_scan_frees_a_handed_over_carrier():
    # Stage 1's aligned carrier at 16 x 128 x 128 (2.1 MB).  fa_scan drops
    # its reference once the carrier is split, so a carrier handed over
    # through list.pop() is freed before the scans, and the call peaks at
    # least the carrier's size below one whose caller keeps it.  The
    # carriers are made while tracing, so freeing them counts.
    cfg = PipelineConfig()
    psi = SsmParams.from_store(default_weights(cfg), "s1.")
    data = np.random.default_rng(10).normal(size=(16, 128, 128))
    fa_scan(FeatureGrid(data), psi)  # warm the scan-order caches
    tracemalloc.start()
    try:
        kept = FeatureGrid(data.copy())
        held = [FeatureGrid(data.copy())]
        kept_peak = traced_peak_mb(lambda: fa_scan(kept, psi))
        handed_peak = traced_peak_mb(lambda: fa_scan(held.pop(), psi))
    finally:
        tracemalloc.stop()
    assert handed_peak <= kept_peak - data.nbytes / MB + 0.05, \
        f"handed-over fa_scan peak {handed_peak:.2f} MB, kept-carrier fa_scan {kept_peak:.2f} MB"


def test_encoder_block_frees_a_handed_over_input():
    # Stage 1 at 16 x 256 x 256.  A block fed through list.pop() owns its
    # input alone and frees it after the split, so its peak is that of a
    # block whose caller keeps the input less the input's 8.4 MB.  The
    # inputs are made while tracing, so freeing them counts.
    cfg = PipelineConfig()
    weights = default_weights(cfg)
    data = np.random.default_rng(8).normal(size=(16, 256, 256))
    encoder_block(FeatureGrid(data), cfg, weights, 1)  # warm the scan-order caches
    tracemalloc.start()
    try:
        kept = FeatureGrid(data.copy())
        held = [FeatureGrid(data.copy())]
        kept_peak = traced_peak_mb(lambda: encoder_block(kept, cfg, weights, 1))
        handed_peak = traced_peak_mb(lambda: encoder_block(held.pop(), cfg, weights, 1))
    finally:
        tracemalloc.stop()
    assert handed_peak <= kept_peak - data.nbytes / MB + 0.25, \
        f"handed-over block peak {handed_peak:.2f} MB, kept-input block {kept_peak:.2f} MB"


@pytest.mark.parametrize("selective", [True, False])
@pytest.mark.parametrize("length", [4096, 4000])
def test_parallel_scan_peak_holds_one_decay_and_drive(selective, length):
    # Stage 1 of a 256^2 forward scans 4096 x 16 tokens with N = 8: decay and
    # drive take 4.19 MB each, and beside them the coefficients hold the
    # permuted tokens, delta*u, B_t and C_t, 1.6 MB together; delta itself
    # is dropped once decay is built.  Keeping delta adds 0.5 MB, and a
    # third (L, C, N) buffer, such as padded copies of decay and drive at
    # a length that is not a multiple of the block size, 4 MB or more.
    params = SsmParams.random(16, 8, seed=0, selective=selective)
    u = np.random.default_rng(0).normal(size=(length, 16))
    peak = traced_peak_mb(lambda: ssm_scan_parallel(params, u))
    assert peak <= 2 * 4096 * 16 * 8 * 8 / MB + 1.75, f"scan peak {peak:.2f} MB"


def test_refine_mask_peak_without_splat_stack():
    # A probes x H x W stack of splats would hold 64*128*128*8 B = 8.4 MB per array.
    rng = np.random.default_rng(3)
    probes = ProbeSet(coords=rng.uniform(-1, 1, (64, 2)), embeddings=np.zeros((64, 16)),
                      scores=rng.uniform(size=64))
    peak = traced_peak_mb(lambda: refine_mask(probes, (128, 128)))
    assert peak < 2.0, f"refine_mask peak {peak:.2f} MB"


def test_coarse_potential_peak_at_128():
    # The logits are 64 x 128*128 floats (8.4 MB).  Beside them only one
    # column block of keys (at most 1 MB) is held; the whole (16, 128*128)
    # key map would add 2.1 MB, and a second logits-sized array 8.4 MB.
    rng = np.random.default_rng(4)
    x = FeatureGrid(rng.normal(size=(16, 128, 128)))
    store = seeded_init(asgp_weight_spec(16, 16, 64), 4)
    probes = ProbeSet(coords=rng.uniform(-1, 1, (64, 2)), embeddings=store["asgp.probe_embed"],
                      scores=np.full(64, 0.5))
    bound = 64 * 128 * 128 * 8 / MB + _KEY_BLOCK_BYTES / MB + 0.25
    peak = traced_peak_mb(lambda: coarse_potential(probes, x, store))
    assert peak <= bound, f"coarse_potential peak {peak:.2f} MB, bound {bound:.2f} MB"


def test_ods_peak_over_eight_pairs_at_256():
    # A thresholds x pixels comparison would hold 99*256*256 booleans (6.5 MB) per pair.
    rng = np.random.default_rng(2)
    gts = [rng.uniform(size=(256, 256)) < 0.05 for _ in range(8)]
    preds = [np.clip(0.7 * g + 0.15 + rng.normal(0.0, 0.2, g.shape), 0.0, 1.0) for g in gts]
    peak = traced_peak_mb(lambda: ods(preds, gts))
    assert peak < 4.0, f"ods peak {peak:.1f} MB"


def test_skeletonize_peak_at_256():
    # 0.14 MB, at the first table lookup: the padded image and the 1-byte
    # tag plane (66.6 KB each for 258^2 positions) beside the foreground
    # positions with their codes (9 B each).  A full-image codes plane put
    # 66.6 KB more beside the copy of the result out of the padded image,
    # 0.27 MB; keeping the tag plane through that copy reads 0.20 MB.  The
    # int32 dedup slot the tag plane replaced read 0.47 MB, an intp one
    # 0.74 MB.
    mask = generate_sample(SynthConfig(height=256, width=256, seed=0)).gt
    peak = traced_peak_mb(lambda: skeletonize(mask))
    assert peak < 0.17, f"skeletonize peak {peak:.2f} MB"


@pytest.mark.parametrize("shape, bound", [((256, 256), 1.5), ((384, 544), 4.7)],
                         ids=["256x256", "544x384"])
def test_skeletonize_peak_on_a_full_mask(shape, bound):
    # 1.38 and 4.38 MB, in the first merge, as the other set (nearly every
    # foreground pixel, 8 B of position and 1 B of code each) is cut: the
    # set, its cut and the cut's mask are live.  The set leaves todo before
    # the cut and nothing else holds the foreground list, so the uncut set
    # is freed before the merged one is built.  Holding the foreground list
    # and the cut set into the second sub-iteration, beside a full-image
    # codes plane, read 1.97 and 6.13 MB; cutting the other set in two
    # steps put the peak in the merge at 2.29 and 7.31 MB; one (8, n) index
    # array over every foreground pixel for the first codes, 5.38 and
    # 17.13 MB.  544x384 is DeepCrack's image size.
    mask = np.ones(shape, dtype=bool)
    peak = traced_peak_mb(lambda: skeletonize(mask))
    assert peak < bound, f"skeletonize peak {peak:.2f} MB on a full {shape} mask"


def test_eval_peak_over_eight_pairs_at_256(tmp_path):
    # eval scores each pair on its 8-bit codes as it is read, adds the codes
    # to the ODS counts, then drops them before scoring the hit mask.  The
    # peak, 0.49 MB, is in skeletonize on a noisy prediction, where a pass
    # gathers the codes of the deleted pixels' neighbours one block of
    # positions at a time, beside the hit and gt masks.  With a full-image
    # codes plane in skeletonize, the prediction's codes kept through
    # clDice and its skeleton kept while gt was thinned it read 0.67 MB;
    # with an int32 dedup slot, whole-mask neighbour gathers and an
    # image-sized intp copy of the codes in the ODS counts, 0.89 MB; reading
    # each prediction as float64, 1.85 MB.  Keeping the eight float
    # predictions for the ODS sweep would hold 8*256*256*8 B = 4.2 MB more.
    rng = np.random.default_rng(5)
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
    for i in range(8):
        gt = generate_sample(SynthConfig(height=256, width=256, curves=3, width_max=3,
                                         orientation="bezier", seed=i)).gt
        pred = np.clip(0.7 * gt + 0.15 + rng.normal(0.0, 0.2, gt.shape), 0.0, 1.0)
        fileio.save_pgm(tmp_path / "pred" / f"{i}.pgm", pred)
        fileio.save_pgm(tmp_path / "gt" / f"{i}.pgm", gt.astype(float))
    argv = ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--out", str(tmp_path / "eval.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        peak = traced_peak_mb(lambda: main(argv))
    assert peak < 0.52, f"eval peak {peak:.2f} MB"
