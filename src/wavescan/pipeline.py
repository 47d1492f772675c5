"""Forward-only composition: stem, four encoder stages, fused decoding.

Each encoder block is resolution-preserving: split the input into Haar
bands, align the low-frequency carrier using an offset field predicted
from the detail bands, run the orientation-matched scan plus gated
bottleneck on the carrier, gate the detail bands with the probe masks,
and merge back.  Resolution halves between stages through stride-2
convolutions; per-stage outputs feed a parallel gated aggregation
decoder and a dual-branch boundary refiner, into which the one-channel
logit head is folded.

Weights are seeded-random (see pipeline_weight_spec / default_weights)
or loaded from a .fgw bundle; there is no training here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asgp import (
    AsgpConfig,
    ProbeSet,
    asgp_gate,
    asgp_weight_spec,
    coarse_potential,
    evolve_probes,
    probe_grid_coords,
    refine_mask,
)
from .errors import ConfigError, DimensionError
from .fablock import LgbConfig, ScanAssignment, fa_scan, lgb, lgb_weight_spec
from .grid import FeatureGrid, Mask, resize_bilinear, sample_px
from .nn import conv1x1, conv2d, depthwise_conv2d, global_avg_pool, relu, rms_normalize, sigmoid
from .ssm import SsmParams
from .wavelet import SubbandSet, dwt_haar, idwt_haar
from .weights import WeightStore, seeded_init

STAGES = 4


@dataclass(frozen=True)
class PipelineConfig:
    channels: tuple[int, int, int, int] = (16, 32, 64, 128)
    stem_kernel: int = 3
    stem_stride: int = 1
    policy: str = "EEGG"
    assign: ScanAssignment = field(default_factory=ScanAssignment)
    asgp: AsgpConfig = field(default_factory=AsgpConfig)
    state_dim: int = 8
    max_offset: float = 0.25
    gate_mode: str = "probe"  # "probe" or "unit"
    seed: int = 0

    def __post_init__(self):
        if len(self.channels) != STAGES:
            raise ConfigError(f"need {STAGES} stage widths, got {len(self.channels)}")
        if any(c < 4 or c % 4 for c in self.channels):
            raise ConfigError(f"stage widths must be positive multiples of 4, got {self.channels}")
        if self.stem_kernel % 2 == 0 or self.stem_kernel < 1:
            raise ConfigError("stem kernel must be odd and positive")
        if self.stem_stride not in (1, 2):
            raise ConfigError("stem stride must be 1 or 2")
        if self.gate_mode not in ("probe", "unit"):
            raise ConfigError(f"unknown gate mode {self.gate_mode!r}")
        LgbConfig(stage=1, policy=self.policy)  # validates the policy string
        if self.state_dim < 1:
            raise ConfigError("state_dim must be positive")
        if not (math.isfinite(self.max_offset) and self.max_offset > 0):
            raise ConfigError(f"max_offset must be positive and finite, got {self.max_offset}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def lgb_config(self, stage: int) -> LgbConfig:
        return LgbConfig(stage=stage, policy=self.policy)

    @property
    def decoder_channels(self) -> int:
        return self.channels[0]


def align_hidden(channels: int) -> int:
    return max(4, channels // 2)


def align_weight_spec(channels: int, prefix: str = "") -> list[tuple[str, tuple]]:
    hidden = align_hidden(channels)
    return [
        (prefix + "align.w1", (hidden, 3 * channels, 3, 3)),
        (prefix + "align.b1", (hidden,)),
        (prefix + "align.w2", (2, hidden, 3, 3)),
        (prefix + "align.b2", (2,)),
    ]


def _stack_bands(bands: list[np.ndarray]) -> np.ndarray:
    """The channel concatenation of ``bands``, without a copy when it exists.

    ``dwt_haar`` returns LH, HL and HH as slots 1-3 of one (4, C, h, w)
    buffer, whose ``[1:]`` is already their concatenation; bands built
    elsewhere are copied.
    """
    base = bands[0].base
    if base is not None and base.ndim == 4 and base.flags.c_contiguous:
        slots = base[1:len(bands) + 1]
        if len(slots) == len(bands) and all(
                band.__array_interface__ == slot.__array_interface__
                for band, slot in zip(bands, slots)):
            return slots.reshape(-1, *slots.shape[2:])
    return np.concatenate(bands, axis=0)


def align(x_ll: FeatureGrid, x_hf, w: WeightStore, prefix: str = "",
          max_offset: float = 0.25) -> FeatureGrid:
    """Resample the carrier along offsets predicted from the detail bands.

    The two-layer 3x3 predictor sees the channel-concatenated high bands;
    its output passes through tanh scaled by max_offset (normalized
    units) and is added to the identity grid before border-clamped
    bilinear sampling.  Zero predictor weights reproduce the input
    exactly.
    """
    bands = list(x_hf)
    shape = (x_ll.height, x_ll.width)
    for band in bands:
        if (band.height, band.width) != shape:
            raise DimensionError("detail bands must match the carrier's spatial shape")
    stacked = _stack_bands([band.data for band in bands])
    channels = x_ll.channels
    hidden = align_hidden(channels)
    w1 = w.get(prefix + "align.w1", (hidden, stacked.shape[0], 3, 3))
    b1 = w.get(prefix + "align.b1", (hidden,))
    w2 = w.get(prefix + "align.w2", (2, hidden, 3, 3))
    b2 = w.get(prefix + "align.b2", (2,))
    raw = conv2d(relu(conv2d(stacked, w1, b1)), w2, b2)
    offsets = max_offset * np.tanh(raw)
    h, width = shape
    cols = np.arange(width, dtype=np.float64)[None, :] + offsets[0] * ((width - 1) / 2.0)
    rows = np.arange(h, dtype=np.float64)[:, None] + offsets[1] * ((h - 1) / 2.0)
    return FeatureGrid(sample_px(x_ll.data, np.broadcast_to(cols, (h, width)),
                                 np.broadcast_to(rows, (h, width))))


def stage_weight_spec(channels: int, cfg: PipelineConfig, stage: int) -> list[tuple[str, tuple]]:
    p = f"s{stage}."
    n = cfg.state_dim
    spec = align_weight_spec(channels, p)
    spec += [
        (p + "ssm.a_log", (channels, n)),
        (p + "ssm.d", (channels,)),
        (p + "ssm.proj_delta_w", (channels, channels)),
        (p + "ssm.proj_delta_b", (channels,)),
        (p + "ssm.proj_b", (n, channels)),
        (p + "ssm.proj_c", (n, channels)),
    ]
    spec += lgb_weight_spec(channels, cfg.lgb_config(stage), p)
    spec += asgp_weight_spec(channels, channels, cfg.asgp.probes, p)
    spec += [(p + "asgp.probe_coords", (cfg.asgp.probes, 2))]
    return spec


def pipeline_weight_spec(cfg: PipelineConfig) -> list[tuple[str, tuple]]:
    c1 = cfg.channels[0]
    k = cfg.stem_kernel
    spec: list[tuple[str, tuple]] = [("stem.w", (c1, 1, k, k)), ("stem.b", (c1,))]
    for stage, ch in enumerate(cfg.channels, start=1):
        spec += stage_weight_spec(ch, cfg, stage)
        if stage < STAGES:
            nxt = cfg.channels[stage]
            spec += [(f"down{stage}.w", (nxt, ch, 3, 3)), (f"down{stage}.b", (nxt,))]
    ce = cfg.decoder_channels
    for level, ch in enumerate(cfg.channels, start=1):
        spec += [
            (f"gfa.phi{level}_w", (ce, ch)),
            (f"gfa.phi{level}_b", (ce,)),
            (f"gfa.gate{level}_w1", (max(1, ce // 4), ce)),
            (f"gfa.gate{level}_b1", (max(1, ce // 4),)),
            (f"gfa.gate{level}_w2", (ce, max(1, ce // 4))),
            (f"gfa.gate{level}_b2", (ce,)),
        ]
    spec += [
        ("gfa.fuse_w", (ce, ce, 3, 3)),
        ("gfa.fuse_b", (ce,)),
        ("brm.ctx_dw_w", (ce, 3, 3)),
        ("brm.ctx_dw_b", (ce,)),
        ("brm.ctx_pw_w", (ce, ce)),
        ("brm.ctx_pw_b", (ce,)),
        ("brm.edge_dw_w", (ce, 3, 3)),
        ("brm.edge_dw_b", (ce,)),
        ("brm.proj_w", (ce, 2 * ce)),
        ("brm.proj_b", (ce,)),
        ("head.w", (1, ce)),
        ("head.b", (1,)),
    ]
    return spec


def default_weights(cfg: PipelineConfig) -> WeightStore:
    """Seeded store for the whole pipeline; probe coordinates use a jittered grid."""
    store = seeded_init(pipeline_weight_spec(cfg), cfg.seed)
    for stage in range(1, STAGES + 1):
        coords = probe_grid_coords(cfg.asgp.probes, cfg.seed + stage)
        store[f"s{stage}.asgp.probe_coords"] = coords.astype(np.float32).astype(np.float64)
    return store


def _stage_probes(w: WeightStore, cfg: PipelineConfig, channels: int, prefix: str) -> ProbeSet:
    coords = w.get(prefix + "asgp.probe_coords", (cfg.asgp.probes, 2))
    emb = w.get(prefix + "asgp.probe_embed", (cfg.asgp.probes, channels))
    return ProbeSet(coords=coords, embeddings=emb, scores=np.full(cfg.asgp.probes, 0.5))


def encoder_block(x: FeatureGrid, cfg: PipelineConfig, w: WeightStore,
                  stage: int = 1) -> FeatureGrid:
    """One resolution-preserving split/align/model-and-gate/merge block.

    Every full-resolution buffer is released once its last reader is
    done: the block drops its reference to ``x`` right after the split,
    gates the detail bands before the scan so that the band buffer can go
    before it, and hands its only reference to the aligned carrier over
    to ``fa_scan``, which drops it once split.  A caller that hands its
    only reference over (``block(held.pop(), ...)``) lets the input be
    freed during the block; a caller that keeps ``x`` gets the same
    output and finds ``x`` unchanged.
    """
    if x.height % 2 or x.width % 2:
        raise DimensionError(f"block needs even dims, got {x.height}x{x.width}")
    if x.height < 4 or x.width < 4:
        raise DimensionError(f"block needs dims >= 4, got {x.height}x{x.width}")
    height, width, channels = x.height, x.width, x.channels
    prefix = f"s{stage}."
    bands = dwt_haar(x)
    del x
    # held owns the aligned carrier alone and pops it into fa_scan, which
    # frees it once it is split
    held = [align(bands.ll, bands.high(), w, prefix, cfg.max_offset)]
    if cfg.gate_mode == "unit":
        gated = list(bands.high())
    else:
        aligned = held[0]
        probes = _stage_probes(w, cfg, channels, prefix)
        m0 = coarse_potential(probes, aligned, w, prefix)
        probes = evolve_probes(m0, aligned, probes, cfg.asgp, w, prefix)
        m1 = refine_mask(probes, (aligned.height, aligned.width), cfg.asgp)
        gated = asgp_gate(m0, m1, bands.high(), cfg.asgp)
        del aligned
    del bands
    carrier = fa_scan(held.pop(), SsmParams.from_store(w, prefix), cfg.assign)
    carrier = lgb(carrier, cfg.lgb_config(stage), w, prefix)
    merged = SubbandSet(ll=carrier, lh=gated[0], hl=gated[1], hh=gated[2])
    return idwt_haar(merged, height, width)


def stem(image: FeatureGrid, cfg: PipelineConfig, w: WeightStore) -> FeatureGrid:
    """Entry convolution + ReLU, normalized to unit RMS.

    Stage inputs are normalized here and after every downsample because
    the selective scan's step size and couplings are linear in the token,
    so unnormalized feature scales would compound polynomially across
    stages and saturate the head.
    """
    c1 = cfg.channels[0]
    k = cfg.stem_kernel
    sw = w.get("stem.w", (c1, image.channels, k, k))
    sb = w.get("stem.b", (c1,))
    return FeatureGrid(rms_normalize(relu(conv2d(image.data, sw, sb, stride=cfg.stem_stride))))


def downsample(x: FeatureGrid, cfg: PipelineConfig, w: WeightStore, stage: int) -> FeatureGrid:
    nxt = cfg.channels[stage]
    dw = w.get(f"down{stage}.w", (nxt, x.channels, 3, 3))
    db = w.get(f"down{stage}.b", (nxt,))
    return FeatureGrid(rms_normalize(relu(conv2d(x.data, dw, db, stride=2))))


def gfa(features, w: WeightStore) -> FeatureGrid:
    """Parallel multi-scale fusion with per-level channel gates.

    Every level is projected to the shared decoder width, upsampled to
    the first level's size, scaled by its gate vector, summed in level
    order, and mixed by one 3x3 convolution.  All four levels are read
    before any is projected, so a wrong level count fails first.  Levels
    2-4 are projected first, at their own resolution, and each is dropped
    once projected; so when level 1 is projected only its input and the
    three small projections are live beside it, and an iterator that
    hands over its levels lets each one be freed as soon as it is used.
    The sum starts as level 1's gated projection itself, so no
    zero-filled full-resolution buffer is held beside it.
    """
    levels = []
    for feat in features:
        if len(levels) == STAGES:
            raise ConfigError(f"fusion expects {STAGES} levels, got more")
        levels.append(feat)
    if len(levels) != STAGES:
        raise ConfigError(f"fusion expects {STAGES} levels, got {len(levels)}")
    ce = w["gfa.phi1_w"].shape[0]
    hidden = max(1, ce // 4)
    out_h, out_w = levels[0].height, levels[0].width
    projs = [None] * STAGES
    for idx in (1, 2, 3, 0):
        feat, levels[idx] = levels[idx], None
        pw = w.get(f"gfa.phi{idx + 1}_w", (ce, feat.channels))
        pb = w.get(f"gfa.phi{idx + 1}_b", (ce,))
        projs[idx] = conv1x1(feat.data, pw, pb)
        del feat
    for level in range(1, STAGES + 1):
        proj = projs.pop(0)
        if proj.shape[1:] != (out_h, out_w):
            proj = resize_bilinear(FeatureGrid(proj), out_h, out_w).data
        g1 = w.get(f"gfa.gate{level}_w1", (hidden, ce))
        gb1 = w.get(f"gfa.gate{level}_b1", (hidden,))
        g2 = w.get(f"gfa.gate{level}_w2", (ce, hidden))
        gb2 = w.get(f"gfa.gate{level}_b2", (ce,))
        gate = sigmoid(g2 @ relu(g1 @ global_avg_pool(proj) + gb1) + gb2)
        proj *= gate[:, None, None]  # proj is this loop's own array
        if level == 1:
            total = proj
        else:
            total += proj
        del proj
    fw = w.get("gfa.fuse_w", (ce, ce, 3, 3))
    fb = w.get("gfa.fuse_b", (ce,))
    return FeatureGrid(conv2d(total, fw, fb))


def brm(fused: FeatureGrid, w: WeightStore) -> FeatureGrid:
    """Dual-branch residual boundary refiner folded into the head: (1,H,W) logits.

    The refiner adds to its input the projection (brm.proj_w, brm.proj_b)
    of a context branch, relu(depthwise) then pointwise, and an edge
    branch, depthwise.  Every layer after the context relu is linear, so
    the head (head.w, head.b) is folded through them: with h = head.w,
    P_ctx and P_edge the halves of brm.proj_w and W_pw = brm.ctx_pw_w,
    the logits are

        h F + head.b + (h P_ctx W_pw) relu(ctx_dw(F))
        + conv(F, (h P_edge) * brm.edge_dw_w) + c,

    with c = h (P_ctx ctx_pw_b + proj_b) + (h P_edge) edge_dw_b.  The
    context branch runs one channel k at a time: its depthwise, relu and
    scale by entry k of u = h P_ctx W_pw are added into the logits, so no
    ce-channel map is built.  Summed channel by channel rather than by one
    projection, the logits agree with the unfolded refiner within 1e-12
    of their largest magnitude.
    """
    ce = fused.channels
    head_w = w.get("head.w", (1, ce))
    proj_w = w.get("brm.proj_w", (ce, 2 * ce))
    u = head_w @ proj_w[:, :ce] @ w.get("brm.ctx_pw_w", (ce, ce))
    v = head_w @ proj_w[:, ce:]
    c = (head_w @ (proj_w[:, :ce] @ w.get("brm.ctx_pw_b", (ce,)) + w.get("brm.proj_b", (ce,)))
         + v @ w.get("brm.edge_dw_b", (ce,)))
    logits = conv1x1(fused.data, head_w, w.get("head.b", (1,)))
    ctx_w = w.get("brm.ctx_dw_w", (ce, 3, 3))
    ctx_b = w.get("brm.ctx_dw_b", (ce,))
    for k in range(ce):
        ctx = depthwise_conv2d(fused.data[k : k + 1], ctx_w[k : k + 1], ctx_b[k : k + 1])
        np.maximum(ctx, 0.0, out=ctx)  # relu, in place on this function's array
        ctx *= u[0, k]
        logits += ctx
    del ctx
    edge_w = v.reshape(1, ce, 1, 1) * w.get("brm.edge_dw_w", (ce, 3, 3))[None]
    logits += conv2d(fused.data, edge_w, c)
    return FeatureGrid(logits)


def forward(image: FeatureGrid, cfg: PipelineConfig | None = None,
            w: WeightStore | None = None) -> Mask:
    """Full pass: stem -> 4 x (block, downsample) -> fusion -> refine -> mask.

    The input must be single-channel with H and W multiples of
    16 * stem_stride and >= 32, so every stage grid stays even.
    Deterministic for a fixed OpenBLAS thread count: identical (image,
    cfg, weights) give bit-identical masks.  Another thread count may
    split a GEMM differently and move the masks by a few ulps (3.9e-15
    measured between one and two threads; tests bound it at 1e-12).
    Each stage input is handed over to its encoder block, and each stage
    output to gfa, without a second reference, so every full-resolution
    buffer is freed once its last reader is done.
    """
    cfg = cfg or PipelineConfig()
    if image.channels != 1:
        raise DimensionError(f"expected a single-channel image, got {image.channels}")
    step = 16 * cfg.stem_stride
    if image.height < 32 or image.width < 32:
        raise DimensionError(f"input must be at least 32x32, got {image.height}x{image.width}")
    if image.height % step or image.width % step:
        raise DimensionError(
            f"input dims must be multiples of {step}, got {image.height}x{image.width}"
        )
    w = w if w is not None else default_weights(cfg)
    # held owns each stage input alone and pops it into the block, which
    # frees it once it is split
    held = [stem(image, cfg, w)]
    taps: list[FeatureGrid] = []
    for stage in range(1, STAGES + 1):
        x = encoder_block(held.pop(), cfg, w, stage)
        taps.append(x)
        if stage < STAGES:
            held.append(downsample(x, cfg, w, stage))
    base_h, base_w = taps[0].height, taps[0].width
    for idx, tap in enumerate(taps):
        if (tap.height, tap.width) != (base_h >> idx, base_w >> idx):
            raise DimensionError("stage resolutions must halve between stages")
        if tap.channels != cfg.channels[idx]:
            raise DimensionError("stage widths must follow the configured plan")
    del tap, x
    # hand the stage outputs over one by one, so gfa frees each once it is projected
    fused = gfa((taps.pop(0) for _ in range(STAGES)), w)
    logits = brm(fused, w)
    mask = FeatureGrid(sigmoid(logits.data))
    if (mask.height, mask.width) != (image.height, image.width):
        mask = resize_bilinear(mask, image.height, image.width)
    return mask
