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

from dataclasses import dataclass, field

import numpy as np

from .asgp import (
    ProbeSet,
    asgp_gate,
    asgp_weight_spec,
    coarse_potential,
    evolve_probes,
    probe_grid_coords,
    refine_mask,
)
from .errors import ConfigError, DimensionError
from .fablock import _LGB_RATIO, ScanAssignment, _se_gate, _se_spec, fa_scan, lgb, lgb_weight_spec
from .grid import FeatureGrid, Mask, resize_bilinear, sample_px
from .nn import conv1x1, conv2d, depthwise_conv2d, global_avg_pool, relu, rms_normalize, sigmoid
from .ssm import SsmParams, _scan_spec
from .wavelet import SubbandSet, dwt_haar, idwt_haar
from .weights import WeightStore, seeded_init

STAGES = 4
# The stem's square kernel side and the bound on align's offsets, in normalized units.
_STEM_KERNEL, _MAX_OFFSET = 3, 0.25
# Caps on the probe and step counts: a probe step builds N x N matrices.
_MAX_PROBES, _MAX_STEPS = 4096, 1000


@dataclass(frozen=True)
class PipelineConfig:
    channels: tuple[int, int, int, int] = (16, 32, 64, 128)
    stem_stride: int = 1
    policy: str = "EEGG"
    assign: ScanAssignment = field(default_factory=ScanAssignment)
    probes: int = 64  # probes per stage
    steps: int = 3  # probe update steps
    state_dim: int = 8
    gate_mode: str = "probe"  # "probe" or "unit"
    seed: int = 0

    def __post_init__(self):
        if len(self.channels) != STAGES:
            raise ConfigError(f"channels {self.channels}: need {STAGES} stage widths, "
                              f"got {len(self.channels)}")
        if any(c < _LGB_RATIO or c % _LGB_RATIO for c in self.channels):
            raise ConfigError(f"channels must be positive multiples of {_LGB_RATIO}, "
                              f"got {self.channels}")
        if self.stem_stride not in (1, 2):
            raise ConfigError(f"stem_stride must be 1 or 2, got {self.stem_stride}")
        if self.gate_mode not in ("probe", "unit"):
            raise ConfigError(f"unknown gate mode {self.gate_mode!r}: "
                              "gate_mode must be 'probe' or 'unit'")
        if len(self.policy) != STAGES or any(ch not in "EG" for ch in self.policy):
            raise ConfigError(f"policy must be {STAGES} letters from E/G, got {self.policy!r}")
        if self.probes < 1:
            raise ConfigError(f"probes must be at least 1, got {self.probes}")
        if self.probes > _MAX_PROBES:
            raise ConfigError(f"probes must be at most {_MAX_PROBES}, got {self.probes}")
        if self.steps < 0:
            raise ConfigError(f"steps must be at least 0, got {self.steps}")
        if self.steps > _MAX_STEPS:
            raise ConfigError(f"steps must be at most {_MAX_STEPS}, got {self.steps}")
        if self.state_dim < 1:
            raise ConfigError(f"state_dim must be at least 1, got {self.state_dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def decoder_channels(self) -> int:
        return self.channels[0]


def _check_input(cfg: PipelineConfig, height: int, width: int) -> None:
    """Raise DimensionError unless every encoder block would get even sides of at least 4."""
    step = 2 ** STAGES * cfg.stem_stride  # the last block's sides are side / (step / 2)
    if height < 2 * step or width < 2 * step:
        raise DimensionError(f"input must be at least {2 * step}x{2 * step}, got {height}x{width}")
    if height % step or width % step:
        raise DimensionError(f"input dims must be multiples of {step}, got {height}x{width}")


def align_weight_spec(channels: int, prefix: str = "") -> list[tuple[str, tuple]]:
    hidden = max(4, channels // 2)
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


def align(x_ll: FeatureGrid, x_hf, w: WeightStore, prefix: str = "") -> FeatureGrid:
    """Resample the carrier along offsets predicted from the detail bands.

    The two-layer 3x3 predictor sees the channel-concatenated high bands;
    its output passes through tanh scaled by _MAX_OFFSET (normalized
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
    w1, b1, w2, b2 = (w.get(name, shape)
                      for name, shape in align_weight_spec(x_ll.channels, prefix))
    raw = conv2d(relu(conv2d(stacked, w1, b1)), w2, b2)
    offsets = _MAX_OFFSET * np.tanh(raw)
    h, width = shape
    cols = np.arange(width, dtype=np.float64)[None, :] + offsets[0] * ((width - 1) / 2.0)
    rows = np.arange(h, dtype=np.float64)[:, None] + offsets[1] * ((h - 1) / 2.0)
    return FeatureGrid._of(sample_px(x_ll.data, np.broadcast_to(cols, (h, width)),
                                     np.broadcast_to(rows, (h, width))))


def stage_weight_spec(channels: int, cfg: PipelineConfig, stage: int) -> list[tuple[str, tuple]]:
    if not 1 <= stage <= STAGES:
        raise ValueError(f"stage must be 1..{STAGES}, got {stage}")
    p = f"s{stage}."
    spec = align_weight_spec(channels, p) + _scan_spec(channels, cfg.state_dim, p)
    spec += lgb_weight_spec(channels, cfg.policy[stage - 1], p)
    spec += asgp_weight_spec(channels, channels, cfg.probes, p)
    spec += [(p + "asgp.probe_coords", (cfg.probes, 2))]
    return spec


def _layer_spec(prefix: str, *shape: int) -> list[tuple[str, tuple]]:
    """A weight block of ``shape`` and a bias over its first axis: prefix + "w", prefix + "b"."""
    return [(prefix + "w", shape), (prefix + "b", shape[:1])]


def _brm_spec(ce: int) -> list[tuple[str, tuple]]:
    """Blocks of the boundary refiner, then of the head folded into it."""
    return (_layer_spec("brm.ctx_dw_", ce, 3, 3) + _layer_spec("brm.ctx_pw_", ce, ce)
            + _layer_spec("brm.edge_dw_", ce, 3, 3) + _layer_spec("brm.proj_", ce, 2 * ce)
            + _layer_spec("head.", 1, ce))


def pipeline_weight_spec(cfg: PipelineConfig) -> list[tuple[str, tuple]]:
    spec = _layer_spec("stem.", cfg.channels[0], 1, _STEM_KERNEL, _STEM_KERNEL)
    for stage, ch in enumerate(cfg.channels, start=1):
        spec += stage_weight_spec(ch, cfg, stage)
        if stage < STAGES:
            spec += _layer_spec(f"down{stage}.", cfg.channels[stage], ch, 3, 3)
    ce = cfg.decoder_channels
    for level, ch in enumerate(cfg.channels, start=1):
        spec += _layer_spec(f"gfa.phi{level}_", ce, ch) + _se_spec(f"gfa.gate{level}_", ce)
    return spec + _layer_spec("gfa.fuse_", ce, ce, 3, 3) + _brm_spec(ce)


def default_weights(cfg: PipelineConfig) -> WeightStore:
    """Seeded store for the whole pipeline; probe coordinates use a jittered grid."""
    store = seeded_init(pipeline_weight_spec(cfg), cfg.seed)
    for stage in range(1, STAGES + 1):
        coords = probe_grid_coords(cfg.probes, cfg.seed + stage)
        store[f"s{stage}.asgp.probe_coords"] = coords.astype(np.float32).astype(np.float64)
    return store


def _stage_probes(w: WeightStore, cfg: PipelineConfig, channels: int, prefix: str) -> ProbeSet:
    coords = w.get(prefix + "asgp.probe_coords", (cfg.probes, 2))
    emb = w.get(prefix + "asgp.probe_embed", (cfg.probes, channels))
    return ProbeSet(coords=coords, embeddings=emb, scores=np.full(cfg.probes, 0.5))


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
    if x.height % 2 or x.width % 2 or min(x.height, x.width) < 4:
        raise DimensionError(f"block needs even dims >= 4, got {x.height}x{x.width}")
    height, width, channels = x.height, x.width, x.channels
    prefix = f"s{stage}."
    bands = dwt_haar(x)
    del x
    # held owns the aligned carrier alone and pops it into fa_scan, which
    # frees it once it is split
    held = [align(bands.ll, bands.high(), w, prefix)]
    if cfg.gate_mode == "unit":
        gated = list(bands.high())
    else:
        aligned = held[0]
        probes = _stage_probes(w, cfg, channels, prefix)
        m0 = coarse_potential(probes, aligned, w, prefix)
        probes = evolve_probes(m0, aligned, probes, cfg.steps, w, prefix)
        m1 = refine_mask(probes, (aligned.height, aligned.width))
        gated = asgp_gate(m0, m1, bands.high())
        del aligned
    del bands
    carrier = fa_scan(held.pop(), SsmParams.from_store(w, prefix), cfg.assign)
    carrier = lgb(carrier, cfg.policy[stage - 1], w, prefix)
    merged = SubbandSet(ll=carrier, lh=gated[0], hl=gated[1], hh=gated[2])
    return idwt_haar(merged, height, width)


def stem(image: FeatureGrid, cfg: PipelineConfig, w: WeightStore) -> FeatureGrid:
    """Entry convolution + ReLU, normalized to unit RMS.

    Stage inputs are normalized here and after every downsample because
    the selective scan's step size and couplings are linear in the token,
    so unnormalized feature scales would compound polynomially across
    stages and saturate the head.
    """
    sw, sb = (w.get(name, shape) for name, shape in _layer_spec(
        "stem.", cfg.channels[0], image.channels, _STEM_KERNEL, _STEM_KERNEL))
    return FeatureGrid._of(rms_normalize(relu(conv2d(image.data, sw, sb, stride=cfg.stem_stride))))


def downsample(x: FeatureGrid, cfg: PipelineConfig, w: WeightStore, stage: int) -> FeatureGrid:
    dw, db = (w.get(name, shape) for name, shape
              in _layer_spec(f"down{stage}.", cfg.channels[stage], x.channels, 3, 3))
    return FeatureGrid._of(rms_normalize(relu(conv2d(x.data, dw, db, stride=2))))


def gfa(features, w: WeightStore) -> FeatureGrid:
    """Parallel multi-scale fusion with per-level channel gates.

    Every level is projected to the shared decoder width, upsampled to
    the first level's size, scaled by its squeeze/excite gate vector
    (fablock._se_gate, the block of lgb's "G" gate), summed in level
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
    out_h, out_w = levels[0].height, levels[0].width
    projs = [None] * STAGES
    for idx in (1, 2, 3, 0):
        feat, levels[idx] = levels[idx], None
        pw, pb = (w.get(name, shape)
                  for name, shape in _layer_spec(f"gfa.phi{idx + 1}_", ce, feat.channels))
        projs[idx] = conv1x1(feat.data, pw, pb)
        del feat
    for level in range(1, STAGES + 1):
        proj = projs.pop(0)
        if proj.shape[1:] != (out_h, out_w):
            proj = resize_bilinear(FeatureGrid._of(proj), out_h, out_w).data
        gate = _se_gate(global_avg_pool(proj), w, f"gfa.gate{level}_")
        proj *= gate[:, None, None]  # proj is this loop's own array
        if level == 1:
            total = proj
        else:
            total += proj
        del proj
    fw, fb = (w.get(name, shape) for name, shape in _layer_spec("gfa.fuse_", ce, ce, 3, 3))
    return FeatureGrid._of(conv2d(total, fw, fb))


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
    ctx_dw_w, ctx_dw_b, ctx_pw_w, ctx_pw_b, edge_dw_w, edge_dw_b, proj_w, proj_b, head_w, head_b = (
        w.get(name, shape) for name, shape in _brm_spec(ce))
    u = head_w @ proj_w[:, :ce] @ ctx_pw_w
    v = head_w @ proj_w[:, ce:]
    c = head_w @ (proj_w[:, :ce] @ ctx_pw_b + proj_b) + v @ edge_dw_b
    logits = conv1x1(fused.data, head_w, head_b)
    for k in range(ce):
        ctx = depthwise_conv2d(fused.data[k : k + 1], ctx_dw_w[k : k + 1], ctx_dw_b[k : k + 1])
        np.maximum(ctx, 0.0, out=ctx)  # relu, in place on this function's array
        ctx *= u[0, k]
        logits += ctx
    del ctx
    edge_w = v.reshape(1, ce, 1, 1) * edge_dw_w[None]
    logits += conv2d(fused.data, edge_w, c)
    return FeatureGrid._of(logits)


def forward(image: FeatureGrid, cfg: PipelineConfig | None = None,
            w: WeightStore | None = None) -> Mask:
    """Full pass: stem -> 4 x (block, downsample) -> fusion -> refine -> mask.

    The input must be single-channel with H and W multiples of
    16 * stem_stride and at least 32 * stem_stride, so every encoder
    block gets even sides of at least 4 (``_check_input``).
    Deterministic for a fixed OpenBLAS thread count: identical (image,
    cfg, weights) give bit-identical masks.  Another thread count may
    split a GEMM differently and move the masks by a few ulps (3.9e-15
    measured between one and two threads; tests bound it at 1e-12).
    Each stage input is handed over to its encoder block, and each stage
    output to gfa, without a second reference, so every full-resolution
    buffer is freed once its last reader is done.

    Values are checked where they enter: ``image`` when built, each block at
    its ``WeightStore.get`` (``sN.ssm.a_log`` against ``cfg.state_dim``, the other
    scan blocks against its (C, N)), the logits before the sigmoid maps inf to 0 or 1.
    """
    cfg = cfg or PipelineConfig()
    if image.channels != 1:
        raise DimensionError(f"expected a single-channel image, got {image.channels}")
    _check_input(cfg, image.height, image.width)
    w = w if w is not None else default_weights(cfg)
    for stage, channels in enumerate(cfg.channels, start=1):
        w.get(f"s{stage}.ssm.a_log", (channels, cfg.state_dim))
    # held owns each stage input alone and pops it into the block, which
    # frees it once it is split
    held = [stem(image, cfg, w)]
    taps: list[FeatureGrid] = []
    for stage in range(1, STAGES + 1):
        x = encoder_block(held.pop(), cfg, w, stage)
        taps.append(x)
        if stage < STAGES:
            held.append(downsample(x, cfg, w, stage))
    del x
    # hand the stage outputs over one by one, so gfa frees each once it is projected
    fused = gfa((taps.pop(0) for _ in range(STAGES)), w)
    logits = brm(fused, w).data
    if not np.isfinite(logits).all():
        raise ValueError(f"logits hold {np.count_nonzero(~np.isfinite(logits))} non-finite values")
    mask = FeatureGrid._of(sigmoid(logits))
    if (mask.height, mask.width) != (image.height, image.width):
        mask = resize_bilinear(mask, image.height, image.width)
    return mask
