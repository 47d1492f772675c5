"""Closed-form multiply-accumulate counts for every pipeline component.

Conventions (documented so counts are reproducible by hand):
  * a weighted layer: its block's size in pipeline_weight_spec times the
    pixels it runs at; a channel gate or probe head counts its blocks once
    per call, or per probe and step.  Widths come from the spec alone.
  * Haar split / merge: 4 MACs per input sample (4 * c * h * w)
  * scan over L tokens, C channels, N states: 2*L*C*N to form the
    per-step coefficients, L*C*N for the recurrence, L*C*N for the
    readout, plus L*C skip and the selective projections L*C*(C + 2N)
  * bilinear resize or sampling: 4 MACs per output sample
  * softmax, splats and elementwise gates: 1 MAC per sample touched
Bias adds are not counted.
"""

from __future__ import annotations

import math

from .errors import DimensionError
from .pipeline import STAGES, PipelineConfig, _check_input, pipeline_weight_spec


def conv_macs(h: int, w: int, c_in: int, c_out: int, k: int, stride: int = 1) -> int:
    if min(h, w, c_in, c_out, k, stride) < 1:
        raise DimensionError("conv dimensions must be positive")
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    return out_h * out_w * c_in * c_out * k * k


def haar_macs(c: int, h: int, w: int) -> int:
    return 4 * c * h * w


def resize_macs(c: int, out_h: int, out_w: int) -> int:
    return 4 * c * out_h * out_w


def scan_macs(length: int, channels: int, state_dim: int) -> int:
    return (4 * length * channels * state_dim + length * channels
            + length * channels * (channels + 2 * state_dim))


def fa_scan_macs(channels: int, h: int, w: int, state_dim: int) -> int:
    """One split, one scan per sub-band, one merge."""
    length = (h // 2) * (w // 2)
    return 2 * haar_macs(channels, h, w) + 4 * scan_macs(length, channels, state_dim)


def cross_scan_macs(channels: int, h: int, w: int, state_dim: int) -> int:
    """Four directional scans per sub-band instead of one."""
    length = (h // 2) * (w // 2)
    return (fa_scan_macs(channels, h, w, state_dim)
            + 4 * 3 * scan_macs(length, channels, state_dim))


def flop_estimate(cfg: PipelineConfig | None = None,
                  input_shape: tuple[int, int] = (256, 256)) -> dict[str, int]:
    """Per-component MAC counts for a full forward pass, plus 'total'."""
    cfg = cfg or PipelineConfig()
    h, w = input_shape
    _check_input(cfg, h, w)
    size = {name: math.prod(shape) for name, shape in pipeline_weight_spec(cfg)}
    sh, sw = h // cfg.stem_stride, w // cfg.stem_stride  # _check_input keeps every side even
    report: dict[str, int] = {"stem": size["stem.w"] * sh * sw}
    taps = []
    for stage, ch in enumerate(cfg.channels, start=1):
        p = f"s{stage}."
        bh, bw = sh // 2, sw // 2
        hw, n = bh * bw, cfg.probes
        report[p + "align"] = ((size[p + "align.w1"] + size[p + "align.w2"]) * hw
                               + resize_macs(ch, bh, bw))
        report[p + "scan"] = fa_scan_macs(ch, bh, bw, cfg.state_dim)
        if cfg.policy[stage - 1] == "E":
            gate = size[p + "lgb.eca_w"] * ch  # one correlation per channel
        else:
            gate = size[p + "lgb.gse_w1"] + size[p + "lgb.gse_w2"]
        report[p + "lgb"] = gate + hw * (  # the last term is the gate multiply
            size[p + "lgb.down_w"] + size[p + "lgb.dw_w"] + size[p + "lgb.up_w"] + ch)
        # per probe and step: feature sampling, offset head, gradient
        # sampling and pairwise forces
        per_step = n * (4 * ch + size[p + "asgp.sem_w1"] + size[p + "asgp.sem_w2"] + 4 + 4 * n)
        report[p + "asgp"] = 0 if cfg.gate_mode == "unit" else (
            (size[p + "asgp.key_w"] + size[p + "asgp.probe_embed"]) * hw  # keys, logits
            + 2 * n * hw  # softmax + mean
            + cfg.steps * per_step
            + n * size[p + "asgp.score_w"]  # score head
            + 3 * n * hw  # splats
            + 3 * ch * hw  # gating the three detail bands
        )
        report[p + "merge"] = 2 * haar_macs(ch, sh, sw)
        taps.append((sh, sw))
        if stage < STAGES:
            report[f"down{stage}"] = size[f"down{stage}.w"] * hw  # the next stage's pixels
            sh, sw = sh // 2, sw // 2
    ce = cfg.decoder_channels
    out_h, out_w = taps[0]
    out_px = out_h * out_w
    report["gfa"] = size["gfa.fuse_w"] * out_px
    for level, (th, tw) in enumerate(taps, start=1):
        report["gfa"] += (size[f"gfa.phi{level}_w"] * th * tw
                          + size[f"gfa.gate{level}_w1"] + size[f"gfa.gate{level}_w2"]
                          + ce * out_px)  # gate multiply
        if (th, tw) != (out_h, out_w):
            report["gfa"] += resize_macs(ce, out_h, out_w)
    # brm carries the folded head: the context depthwise, the head and the
    # folded context projection (each of head.w's size) and the edge branch
    # as a ce->1 3x3 conv of the edge depthwise's size.
    report["brm"] = (size["brm.ctx_dw_w"] + 2 * size["head.w"] + size["brm.edge_dw_w"]) * out_px
    report["head"] = out_px  # the logistic
    if (out_h, out_w) != (h, w):
        report["upsample"] = resize_macs(1, h, w)
    report["total"] = sum(report.values())
    return report
