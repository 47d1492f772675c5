"""Closed-form multiply-accumulate counts for every pipeline component.

Conventions (documented so counts are reproducible by hand):
  * dense conv: out_h * out_w * c_in * c_out * k^2
  * depthwise conv: h * w * c * k^2
  * Haar split / merge: 4 MACs per input sample (4 * c * h * w)
  * scan over L tokens, C channels, N states: 2*L*C*N to form the
    per-step coefficients, L*C*N for the recurrence, L*C*N for the
    readout, plus L*C skip and the selective projections L*C*(C + 2N)
  * bilinear resize: 4 MACs per output sample
Bias adds are not counted.
"""

from __future__ import annotations

from .errors import DimensionError
from .pipeline import STAGES, PipelineConfig, align_hidden


def conv_macs(h: int, w: int, c_in: int, c_out: int, k: int, stride: int = 1) -> int:
    if min(h, w, c_in, c_out, k, stride) < 1:
        raise DimensionError("conv dimensions must be positive")
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    return out_h * out_w * c_in * c_out * k * k


def depthwise_macs(h: int, w: int, c: int, k: int) -> int:
    return h * w * c * k * k


def dense_macs(rows: int, c_in: int, c_out: int) -> int:
    return rows * c_in * c_out


def haar_macs(c: int, h: int, w: int) -> int:
    return 4 * c * h * w


def resize_macs(c: int, out_h: int, out_w: int) -> int:
    return 4 * c * out_h * out_w


def scan_macs(length: int, channels: int, state_dim: int, selective: bool) -> int:
    total = 4 * length * channels * state_dim + length * channels
    if selective:
        total += length * channels * (channels + 2 * state_dim)
    return total


def fa_scan_macs(channels: int, h: int, w: int, state_dim: int,
                 selective: bool = True) -> int:
    """One split, one scan per sub-band, one merge."""
    length = (h // 2) * (w // 2)
    return (
        haar_macs(channels, h, w)
        + 4 * scan_macs(length, channels, state_dim, selective)
        + haar_macs(channels, h, w)
    )


def cross_scan_macs(channels: int, h: int, w: int, state_dim: int,
                    selective: bool = True) -> int:
    """Four directional scans per sub-band instead of one."""
    length = (h // 2) * (w // 2)
    return (
        haar_macs(channels, h, w)
        + 4 * 4 * scan_macs(length, channels, state_dim, selective)
        + haar_macs(channels, h, w)
    )


def _lgb_macs(channels: int, h: int, w: int, letter: str, ratio: int = 4,
              eca_kernel: int = 3, gse_reduction: int = 4) -> int:
    inner = channels // ratio
    total = conv_macs(h, w, channels, inner, 1)
    total += depthwise_macs(h, w, inner, 3)
    total += conv_macs(h, w, inner, channels, 1)
    if letter == "E":
        total += channels * eca_kernel
    else:
        hidden = max(1, channels // gse_reduction)
        total += channels * hidden * 2
    total += channels * h * w  # gate multiply
    return total


def _asgp_macs(channels: int, h: int, w: int, cfg: PipelineConfig) -> int:
    a = cfg.asgp
    d = channels
    hw = h * w
    total = dense_macs(hw, channels, d)  # key projection
    total += a.probes * hw * d  # attention logits
    total += 2 * a.probes * hw  # softmax + mean
    per_step = (
        a.probes * channels * 4  # feature sampling
        + a.probes * (channels * d + d * 2)  # offset head
        + a.probes * 4  # gradient sampling
        + a.probes * a.probes * 4  # pairwise forces
    )
    total += a.steps * per_step
    total += a.probes * channels  # score head
    total += a.probes * hw * 3  # splats
    total += 3 * channels * hw  # gating the three detail bands
    return total


def flop_estimate(cfg: PipelineConfig | None = None,
                  input_shape: tuple[int, int] = (256, 256)) -> dict[str, int]:
    """Per-component MAC counts for a full forward pass, plus 'total'."""
    cfg = cfg or PipelineConfig()
    h, w = input_shape
    report: dict[str, int] = {}
    report["stem"] = conv_macs(h, w, 1, cfg.channels[0], cfg.stem_kernel, cfg.stem_stride)
    sh, sw = -(-h // cfg.stem_stride), -(-w // cfg.stem_stride)
    taps = []
    for stage, ch in enumerate(cfg.channels, start=1):
        bh, bw = sh // 2, sw // 2
        hidden = align_hidden(ch)
        report[f"s{stage}.align"] = (
            conv_macs(bh, bw, 3 * ch, hidden, 3)
            + conv_macs(bh, bw, hidden, 2, 3)
            + resize_macs(ch, bh, bw)
        )
        report[f"s{stage}.scan"] = fa_scan_macs(ch, bh, bw, cfg.state_dim)
        report[f"s{stage}.lgb"] = _lgb_macs(ch, bh, bw, cfg.lgb_config(stage).letter)
        report[f"s{stage}.asgp"] = 0 if cfg.gate_mode == "unit" else _asgp_macs(ch, bh, bw, cfg)
        report[f"s{stage}.merge"] = 2 * haar_macs(ch, sh, sw)
        taps.append((ch, sh, sw))
        if stage < STAGES:
            nxt = cfg.channels[stage]
            report[f"down{stage}"] = conv_macs(sh, sw, ch, nxt, 3, 2)
            sh, sw = sh // 2, sw // 2
    ce = cfg.decoder_channels
    out_h, out_w = taps[0][1], taps[0][2]
    gfa_total = 0
    for level, (ch, th, tw) in enumerate(taps, start=1):
        gfa_total += conv_macs(th, tw, ch, ce, 1)
        if (th, tw) != (out_h, out_w):
            gfa_total += resize_macs(ce, out_h, out_w)
        gfa_total += 2 * ce * max(1, ce // 4)
        gfa_total += ce * out_h * out_w  # gate multiply
    gfa_total += conv_macs(out_h, out_w, ce, ce, 3)
    report["gfa"] = gfa_total
    # brm carries the folded head: one depthwise, the head and context
    # projections to one channel, and the edge branch as a ce->1 3x3 conv.
    report["brm"] = (
        depthwise_macs(out_h, out_w, ce, 3)
        + 2 * conv_macs(out_h, out_w, ce, 1, 1)
        + conv_macs(out_h, out_w, ce, 1, 3)
    )
    report["head"] = out_h * out_w  # the logistic
    if (out_h, out_w) != (h, w):
        report["upsample"] = resize_macs(1, h, w)
    report["total"] = sum(report.values())
    return report
