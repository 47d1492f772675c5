"""Geometry-aligned encoder block pieces.

fa_scan runs a local Haar split on the (already aligned) topology
carrier, serializes each sub-band along a traversal matched to its
dominant orientation, pushes every sequence through one shared scan
operator, and merges the results back.  cross_scan is the isotropic
comparison baseline: the same shared operator applied along four raster
directions per sub-band, outputs averaged.

lgb is the residual LightGate Bottleneck mixer: a C -> C/r -> C
bottleneck with a 3x3 depthwise conv inside, modulated by a per-stage
channel gate and added back to the input.  The stage's letter of the
policy picks the gate: "E" for an ECA-style 1-D conv (early stages), "G"
for squeeze/excite (late stages).  The squeeze/excite block (_se_spec,
_se_gate) is also the per-level channel gate of pipeline.gfa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .grid import FeatureGrid
from .nn import conv1x1, depthwise_conv2d, global_avg_pool, relu, sigmoid
from .scanorder import ScanKind, build_scan_order, deserialize, parse_kind, serialize
from .ssm import SsmParams, _affine_recurrence, _coefficients, ssm_scan_parallel
from .wavelet import SubbandSet, dwt_haar, idwt_haar
from .weights import WeightStore


@dataclass(frozen=True)
class ScanAssignment:
    """Traversal kind per sub-band path."""

    ll: ScanKind = ScanKind.HILBERT
    lh: ScanKind = ScanKind.HORIZONTAL
    hl: ScanKind = ScanKind.VERTICAL
    hh: ScanKind = ScanKind.HILBERT

    @classmethod
    def uniform(cls, kind: ScanKind) -> "ScanAssignment":
        return cls(ll=kind, lh=kind, hl=kind, hh=kind)

    @classmethod
    def swapped(cls) -> "ScanAssignment":
        """Deliberately mismatched detail paths (LH vertical, HL horizontal)."""
        return cls(lh=ScanKind.VERTICAL, hl=ScanKind.HORIZONTAL)

    @classmethod
    def parse(cls, text: str) -> "ScanAssignment":
        """Parse e.g. 'll=hilbert,lh=h,hl=v,hh=hilbert' (missing keys keep defaults)."""
        kinds = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if key not in ("ll", "lh", "hl", "hh") or not value:
                raise ValueError(f"bad assignment entry {part!r}, want band=kind")
            kinds[key] = parse_kind(value)
        return cls(**kinds)

    def format(self) -> str:
        return f"ll={self.ll.value},lh={self.lh.value},hl={self.hl.value},hh={self.hh.value}"


# The bottleneck's C -> C / ratio, the ECA kernel and the squeeze/excite reduction.
_LGB_RATIO, _ECA_KERNEL, _SE_REDUCTION = 4, 3, 4


def _check_letter(letter: str) -> None:
    if letter not in ("E", "G"):
        raise ValueError(f"gate letter must be 'E' or 'G', got {letter!r}")


def _scan_band(band: FeatureGrid, kind: ScanKind, psi: SsmParams) -> FeatureGrid:
    order = build_scan_order(kind, band.height, band.width)
    seq = serialize(band, order).T  # (L, C) tokens
    return deserialize(ssm_scan_parallel(psi, seq).T, order)


def fa_scan(x_ll_aligned: FeatureGrid, psi: SsmParams,
            assign: ScanAssignment | None = None) -> FeatureGrid:
    """Orientation-matched scan of the topology carrier; shape-preserving.

    Odd dimensions follow the wavelet module's policy (edge replication
    in, crop out), so any H, W >= 2 works.  The carrier is dropped once
    it is split, so a caller that hands its only reference over
    (``fa_scan(held.pop(), ...)``) lets it be freed before the scans; a
    caller that keeps it gets the same output and finds it unchanged.
    """
    assign = assign or ScanAssignment()
    height, width = x_ll_aligned.height, x_ll_aligned.width
    bands = dwt_haar(x_ll_aligned)
    del x_ll_aligned
    out = SubbandSet(
        ll=_scan_band(bands.ll, assign.ll, psi),
        lh=_scan_band(bands.lh, assign.lh, psi),
        hl=_scan_band(bands.hl, assign.hl, psi),
        hh=_scan_band(bands.hh, assign.hh, psi),
    )
    return idwt_haar(out, height, width)


def _scan_four_directions(band: FeatureGrid, psi: SsmParams) -> FeatureGrid:
    """Average of four directional passes: left/right along rows, down/up
    along columns, each strip scanned independently with zero initial state.

    Every pass runs the sequential reference on step-first views of one
    (H, W, C, N) coefficient set: transposed for rows, as stored for
    columns, and reversed along the step axis for the backward passes.
    """
    c, h, w = band.shape
    tokens = band.data.reshape(c, -1).T
    decay, drive, c_t = _coefficients(psi, tokens)
    n = psi.state_dim
    decay = decay.reshape(h, w, c, n)
    drive = drive.reshape(h, w, c, n)
    c_grid = c_t.reshape(h, w, n)
    hs = np.empty_like(drive)
    acc = np.zeros((h, w, c))
    for axes in ((1, 0, 2, 3), (0, 1, 2, 3)):  # rows, then columns
        a, b, states = decay.transpose(axes), drive.transpose(axes), hs.transpose(axes)
        for step in (slice(None), slice(None, None, -1)):
            _affine_recurrence(a[step], b[step], states[step])
            acc += np.einsum("hwcn,hwn->hwc", hs, c_grid)
    out = acc / 4.0 + psi.d_skip * tokens.reshape(h, w, c)
    return FeatureGrid._of(np.ascontiguousarray(out.transpose(2, 0, 1)))


def cross_scan(x: FeatureGrid, psi: SsmParams) -> FeatureGrid:
    """Isotropic comparison baseline: four raster propagation directions
    per sub-band through the same shared operator, outputs averaged."""
    bands = dwt_haar(x)
    out = SubbandSet(
        ll=_scan_four_directions(bands.ll, psi),
        lh=_scan_four_directions(bands.lh, psi),
        hl=_scan_four_directions(bands.hl, psi),
        hh=_scan_four_directions(bands.hh, psi),
    )
    return idwt_haar(out, x.height, x.width)


def _lgb_inner(channels: int) -> int:
    if channels % _LGB_RATIO:
        raise DimensionError(f"mixer needs channels divisible by {_LGB_RATIO}, got {channels}")
    return channels // _LGB_RATIO


def _se_spec(prefix: str, channels: int) -> list[tuple[str, tuple]]:
    """Blocks of a squeeze/excite gate: C -> C / reduction -> C."""
    hidden = max(1, channels // _SE_REDUCTION)
    return [
        (prefix + "w1", (hidden, channels)),
        (prefix + "b1", (hidden,)),
        (prefix + "w2", (channels, hidden)),
        (prefix + "b2", (channels,)),
    ]


def _se_gate(pooled: np.ndarray, w: WeightStore, prefix: str) -> np.ndarray:
    """Squeeze/excite gate in (0, 1) of a pooled channel vector (Hu et al., CVPR 2018)."""
    w1, b1, w2, b2 = (w.get(name, shape) for name, shape in _se_spec(prefix, pooled.shape[0]))
    return sigmoid(w2 @ relu(w1 @ pooled + b1) + b2)


def lgb_weight_spec(channels: int, letter: str, prefix: str = "") -> list[tuple[str, tuple]]:
    _check_letter(letter)
    inner = _lgb_inner(channels)
    spec = [
        (prefix + "lgb.down_w", (inner, channels)),
        (prefix + "lgb.down_b", (inner,)),
        (prefix + "lgb.dw_w", (inner, 3, 3)),
        (prefix + "lgb.dw_b", (inner,)),
        (prefix + "lgb.up_w", (channels, inner)),
        (prefix + "lgb.up_b", (channels,)),
    ]
    if letter == "E":
        spec += [(prefix + "lgb.eca_w", (_ECA_KERNEL,)), (prefix + "lgb.eca_b", (1,))]
    else:
        spec += _se_spec(prefix + "lgb.gse_", channels)
    return spec


def lgb_gate(y: FeatureGrid, letter: str, w: WeightStore, prefix: str = "") -> np.ndarray:
    """Per-channel gate in (0, 1) selected by the stage's policy letter."""
    _check_letter(letter)
    pooled = global_avg_pool(y.data)
    if letter == "G":
        return _se_gate(pooled, w, prefix + "lgb.gse_")
    kernel = w.get(prefix + "lgb.eca_w", (_ECA_KERNEL,))
    bias = w.get(prefix + "lgb.eca_b", (1,))
    return sigmoid(np.correlate(pooled, kernel, mode="same") + bias[0])


def lgb(y: FeatureGrid, letter: str, w: WeightStore, prefix: str = "") -> FeatureGrid:
    """Residual gated bottleneck: y + gate(y) * bottleneck(y)."""
    channels = y.channels
    inner = _lgb_inner(channels)
    down_w = w.get(prefix + "lgb.down_w", (inner, channels))
    down_b = w.get(prefix + "lgb.down_b", (inner,))
    dw_w = w.get(prefix + "lgb.dw_w", (inner, 3, 3))
    dw_b = w.get(prefix + "lgb.dw_b", (inner,))
    up_w = w.get(prefix + "lgb.up_w", (channels, inner))
    up_b = w.get(prefix + "lgb.up_b", (channels,))
    branch = relu(conv1x1(y.data, down_w, down_b))
    branch = relu(depthwise_conv2d(branch, dw_w, dw_b))
    branch = conv1x1(branch, up_w, up_b)
    gate = lgb_gate(y, letter, w, prefix)
    return FeatureGrid._of(y.data + gate[:, None, None] * branch)
