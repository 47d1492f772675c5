"""Orthonormal single-level 2-D Haar analysis / synthesis.

Per 2x2 block [[a, b], [c, d]] the four coefficients are

    LL = (a + b + c + d) / 2      LH = (a + b - c - d) / 2
    HL = (a - b + c - d) / 2      HH = (a - b - c + d) / 2

i.e. 1/2-scaled Hadamard mixing, which is orthonormal (energy-preserving)
and self-inverse.  Band naming: first letter is the filter along the
horizontal axis, second along the vertical axis, so LH responds to
horizontal structures and HL to vertical ones.

Both directions compute these formulas in lifting form (Sweldens, "The
lifting scheme", 1996): sums and differences over row pairs, then over
column pairs.  The analysis halves the row pairs, s = (a + c, b + d) / 2
and t = (a - c, b - d) / 2, and the column butterflies of s give LL and
HL, those of t give LH and HH.  The synthesis runs the same butterflies
backwards.  Each works on blocks of whole channels, as many as fit
_HAAR_BLOCK_BYTES of the full-resolution grid (at least one), through
two scratch arrays of that block's size, so every pass stays near L2.
dwt_haar writes all four bands into one (4, C, h, w) buffer and returns
views of it; idwt_haar writes a fresh output and never its input bands.
Neither keeps state between calls.

Odd input dimensions are edge-replicated to even before the transform;
the inverse crops back to the requested target size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .grid import FeatureGrid

# Full-resolution bytes per channel block of dwt_haar and idwt_haar, as
# nn._DEPTHWISE_BLOCK_BYTES and grid._RESIZE_BLOCK_BYTES: about 1 MB keeps
# the block and its two half-size scratch arrays near L2.
_HAAR_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class SubbandSet:
    """The four half-resolution Haar bands of a grid."""

    ll: FeatureGrid
    lh: FeatureGrid
    hl: FeatureGrid
    hh: FeatureGrid

    def __post_init__(self):
        shapes = {b.shape for b in (self.ll, self.lh, self.hl, self.hh)}
        if len(shapes) != 1:
            raise DimensionError(f"sub-bands must share one shape, got {sorted(shapes)}")

    def high(self) -> tuple[FeatureGrid, FeatureGrid, FeatureGrid]:
        return self.lh, self.hl, self.hh


def _channel_block(channels: int, plane_bytes: int) -> int:
    """Channels per block: as many full-resolution planes as fit the budget, at least one."""
    return max(1, min(channels, _HAAR_BLOCK_BYTES // plane_bytes))


def dwt_haar(x: FeatureGrid) -> SubbandSet:
    """Split a grid into LL/LH/HL/HH half-resolution bands."""
    if x.height < 2 or x.width < 2:
        raise DimensionError(f"transform needs H, W >= 2, got {x.height}x{x.width}")
    data = x.data
    ph, pw = x.height % 2, x.width % 2
    if ph or pw:
        data = np.pad(data, ((0, 0), (0, ph), (0, pw)), mode="edge")
    ch, height, width = data.shape
    bands = np.empty((4, ch, height // 2, width // 2))
    ll, lh, hl, hh = bands
    block = _channel_block(ch, data[0].nbytes)
    rows_sum = np.empty((block, height // 2, width))
    rows_diff = np.empty_like(rows_sum)
    for start in range(0, ch, block):
        stop = min(start + block, ch)
        src = data[start:stop]
        s, t = rows_sum[:stop - start], rows_diff[:stop - start]
        np.add(src[:, 0::2], src[:, 1::2], out=s)
        np.subtract(src[:, 0::2], src[:, 1::2], out=t)
        s *= 0.5
        t *= 0.5
        np.add(s[:, :, 0::2], s[:, :, 1::2], out=ll[start:stop])
        np.subtract(s[:, :, 0::2], s[:, :, 1::2], out=hl[start:stop])
        np.add(t[:, :, 0::2], t[:, :, 1::2], out=lh[start:stop])
        np.subtract(t[:, :, 0::2], t[:, :, 1::2], out=hh[start:stop])
    return SubbandSet(ll=FeatureGrid._of(ll), lh=FeatureGrid._of(lh),
                      hl=FeatureGrid._of(hl), hh=FeatureGrid._of(hh))


def idwt_haar(s: SubbandSet, target_h: int | None = None, target_w: int | None = None) -> FeatureGrid:
    """Reconstruct a grid from its bands; exact inverse of dwt_haar on even dims."""
    ll, lh, hl, hh = s.ll.data, s.lh.data, s.hl.data, s.hh.data
    ch, bh, bw = ll.shape
    target_h = 2 * bh if target_h is None else int(target_h)
    target_w = 2 * bw if target_w is None else int(target_w)
    if not (2 * bh - 1 <= target_h <= 2 * bh and 2 * bw - 1 <= target_w <= 2 * bw):
        raise DimensionError(
            f"target {target_h}x{target_w} incompatible with band shape {bh}x{bw}"
        )
    out = np.empty((ch, 2 * bh, 2 * bw))
    block = _channel_block(ch, out[0].nbytes)
    # Interleaved columns of the row-pair sums (a + c, b + d) and differences (a - c, b - d).
    rows_sum = np.empty((block, bh, 2 * bw))
    rows_diff = np.empty_like(rows_sum)
    for start in range(0, ch, block):
        stop = min(start + block, ch)
        sl = slice(start, stop)
        p, q = rows_sum[:stop - start], rows_diff[:stop - start]
        np.add(ll[sl], hl[sl], out=p[:, :, 0::2])
        np.subtract(ll[sl], hl[sl], out=p[:, :, 1::2])
        np.add(lh[sl], hh[sl], out=q[:, :, 0::2])
        np.subtract(lh[sl], hh[sl], out=q[:, :, 1::2])
        p *= 0.5
        q *= 0.5
        np.add(p, q, out=out[sl, 0::2])
        np.subtract(p, q, out=out[sl, 1::2])
    return FeatureGrid._of(out[:, :target_h, :target_w])
