"""Feature grids, normalized coordinates, and bilinear sampling.

Coordinate convention (used everywhere in this package): normalized
coordinates live in [-1, 1] and are corner-aligned, i.e. x = -1 maps to
column 0 and x = +1 maps to column W - 1 via ``col = (x + 1) * (W - 1) / 2``
(same for y and rows).  Coordinates outside [-1, 1] clamp to the border
(edge replication), and the sampled surface has zero derivative in the
clamped direction there.  A grid that is 1 wide (or 1 tall) maps every
coordinate to index 0 on that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class NormCoord(NamedTuple):
    """A point in normalized [-1, 1]^2 image space."""

    x: float
    y: float

    def clamped(self) -> "NormCoord":
        return NormCoord(min(max(self.x, -1.0), 1.0), min(max(self.y, -1.0), 1.0))


@dataclass(frozen=True, eq=False)
class FeatureGrid:
    """A C x H x W grid of finite real values (channel-major, row-major).

    The universal carrier for features, masks and wavelet sub-bands.
    ``data`` is held as float64 and is not copied defensively; treat
    grids as immutable.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionError(f"grid data must be rank 3 (C,H,W), got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"grid dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureGrid":
        return cls(np.zeros((channels, height, width)))

    @classmethod
    def full(cls, channels: int, height: int, width: int, value: float) -> "FeatureGrid":
        return cls(np.full((channels, height, width), float(value)))


# A Mask is just a single-channel FeatureGrid.
Mask = FeatureGrid


def require_single_channel(grid: FeatureGrid, what: str = "grid") -> None:
    if grid.channels != 1:
        raise DimensionError(f"{what} must be single-channel, got {grid.channels} channels")


def as_coord_array(coords) -> np.ndarray:
    """Convert NormCoord / tuple / array input to a finite (N, 2) float array."""
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != 2:
            raise DimensionError(f"a coordinate needs 2 components, got {arr.shape[0]}")
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError(f"coordinates must have shape (N, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def _lerp_indices(pos, size: int):
    """Clamp pixel positions on an axis of ``size`` to [0, size - 1].

    Returns (i0, i1, frac): the enclosing indices and the weight of i1, in
    [0, 1].  A size-1 axis collapses to index 0 with frac 0.
    """
    if size == 1:
        idx = np.zeros(np.shape(pos), dtype=np.intp)
        return idx, idx, np.zeros(np.shape(pos))
    pos = np.clip(pos, 0.0, float(size - 1))
    i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
    return i0, i0 + 1, pos - i0


def _axis_positions(norm: np.ndarray, size: int):
    """Map normalized coords on one axis to clamped pixel positions.

    Returns (i0, i1, frac, clamped_mask) as ``_lerp_indices`` does, plus
    where the coordinate fell outside the axis (everywhere on a size-1 axis).
    """
    pos = (norm + 1.0) * ((size - 1) / 2.0)
    if size == 1:
        clamped = np.ones(norm.shape, dtype=bool)
    else:
        clamped = (pos < 0.0) | (pos > size - 1.0)
    return (*_lerp_indices(pos, size), clamped)


def sample_px(data: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bilinear sample a (C,H,W) array at pixel-space positions, clamping to borders.

    ``cols`` and ``rows`` are float arrays of equal shape S; returns (C, *S).
    Integer positions reproduce stored values exactly.
    """
    _, h, w = data.shape
    c0, c1, fx = _lerp_indices(cols, w)
    r0, r1, fy = _lerp_indices(rows, h)
    # The four gathers are fresh copies, so the blend runs in place on them.
    top = data[:, r0, c0]
    right = data[:, r0, c1]
    bot = data[:, r1, c0]
    bot_right = data[:, r1, c1]
    wx = 1.0 - fx
    top *= wx
    right *= fx
    top += right
    bot *= wx
    bot_right *= fx
    bot += bot_right
    top *= 1.0 - fy
    bot *= fy
    top += bot
    return top


def bilinear_sample(grid: FeatureGrid, coords) -> np.ndarray:
    """Sample a grid at normalized coordinates.

    Args:
        grid: source C x H x W grid.
        coords: NormCoord, (x, y) pair, sequence of them, or an (N, 2) array.

    Returns:
        (N, C) array of per-coordinate channel vectors.
    """
    pts = as_coord_array(coords)
    w, h = grid.width, grid.height
    cols = (pts[:, 0] + 1.0) * ((w - 1) / 2.0) if w > 1 else np.zeros(len(pts))
    rows = (pts[:, 1] + 1.0) * ((h - 1) / 2.0) if h > 1 else np.zeros(len(pts))
    return sample_px(grid.data, cols, rows).T


def bilinear_gradient(grid: FeatureGrid, coords) -> np.ndarray:
    """Analytic spatial gradient of the bilinear surface of a single-channel grid.

    Includes the (W-1)/2 and (H-1)/2 chain-rule factors from normalized
    coordinates, so the result is d(value)/d(x, y) in normalized units.
    The derivative normal to a clamped border is zero.

    Returns (N, 2) for coordinate arrays, or (2,) for a single coordinate.
    """
    require_single_channel(grid)
    pts = as_coord_array(coords)
    single = np.asarray(coords, dtype=np.float64).ndim == 1 or isinstance(coords, NormCoord)
    data = grid.data[0]
    h, w = data.shape
    c0, c1, fx, cx_clamped = _axis_positions(pts[:, 0], w)
    r0, r1, fy, cy_clamped = _axis_positions(pts[:, 1], h)
    v00 = data[r0, c0]
    v01 = data[r0, c1]
    v10 = data[r1, c0]
    v11 = data[r1, c1]
    ddcol = (1.0 - fy) * (v01 - v00) + fy * (v11 - v10)
    ddrow = (1.0 - fx) * (v10 - v00) + fx * (v11 - v01)
    gx = ddcol * ((w - 1) / 2.0)
    gy = ddrow * ((h - 1) / 2.0)
    gx[cx_clamped] = 0.0
    gy[cy_clamped] = 0.0
    out = np.stack([gx, gy], axis=1)
    return out[0] if single else out


def _resize_axis(data: np.ndarray, axis: int, out_size: int) -> np.ndarray:
    """Corner-aligned linear resize of a (C, H, W) array along axis 1 or 2.

    Blends one channel at a time into a preallocated output, so the only
    temporary is one channel's upper-neighbour gather.
    """
    size = data.shape[axis]
    if out_size == size:
        return data
    if size == 1:
        return np.repeat(data, out_size, axis=axis)
    pos = np.linspace(0.0, size - 1.0, out_size)
    i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
    frac = pos - i0
    shape = [1] * (data.ndim - 1)
    shape[axis - 1] = out_size
    frac = frac.reshape(shape)
    wlo = 1.0 - frac
    out_shape = list(data.shape)
    out_shape[axis] = out_size
    out = np.empty(out_shape)
    hi = np.empty(out_shape[1:])
    for lo, src in zip(out, data):
        np.take(src, i0, axis=axis - 1, out=lo, mode="clip")
        np.take(src, i0 + 1, axis=axis - 1, out=hi, mode="clip")
        lo *= wlo
        hi *= frac
        lo += hi
    return out


def resize_bilinear(grid: FeatureGrid, out_h: int, out_w: int) -> FeatureGrid:
    """Resize a grid with corner-aligned bilinear interpolation (separable)."""
    if out_h < 1 or out_w < 1:
        raise DimensionError("target size must be positive")
    data = _resize_axis(grid.data, 1, out_h)
    data = _resize_axis(data, 2, out_w)
    return FeatureGrid(np.ascontiguousarray(data))
