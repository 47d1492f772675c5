"""Feature grids, normalized coordinates, and bilinear sampling.

Coordinate convention (used everywhere in this package): normalized
coordinates live in [-1, 1] and are corner-aligned, i.e. x = -1 maps to
column 0 and x = +1 maps to column W - 1 via ``col = (x + 1) * (W - 1) / 2``
(same for y and rows).  Coordinates outside [-1, 1] clamp to the border
(edge replication), and the sampled surface has zero derivative in the
clamped direction there.  A grid that is 1 wide (or 1 tall) maps every
coordinate to index 0 on that axis.

Sampling has one corner lookup (``_corners``: clamped corner indices,
fractions and clamp flags), one bilinear blend and one gradient formula.
``sample_px``, ``bilinear_sample`` and ``bilinear_gradient`` are thin
wrappers over them, and ``asgp.evolve_probes`` shares one lookup per
step between the carrier features and the potential's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

# Bytes per channel block of resize_bilinear's row-pass and output planes,
# as nn._DEPTHWISE_BLOCK_BYTES: about 1 MB keeps the block's scratch near L2.
_RESIZE_BLOCK_BYTES = 1 << 20


class NormCoord(NamedTuple):
    """A point in normalized [-1, 1]^2 image space."""

    x: float
    y: float


@dataclass(frozen=True, eq=False)
class FeatureGrid:
    """A C x H x W grid of finite real values (channel-major, row-major).

    The universal carrier for features, masks and wavelet sub-bands.
    ``FeatureGrid(data)`` checks a caller's array: float64, rank 3,
    positive sides, finite values.  Layers wrap the grids they compute
    with ``_of``, unchecked.  ``data`` is not copied; treat grids as immutable.
    """

    data: np.ndarray

    @classmethod
    def _of(cls, arr: np.ndarray) -> "FeatureGrid":
        """Wrap a (C,H,W) array the package computed: no cast, copy or check."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "data", arr)
        return grid

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
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return arr


def _lerp_indices(pos, size: int):
    """Clamp pixel positions on an axis of ``size`` to [0, size - 1].

    Returns (i0, i1, frac, clamped): the enclosing indices, the weight of
    i1 in [0, 1], and where the clamp moved a position.  A size-1 axis
    collapses to index 0 with frac 0 and counts every position as clamped.
    """
    if size == 1:
        idx = np.zeros(np.shape(pos), dtype=np.intp)
        return idx, idx, np.zeros(np.shape(pos)), np.ones(np.shape(pos), dtype=bool)
    # Two ufuncs, not np.clip: its Python wrapper costs more than both on probe-sized arrays.
    clipped = np.minimum(np.maximum(pos, 0.0), size - 1.0)
    i0 = np.minimum(np.floor(clipped).astype(np.intp), size - 2)
    return i0, i0 + 1, clipped - i0, clipped != pos


class _Corners(NamedTuple):
    """The lattice corners around a set of positions on an H x W grid.

    (r0, c0) is each position's upper-left corner and (r1, c1) its
    lower-right one; fx and fy are the weights of c1 and r1.  x_clamped and
    y_clamped mark positions that fell outside the grid on that axis.
    """

    r0: np.ndarray
    r1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    x_clamped: np.ndarray
    y_clamped: np.ndarray


def _corners(cols, rows, h: int, w: int) -> _Corners:
    """Corner lookup of pixel positions ``cols``, ``rows`` (equal shapes) on an h x w grid."""
    c0, c1, fx, x_clamped = _lerp_indices(cols, w)
    r0, r1, fy, y_clamped = _lerp_indices(rows, h)
    return _Corners(r0, r1, c0, c1, fx, fy, x_clamped, y_clamped)


def _norm_corners(pts: np.ndarray, h: int, w: int) -> _Corners:
    """Corner lookup of an (N, 2) array of finite normalized (x, y) coordinates."""
    px = (pts + 1.0) * np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    return _corners(px[:, 0], px[:, 1], h, w)


def _blend(data: np.ndarray, k: _Corners) -> np.ndarray:
    """Bilinear blend of a (C,H,W) array at corners ``k`` of positions of shape S; (C, *S)."""
    # The four gathers are fresh copies, so the blend runs in place on them.
    top = data[:, k.r0, k.c0]
    right = data[:, k.r0, k.c1]
    bot = data[:, k.r1, k.c0]
    bot_right = data[:, k.r1, k.c1]
    wx = 1.0 - k.fx
    top *= wx
    right *= k.fx
    top += right
    bot *= wx
    bot_right *= k.fx
    bot += bot_right
    top *= 1.0 - k.fy
    bot *= k.fy
    top += bot
    return top


def _slope(field: np.ndarray, k: _Corners) -> np.ndarray:
    """Normalized-unit gradient (N, 2) of an (H,W) field's bilinear surface at corners ``k``.

    The derivative normal to a clamped border is zero.
    """
    h, w = field.shape
    v00 = field[k.r0, k.c0]
    v01 = field[k.r0, k.c1]
    v10 = field[k.r1, k.c0]
    v11 = field[k.r1, k.c1]
    ddcol = (1.0 - k.fy) * (v01 - v00) + k.fy * (v11 - v10)
    ddrow = (1.0 - k.fx) * (v10 - v00) + k.fx * (v11 - v01)
    gx = ddcol * ((w - 1) / 2.0)
    gy = ddrow * ((h - 1) / 2.0)
    gx[k.x_clamped] = 0.0
    gy[k.y_clamped] = 0.0
    return np.stack([gx, gy], axis=1)


def sample_px(data: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bilinear sample a (C,H,W) array at pixel-space positions, clamping to borders.

    ``cols`` and ``rows`` are float arrays of equal shape S; returns (C, *S).
    Integer positions reproduce stored values exactly.
    """
    _, h, w = data.shape
    return _blend(data, _corners(cols, rows, h, w))


def bilinear_sample(grid: FeatureGrid, coords) -> np.ndarray:
    """Sample a grid at normalized coordinates.

    Args:
        grid: source C x H x W grid.
        coords: NormCoord, (x, y) pair, sequence of them, or an (N, 2) array.

    Returns:
        (N, C) array of per-coordinate channel vectors.
    """
    pts = as_coord_array(coords)
    return _blend(grid.data, _norm_corners(pts, grid.height, grid.width)).T


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
    out = _slope(grid.data[0], _norm_corners(pts, grid.height, grid.width))
    return out[0] if single else out


def _resize_axis(data: np.ndarray, axis: int, out_size: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Corner-aligned linear resize of a (C, H, W) array along axis 1 or 2.

    Gathers the lower neighbours into the output and blends the upper
    neighbours' gather, the only temporary, into it.  The output is ``out``
    when given; otherwise a new array, or ``data`` itself when the size is
    unchanged.
    """
    size = data.shape[axis]
    if out_size == size and out is None:
        return data
    out_shape = list(data.shape)
    out_shape[axis] = out_size
    if out is None:
        out = np.empty(out_shape)
    if out_size == size or size == 1:
        out[...] = data  # a size-1 axis broadcasts to every output position
        return out
    i0, i1, frac, _ = _lerp_indices(np.linspace(0.0, size - 1.0, out_size), size)
    if axis == 1:
        frac = frac[:, None]  # broadcast over the columns
    np.take(data, i0, axis=axis, out=out, mode="clip")
    up = np.take(data, i1, axis=axis, mode="clip")
    out *= 1.0 - frac
    up *= frac
    out += up
    return out


def resize_bilinear(grid: FeatureGrid, out_h: int, out_w: int) -> FeatureGrid:
    """Resize a grid with corner-aligned bilinear interpolation (separable).

    Both passes run on one block of whole channels at a time, as many as
    fit _RESIZE_BLOCK_BYTES of row-pass and output planes (at least one),
    straight into the new output, so no full row-pass intermediate is
    built.  Each channel is resized on its own, so the blocking does not
    change a value.
    """
    if out_h < 1 or out_w < 1:
        raise DimensionError("target size must be positive")
    data = grid.data
    channels, _, in_w = data.shape
    out = np.empty((channels, out_h, out_w))
    block = max(1, _RESIZE_BLOCK_BYTES // (8 * out_h * (in_w + out_w)))
    for start in range(0, channels, block):
        part = slice(start, start + block)
        _resize_axis(_resize_axis(data[part], 1, out_h), 2, out_w, out=out[part])
    return FeatureGrid._of(out)
