"""Scan trajectories: bijective 2D -> 1D serialization orders and diagnostics.

Serialization order is treated as a modeling decision, not plumbing:
anisotropic structures stay contiguous only under a traversal that
matches their orientation.  The along-structure gap statistics measure
that for a given mask.  The locality cost is a coarser, mask-free
summary: the arithmetic mean 4-neighbour index gap.  It is dominated by
its largest gaps and grows at least linearly in N on an N x N grid for
any traversal, so it does not rank Hilbert above raster.

Hilbert and Z-order traversals are generated on the smallest enclosing
power-of-two square and filtered to in-bounds cells, preserving visit
order.  Curves for a given square size are computed once and cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, InsufficientStructureError
from .grid import FeatureGrid


class ScanKind(str, Enum):
    RASTER = "raster"
    SNAKE = "snake"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    HILBERT = "hilbert"
    ZORDER = "zorder"


_KIND_ALIASES = {
    "raster": ScanKind.RASTER,
    "snake": ScanKind.SNAKE,
    "h": ScanKind.HORIZONTAL,
    "horz": ScanKind.HORIZONTAL,
    "horizontal": ScanKind.HORIZONTAL,
    "v": ScanKind.VERTICAL,
    "vert": ScanKind.VERTICAL,
    "vertical": ScanKind.VERTICAL,
    "hilbert": ScanKind.HILBERT,
    "z": ScanKind.ZORDER,
    "zorder": ScanKind.ZORDER,
    "z-order": ScanKind.ZORDER,
}


def parse_kind(token: str) -> ScanKind:
    key = token.strip().lower()
    if key not in _KIND_ALIASES:
        raise ValueError(f"unknown scan kind {token!r} (choices: {sorted(set(_KIND_ALIASES))})")
    return _KIND_ALIASES[key]


@dataclass(frozen=True, eq=False)
class ScanOrder:
    """A bijective visiting order over an H x W lattice.

    forward[r * W + c] is the 1-D position at which cell (r, c) is visited;
    inverse[k] is the row-major linear index of the k-th visited cell.
    Orders are cached and shared, so both arrays are read-only.
    """

    kind: ScanKind
    height: int
    width: int
    forward: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    def visit_coords(self) -> np.ndarray:
        """(H*W, 2) array of (row, col) pairs in visiting order."""
        return np.stack(np.divmod(self.inverse, self.width), axis=1)


@functools.lru_cache(maxsize=8)
def _hilbert_square(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) visit positions of the canonical order-k Hilbert curve."""
    n = 1 << k
    d = np.arange(n * n, dtype=np.int64)
    t = d.copy()
    x = np.zeros(n * n, dtype=np.int64)
    y = np.zeros(n * n, dtype=np.int64)
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        flip = (ry == 0) & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        x = x + s * rx
        y = y + s * ry
        t //= 4
        s *= 2
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def _morton_codes(rows: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    code = np.zeros(rows.shape, dtype=np.int64)
    for bit in range(k):
        code |= ((cols >> bit) & 1) << (2 * bit)
        code |= ((rows >> bit) & 1) << (2 * bit + 1)
    return code


def _enclosing_order(height: int, width: int) -> int:
    k = 0
    while (1 << k) < max(height, width):
        k += 1
    return k


@functools.lru_cache(maxsize=256)
def build_scan_order(kind: ScanKind, height: int, width: int) -> ScanOrder:
    """Construct (and cache) the deterministic order for a kind and lattice size."""
    kind = ScanKind(kind)
    if height < 1 or width < 1:
        raise DimensionError(f"lattice dimensions must be positive, got {height}x{width}")
    cells = np.arange(height * width, dtype=np.int64)
    if kind in (ScanKind.RASTER, ScanKind.HORIZONTAL):
        inverse = cells
    elif kind is ScanKind.VERTICAL:
        inverse = cells.reshape(height, width).T.ravel()
    elif kind is ScanKind.SNAKE:
        grid = cells.reshape(height, width).copy()
        grid[1::2] = grid[1::2, ::-1]
        inverse = grid.ravel()
    elif kind is ScanKind.HILBERT:
        k = _enclosing_order(height, width)
        x, y = _hilbert_square(k)
        keep = (x < width) & (y < height)
        inverse = (y[keep] * width + x[keep]).astype(np.int64)
    elif kind is ScanKind.ZORDER:
        k = _enclosing_order(height, width)
        rows, cols = np.divmod(cells, width)
        order = np.argsort(_morton_codes(rows, cols, k), kind="stable")
        inverse = cells[order]
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(kind)
    forward = np.empty_like(inverse)
    forward[inverse] = cells
    forward.flags.writeable = False
    inverse.flags.writeable = False
    return ScanOrder(kind=kind, height=height, width=width, forward=forward, inverse=inverse)


def serialize(grid: FeatureGrid, order: ScanOrder) -> np.ndarray:
    """Flatten a grid into per-channel 1-D sequences (C, H*W) in visiting order."""
    if (grid.height, grid.width) != (order.height, order.width):
        raise DimensionError(
            f"grid {grid.height}x{grid.width} does not match order "
            f"{order.height}x{order.width}"
        )
    flat = grid.data.reshape(grid.channels, -1)
    return flat[:, order.inverse]


def deserialize(seq: np.ndarray, order: ScanOrder) -> FeatureGrid:
    """Exact inverse of serialize: a pure index permutation, no arithmetic."""
    seq = np.asarray(seq)
    if seq.ndim == 1:
        seq = seq[None, :]
    if seq.shape[1] != order.height * order.width:
        raise DimensionError(
            f"sequence length {seq.shape[1]} does not match lattice "
            f"{order.height}x{order.width}"
        )
    flat = seq[:, order.forward]
    return FeatureGrid(flat.reshape(seq.shape[0], order.height, order.width))


def locality_cost(order: ScanOrder) -> float:
    """Arithmetic mean |forward(u) - forward(v)| over all 4-neighbor lattice pairs.

    The mean is tail-dominated: pairs that straddle a curve's quadrant
    boundaries have gaps that grow like N^2, and no traversal of an N x N
    grid brings it below order N (the grid's minimum linear arrangement
    is Theta(N^3) over 2N(N-1) pairs).  Raster gives exactly (N+1)/2, and
    Hilbert gives more (71/14 against 9/2 at 8 x 8), although Hilbert's
    typical (geometric-mean) gap is the smaller one.  So it does not rank
    Hilbert above raster; along_structure_gaps measures contiguity along
    a mask.
    """
    if order.height < 2 or order.width < 2:
        raise DimensionError("locality cost needs H, W >= 2")
    pos = order.forward.reshape(order.height, order.width)
    horiz = np.abs(pos[:, 1:] - pos[:, :-1])
    vert = np.abs(pos[1:, :] - pos[:-1, :])
    total = int(horiz.sum()) + int(vert.sum())
    return total / (horiz.size + vert.size)


@dataclass(frozen=True)
class GapStats:
    """1-D index gaps between consecutive structure pixels under an order."""

    mean: float
    max: int
    unit_fraction: float
    count: int


def along_structure_gaps(mask: FeatureGrid, order: ScanOrder) -> GapStats:
    """Gap statistics of a binary mask's pixels in scan-index order."""
    if (mask.height, mask.width) != (order.height, order.width):
        raise DimensionError("mask dimensions do not match scan order")
    cells = np.flatnonzero(mask.data.reshape(mask.channels, -1).max(axis=0) > 0)
    if cells.size < 2:
        raise InsufficientStructureError(
            f"need >= 2 structure pixels, found {cells.size}"
        )
    idx = np.sort(order.forward[cells])
    gaps = np.diff(idx)
    return GapStats(
        mean=float(gaps.mean()),
        max=int(gaps.max()),
        unit_fraction=float(np.mean(gaps == 1)),
        count=int(gaps.size),
    )
