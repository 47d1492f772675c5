"""Named parameter blocks with deterministic seeded initialization.

No trained checkpoint exists for this toolkit, so every consumer either
loads a .fgw file or draws weights from ``seeded_init``: uniform in
(-1/sqrt(fan_in), 1/sqrt(fan_in)) where fan_in is the product of all but
the leading dimension (the full length for rank-1 blocks).  Draws are
quantized to float32 so that save/load through the float32 file format
round-trips bit-exactly.

A rank-4 kernel that conv2d runs tap-major at stride 1 (fewer output than
input channels: the ``align`` kernels of the pipeline) is held in
(kh, kw, C_out, C_in) order, the layout conv2d's tap-major GEMM reads,
and handed out as a (C_out, C_in, kh, kw) view of that buffer.  conv2d
then reads it without copying it, and the .fgw bytes do not change.  The
store holds its own copy of such a block, never the caller's array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import fileio
from .errors import DimensionError, InputError, MissingBlockError
from .nn import _tap_major


class WeightStore:
    """An ordered mapping of block name -> float64 ndarray.

    A tap-major kernel is held as a copy in tap order (see the module
    docstring); every other block may share the caller's float64 array.
    """

    def __init__(self, blocks: dict[str, np.ndarray] | None = None):
        self._blocks: dict[str, np.ndarray] = {}
        for name, arr in (blocks or {}).items():
            self[name] = arr

    def __setitem__(self, name: str, arr) -> None:
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 4 and _tap_major(arr.shape[0], arr.shape[1]):
            arr = np.ascontiguousarray(arr.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        self._blocks[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._blocks:
            raise MissingBlockError(f"weight block {name!r} not found")
        return self._blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def names(self) -> list[str]:
        return list(self._blocks)

    def items(self):
        return self._blocks.items()

    def get(self, name: str, shape: Sequence[int]) -> np.ndarray:
        """Fetch a block, validating its declared shape."""
        arr = self[name]
        if arr.shape != tuple(shape):
            raise DimensionError(
                f"block {name!r} has shape {arr.shape}, consumer expects {tuple(shape)}"
            )
        return arr

    def save(self, path) -> None:
        fileio.write_store(path, self._blocks)

    @classmethod
    def load(cls, path) -> "WeightStore":
        """Read a .fgw bundle, rejecting by name any block with NaN or an infinity.

        An ``ssm.a_log`` block may hold -inf, the integrator limit SsmParams accepts.
        """
        blocks = fileio.read_store(path)
        for name, arr in blocks.items():
            bad = ~np.isfinite(arr)
            if ("." + name).endswith(".ssm.a_log"):
                bad &= ~np.isneginf(arr)
            if bad.any():
                raise InputError(f"weight block {name!r} in {path} holds "
                                 f"{np.count_nonzero(bad)} non-finite value(s)")
        return cls(blocks)


def seeded_init(spec: Iterable[tuple[str, Sequence[int]]], seed: int) -> WeightStore:
    """Build a WeightStore from (name, shape) pairs, deterministically per seed."""
    rng = np.random.default_rng(seed)
    store = WeightStore()
    for name, shape in spec:
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape) or not shape:
            raise DimensionError(f"block {name!r} has non-positive shape {shape}")
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        values = rng.uniform(-bound, bound, size=shape)
        store[name] = values.astype(np.float32).astype(np.float64)
    return store
