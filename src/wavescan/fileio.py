"""Binary file formats: FGT1 tensors, .fgw weight bundles, and P5 PGM images.

FGT1 layout: magic bytes ``FGT1``, uint32-LE rank, rank x uint32-LE dims,
then float32-LE values in C order (channel-major, then row-major).

A .fgw bundle is a length-prefixed name table (uint32-LE count, then per
entry uint32-LE byte length + UTF-8 name) followed by that many FGT1
tensors in table order.

PGM files are binary P5, maxval 255; gray values map to [0, 1] floats.

The readers raise ``InputError`` for any malformed or truncated input,
naming the file (when the stream has a name) and the byte offset.  Header
counts and sizes are checked against the bytes left in the file before
anything is allocated for them.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DimensionError, InputError
from .grid import FeatureGrid

MAGIC = b"FGT1"
# numpy supports at most this many dimensions.
_MAX_RANK = 64


def write_tensor(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _where(fh: BinaryIO) -> str:
    name = getattr(fh, "name", None)
    return f" in {name}" if isinstance(name, str) else ""


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly count bytes, checking first that the stream still holds them."""
    offset = fh.tell()
    left = fh.seek(0, 2) - offset
    fh.seek(offset)
    if count > left:
        raise InputError(f"{what} needs {count} bytes at byte {offset} but "
                         f"{left} remain{_where(fh)}")
    return fh.read(count)


def _read_u32(fh: BinaryIO, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, what))[0]


def read_tensor(fh: BinaryIO) -> np.ndarray:
    """Read one FGT1 tensor from the stream's position, as float64."""
    offset = fh.tell()
    magic = _read_exact(fh, 4, "tensor magic")
    if magic != MAGIC:
        raise InputError(f"bad tensor magic {magic!r} at byte {offset}, expected "
                         f"{MAGIC!r}{_where(fh)}")
    rank = _read_u32(fh, "tensor rank")
    if rank > _MAX_RANK:
        raise InputError(f"tensor rank {rank} at byte {offset + 4} exceeds "
                         f"{_MAX_RANK}{_where(fh)}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{rank} tensor dims"))
    if math.prod(d or 1 for d in dims) * 8 > np.iinfo(np.intp).max:
        raise InputError(f"tensor dims {dims} at byte {offset + 8} are too large{_where(fh)}")
    count = math.prod(dims)
    raw = _read_exact(fh, 4 * count, f"tensor payload of dims {dims}")
    return np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)


def save_grid(path, grid: FeatureGrid) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, grid.data)


def load_grid(path) -> FeatureGrid:
    with open(path, "rb") as fh:
        arr = read_tensor(fh)
    if arr.ndim != 3:
        raise DimensionError(f"expected a rank-3 grid tensor, got rank {arr.ndim}")
    return FeatureGrid(arr)


def write_subbands(fh: BinaryIO, bands) -> None:
    """Write a SubbandSet as four consecutive tensors in LL, LH, HL, HH order."""
    for band in (bands.ll, bands.lh, bands.hl, bands.hh):
        write_tensor(fh, band.data)


def write_store(path, blocks: dict[str, np.ndarray]) -> None:
    names = list(blocks)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for name in names:
            write_tensor(fh, blocks[name])


def read_store(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        count = _read_u32(fh, "name count")
        names: dict[str, None] = {}  # ordered, with O(1) duplicate checks
        for _ in range(count):
            offset = fh.tell()
            raw = _read_exact(fh, _read_u32(fh, "name length"), "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise InputError(f"name at byte {offset} is not UTF-8{_where(fh)}") from None
            if name in names:
                raise InputError(f"duplicate name {name!r} at byte {offset}{_where(fh)}")
            names[name] = None
        return {name: read_tensor(fh) for name in names}


def save_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D array of [0, 1] floats (or uint8) as binary PGM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise DimensionError(f"PGM wants a 2-D array, got rank {arr.ndim}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def _pgm_int(path, name: str, field: bytes) -> int:
    if re.fullmatch(rb"-?[0-9]+", field):
        try:
            return int(field)
        except ValueError:  # more digits than int() accepts
            pass
    raise InputError(f"PGM {name} {field[:16]!r} is not an integer in {path}")


def load_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a 2-D float array in [0, 1].

    A malformed header or short pixel data raises ``InputError`` naming
    the file and the reason.
    """
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        if pos >= len(data):
            raise InputError(f"PGM header has {len(fields)} of 4 fields in {path}")
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise InputError(f"unsupported PGM type {fields[0][:16]!r} in {path}")
    w = _pgm_int(path, "width", fields[1])
    h = _pgm_int(path, "height", fields[2])
    maxval = _pgm_int(path, "maxval", fields[3])
    if w <= 0 or h <= 0:
        raise InputError(f"PGM size {w}x{h} is not positive in {path}")
    if maxval != 255:
        raise InputError(f"only maxval 255 supported, got {maxval} in {path}")
    have = max(len(data) - pos, 0)
    if have < w * h:
        raise InputError(f"PGM pixel data has {have} of {w * h} bytes in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0
