"""Small dense/conv plumbing shared by the mixer, decoder and pipeline.

All 2-D convolutions use odd kernels with "same" replicate (edge)
padding, matching the border-clamp convention of the sampling code.
Both convolutions work on blocks of output rows, so no temporary grows
with H: each block edge-pads only the input rows it reads.

A dense convolution takes one of two GEMM orientations, chosen from the
shapes alone by _tap_major.  A stride-1 convolution with fewer output
than input channels runs tap-major: one matmul of the tap-stacked kernel
(kh*kw*C_out x C_in) with the block's padded input rows gives every
tap's C_out-channel plane, and the shifted planes are added into the
output, so the traffic scales with C_out.  The tap-stacked kernel is a
free view of a kernel held in (kh, kw, C_out, C_in) order, as
WeightStore holds every rank-4 block that _tap_major accepts at stride
1; any other kernel is copied into that order on each call.  Every
other shape gathers the block's im2col taps (C_in*kh*kw rows) for one
matmul with the C_out x C_in*kh*kw kernel, a free view of a C-ordered
kernel.  Tap-major sizes its row blocks so that the larger of its
padded input rows and its tap planes fits _TAP_BLOCK_BYTES.  Im2col
counts both its taps and its padded input rows against
_IM2COL_BLOCK_BYTES, and splits the output rows into the fewest blocks
that fit, of sizes within one row of each other.
Depthwise convolutions add their per-tap products through one
row-block scratch of at most _DEPTHWISE_BLOCK_BYTES.
Biases and products are applied in place on arrays allocated here,
never on the caller's inputs or weights.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Row-block budget, in bytes, of tap-major conv2d: the larger of the padded
# input and the tap-plane product per block of output rows.
_TAP_BLOCK_BYTES = 4 << 20
# Row-block budget, in bytes, of im2col conv2d: the taps and the padded input
# rows of one block.  About 1 MB keeps them near L2; tap-major blocks of that
# size run slower.
_IM2COL_BLOCK_BYTES = 1 << 20
# Upper bound, in bytes, of depthwise_conv2d's row-block scratch; about 1 MB
# keeps it near L2, where a larger block runs slower and a smaller one pays
# more per-block overhead.
_DEPTHWISE_BLOCK_BYTES = 1 << 20


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as log1p(e^-|x|) + max(x, 0): never overflows, NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _check_odd(kh: int, kw: int) -> None:
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"kernel dims must be odd, got {kh}x{kw}")


def _pad_rows(x: np.ndarray, kh: int, kw: int, top: int, out: np.ndarray) -> np.ndarray:
    """Fill out (C, n, W + kw - 1) with rows [top, top + n) of padded x.

    x is edge-padded by kh // 2 rows and kw // 2 columns on each side;
    row indices are those of the fully padded array, whose row 0 is the
    first replicated border row.  Only these n rows are ever built.
    """
    ph, pw = kh // 2, kw // 2
    h, width = x.shape[1], x.shape[2]
    count = out.shape[1]
    lo = max(0, top - ph)
    hi = min(h, top + count - ph)
    first = lo - (top - ph)
    last = first + hi - lo
    body = out[:, :, pw : pw + width]
    body[:, first:last] = x[:, lo:hi]
    body[:, :first] = x[:, :1]
    body[:, last:] = x[:, h - 1 :]
    out[:, :, :pw] = out[:, :, pw : pw + 1]
    out[:, :, pw + width :] = out[:, :, pw + width - 1 : pw + width]
    return out


def _tap_major(c_out: int, c_in: int, stride: int = 1) -> bool:
    """Whether conv2d runs a C_in -> C_out kernel at this stride tap-major."""
    return stride == 1 and c_out < c_in


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
           stride: int = 1) -> np.ndarray:
    """Dense convolution: x (C_in,H,W), w (C_out,C_in,kh,kw) -> (C_out,H',W').

    Works on blocks of output rows; each block edge-pads the input rows
    it reads into a reused buffer.  With stride 1 and C_out < C_in the
    block runs tap-major: one matmul of the (kh*kw*C_out, C_in) tap-stacked
    kernel with the padded rows, whose kh*kw shifted C_out-channel planes
    are then summed into the output.  Every other shape gathers the
    block's taps channel-major (im2col) and multiplies them into the
    output with one matmul.  Tap-major sizes its row blocks by
    _TAP_BLOCK_BYTES; im2col fits each block's taps and padded rows in
    _IM2COL_BLOCK_BYTES, in near-equal blocks.
    """
    c_in, h, width = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in_w != c_in:
        raise DimensionError(f"kernel expects {c_in_w} input channels, grid has {c_in}")
    _check_odd(kh, kw)
    if _tap_major(c_out, c_in, stride):
        out = _conv2d_tap_major(x, w)
    else:
        out = _conv2d_im2col(x, w, stride)
    if b is not None:
        out += b[:, None, None]
    return out


def _conv2d_im2col(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Bias-free conv2d that gathers each row block's taps for one matmul.

    A block of n output rows holds its taps, C_in*kh*kw*n*W' floats, and
    its padded input rows, C_in*((n - 1)*stride + kh)*(W + kw - 1) floats;
    both count against _IM2COL_BLOCK_BYTES.  The output rows are split
    into the fewest blocks that fit, whose sizes differ by at most one
    row; a single row that does not fit runs as a block of its own.
    """
    c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    oh = -(-h // stride)
    ow = -(-width // stride)
    depth = c_in * kh * kw
    wp = width + kw - 1
    row_bytes = (depth * ow + c_in * stride * wp) * 8
    fit = (_IM2COL_BLOCK_BYTES - c_in * (kh - stride) * wp * 8) // max(1, row_bytes)
    count = -(-oh // max(1, fit))
    block = -(-oh // count)
    wmat = w.reshape(c_out, depth)
    out = np.empty((c_out, oh, ow))
    flat_out = out.reshape(c_out, oh * ow)
    buf = np.empty(depth * block * ow)
    pad_buf = np.empty((c_in, (block - 1) * stride + kh, wp))
    for k in range(count):
        r0 = k * oh // count
        rows = (k + 1) * oh // count - r0
        taps = buf[: depth * rows * ow].reshape(c_in, kh * kw, rows, ow)
        span = (rows - 1) * stride + 1
        xp = _pad_rows(x, kh, kw, r0 * stride, pad_buf[:, : span + kh - 1])
        for i in range(kh):
            for j in range(kw):
                taps[:, i * kw + j] = xp[:, i : i + span : stride, j : j + width : stride]
        np.matmul(wmat, taps.reshape(depth, rows * ow),
                  out=flat_out[:, r0 * ow : (r0 + rows) * ow])
    return out


def _conv2d_tap_major(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bias-free stride-1 conv2d as one tap-stacked matmul per row block.

    The product holds, for every padded input pixel of the block, the
    C_out-channel contribution of each tap; output pixel (r, c) sums tap
    (i, j)'s plane at (r + i, c + j), in tap order.  The tap-stacked
    kernel is a view when w is held in (kh, kw, C_out, C_in) order, and a
    copy otherwise.
    """
    c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    wp = width + kw - 1
    stack = kh * kw * c_out
    block = max(1, min(h, _TAP_BLOCK_BYTES // (max(stack, c_in) * wp * 8)))
    wtap = w.transpose(2, 3, 0, 1).reshape(stack, c_in)
    out = np.empty((c_out, h, width))
    pad_buf = np.empty(c_in * (block + kh - 1) * wp)
    prod_buf = np.empty(stack * (block + kh - 1) * wp)
    for r0 in range(0, h, block):
        rows = min(block, h - r0)
        span = rows + kh - 1
        xp = _pad_rows(x, kh, kw, r0, pad_buf[: c_in * span * wp].reshape(c_in, span, wp))
        prod = prod_buf[: stack * span * wp].reshape(stack, span * wp)
        np.matmul(wtap, xp.reshape(c_in, span * wp), out=prod)
        planes = prod.reshape(kh, kw, c_out, span, wp)
        acc = out[:, r0 : r0 + rows]
        np.copyto(acc, planes[0, 0, :, :rows, :width])
        for k in range(1, kh * kw):
            i, j = divmod(k, kw)
            acc += planes[i, j, :, i : i + rows, j : j + width]
    return out


def depthwise_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel convolution: x (C,H,W), w (C,kh,kw) -> (C,H,W).

    Works on blocks of output rows: each block edge-pads only its input
    rows into a reused buffer, writes the first tap's product into its
    rows of the output and adds every other tap's product through one
    scratch block of at most _DEPTHWISE_BLOCK_BYTES.
    """
    if w.shape[0] != x.shape[0]:
        raise DimensionError(f"depthwise kernel has {w.shape[0]} channels, grid has {x.shape[0]}")
    c, h, width = x.shape
    kh, kw = w.shape[1], w.shape[2]
    _check_odd(kh, kw)
    block = max(1, min(h, _DEPTHWISE_BLOCK_BYTES // max(1, c * width * 8)))
    out = np.empty((c, h, width))
    scratch = np.empty((c, block, width))
    pad_buf = np.empty((c, block + kh - 1, width + kw - 1))
    for r0 in range(0, h, block):
        rows = min(block, h - r0)
        xp = _pad_rows(x, kh, kw, r0, pad_buf[:, : rows + kh - 1])
        acc = out[:, r0 : r0 + rows]
        tmp = scratch[:, :rows]
        np.multiply(w[:, 0, 0, None, None], xp[:, :rows, :width], out=acc)
        for k in range(1, kh * kw):
            i, j = divmod(k, kw)
            np.multiply(w[:, i, j, None, None], xp[:, i : i + rows, j : j + width], out=tmp)
            acc += tmp
    if b is not None:
        out += b[:, None, None]
    return out


def conv1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pointwise projection: x (C_in,H,W), w (C_out,C_in)."""
    if w.shape[1] != x.shape[0]:
        raise DimensionError(f"projection expects {w.shape[1]} channels, grid has {x.shape[0]}")
    out = np.tensordot(w, x, axes=([1], [0]))
    if b is not None:
        out += b[:, None, None]
    return out


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(C,H,W) -> (C,) spatial mean."""
    return x.mean(axis=(1, 2))


def rms_normalize(x: np.ndarray) -> np.ndarray:
    """Scale a tensor to unit root-mean-square (zero stays zero)."""
    return x / np.sqrt(np.mean(x ** 2) + 1e-8)
