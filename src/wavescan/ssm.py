"""Minimal diagonal selective state-space scan.

The recurrence, per channel c and state n:

    h_t = exp(delta_t * A) * h_{t-1} + delta_t * B_t * u_t,   h_0 = 0
    y_t = C_t . h_t + d_skip * u_t

with A = -exp(a_log) elementwise, so transition magnitudes stay in
(0, 1].  Setting a_log = -inf gives A = 0 exactly, turning the scan
into a pure integrator (the prefix-sum limit).  In selective mode
delta_t, B_t and C_t are linear functions of the input token
(delta through a softplus); in static mode they are fixed parameters.

Two evaluation paths share the same coefficients: a sequential
recurrence (the float64 reference, also used by fablock's four-direction
baseline) and an associative prefix-combine scan vectorized over the
sequence axis.  The (L, C, N) decay and drive tensors are each built in
one buffer and finished in place, and the prefix scan overwrites both
instead of copying them, returning the states in the drive buffer.

The prefix scan works on a time-major layout: the sequence is cut into
nb = ceil(L / bs) blocks of bs = ceil(sqrt(L)) steps, and step t of
block k is token k*bs + t, stored at row t*nb + k.  Each in-block step
then touches one contiguous nb x C x N slab.  The tokens are permuted
into this layout before the coefficients are built, with zero tokens
padding the last block after the final real step, and the readout is
permuted back and cropped.  Non-finite tokens are rejected on both
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .nn import softplus
from .weights import WeightStore


def _affine_recurrence(decay: np.ndarray, drive: np.ndarray, out: np.ndarray) -> None:
    """Sequential h_t = decay_t * h_{t-1} + drive_t with h_0 = drive_0, into ``out``.

    Axis 0 is the step; every other axis is an independent batch lane.
    ``decay``, ``drive`` and ``out`` share one shape and may be strided
    views (reversed or transposed); ``decay`` and ``drive`` are never
    written.
    """
    h = drive[0].copy()
    out[0] = h
    for t in range(1, decay.shape[0]):
        h *= decay[t]
        h += drive[t]
        out[t] = h


@dataclass(frozen=True, eq=False)
class SsmParams:
    """Parameters of the scan operator for one channel width.

    a_log: (C, N) state-decay logs (-inf allowed for the integrator limit).
    d_skip: (C,) residual skip gains.
    Selective mode: delta_w (C, C) + delta_b (C,) feed a softplus step
    size; b_w and c_w (N, C) produce per-step input/output couplings.
    Static mode: delta (C,), b (N,), c (N,) are used for every step.
    """

    state_dim: int
    a_log: np.ndarray
    d_skip: np.ndarray
    selective: bool
    delta_w: np.ndarray | None = None
    delta_b: np.ndarray | None = None
    b_w: np.ndarray | None = None
    c_w: np.ndarray | None = None
    delta: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None

    def __post_init__(self):
        a_log = np.asarray(self.a_log, dtype=np.float64)
        d_skip = np.asarray(self.d_skip, dtype=np.float64)
        if a_log.ndim != 2 or a_log.shape[1] != self.state_dim:
            raise DimensionError(f"a_log must be (C, {self.state_dim}), got {a_log.shape}")
        if d_skip.shape != (a_log.shape[0],):
            raise DimensionError(f"d_skip must be (C,), got {d_skip.shape}")
        if np.any(np.isposinf(a_log)) or np.any(np.isnan(a_log)):
            raise ValueError("a_log must be finite or -inf")
        if not np.all(np.isfinite(d_skip)):
            raise ValueError("d_skip must be finite")
        object.__setattr__(self, "a_log", a_log)
        object.__setattr__(self, "d_skip", d_skip)
        c_dim, n = a_log.shape
        if self.selective:
            mode, blocks = "selective", (("delta_w", (c_dim, c_dim)), ("delta_b", (c_dim,)),
                                         ("b_w", (n, c_dim)), ("c_w", (n, c_dim)))
        else:
            mode, blocks = "static", (("delta", (c_dim,)), ("b", (n,)), ("c", (n,)))
        for name, want in blocks:
            arr = getattr(self, name)
            if arr is None:
                raise DimensionError(f"{mode} mode requires {name}")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != want:
                raise DimensionError(f"{name} must be {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if not self.selective and np.any(self.delta <= 0):
            raise ValueError("static step sizes must be positive")

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]

    # -- constructors ------------------------------------------------------

    @classmethod
    def static(cls, channels: int, transition: float, state_dim: int = 1,
               b: float = 1.0, c: float = 1.0, d_skip: float = 0.0) -> "SsmParams":
        """Fixed-coefficient scan whose per-step state multiplier is `transition`.

        transition = 1 gives the exact integrator (prefix sums); values in
        (0, 1) give geometric decay.
        """
        if not 0.0 < transition <= 1.0:
            raise ValueError(f"transition must be in (0, 1], got {transition}")
        if transition == 1.0:
            a_log = np.full((channels, state_dim), -np.inf)
        else:
            a_log = np.full((channels, state_dim), np.log(-np.log(transition)))
        return cls(
            state_dim=state_dim,
            a_log=a_log,
            d_skip=np.full(channels, float(d_skip)),
            selective=False,
            delta=np.ones(channels),
            b=np.full(state_dim, float(b)),
            c=np.full(state_dim, float(c)),
        )

    @classmethod
    def identity(cls, channels: int) -> "SsmParams":
        """y = u exactly: zero state readout, unit skip."""
        return cls.static(channels, transition=0.5, b=0.0, c=0.0, d_skip=1.0)

    @classmethod
    def random(cls, channels: int, state_dim: int, seed: int,
               selective: bool = True) -> "SsmParams":
        rng = np.random.default_rng(seed)
        a_log = rng.uniform(-2.0, 0.5, (channels, state_dim))
        d_skip = rng.uniform(-1.0, 1.0, channels)
        if selective:
            scale = 1.0 / np.sqrt(channels)
            return cls(
                state_dim=state_dim,
                a_log=a_log,
                d_skip=d_skip,
                selective=True,
                delta_w=rng.uniform(-scale, scale, (channels, channels)),
                delta_b=rng.uniform(-1.0, 1.0, channels),
                b_w=rng.uniform(-scale, scale, (state_dim, channels)),
                c_w=rng.uniform(-scale, scale, (state_dim, channels)),
            )
        return cls(
            state_dim=state_dim,
            a_log=a_log,
            d_skip=d_skip,
            selective=False,
            delta=rng.uniform(0.1, 1.5, channels),
            b=rng.uniform(-1.0, 1.0, state_dim),
            c=rng.uniform(-1.0, 1.0, state_dim),
        )

    # -- weight-store interface -------------------------------------------

    def to_store(self, store: WeightStore | None = None, prefix: str = "") -> WeightStore:
        store = store if store is not None else WeightStore()
        store[prefix + "ssm.a_log"] = self.a_log
        store[prefix + "ssm.d"] = self.d_skip
        if self.selective:
            store[prefix + "ssm.proj_delta_w"] = self.delta_w
            store[prefix + "ssm.proj_delta_b"] = self.delta_b
            store[prefix + "ssm.proj_b"] = self.b_w
            store[prefix + "ssm.proj_c"] = self.c_w
        else:
            store[prefix + "ssm.static_delta"] = self.delta
            store[prefix + "ssm.static_b"] = self.b
            store[prefix + "ssm.static_c"] = self.c
        return store

    @classmethod
    def from_store(cls, store: WeightStore, prefix: str = "") -> "SsmParams":
        a_log = store[prefix + "ssm.a_log"]
        selective = (prefix + "ssm.proj_delta_w") in store
        common = dict(state_dim=a_log.shape[1], a_log=a_log, d_skip=store[prefix + "ssm.d"])
        if selective:
            return cls(
                selective=True,
                delta_w=store[prefix + "ssm.proj_delta_w"],
                delta_b=store[prefix + "ssm.proj_delta_b"],
                b_w=store[prefix + "ssm.proj_b"],
                c_w=store[prefix + "ssm.proj_c"],
                **common,
            )
        return cls(
            selective=False,
            delta=store[prefix + "ssm.static_delta"],
            b=store[prefix + "ssm.static_b"],
            c=store[prefix + "ssm.static_c"],
            **common,
        )


def _check_tokens(params: SsmParams, u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != params.channels:
        raise DimensionError(
            f"tokens must be (L, {params.channels}), got {u.shape}"
        )
    if u.shape[0] < 1:
        raise DimensionError("token sequence must be non-empty")
    if not np.all(np.isfinite(u)):
        step, channel = np.argwhere(~np.isfinite(u))[0]
        raise ValueError(
            f"tokens must be finite: step {step}, channel {channel} is {u[step, channel]}"
        )
    return u


def _coefficients(params: SsmParams, u: np.ndarray):
    """Per-step (decay, drive, readout) tensors for the affine recurrence."""
    length = u.shape[0]
    if params.selective:
        delta = softplus(u @ params.delta_w.T + params.delta_b)
        b_t = u @ params.b_w.T
        c_t = u @ params.c_w.T
    else:
        delta = np.broadcast_to(params.delta, (length, params.channels))
        b_t = np.broadcast_to(params.b, (length, params.state_dim))
        c_t = np.broadcast_to(params.c, (length, params.state_dim))
    a = -np.exp(params.a_log)  # (C, N); exp(-inf) = 0 -> exact integrator
    n = params.state_dim
    decay = np.repeat(delta, n, axis=1).reshape(length, params.channels, n)
    decay *= a
    np.exp(decay, out=decay)
    delta_u = delta * u
    del delta  # decay is built; only delta*u is read again
    drive = np.repeat(delta_u, n, axis=1).reshape(length, params.channels, n)
    drive *= b_t[:, None, :]
    return decay, drive, c_t


def _readout(params: SsmParams, hs: np.ndarray, c_t: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.einsum("lcn,ln->lc", hs, c_t) + params.d_skip * u


def ssm_scan_sequential(params: SsmParams, u) -> np.ndarray:
    """Reference step-by-step evaluation of the recurrence."""
    u = _check_tokens(params, u)
    decay, drive, c_t = _coefficients(params, u)
    hs = np.empty_like(decay)
    _affine_recurrence(decay, drive, hs)
    return _readout(params, hs, c_t, u)


def _prefix_affine(decay: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Inclusive scan of h -> a*h + b over time-major blocks.

    Relies on the associativity of affine maps: (a1, b1) then (a2, b2)
    composes to (a2*a1, a2*b1 + b2).  The inputs are (bs, nb, ...):
    step t of block k sits at ``[t, k]``, so the blocks are scanned in
    lockstep and each in-block step reads and writes one contiguous
    (nb, ...) slab.  The block carries are then combined from zero, and
    the carried state is folded back with the in-block prefix products.
    Only the states of the last block may depend on what follows the
    sequence, so its tail may hold any padding steps.

    Works in place: both inputs are overwritten (with the in-block
    prefix products and the states), and the returned states, in the
    same (bs, nb, ...) layout, are ``drive``.  Pass buffers the caller no
    longer needs.
    """
    bs, nb = decay.shape[:2]
    if bs * nb == 1:
        return drive
    a, b = decay, drive
    tmp = np.empty(b.shape[1:])
    for t in range(1, bs):
        np.multiply(a[t], b[t - 1], out=tmp)
        b[t] += tmp
        a[t] *= a[t - 1]
    carries = np.zeros(b.shape[1:])
    for k in range(1, nb):
        np.multiply(a[-1, k - 1], carries[k - 1], out=carries[k])
        carries[k] += b[-1, k - 1]
    a *= carries
    b += a
    return b


def ssm_scan_parallel(params: SsmParams, u) -> np.ndarray:
    """Prefix-combine evaluation; matches the sequential path to ~1e-12.

    The tokens are permuted into the scan's time-major layout, padded
    with zero tokens after the last real step, before the coefficients
    are built; the readout is put back in sequence order and cropped.
    """
    u = _check_tokens(params, u)
    length, channels = u.shape
    bs = int(np.ceil(np.sqrt(length)))
    nb = -(-length // bs)
    pad = nb * bs - length
    if pad:
        u = np.concatenate([u, np.zeros((pad, channels))])
    u = u.reshape(nb, bs, channels).swapaxes(0, 1).reshape(bs * nb, channels)
    decay, drive, c_t = _coefficients(params, u)
    shape = decay.shape
    blocked = (bs, nb) + shape[1:]
    hs = _prefix_affine(decay.reshape(blocked), drive.reshape(blocked))  # overwrites both
    del decay, drive  # hs is drive's buffer; decay is not read again
    y = _readout(params, hs.reshape(shape), c_t, u)
    return y.reshape(bs, nb, channels).swapaxes(0, 1).reshape(bs * nb, channels)[:length]
