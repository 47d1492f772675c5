"""Active probing of the topology carrier and gated detail injection.

A small set of probes queries the low-frequency carrier to build a
coarse potential field M0 (probe-attention mean through a logistic).
Probes then evolve for a few steps, each step combining a bounded
learned semantic offset, gradient ascent on the bilinear surface of M0,
and a truncated pairwise repulsion that keeps them from collapsing onto
the strongest ridge; coordinates are clamped to [-1, 1]^2 throughout.
A step is a fixed handful of array operations on the N probes: one
grid corner lookup shared by the carrier features and the gradient of
M0, one pass of the offset head, and repulsion from two N x N offset
matrices.  The refined probes are splatted back to pixel space as M1
(separable Gaussians, one small matrix product), and the blended gate
sigmoid(w*M1 + (1-w)*M0) multiplies the high-frequency bands so only
structure-consistent detail survives.

The probe step is a fixed design.  Module constants hold its separation
radius _RADIUS, gradient and repulsion gains _GRAD_GAIN and
_REPULSION_GAIN, distance floor _EPS, splat width _SPLAT_SIGMA and gate
blend _BLEND (M1's weight w); the step and probe counts are the only settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .grid import (
    FeatureGrid,
    Mask,
    _blend,
    _norm_corners,
    _slope,
    as_coord_array,
    require_single_channel,
)
from .nn import relu, sigmoid
from .weights import WeightStore

# Column-block budget, in bytes, of the keys coarse_potential holds at once.
_KEY_BLOCK_BYTES = 1 << 20
_RADIUS, _GRAD_GAIN, _REPULSION_GAIN, _EPS = 0.15, 0.1, 0.05, 1e-5
_SPLAT_SIGMA, _BLEND = 0.1, 0.5


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Probe coordinates in [-1, 1]^2 with their query embeddings and scores."""

    coords: np.ndarray
    embeddings: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        emb = np.asarray(self.embeddings, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        n = coords.shape[0]
        if coords.ndim != 2 or coords.shape[1] != 2 or n < 1:
            raise DimensionError(f"coords must be (N, 2) with N >= 1, got {coords.shape}")
        if emb.ndim != 2 or emb.shape[0] != n:
            raise DimensionError(f"embeddings must be (N, d), got {emb.shape}")
        if scores.shape != (n,):
            raise DimensionError(f"scores must be (N,), got {scores.shape}")
        for field, arr in (("coords", coords), ("embeddings", emb), ("scores", scores)):
            if not np.isfinite(arr).all():
                raise ValueError(f"probe {field} must be finite")
        if np.any(np.abs(coords) > 1.0):
            raise ValueError("probe coordinates must lie in [-1, 1]^2")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "scores", scores)

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


def probe_grid_coords(n: int, seed: int) -> np.ndarray:
    """n cell centres of a square grid over [-1, 1]^2, each moved by up to a quarter cell."""
    side = int(np.ceil(np.sqrt(n)))
    cell = 2.0 / side
    centers = -1.0 + cell * (np.arange(side) + 0.5)
    xx, yy = np.meshgrid(centers, centers)
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)[:n]
    rng = np.random.default_rng(seed)
    coords = coords + rng.uniform(-0.5, 0.5, coords.shape) * cell * 0.5
    return np.clip(coords, -1.0, 1.0)


def _key_spec(channels: int, embed_dim: int, prefix: str) -> list[tuple[str, tuple]]:
    """Blocks of the carrier keys coarse_potential matches the embeddings against."""
    return [(prefix + "asgp.key_w", (embed_dim, channels)), (prefix + "asgp.key_b", (embed_dim,))]


def _head_spec(channels: int, embed_dim: int, prefix: str) -> list[tuple[str, tuple]]:
    """Blocks of evolve_probes' heads: the two-layer offset head, then the score head."""
    return [
        (prefix + "asgp.sem_w1", (embed_dim, channels)),
        (prefix + "asgp.sem_b1", (embed_dim,)),
        (prefix + "asgp.sem_w2", (2, embed_dim)),
        (prefix + "asgp.sem_b2", (2,)),
        (prefix + "asgp.score_w", (1, channels)),
        (prefix + "asgp.score_b", (1,)),
    ]


def asgp_weight_spec(channels: int, embed_dim: int, n_probes: int,
                     prefix: str = "") -> list[tuple[str, tuple]]:
    return ([(prefix + "asgp.probe_embed", (n_probes, embed_dim))]
            + _key_spec(channels, embed_dim, prefix) + _head_spec(channels, embed_dim, prefix))


def coarse_potential(probes: ProbeSet, x_ll: FeatureGrid, w: WeightStore,
                     prefix: str = "") -> Mask:
    """Probe-attention potential field over the carrier, values in (0, 1).

    Each probe's attention over all H*W positions (scaled dot product,
    softmax) is multiplied by H*W so a uniform map has value 1; the
    probe mean goes through a logistic.  The logits are exponentiated in
    place and the normalized mean is taken as one matrix-vector product
    with per-probe weights H*W / (N * row sum), so no second probes x H*W
    array is built.  The keys and their products with the embeddings are
    formed over column blocks of at most _KEY_BLOCK_BYTES of keys,
    written into the logits, so the (d, H*W) key map is never held whole.
    """
    d = probes.embed_dim
    channels, h, width = x_ll.shape
    key_w, key_b = (w.get(name, shape) for name, shape in _key_spec(channels, d, prefix))
    flat = x_ll.data.reshape(channels, -1)
    size = flat.shape[1]
    logits = np.empty((probes.count, size))  # (N, HW)
    block = max(1, min(size, _KEY_BLOCK_BYTES // (d * 8)))
    buf = np.empty(d * block)
    for c0 in range(0, size, block):
        cols = slice(c0, min(size, c0 + block))
        keys = buf[: d * (cols.stop - c0)].reshape(d, -1)
        np.matmul(key_w, flat[:, cols], out=keys)
        keys += key_b[:, None]
        np.matmul(probes.embeddings, keys, out=logits[:, cols])
    logits /= np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    # mean_n(exp_n / rowsum_n) * HW as one weighted sum over the probes.
    weights = (h * width) / (probes.count * logits.sum(axis=1))
    field = weights @ logits
    del logits, keys, buf
    return FeatureGrid._of(sigmoid(field).reshape(1, h, width))


def repulsion_forces(coords: np.ndarray) -> np.ndarray:
    """Truncated pairwise repulsion, active only below the separation radius.

    The pairwise offsets are two N x N matrices, one per axis, each reduced
    by one sum of its product with the pair weights; no N x N x 2 array is
    built.  Column i holds probe i's offsets from every probe j, so each sum
    runs down the columns, adding the pairs in j order.
    """
    x, y = coords[:, 0], coords[:, 1]
    dx = x - x[:, None]
    dy = y - y[:, None]
    dist = dx * dx
    dist += dy * dy
    np.sqrt(dist, out=dist)
    weight = 1.0 - dist / _RADIUS
    np.maximum(weight, 0.0, out=weight)
    dist += _EPS
    weight /= dist
    # A probe's offset from itself is 0, so the diagonal adds nothing.
    dx *= weight
    dy *= weight
    return np.stack([dx.sum(axis=0), dy.sum(axis=0)], axis=1)


def _offsets(features: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Bounded learned offsets: tanh of the two-layer head on sampled features."""
    hidden = relu(features @ w1.T + b1)
    return np.tanh(hidden @ w2.T + b2)


def evolve_probes(m0: Mask, x_ll: FeatureGrid, probes: ProbeSet, steps: int,
                  w: WeightStore, prefix: str = "",
                  trajectory: list | None = None) -> ProbeSet:
    """Iterate the probe update rule for ``steps`` steps.

    Each step: sample carrier features at the current coordinates, add
    the bounded semantic offset, the scaled gradient of M0, and the
    scaled repulsion force, then clamp to [-1, 1]^2.  Scores come from
    the score head at the final coordinates.

    The weights are fetched once per call, with the embedding width as the
    offset head's hidden width (``_head_spec``).  Each step checks the
    coordinates and looks up their grid corners once; when M0 has the
    carrier's shape, as in the pipeline, the features and the gradient
    are read at the same corners.
    """
    require_single_channel(m0, "potential field")
    channels, h, width = x_ll.shape
    *head, score_w, score_b = (
        w.get(name, shape) for name, shape in _head_spec(channels, probes.embed_dim, prefix))
    field = m0.data[0]
    shared = field.shape == (h, width)
    coords = probes.coords.copy()
    if trajectory is not None:
        trajectory.append(coords.copy())
    for _ in range(steps):
        at = _norm_corners(as_coord_array(coords), h, width)
        sem = _offsets(_blend(x_ll.data, at).T, *head)
        grad = _slope(field, at if shared else _norm_corners(coords, *field.shape))
        force = repulsion_forces(coords)
        coords += sem
        coords += _GRAD_GAIN * grad
        coords += _REPULSION_GAIN * force
        np.clip(coords, -1.0, 1.0, out=coords)
        if trajectory is not None:
            trajectory.append(coords.copy())
    feats = _blend(x_ll.data, _norm_corners(as_coord_array(coords), h, width)).T
    scores = sigmoid(feats @ score_w.T + score_b).ravel()
    return ProbeSet(coords=coords, embeddings=probes.embeddings, scores=scores)


def refine_mask(probes: ProbeSet, shape: tuple[int, int]) -> Mask:
    """Score-weighted Gaussian splats of the probes, through a logistic.

    The isotropic splat factors as exp(-dx^2/2s^2) * exp(-dy^2/2s^2), so
    the field is one (H, N) @ (N, W) product of per-probe row and column
    profiles; no probes x H x W stack is built.
    """
    h, width = shape
    if h < 1 or width < 1:
        raise DimensionError(f"mask shape must be positive, got {shape}")
    xs = np.linspace(-1.0, 1.0, width) if width > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    scale = -1.0 / (2.0 * _SPLAT_SIGMA ** 2)
    gx = np.exp(scale * (xs[None, :] - probes.coords[:, 0, None]) ** 2)  # (N, W)
    gy = np.exp(scale * (ys[None, :] - probes.coords[:, 1, None]) ** 2)  # (N, H)
    field = (gy.T * probes.scores) @ gx
    return FeatureGrid._of(sigmoid(field)[None, :, :])


def asgp_gate(m0: Mask, m1: Mask, bands: Sequence[FeatureGrid]) -> list[FeatureGrid]:
    """Multiply the high bands by a gate blended from two masks of the bands' shape."""
    require_single_channel(m0, "coarse mask")
    require_single_channel(m1, "refined mask")
    bands = list(bands)
    if not bands:
        raise DimensionError("need at least one band to gate")
    shape = (bands[0].height, bands[0].width)
    for grid in (m0, m1, *bands[1:]):
        if (grid.height, grid.width) != shape:
            raise DimensionError(f"masks and bands must share one spatial shape, got "
                                 f"{grid.height}x{grid.width} and {shape[0]}x{shape[1]}")
    gate = sigmoid(_BLEND * m1.data[0] + (1.0 - _BLEND) * m0.data[0])
    return [FeatureGrid._of(band.data * gate) for band in bands]
