"""Deterministic synthetic thin-structure samples with exact ground truth.

Each sample carries the rendered image, the exact rasterized structure
mask, and the generating centerline (the mask before width dilation),
so along-structure diagnostics can use the true skeleton.  Structures
render darker than a value-noise textured background by ``contrast``.
Everything is a pure function of the config (seed included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import FeatureGrid

ORIENTATIONS = ("horizontal", "vertical", "axis-aligned", "diagonal", "bezier")
# The smallest canvas side; a bezier curve starts in the leftmost 15% of the
# columns and ends in [0.85 w, w - 1], an empty range below 7 columns.
_MIN_SIDE, _MIN_BEZIER_WIDTH = 4, 7
# The cap on curves per sample; each curve is drawn on the whole canvas.
_MAX_CURVES = 1000


@dataclass(frozen=True)
class SynthConfig:
    height: int = 64
    width: int = 64
    curves: int = 1
    width_min: int = 1
    width_max: int = 1
    orientation: str = "axis-aligned"
    contrast: float = 1.0
    texture: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.height < _MIN_SIDE or self.width < _MIN_SIDE:
            raise ConfigError(f"canvas must be at least {_MIN_SIDE}x{_MIN_SIDE}, "
                              f"got {self.height}x{self.width}")
        if self.curves < 1:
            raise ConfigError(f"curves must be at least 1, got {self.curves}")
        if self.curves > _MAX_CURVES:
            raise ConfigError(f"curves must be at most {_MAX_CURVES}, got {self.curves}")
        if self.width_min < 1 or self.width_max < self.width_min:
            raise ConfigError(f"widths must satisfy 1 <= width_min <= width_max, "
                              f"got {self.width_min} and {self.width_max}")
        for name in ("contrast", "texture"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 < self.contrast <= 1.0:
            raise ConfigError(f"contrast must lie in (0, 1], got {self.contrast}")
        if self.texture < 0.0:
            raise ConfigError(f"texture amplitude must be at least 0, got {self.texture}")
        if self.orientation not in ORIENTATIONS:
            raise ConfigError(f"orientation must be one of {ORIENTATIONS}, "
                              f"got {self.orientation!r}")
        if self.orientation == "bezier" and self.width < _MIN_BEZIER_WIDTH:
            raise ConfigError(f"a bezier canvas must be at least {_MIN_BEZIER_WIDTH} wide, "
                              f"got width {self.width}")


@dataclass(frozen=True, eq=False)
class SynthSample:
    image: FeatureGrid
    gt: np.ndarray
    skeleton: np.ndarray


def _value_noise(h: int, w: int, rng: np.random.Generator, cell: int = 8) -> np.ndarray:
    gh, gw = h // cell + 2, w // cell + 2
    lattice = rng.uniform(0.0, 1.0, (gh, gw))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    # Interpolate every lattice row along x once, then pick rows and blend
    # along y; each pixel sees the same operations as the 2x2 corner formula.
    along_x = lattice[:, x0] + fx * (lattice[:, x0 + 1] - lattice[:, x0])
    top = along_x[y0]
    out = along_x[y0 + 1]
    out -= top
    out *= fy
    out += top
    return out


def _line_cells(cfg: SynthConfig, rng: np.random.Generator, orientation: str) -> np.ndarray:
    h, w = cfg.height, cfg.width
    if orientation == "horizontal":
        r = int(rng.integers(1, h - 1))
        return np.stack([np.full(w, r), np.arange(w)], axis=1)
    if orientation == "vertical":
        c = int(rng.integers(1, w - 1))
        return np.stack([np.arange(h), np.full(h, c)], axis=1)
    if orientation == "diagonal":
        off = int(rng.integers(-(h // 2), w // 2))
        i = np.arange(max(h, w))
        rr, cc = i, i + off
        keep = (rr < h) & (cc >= 0) & (cc < w)
        return np.stack([rr[keep], cc[keep]], axis=1)
    # quadratic Bezier chain with gently placed control points
    points = []
    p0 = rng.uniform([0.1 * h, 0.0], [0.9 * h, 0.15 * w])
    p2 = rng.uniform([0.1 * h, 0.85 * w], [0.9 * h, float(w - 1)])
    mid = (p0 + p2) / 2.0
    p1 = mid + rng.uniform(-0.25, 0.25, 2) * np.array([h, w])
    t = np.linspace(0.0, 1.0, 4 * max(h, w))[:, None]
    curve = (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2
    cells = np.rint(curve).astype(int)
    keep = (cells[:, 0] >= 0) & (cells[:, 0] < h) & (cells[:, 1] >= 0) & (cells[:, 1] < w)
    rows, cols = cells[keep].T
    # the flat key r * w + c sorts like (r, c), because 0 <= c < w
    rows, cols = np.divmod(np.unique(rows * w + cols), w)
    return np.stack([rows, cols], axis=1)


def _dilate(skeleton: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return skeleton.copy()
    radius = (width - 1) / 2.0
    span = int(np.ceil(radius))
    out = np.zeros_like(skeleton)
    rows, cols = np.nonzero(skeleton)
    h, w = skeleton.shape
    # An offset of h - 1 rows or more clips every cell to the same border
    # row, and so does h - 1 itself, which is nearer the centre and so also
    # in the disc; likewise for columns.  The loop stops there.
    span_r, span_c = min(span, h - 1), min(span, w - 1)
    for dr in range(-span_r, span_r + 1):
        for dc in range(-span_c, span_c + 1):
            if dr * dr + dc * dc > radius * radius + 1e-9:
                continue
            rr = np.clip(rows + dr, 0, h - 1)
            cc = np.clip(cols + dc, 0, w - 1)
            out[rr, cc] = True
    return out


def generate_sample(cfg: SynthConfig) -> SynthSample:
    """Render one seeded sample: image, exact mask, generating centerline."""
    rng = np.random.default_rng(cfg.seed)
    h, w = cfg.height, cfg.width
    skeleton = np.zeros((h, w), dtype=bool)
    gt = np.zeros((h, w), dtype=bool)
    for _ in range(cfg.curves):
        orientation = cfg.orientation
        if orientation == "axis-aligned":
            orientation = "horizontal" if rng.random() < 0.5 else "vertical"
        cells = _line_cells(cfg, rng, orientation)
        line = np.zeros((h, w), dtype=bool)
        line[cells[:, 0], cells[:, 1]] = True
        width = int(rng.integers(cfg.width_min, cfg.width_max + 1))
        skeleton |= line
        gt |= _dilate(line, width)
    noise = _value_noise(h, w, rng) if cfg.texture > 0 else np.zeros((h, w))
    image = np.clip(1.0 - cfg.texture * noise - cfg.contrast * gt, 0.0, 1.0)
    return SynthSample(image=FeatureGrid(image[None, :, :]), gt=gt, skeleton=skeleton)
