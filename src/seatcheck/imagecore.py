"""Grayscale image container, gradients, the gradient-histogram kernel, and
multi-scale pyramids.

Pixels live in [0, 1] as float64 regardless of on-disk bit depth, so all
downstream math is independent of storage format. Binary PGM (P5, 8-bit)
is the one image file format, and it round-trips bit for bit.

Dense SIFT and HoG share one kernel (Lowe 2004; Dalal & Triggs 2005): soft
orientation planes scattered through one flat pixel*bins + bin index
(_orientation_planes), pooled into cells by triangular weights (_cell_weights),
then L2 -> clip at 0.2 -> L2, one division per pass (_normalize_descriptors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

# Levels smaller than one descriptor patch per side are useless everywhere
# downstream, so pyramid construction refuses to create them.
MIN_LEVEL_SIDE = 24

# Default scale pyramid: three levels, each 1/sqrt(2) the side of the last.
DEFAULT_LEVELS = 3
DEFAULT_SCALE_FACTOR = 1.0 / math.sqrt(2.0)

# Histograms whose gradient energy falls below this L2 norm are mapped to
# the zero vector instead of being normalized (flat empty-seat regions must
# encode, not crash).
NORM_FLOOR = 1e-10

CLIP_THRESHOLD = 0.2


@dataclass(frozen=True)
class GrayImage:
    """Single-channel intensity raster with values in [0, 1].

    ``pixels`` is a read-only (height, width) float64 array.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float64)
        px.flags.writeable = False
        if px.ndim != 2:
            raise DataError(f"expected a 2-D pixel raster, got ndim={px.ndim}")
        if px.size == 0:
            raise DataError("empty image")
        if not np.isfinite(px).all():
            raise DataError("image contains non-finite pixels")
        lo, hi = float(px.min()), float(px.max())
        if lo < 0.0 or hi > 1.0:
            raise DataError(f"pixel values outside [0, 1]: min={lo}, max={hi}")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class ScalePyramid:
    """Ordered image levels; level 0 is the original, factors strictly decrease."""

    levels: tuple[GrayImage, ...]
    scale_factors: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if len(self.levels) != len(self.scale_factors):
            raise DataError("levels/scale_factors length mismatch")
        if not self.levels:
            raise DataError("empty pyramid")
        if self.scale_factors[0] != 1.0:
            raise DataError("level 0 must have scale factor 1.0")
        diffs = np.diff(self.scale_factors)
        if len(diffs) and not (diffs < 0).all():
            raise DataError("scale factors must be strictly decreasing")


def compute_gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (magnitude, orientation) by central differences (one-sided on borders).

    Orientation is atan2(dy, dx) mapped into [0, 2*pi); a zero gradient
    yields orientation 0 and magnitude 0.
    """
    if img.width < 3 or img.height < 3:
        raise DataError(
            f"image {img.width}x{img.height} too small for gradients (need >= 3x3)"
        )
    p = img.pixels
    dx = np.empty_like(p)
    dy = np.empty_like(p)
    dx[:, 1:-1] = (p[:, 2:] - p[:, :-2]) * 0.5
    dx[:, 0] = p[:, 1] - p[:, 0]
    dx[:, -1] = p[:, -1] - p[:, -2]
    dy[1:-1, :] = (p[2:, :] - p[:-2, :]) * 0.5
    dy[0, :] = p[1, :] - p[0, :]
    dy[-1, :] = p[-1, :] - p[-2, :]

    mag = np.hypot(dx, dy)
    ori = np.arctan2(dy, dx)
    np.add(ori, 2.0 * np.pi, out=ori, where=ori < 0.0)
    # atan2 returns values in (-pi, pi]; after the shift anything that still
    # rounds up to 2*pi (tiny negative angles) is folded back to 0.
    np.copyto(ori, 0.0, where=ori >= 2.0 * np.pi)
    return mag, ori


def _orientation_planes(mag: np.ndarray, ori: np.ndarray, bins: int, period: float) -> np.ndarray:
    """Split gradient energy into (H, W, bins) planes by soft orientation voting.

    ``ori`` lies in [0, 2*pi), as compute_gradients gives it, and is folded
    modulo ``period`` (2*pi signed, pi unsigned) by one exact subtraction; bin
    centers sit at b * period/bins, so an exactly-horizontal gradient votes
    entirely into bin 0. Pixel p's bin b sits at flat index p * bins + b.
    """
    o = (ori - period * (ori >= period)) / (period / bins)
    b0 = np.floor(o)
    frac = o - b0
    b0 = b0.astype(np.int64)
    b0[b0 == bins] = 0  # o rounded up to ``bins``
    i0 = np.arange(0, mag.size * bins, bins).reshape(mag.shape) + b0
    planes = np.zeros(mag.shape + (bins,))
    flat = planes.reshape(-1)
    flat[i0] = mag * (1.0 - frac)
    flat[np.where(b0 == bins - 1, i0 - (bins - 1), i0 + 1)] += mag * frac
    return planes


def _cell_weights(n_cells: int, n_px: int, cell_width: float) -> np.ndarray:
    """(n_cells, n_px) triangular weights of each pixel in each cell row/column.

    Pixel p sits at (p + 0.5) / cell_width - 0.5 in cell units and votes
    into the two nearest cell centers; votes outside [0, n_cells) are dropped.
    """
    pos = (np.arange(n_px) + 0.5) / cell_width - 0.5
    return np.maximum(1.0 - np.abs(pos[None, :] - np.arange(n_cells)[:, None]), 0.0)


def _normalize_descriptors(desc: np.ndarray) -> np.ndarray:
    """L2-normalize each row, clip components at CLIP_THRESHOLD, re-L2-normalize.

    Rows whose norm is at most NORM_FLOOR become zero (their norm is set to inf).
    """

    def safe_unit(d):
        norms = np.sqrt(np.sum(d * d, axis=1, keepdims=True))
        norms[norms <= NORM_FLOOR] = np.inf
        return d / norms

    return safe_unit(np.minimum(safe_unit(desc), CLIP_THRESHOLD))


def level_size(side: int, factor: float, level: int) -> int:
    """Side length of pyramid level ``level``: round(side * factor**level), half-up."""
    return int(math.floor(side * factor**level + 0.5))


def _bilinear_resize(p: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = p.shape
    # Pixel-center alignment: output center (i+0.5)/out maps to the same
    # relative position in the input, clamped at the borders.
    sx = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    sy = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    x0 = np.clip(np.floor(sx).astype(int), 0, in_w - 1)
    y0 = np.clip(np.floor(sy).astype(int), 0, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = np.clip(sx - x0, 0.0, 1.0)
    fy = np.clip(sy - y0, 0.0, 1.0)

    r0, r1 = p[y0], p[y1]  # gather the two source rows once, then columns
    top = r0[:, x0] * (1.0 - fx) + r0[:, x1] * fx
    bot = r1[:, x0] * (1.0 - fx) + r1[:, x1] * fx
    return top * (1.0 - fy[:, None]) + bot * fy[:, None]


def resize_bilinear(img: GrayImage, height: int, width: int) -> GrayImage:
    """Resample to an arbitrary size with pixel-center-aligned bilinear interpolation."""
    if height < 1 or width < 1:
        raise DataError("target size must be positive")
    return GrayImage(np.clip(_bilinear_resize(img.pixels, height, width), 0.0, 1.0))


def build_pyramid(
    img: GrayImage, levels: int = DEFAULT_LEVELS, factor: float = DEFAULT_SCALE_FACTOR
) -> ScalePyramid:
    """Downsample ``img`` into ``levels`` bilinear levels at the given per-level factor.

    Level ``l`` has side lengths round(original * factor**l). Raises if any
    requested level would drop below MIN_LEVEL_SIDE (24 px) per side.
    """
    if levels < 1:
        raise DataError("levels must be >= 1")
    if not (0.0 < factor < 1.0):
        raise DataError("factor must lie in (0, 1)")
    sizes = [(level_size(img.height, factor, l), level_size(img.width, factor, l)) for l in range(levels)]
    for l, (h, w) in enumerate(sizes):
        if h < MIN_LEVEL_SIDE or w < MIN_LEVEL_SIDE:
            raise DataError(
                f"pyramid level {l} would be {w}x{h}, below the minimum "
                f"patch size of {MIN_LEVEL_SIDE} pixels per side"
            )
    imgs = [img]
    factors = [1.0]
    for l in range(1, levels):
        h, w = sizes[l]
        imgs.append(resize_bilinear(img, h, w))
        factors.append(factor**l)
    return ScalePyramid(levels=tuple(imgs), scale_factors=tuple(factors))


# --- image file I/O -------------------------------------------------------


def load_pgm(path: str | Path) -> GrayImage:
    """Read a binary (P5) 8-bit PGM file."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image: {e}") from e
    return parse_pgm(data)


def parse_pgm(data: bytes) -> GrayImage:
    if not data.startswith(b"P5"):
        raise DataError("not a binary PGM (P5) file")
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them.
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError("truncated PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as e:
        raise DataError(f"malformed PGM header: {e}") from e
    if maxval != 255:
        raise DataError(f"only 8-bit PGM supported (maxval 255), got {maxval}")
    n = width * height
    raster = data[pos : pos + n]
    if len(raster) != n:
        raise DataError(f"PGM raster truncated: expected {n} bytes, got {len(raster)}")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(px.astype(np.float64) / 255.0)


def pgm_bytes(img: GrayImage) -> bytes:
    """A binary (P5) 8-bit PGM file; pixels are rounded to 1/255 steps."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    raster = np.floor(img.pixels * 255.0 + 0.5).astype(np.uint8)
    return header + raster.tobytes()

