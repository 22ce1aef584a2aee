"""Dense SIFT-style descriptor extraction on a regular grid.

Each 24x24 patch yields a 128-D vector: 4x4 spatial cells x 8 orientation
bins, with soft bilinear voting in x, y, and orientation. Cells are laid
out row-major with the orientation bin index varying fastest. Extraction is
upright (no dominant-orientation alignment): the inputs are dashboard-level
crops, so rotation invariance would only blur the signal.

The gradient-histogram kernel (orientation planes over 2*pi, both votes
scattered through one flat index, triangular cell weights, L2 -> clip at
0.2 -> L2) is imagecore's, shared with the HoG of dpm_face. Cell pooling
is separable, as in VLFeat's vl_dsift: the bilinear cell weights are an
outer product of two 1-D tables, so a sliding window in x, then one in y,
pool the orientation planes without a per-patch copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .imagecore import ScalePyramid, _cell_weights, _normalize_descriptors, _orientation_planes, compute_gradients

N_CELLS = 4
N_ORI_BINS = 8
RAW_DIM = N_CELLS * N_CELLS * N_ORI_BINS

# Default sampling grid: 24x24 patches every 4 pixels.
DEFAULT_PATCH = 24
DEFAULT_STRIDE = 4


@dataclass(frozen=True)
class DescriptorSet:
    """All descriptors of one image, stored columnar for vector math.

    ``vectors`` is (T, dim); positions are patch centers divided by the
    width/height of the level they came from, so they always lie in [0, 1].
    Rows are kept in (scale_level, y_norm, x_norm) order, the order
    extract_dense emits: a set given in that order is stored as given, any
    other is sorted stably, so rows sharing a position keep their given order.
    """

    vectors: np.ndarray
    x_norm: np.ndarray
    y_norm: np.ndarray
    scale_level: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise DataError("descriptor vectors must be a (T, dim) array")
        t = v.shape[0]
        for name in ("x_norm", "y_norm", "scale_level"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (t,):
                raise DataError(f"{name} length {arr.shape} does not match T={t}")
        if not isinstance(self.source_id, str):
            raise DataError(f"descriptor set id must be a string, got {self.source_id!r}")
        for name in ("x_norm", "y_norm"):
            pos = np.asarray(getattr(self, name), dtype=np.float64)
            if not ((pos >= 0.0) & (pos <= 1.0)).all():  # NaN fails both
                raise DataError(f"{name} must be finite and in [0, 1]")
            object.__setattr__(self, name, pos)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "scale_level", np.asarray(self.scale_level, dtype=np.int64))
        keys = (self.x_norm, self.y_norm, self.scale_level)  # lexsort: last key is primary
        (x0, x1), (y0, y1), (l0, l1) = ((a[:-1], a[1:]) for a in keys)
        if not ((l0 < l1) | ((l0 == l1) & ((y0 < y1) | ((y0 == y1) & (x0 <= x1))))).all():
            order = np.lexsort(keys)
            for name in ("vectors", "x_norm", "y_norm", "scale_level"):
                object.__setattr__(self, name, getattr(self, name)[order])

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def extract_dense(
    pyr: ScalePyramid, patch: int = DEFAULT_PATCH, stride: int = DEFAULT_STRIDE, source_id: str = ""
) -> DescriptorSet:
    """Extract descriptors at every (i*stride, j*stride) patch on every level."""
    if patch < N_CELLS or stride < 1:
        raise DataError(f"invalid patch/stride: {patch}/{stride}")
    for l, lv in enumerate(pyr.levels):
        if lv.width < patch or lv.height < patch:
            raise DataError(
                f"pyramid level {l} ({lv.width}x{lv.height}) smaller than patch {patch}"
            )

    w1d = _cell_weights(N_CELLS, patch, patch / N_CELLS)
    all_vec, all_x, all_y, all_lvl = [], [], [], []
    for l, lv in enumerate(pyr.levels):
        mag, ori = compute_gradients(lv)
        planes = _orientation_planes(mag, ori, N_ORI_BINS, 2.0 * np.pi)  # (H, W, 8)
        # pool x, then y: (H, nx, 8, cx), then (ny, nx, 8, cx, cy)
        rows = sliding_window_view(planes, patch, axis=1)[:, ::stride] @ w1d.T
        cells = sliding_window_view(rows, patch, axis=0)[::stride] @ w1d.T
        ny, nx = cells.shape[:2]
        desc = cells.transpose(0, 1, 4, 3, 2).reshape(ny * nx, RAW_DIM)
        all_vec.append(_normalize_descriptors(desc))

        xs = np.arange(nx) * stride + patch / 2.0
        ys = np.arange(ny) * stride + patch / 2.0
        gx, gy = np.meshgrid(xs / lv.width, ys / lv.height)
        all_x.append(gx.ravel())
        all_y.append(gy.ravel())
        all_lvl.append(np.full(ny * nx, l, dtype=np.int64))

    return DescriptorSet(
        vectors=np.concatenate(all_vec),
        x_norm=np.concatenate(all_x),
        y_norm=np.concatenate(all_y),
        scale_level=np.concatenate(all_lvl),
        source_id=source_id,
    )
