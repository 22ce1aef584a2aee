import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from seatcheck.dense_descriptors import extract_dense
from seatcheck.errors import DataError
from seatcheck.imagecore import (
    GrayImage, ScalePyramid, _normalize_descriptors, _orientation_planes, build_pyramid, compute_gradients,
    level_size,
)
from seatcheck.synthetic import SyntheticSpec, generate_synthetic

SQRT1_2 = 1.0 / math.sqrt(2.0)


def grid_count(width, height, levels, factor, patch=24, stride=4):
    """Grid positions over every pyramid level at least one patch wide and tall."""
    total = 0
    for l in range(levels):
        w = width if l == 0 else level_size(width, factor, l)
        h = height if l == 0 else level_size(height, factor, l)
        if w >= patch and h >= patch:
            total += ((w - patch) // stride + 1) * ((h - patch) // stride + 1)
    return total


def single_level(pixels):
    return ScalePyramid(levels=(GrayImage(pixels),), scale_factors=(1.0,))


def sift_oracle(pixels, patch=24, stride=4):
    """Per-patch, per-pixel trilinear voting written as plain loops."""
    g_mag, g_ori = compute_gradients(GrayImage(pixels))
    h, w = pixels.shape
    cs = patch / 4.0
    delta = 2.0 * math.pi / 8.0
    out = []
    for y0 in range(0, h - patch + 1, stride):
        for x0 in range(0, w - patch + 1, stride):
            d = np.zeros(128)
            for py in range(patch):
                for px in range(patch):
                    m = g_mag[y0 + py, x0 + px]
                    o = g_ori[y0 + py, x0 + px] / delta
                    b0 = int(math.floor(o)) % 8
                    fb = o - math.floor(o)
                    cx = (px + 0.5) / cs - 0.5
                    cy = (py + 0.5) / cs - 0.5
                    ix, fx = int(math.floor(cx)), cx - math.floor(cx)
                    iy, fy = int(math.floor(cy)), cy - math.floor(cy)
                    for cyi, wy in ((iy, 1 - fy), (iy + 1, fy)):
                        if not 0 <= cyi < 4:
                            continue
                        for cxi, wx in ((ix, 1 - fx), (ix + 1, fx)):
                            if not 0 <= cxi < 4:
                                continue
                            for b, wb in ((b0, 1 - fb), ((b0 + 1) % 8, fb)):
                                d[(cyi * 4 + cxi) * 8 + b] += m * wy * wx * wb
            n = np.linalg.norm(d)
            d = d / n if n > 1e-10 else np.zeros(128)
            d = np.minimum(d, 0.2)
            n = np.linalg.norm(d)
            d = d / n if n > 1e-10 else np.zeros(128)
            out.append(d)
    return np.array(out)


def windowed_oracle(pyr, patch, stride):
    """Non-separable pooling: each (8, patch, patch) window times a
    (16, patch*patch) outer-product cell kernel, one window row at a time."""
    cs = patch / 4.0
    pos = (np.arange(patch) + 0.5) / cs - 0.5
    c0 = np.floor(pos).astype(np.int64)
    frac = pos - c0
    w1d = np.zeros((4, patch))
    for p in range(patch):
        if 0 <= c0[p] < 4:
            w1d[c0[p], p] = 1.0 - frac[p]
        if 0 <= c0[p] + 1 < 4:
            w1d[c0[p] + 1, p] = frac[p]
    kernels = np.einsum("ia,jb->ijab", w1d, w1d).reshape(16, patch * patch)
    out = []
    for lv in pyr.levels:
        g_mag, g_ori = compute_gradients(lv)
        planes = _orientation_planes(g_mag, g_ori, 8, 2.0 * math.pi)
        windows = sliding_window_view(planes, (patch, patch), axis=(0, 1))[::stride, ::stride]
        for row in windows:  # (nx, 8, patch, patch)
            nx = row.shape[0]
            cell_hist = np.ascontiguousarray(row).reshape(nx * 8, patch * patch) @ kernels.T
            desc = np.swapaxes(cell_hist.reshape(nx, 8, 16), 1, 2).reshape(nx, 128)
            out.append(_normalize_descriptors(desc))
    return np.concatenate(out)


@pytest.mark.parametrize("patch", [24, 26])
@pytest.mark.parametrize("stride", [1, 4, 8])
def test_separable_pooling_matches_windowed_oracle(patch, stride):
    images = generate_synthetic(SyntheticSpec(count=3, width=72, height=64, seed=13))
    for im in images:
        pyr = build_pyramid(im.image, levels=3)
        ds = extract_dense(pyr, patch=patch, stride=stride)
        expected = windowed_oracle(pyr, patch, stride)
        assert ds.vectors.shape == expected.shape
        assert np.abs(ds.vectors - expected).max() <= 1e-12


def test_single_patch_image_centers_at_half():
    rng = np.random.default_rng(0)
    ds = extract_dense(single_level(rng.uniform(size=(24, 24))))
    assert len(ds) == 1
    assert ds.x_norm[0] == 0.5 and ds.y_norm[0] == 0.5
    assert ds.dim == 128


def test_grid_count_128x96_single_level():
    rng = np.random.default_rng(1)
    ds = extract_dense(single_level(rng.uniform(size=(96, 128))))
    assert len(ds) == 27 * 19 == 513
    assert grid_count(128, 96, levels=1, factor=SQRT1_2) == 513


def test_constant_image_encodes_to_zero_vectors():
    ds = extract_dense(single_level(np.full((32, 32), 0.5)))
    assert np.all(ds.vectors == 0.0)


def test_descriptors_match_naive_trilinear_oracle():
    rng = np.random.default_rng(42)
    p = rng.uniform(size=(28, 32))
    ds = extract_dense(single_level(p))
    expected = sift_oracle(p)
    np.testing.assert_allclose(ds.vectors, expected, atol=1e-10)


def test_nondegenerate_descriptors_have_unit_norm():
    rng = np.random.default_rng(2)
    img = GrayImage(rng.uniform(size=(96, 128)))
    ds = extract_dense(build_pyramid(img, levels=3, factor=SQRT1_2))
    norms = np.linalg.norm(ds.vectors, axis=1)
    live = norms > 0
    assert live.any()
    np.testing.assert_allclose(norms[live], 1.0, atol=1e-6)


def test_three_level_count_matches_extraction():
    rng = np.random.default_rng(3)
    img = GrayImage(rng.uniform(size=(96, 128)))
    ds = extract_dense(build_pyramid(img, levels=3, factor=SQRT1_2))
    assert len(ds) == grid_count(128, 96, levels=3, factor=SQRT1_2)


@given(
    w=st.integers(24, 90),
    h=st.integers(24, 90),
    levels=st.integers(1, 2),
    stride=st.integers(2, 9),
)
@settings(max_examples=20, deadline=None)
def test_count_agreement_property(w, h, levels, stride):
    factor = 0.8
    if levels == 2 and min(level_size(w, factor, 1), level_size(h, factor, 1)) < 24:
        levels = 1
    rng = np.random.default_rng(w * 1000 + h)
    img = GrayImage(rng.uniform(size=(h, w)))
    pyr = build_pyramid(img, levels=levels, factor=factor)
    ds = extract_dense(pyr, patch=24, stride=stride)
    assert len(ds) == grid_count(w, h, levels=levels, factor=factor, patch=24, stride=stride)


def test_rotated_image_permutes_positions():
    rng = np.random.default_rng(5)
    p = rng.uniform(size=(40, 48))  # (48-24)%4 == 0 and (40-24)%4 == 0
    ds = extract_dense(single_level(p))
    ds_rot = extract_dense(single_level(np.ascontiguousarray(p[::-1, ::-1])))
    orig = sorted(zip(ds.x_norm, ds.y_norm))
    mapped = sorted(zip(1.0 - ds_rot.x_norm, 1.0 - ds_rot.y_norm))
    np.testing.assert_allclose(orig, mapped, atol=1e-12)


def test_extract_rejects_undersized_level():
    rng = np.random.default_rng(6)
    pyr = single_level(rng.uniform(size=(30, 30)))
    with pytest.raises(DataError):
        extract_dense(pyr, patch=32)
