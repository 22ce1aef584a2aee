import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcheck.errors import DataError
from seatcheck.imagecore import (
    NORM_FLOOR,
    GrayImage,
    ScalePyramid,
    _bilinear_resize,
    _normalize_descriptors,
    _orientation_planes,
    build_pyramid,
    compute_gradients,
    level_size,
    load_pgm,
    parse_pgm,
    pgm_bytes,
)
from seatcheck.synthetic import SyntheticSpec, generate_synthetic


def gradient_oracle(p):
    """Per-pixel finite differences, written as plain loops."""
    h, w = p.shape
    mag = np.zeros((h, w))
    ori = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if x == 0:
                dx = p[y, 1] - p[y, 0]
            elif x == w - 1:
                dx = p[y, w - 1] - p[y, w - 2]
            else:
                dx = (p[y, x + 1] - p[y, x - 1]) * 0.5
            if y == 0:
                dy = p[1, x] - p[0, x]
            elif y == h - 1:
                dy = p[h - 1, x] - p[h - 2, x]
            else:
                dy = (p[y + 1, x] - p[y - 1, x]) * 0.5
            mag[y, x] = math.hypot(dx, dy)
            a = math.atan2(dy, dx)
            if a < 0.0:
                a += 2.0 * math.pi
            if a >= 2.0 * math.pi:
                a = 0.0
            ori[y, x] = a
    return mag, ori


def test_constant_image_zero_gradient():
    g_mag, g_ori = compute_gradients(GrayImage(np.full((5, 7), 0.3)))
    assert np.all(g_mag == 0.0)


def test_horizontal_ramp_orientation_zero():
    w, h = 16, 8
    x = np.arange(w, dtype=np.float64)
    img = GrayImage(np.tile(x / w, (h, 1)))
    g_mag, g_ori = compute_gradients(img)
    interior = np.s_[1:-1, 1:-1]
    np.testing.assert_allclose(g_ori[interior], 0.0, atol=1e-15)
    np.testing.assert_allclose(g_mag[interior], 1.0 / w, rtol=1e-12)


def test_random_gradients_match_per_pixel_oracle_exactly():
    rng = np.random.default_rng(7)
    p = rng.uniform(size=(8, 8))
    g_mag, g_ori = compute_gradients(GrayImage(p))
    mag, ori = gradient_oracle(p)
    assert np.array_equal(g_mag, mag)
    # math.atan2 and numpy's SIMD arctan2 can disagree in the last ulp, so
    # orientation is compared at libm precision rather than bitwise.
    np.testing.assert_allclose(g_ori, ori, atol=1e-12)


# The gradient-histogram kernel as it was before the flat scatter, the single
# division and the row-first resize, kept as oracles: the current kernel must
# give the same bits.


def where_gradients_oracle(p):
    """compute_gradients with the orientation folded by np.where copies."""
    dx = np.empty_like(p)
    dy = np.empty_like(p)
    dx[:, 1:-1] = (p[:, 2:] - p[:, :-2]) * 0.5
    dx[:, 0] = p[:, 1] - p[:, 0]
    dx[:, -1] = p[:, -1] - p[:, -2]
    dy[1:-1, :] = (p[2:, :] - p[:-2, :]) * 0.5
    dy[0, :] = p[1, :] - p[0, :]
    dy[-1, :] = p[-1, :] - p[-2, :]
    ori = np.arctan2(dy, dx)
    ori = np.where(ori < 0.0, ori + 2.0 * np.pi, ori)
    ori = np.where(ori >= 2.0 * np.pi, 0.0, ori)
    return np.hypot(dx, dy), ori


def indexed_planes_oracle(mag, ori, bins, period):
    """Orientation planes by np.mod and (y, x, bin) fancy indexing."""
    o = np.mod(ori, period) / (period / bins)
    b0 = np.floor(o)
    frac = o - b0
    b0 = b0.astype(np.int64) % bins
    b1 = (b0 + 1) % bins
    planes = np.zeros(mag.shape + (bins,))
    yy, xx = np.indices(mag.shape)
    planes[yy, xx, b0] = mag * (1.0 - frac)
    planes[yy, xx, b1] += mag * frac
    return planes


def masked_normalize_oracle(desc):
    """L2 -> clip at 0.2 -> L2 with np.where masks around each division."""

    def safe_unit(d):
        norms = np.sqrt(np.sum(d * d, axis=1, keepdims=True))
        live = norms > NORM_FLOOR
        return np.where(live, d / np.where(live, norms, 1.0), 0.0)

    return safe_unit(np.minimum(safe_unit(desc), 0.2))


def pointwise_resize_oracle(p, out_h, out_w):
    """Bilinear resize gathering every (row, column) pair by 2-D fancy indexing."""
    in_h, in_w = p.shape
    sx = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    sy = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    x0 = np.clip(np.floor(sx).astype(int), 0, in_w - 1)
    y0 = np.clip(np.floor(sy).astype(int), 0, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    fx = np.clip(sx - x0, 0.0, 1.0)
    fy = np.clip(sy - y0, 0.0, 1.0)
    top = p[y0[:, None], x0[None, :]] * (1.0 - fx) + p[y0[:, None], x1[None, :]] * fx
    bot = p[y1[:, None], x0[None, :]] * (1.0 - fx) + p[y1[:, None], x1[None, :]] * fx
    return top * (1.0 - fy[:, None]) + bot * fy[:, None]


@pytest.fixture(scope="module")
def synthetic_levels():
    images = generate_synthetic(SyntheticSpec(count=12, seed=7))
    return [lv for im in images for lv in build_pyramid(im.image, levels=3).levels]


def test_gradients_match_where_oracle_bitwise(synthetic_levels):
    # 0.5 - 1e-16 above 0.5 gives dy ~ -5.6e-17 at dx = 0.5: atan2 is a tiny
    # negative angle whose shift by 2*pi rounds to 2*pi and folds back to 0.
    p = np.full((5, 6), 0.5)
    p[:, 3:] = 1.0
    p[4, :] = 0.5 - 1e-16
    rasters = [lv.pixels for lv in synthetic_levels] + [p]
    assert where_gradients_oracle(p)[1][3, 2] == 0.0
    for px in rasters:
        g_mag, g_ori = compute_gradients(GrayImage(px))
        mag, ori = where_gradients_oracle(px)
        assert np.array_equal(g_mag, mag)
        assert np.array_equal(g_ori, ori)


def edge_orientations(bins, period):
    """Bin boundaries over [0, 2*pi) and the last few floats below pi and 2*pi."""
    edges = [k * (period / bins) for k in range(int(round(2 * np.pi / period)) * bins)]
    below = []
    for top in (np.pi, 2.0 * np.pi):
        v = top
        for _ in range(4):
            v = np.nextafter(v, 0.0)
            below.append(v)
    return np.array(edges + below + [0.0])


@pytest.mark.parametrize("bins,period", [(8, 2.0 * np.pi), (9, np.pi), (12, np.pi)])
def test_orientation_planes_match_indexed_oracle_bitwise(synthetic_levels, bins, period):
    rng = np.random.default_rng(3)
    ori = edge_orientations(bins, period)
    fields = [(rng.uniform(size=(4, ori.size)), np.tile(ori, (4, 1)))]
    fields += [tuple(where_gradients_oracle(lv.pixels)) for lv in synthetic_levels]
    # With 12 bins over pi, the last float below pi divides to exactly 12.0
    # and must vote into bins 0 and 1; with 8 or 9 bins no orientation does.
    assert (np.mod(ori, period) / (period / bins) == bins).any() == (bins == 12)
    for mag, o in fields:
        got = _orientation_planes(mag, o, bins, period)
        assert np.array_equal(got, indexed_planes_oracle(mag, o, bins, period))


def test_normalize_matches_masked_oracle_bitwise(synthetic_levels):
    rng = np.random.default_rng(4)
    rows = rng.uniform(size=(40, 36)) * rng.uniform(size=(40, 1))
    rows[0] = 0.0  # zero norm
    rows[1] = 0.0
    rows[1, 5] = NORM_FLOOR  # norm exactly at the floor
    rows[2] = 0.0
    rows[2, :4] = 1e-12  # live components under the floor
    rows[3] = 0.0
    rows[3, 7] = 2.0 * NORM_FLOOR  # one component just over the floor
    rows[4] = 0.0
    rows[4, 0] = 5.0  # clipped to 0.2, then back to unit length
    batches = [rows]
    for lv in synthetic_levels[:6]:
        mag, ori = where_gradients_oracle(lv.pixels)
        planes = indexed_planes_oracle(mag, ori, 8, 2.0 * np.pi)
        batches.append(planes.reshape(-1, 32)[: 4 * (planes.size // 128)].reshape(-1, 128))
    for desc in batches:
        assert np.array_equal(_normalize_descriptors(desc), masked_normalize_oracle(desc))
    out = _normalize_descriptors(rows)
    assert np.all(out[:3] == 0.0) and out[3, 7] == 1.0


def test_bilinear_resize_matches_pointwise_oracle_bitwise(synthetic_levels):
    for lv in synthetic_levels[:9]:
        p = lv.pixels
        h, w = p.shape
        for out_h, out_w in ((h // 2, w // 2), (int(h * 0.7), int(w * 0.7)), (h + 5, w * 2), (1, w), (h, 1)):
            assert np.array_equal(_bilinear_resize(p, out_h, out_w), pointwise_resize_oracle(p, out_h, out_w))


def test_gradients_reject_tiny_images():
    with pytest.raises(DataError):
        compute_gradients(GrayImage(np.zeros((2, 5))))


def test_grayimage_rejects_out_of_range():
    with pytest.raises(DataError):
        GrayImage(np.array([[0.0, 1.5]]))
    with pytest.raises(DataError):
        GrayImage(np.array([[np.nan, 0.0]]))


def test_pyramid_single_level_is_identity():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.uniform(size=(32, 40)))
    pyr = build_pyramid(img, levels=1, factor=0.5)
    assert len(pyr.levels) == 1
    assert pyr.scale_factors == (1.0,)
    assert pyr.levels[0] is img
    assert np.array_equal(pyr.levels[0].pixels, img.pixels)


def test_pyramid_level_sizes_128():
    # round(128 * 2**(-l/2)) -> 128, 91, 64
    img = GrayImage(np.zeros((128, 128)))
    pyr = build_pyramid(img, levels=3, factor=1.0 / math.sqrt(2.0))
    sides = [(lv.width, lv.height) for lv in pyr.levels]
    assert sides == [(128, 128), (91, 91), (64, 64)]


def test_pyramid_rejects_levels_below_min_patch():
    img = GrayImage(np.zeros((32, 32)))
    with pytest.raises(DataError):
        build_pyramid(img, levels=3, factor=0.5)  # level 2 would be 8x8


def test_pyramid_rejects_bad_args():
    img = GrayImage(np.zeros((64, 64)))
    with pytest.raises(DataError):
        build_pyramid(img, levels=0, factor=0.5)
    with pytest.raises(DataError):
        build_pyramid(img, levels=2, factor=1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_downsampled_values_stay_in_source_range(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(34, 80))
    w = int(rng.integers(34, 80))
    p = rng.uniform(0.2, 0.8, size=(h, w))
    pyr = build_pyramid(GrayImage(p), levels=2, factor=0.7)
    lv = pyr.levels[1].pixels
    assert lv.min() >= p.min() - 1e-12
    assert lv.max() <= p.max() + 1e-12


def test_scale_factors_strictly_decreasing_enforced():
    img = GrayImage(np.zeros((30, 30)))
    with pytest.raises(DataError):
        ScalePyramid(levels=(img, img), scale_factors=(1.0, 1.0))


def test_level_size_half_up_rounding():
    assert level_size(128, 1.0 / math.sqrt(2.0), 1) == 91
    assert level_size(128, 0.5, 1) == 64
    assert level_size(3, 0.5, 1) == 2  # 1.5 rounds half-up


def test_pgm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    img = GrayImage(rng.integers(0, 256, size=(17, 23)).astype(np.float64) / 255.0)
    path = tmp_path / "img.pgm"
    path.write_bytes(pgm_bytes(img))
    back = load_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)
    # Writing again reproduces the same bytes.
    assert pgm_bytes(back) == path.read_bytes()


def test_load_pgm_missing_path_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="nope.pgm"):
        load_pgm(tmp_path / "nope.pgm")


def test_pgm_parser_handles_comments_and_rejects_garbage():
    img = parse_pgm(b"P5\n# a comment\n2 2\n255\n\x00\x7f\xff\x01")
    assert img.width == 2 and img.height == 2
    assert img.pixels[0, 1] == 127 / 255.0
    with pytest.raises(DataError):
        parse_pgm(b"P2\n2 2\n255\n")
    with pytest.raises(DataError):
        parse_pgm(b"P5\n2 2\n255\n\x00\x01")  # truncated raster
    with pytest.raises(DataError):
        parse_pgm(b"P5\n2 2\n65535\n" + b"\x00" * 8)
