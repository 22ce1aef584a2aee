import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcheck.errors import DataError
from seatcheck.imagecore import (
    GrayImage,
    ScalePyramid,
    build_pyramid,
    compute_gradients,
    level_size,
    load_image,
    load_pgm,
    parse_pgm,
    pgm_bytes,
    save_pgm,
)


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
    g = compute_gradients(GrayImage(np.full((5, 7), 0.3)))
    assert np.all(g.magnitude == 0.0)


def test_horizontal_ramp_orientation_zero():
    w, h = 16, 8
    x = np.arange(w, dtype=np.float64)
    img = GrayImage(np.tile(x / w, (h, 1)))
    g = compute_gradients(img)
    interior = np.s_[1:-1, 1:-1]
    np.testing.assert_allclose(g.orientation[interior], 0.0, atol=1e-15)
    np.testing.assert_allclose(g.magnitude[interior], 1.0 / w, rtol=1e-12)


def test_random_gradients_match_per_pixel_oracle_exactly():
    rng = np.random.default_rng(7)
    p = rng.uniform(size=(8, 8))
    g = compute_gradients(GrayImage(p))
    mag, ori = gradient_oracle(p)
    assert np.array_equal(g.magnitude, mag)
    # math.atan2 and numpy's SIMD arctan2 can disagree in the last ulp, so
    # orientation is compared at libm precision rather than bitwise.
    np.testing.assert_allclose(g.orientation, ori, atol=1e-12)


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
    save_pgm(img, path)
    back = load_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)
    # Writing again reproduces the same bytes.
    assert pgm_bytes(back) == path.read_bytes()


def test_png_loading_via_pillow(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 256, size=(12, 9), dtype=np.uint8)
    path = tmp_path / "img.png"
    PIL.fromarray(raw, mode="L").save(path)
    img = load_image(path)
    assert np.array_equal(img.pixels, raw.astype(np.float64) / 255.0)


def test_load_image_missing_path_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="nope.pgm"):
        load_image(tmp_path / "nope.pgm")


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
