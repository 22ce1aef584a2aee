import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcheck.errors import DataError
from seatcheck.synthetic import (
    LabeledImage,
    SyntheticSpec,
    _ellipse_blend,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
)


def test_generation_is_deterministic():
    spec = SyntheticSpec(count=10, positive_fraction=0.5, seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert [im.label for im in a] == [im.label for im in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.image.pixels, y.image.pixels)
        assert x.gt_face_box == y.gt_face_box


def _corpus_sha256(images):
    h = hashlib.sha256()
    for im in images:
        h.update(im.image.pixels.tobytes())
        h.update(im.label.encode())
        b = im.gt_face_box
        h.update(repr(None if b is None else (b.x, b.y, b.w, b.h)).encode())
    return h.hexdigest()


# Recorded from the full-canvas renderer that drew every shape over every pixel;
# the bounding-box renderer must reproduce its pixels, labels and boxes bit for bit.
@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            {"count": 400, "seed": 7},
            "67d28cea0f6ad8b94cbd51f7a97f6b018a56f27cd38ff818bbe20990013794d4",
        ),
        (
            {"count": 40, "seed": 7, "noise_sigma": 0.0},
            "6bdf926737c25fa05c46424860a24aa32436bb46ed032ca23ab975281cb3ca36",
        ),
        (
            {"count": 40, "seed": 7, "noise_sigma": 0.3},
            "1038673735a53fb35d1ebdb276d2996cd5ac7b8c75f4807fb1b26514fb29aa02",
        ),
        (
            {"count": 40, "seed": 7, "width": 64, "height": 64},
            "c94256e5899b56112dc51fa4407e634e89fc4615721aa54b651eb21a55e46847",
        ),
        (
            {"count": 40, "seed": 7, "width": 200, "height": 150},
            "00a6853ddf89c26e1b9303acda275e2f69d67cd3026952da7fa002ec22cf37dd",
        ),
        (  # six occlusion bars, vertical and horizontal, over three person images
            {"count": 6, "seed": 28},
            "ce37468fc8f13100dd99e7b03c1782298233bf6d4fbc2bce73fd51becbffe933",
        ),
    ],
    ids=["canonical", "noise0", "noise0.3", "64x64", "200x150", "bars"],
)
def test_generated_corpus_matches_its_pinned_digest(spec, digest):
    assert _corpus_sha256(generate_synthetic(SyntheticSpec(**spec))) == digest


def _full_canvas_blend(canvas, cx, cy, rx, ry, value, softness=4.0):
    ys, xs = np.indices(canvas.shape)
    r2 = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
    alpha = np.clip((1.0 - r2) * softness, 0.0, 1.0)
    return canvas * (1.0 - alpha) + value * alpha


_radius = st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    cx=st.floats(-30.0, 70.0),
    cy=st.floats(-30.0, 70.0),
    rx=_radius,
    ry=_radius,
    value=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_clipped_ellipse_blend_equals_the_full_canvas_formula(h, w, cx, cy, rx, ry, value, seed):
    canvas = np.random.default_rng(seed).uniform(0.0, 1.0, size=(h, w))
    expected = _full_canvas_blend(canvas, cx, cy, rx, ry, value)
    _ellipse_blend(canvas, np.indices((h, w), sparse=True), cx, cy, rx, ry, value)
    assert canvas.tobytes() == expected.tobytes()


def test_exact_stratification():
    images = generate_synthetic(SyntheticSpec(count=400, positive_fraction=0.5, seed=1))
    labels = [im.label for im in images]
    assert labels.count("person") == 200
    assert labels.count("empty") == 200


def test_all_face_boxes_inside_bounds():
    images = generate_synthetic(SyntheticSpec(count=1000, positive_fraction=0.5, seed=3))
    for im in images:
        if im.label == "person":
            b = im.gt_face_box
            assert b is not None
            assert b.x >= 0 and b.y >= 0
            assert b.x + b.w <= im.image.width
            assert b.y + b.h <= im.image.height
        else:
            assert im.gt_face_box is None


def test_different_seeds_differ():
    a = generate_synthetic(SyntheticSpec(count=4, seed=0))
    b = generate_synthetic(SyntheticSpec(count=4, seed=1))
    assert any(not np.array_equal(x.image.pixels, y.image.pixels) for x, y in zip(a, b))


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticSpec(count=1)
    with pytest.raises(DataError):
        SyntheticSpec(count=10, positive_fraction=0.0)
    with pytest.raises(DataError):
        SyntheticSpec(count=10, width=32)
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="noise_sigma"):
            SyntheticSpec(count=10, noise_sigma=sigma)
    with pytest.raises(DataError):
        SyntheticSpec(count=10, seed=-1)
    for bad in ({"count": 2.5}, {"count": True}, {"width": 128.5}, {"height": 96.0}, {"seed": 1.5}):
        with pytest.raises(DataError, match="must be integers"):
            SyntheticSpec(**{"count": 10, **bad})


def test_labeled_image_invariants():
    images = generate_synthetic(SyntheticSpec(count=4, seed=2))
    person = next(im for im in images if im.label == "person")
    with pytest.raises(DataError):
        LabeledImage(image=person.image, label="person", gt_face_box=None, image_id="x")
    with pytest.raises(DataError):
        LabeledImage(image=person.image, label="nope", gt_face_box=None, image_id="x")


def test_split_balanced_80_20():
    images = generate_synthetic(SyntheticSpec(count=100, positive_fraction=0.5, seed=4))
    train, test = split(images, 0.8, seed=0)
    assert len(train) == 80 and len(test) == 20
    assert sum(1 for im in train if im.label == "person") == 40
    assert sum(1 for im in test if im.label == "person") == 10


def test_split_deterministic_and_partition():
    images = generate_synthetic(SyntheticSpec(count=50, positive_fraction=0.4, seed=5))
    t1, e1 = split(images, 0.7, seed=11)
    t2, e2 = split(images, 0.7, seed=11)
    assert [im.image_id for im in t1] == [im.image_id for im in t2]
    assert [im.image_id for im in e1] == [im.image_id for im in e2]

    train_ids = {im.image_id for im in t1}
    test_ids = {im.image_id for im in e1}
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {im.image_id for im in images}


def test_split_rejects_tiny_classes():
    images = generate_synthetic(SyntheticSpec(count=10, positive_fraction=0.5, seed=6))
    one_person = [im for im in images if im.label == "person"][:1] + [
        im for im in images if im.label == "empty"
    ]
    with pytest.raises(DataError):
        split(one_person, 0.5, seed=0)
    with pytest.raises(DataError):
        split(images, 1.0, seed=0)


def test_dataset_round_trip(tmp_path):
    images = generate_synthetic(SyntheticSpec(count=6, positive_fraction=0.5, seed=8))
    manifest = save_dataset(images, tmp_path)
    back = load_dataset(manifest)
    assert [im.image_id for im in back] == [im.image_id for im in images]
    assert [im.label for im in back] == [im.label for im in images]
    for a, b in zip(images, back):
        # pixels quantized to 1/255 by PGM round-trip
        assert np.abs(a.image.pixels - b.image.pixels).max() <= 0.5 / 255.0
        if a.gt_face_box is not None:
            assert b.gt_face_box == a.gt_face_box


def test_save_dataset_is_atomic_and_round_trips_exactly(tmp_path):
    images = generate_synthetic(SyntheticSpec(count=4, positive_fraction=0.5, seed=9))
    manifest = save_dataset(images, tmp_path / "a")
    written = sorted(p.relative_to(tmp_path / "a").as_posix() for p in (tmp_path / "a").rglob("*"))
    assert written == sorted(
        ["images", "manifest.csv"] + [f"images/{im.image_id}.pgm" for im in images]
    )  # no temporary files left behind
    back = load_dataset(manifest)
    for a, b in zip(images, back):
        assert np.array_equal(b.image.pixels, np.floor(a.image.pixels * 255.0 + 0.5) / 255.0)
        assert (b.label, b.gt_face_box, b.image_id) == (a.label, a.gt_face_box, a.image_id)
    save_dataset(back, tmp_path / "b")
    for rel in written:
        if rel != "images":
            assert (tmp_path / "b" / rel).read_bytes() == (tmp_path / "a" / rel).read_bytes(), rel


def test_load_dataset_rejects_malformed(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("nope\n")
    with pytest.raises(DataError):
        load_dataset(bad)
    bad.write_text("path,label,x,y,w,h\nimg.pgm,person,1,2\n")
    with pytest.raises(DataError):
        load_dataset(bad)
    for box in ("nan,nan,nan,nan", "1,2,inf,4", "1,2,-3,4"):
        bad.write_text(f"path,label,x,y,w,h\nimg.pgm,person,{box}\n")
        with pytest.raises(DataError, match="manifest line 2: bad box"):
            load_dataset(bad)


def test_load_dataset_names_the_line_of_a_corrupt_image(tmp_path):
    images = generate_synthetic(SyntheticSpec(count=4, positive_fraction=0.5, seed=9))
    manifest = save_dataset(images, tmp_path)
    (tmp_path / "images" / f"{images[2].image_id}.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(DataError, match=r"manifest line 4: .*truncated"):
        load_dataset(manifest)


def test_load_dataset_rejects_two_rows_with_one_image_id(tmp_path):
    # an image's id is its file stem: images/x.pgm and sub/images/x.pgm collide,
    # and encode --manifest would label both with the second row's label
    images = generate_synthetic(SyntheticSpec(count=4, positive_fraction=0.5, seed=9))
    manifest = save_dataset(images, tmp_path)
    name = f"{images[0].image_id}.pgm"
    (tmp_path / "sub" / "images").mkdir(parents=True)
    (tmp_path / "sub" / "images" / name).write_bytes((tmp_path / "images" / name).read_bytes())
    rows = manifest.read_text().splitlines()
    manifest.write_text("\n".join(rows + [f"sub/images/{name},empty,,,,"]) + "\n")
    with pytest.raises(DataError, match=rf"lines 2 and 6 both give image id '{images[0].image_id}'"):
        load_dataset(manifest)
