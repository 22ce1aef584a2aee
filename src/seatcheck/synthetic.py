"""Synthetic occupancy-image generation and dataset handling.

Real through-windshield occupancy imagery is proprietary, so quantitative
evaluation here runs on a generated stand-in that mimics its failure
modes: strong per-image illumination variation, textured empty seats, and
partial occlusion of faces.

Empty-seat images are oriented seat-fabric bands plus a low-frequency
illumination gradient and Gaussian noise. Person images additionally
composite an elliptical head (with eye and mouth blobs) and a torso
trapezoid at a jittered seat position, and sometimes drop occlusion bars
across the upper body; the ground-truth face box is the head ellipse's
bounding box. Everything is deterministic given the generation seed.

Each shape is drawn only where it can change a pixel, from one sparse
coordinate grid per corpus. An ellipse with centre c and radius r is blended
on the integer box [floor(c - r), ceil(c + r)] of each axis, clipped to the
canvas. This is exact: a pixel outside that box lies about a pixel or more
beyond c +- r on some axis, far more than rounding can close, so its r2
exceeds 1, its alpha clips to 0, and canvas * 1.0 + value * 0.0 gives back
the canvas bits. The torso touches only the rows at or below its top, and an
occlusion bar only its own rows or columns. Every pixel still gets the same
arithmetic as a full-canvas pass, and the random draws keep their order, so
a seed gives the same bits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, is_integer
from .eval_metrics import Rect
from .imagecore import GrayImage, load_pgm, pgm_bytes
from .store import atomic_write_bytes, atomic_write_text

LABELS = ("person", "empty")

# Probability that a person image gets occlusion bars over the upper body.
OCCLUSION_PROB = 0.25


@dataclass(frozen=True)
class SyntheticSpec:
    count: int
    positive_fraction: float = 0.5
    width: int = 128
    height: int = 96
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not all(map(is_integer, (self.count, self.width, self.height, self.seed))):
            raise DataError("count, width, height and seed must be integers")
        if self.count < 2:
            raise DataError("count must be at least 2")
        if not (0.0 < self.positive_fraction < 1.0):
            raise DataError("positive_fraction must lie strictly between 0 and 1")
        if self.width < 64 or self.height < 64:
            raise DataError("synthetic images must be at least 64x64")
        if not 0.0 <= self.noise_sigma < np.inf:  # NaN fails both
            raise DataError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma!r}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed!r}")

    @property
    def n_positive(self) -> int:
        return min(max(int(round(self.count * self.positive_fraction)), 1), self.count - 1)


@dataclass(frozen=True)
class LabeledImage:
    image: GrayImage
    label: str
    gt_face_box: Rect | None
    image_id: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise DataError(f"label must be one of {LABELS}")
        if (self.label == "person") != (self.gt_face_box is not None):
            raise DataError("gt_face_box must be present exactly for person images")
        if self.gt_face_box is not None:
            b = self.gt_face_box
            if b.x < 0 or b.y < 0 or b.x + b.w > self.image.width or b.y + b.h > self.image.height:
                raise DataError("gt_face_box must lie inside the image")

    @property
    def target(self) -> int:
        """Classifier label: +1 for an occupied seat, -1 for an empty one."""
        return 1 if self.label == "person" else -1


def _ellipse_blend(canvas, grid, cx, cy, rx, ry, value, softness=4.0):
    """Blend a soft ellipse into ``canvas`` in place, inside its bounding box only."""
    ys, xs = grid
    h, w = canvas.shape
    y0, y1 = max(math.floor(cy - ry), 0), min(math.ceil(cy + ry) + 1, h)
    x0, x1 = max(math.floor(cx - rx), 0), min(math.ceil(cx + rx) + 1, w)
    r2 = ((xs[:, x0:x1] - cx) / rx) ** 2 + ((ys[y0:y1] - cy) / ry) ** 2
    alpha = np.clip((1.0 - r2) * softness, 0.0, 1.0)
    box = canvas[y0:y1, x0:x1]
    box[...] = box * (1.0 - alpha) + value * alpha


def _seat_background(rng, grid, w, h):
    ys, xs = grid
    base = rng.uniform(0.30, 0.55)
    # seat fabric runs mostly horizontally; jittered, not free-angle
    theta = np.pi / 2.0 + rng.uniform(-0.35, 0.35)
    freq = rng.uniform(0.06, 0.12)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = rng.uniform(0.06, 0.13)
    bands = amp * np.sin(2.0 * np.pi * freq * (xs * np.cos(theta) + ys * np.sin(theta)) + phase)
    gx, gy = rng.uniform(-0.22, 0.22, size=2)
    gradient = gx * (xs / w - 0.5) + gy * (ys / h - 0.5)
    bands += base
    bands += gradient
    return bands


def _render_headrest(rng, canvas, grid, w, h):
    """Every seat carries a head-sized elliptical headrest: the classic
    face-detector confuser (an ellipse with no facial features)."""
    cx = w * 0.5 + rng.uniform(-0.06, 0.06) * w
    cy = h * 0.30 + rng.uniform(-0.05, 0.05) * h
    rx = rng.uniform(11.0, 15.0) * (w / 128.0)
    ry = rx * rng.uniform(1.05, 1.25)
    cx = float(np.clip(cx, rx + 1.0, w - rx - 1.0))
    cy = float(np.clip(cy, ry + 1.0, h - ry - 1.0))
    tone = rng.uniform(0.45, 0.70)
    _ellipse_blend(canvas, grid, cx, cy, rx, ry, tone)
    # faint seam across the cushion
    seam = tone - rng.uniform(0.08, 0.16)
    _ellipse_blend(canvas, grid, cx, cy + 0.1 * ry, 0.8 * rx, 0.08 * ry, seam)


def _render_person(rng, canvas, grid, w, h):
    ys, xs = grid
    cx = w * 0.5 + rng.uniform(-0.07, 0.07) * w
    cy = h * 0.40 + rng.uniform(-0.07, 0.07) * h
    rx = rng.uniform(10.0, 14.0) * (w / 128.0)
    ry = rx * rng.uniform(1.15, 1.35)
    cx = float(np.clip(cx, rx + 1.0, w - rx - 1.0))
    cy = float(np.clip(cy, ry + 1.0, h - ry - 1.0))
    head = rng.uniform(0.62, 0.85)

    # torso first so the chin overlaps it; it covers the rows y >= torso_top
    torso_top = cy + 0.8 * ry
    torso_int = rng.uniform(0.30, 0.70)
    top = math.ceil(torso_top)
    depth = np.clip((ys[top:] - torso_top) / max(h - torso_top, 1.0), 0.0, 1.0)
    half_width = (1.3 + 1.3 * depth) * rx
    tcx = cx + rng.uniform(-3.0, 3.0)
    torso = canvas[top:]
    torso[...] = np.where(np.abs(xs - tcx) <= half_width, 0.25 * torso + 0.75 * torso_int, torso)

    _ellipse_blend(canvas, grid, cx, cy, rx, ry, head)
    feature_int = head - rng.uniform(0.32, 0.45)
    for sx in (-1.0, 1.0):
        _ellipse_blend(
            canvas, grid, cx + sx * 0.45 * rx, cy - 0.25 * ry, 0.26 * rx, 0.16 * ry, feature_int
        )
    _ellipse_blend(canvas, grid, cx, cy + 0.45 * ry, 0.34 * rx, 0.14 * ry, feature_int)

    if rng.uniform() < OCCLUSION_PROB:
        for _ in range(int(rng.integers(1, 3))):
            bar_w = rng.uniform(3.0, 7.0)
            dark = rng.uniform() < 0.7
            bar_int = rng.uniform(0.04, 0.22) if dark else rng.uniform(0.75, 0.95)
            if rng.uniform() < 0.6:  # vertical bar near or through the face band
                bx = cx + rng.uniform(-1.4, 1.4) * rx
                canvas[:, np.abs(xs[0] - bx) <= bar_w / 2.0] = bar_int
            else:
                by = cy + rng.uniform(-1.4, 1.4) * ry
                canvas[np.abs(ys[:, 0] - by) <= bar_w / 2.0] = bar_int

    return Rect(x=cx - rx, y=cy - ry, w=2.0 * rx, h=2.0 * ry)


def generate_synthetic(spec: SyntheticSpec) -> list[LabeledImage]:
    """Deterministically generate ``spec.count`` labeled images.

    Exactly ``spec.n_positive`` images are 'person'; labels are interleaved
    deterministically by a seeded shuffle.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.array(["person"] * spec.n_positive + ["empty"] * (spec.count - spec.n_positive))
    rng.shuffle(labels)
    w, h = spec.width, spec.height
    grid = np.indices((h, w), sparse=True)

    out = []
    for i, label in enumerate(labels):
        canvas = _seat_background(rng, grid, w, h)
        _render_headrest(rng, canvas, grid, w, h)
        box = _render_person(rng, canvas, grid, w, h) if label == "person" else None
        # windshield transmission: per-image gain over the whole scene,
        # then sensor noise
        canvas *= rng.uniform(0.6, 1.0)
        if spec.noise_sigma > 0:
            canvas += rng.normal(0.0, spec.noise_sigma, size=canvas.shape)
        img = GrayImage(np.clip(canvas, 0.0, 1.0, out=canvas))
        out.append(
            LabeledImage(image=img, label=str(label), gt_face_box=box, image_id=f"synth-{i:05d}")
        )
    return out


def split(
    data: list[LabeledImage], train_fraction: float, seed: int
) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Stratified train/test split, deterministic in the seed.

    Both splits preserve the original ordering of the surviving images.
    """
    if not (0.0 < train_fraction < 1.0):
        raise DataError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx: set[int] = set()
    for label in LABELS:
        idx = [i for i, im in enumerate(data) if im.label == label]
        if len(idx) < 2:
            raise DataError(f"class {label!r} needs at least 2 images to split")
        k = min(max(int(round(train_fraction * len(idx))), 1), len(idx) - 1)
        perm = rng.permutation(len(idx))
        train_idx.update(idx[p] for p in perm[:k])
    train = [im for i, im in enumerate(data) if i in train_idx]
    test = [im for i, im in enumerate(data) if i not in train_idx]
    return train, test


# --- manifest I/O -------------------------------------------------------------


def save_dataset(images: list[LabeledImage], out_dir: str | Path) -> Path:
    """Atomically write one PGM per image plus a manifest.csv (path, label, box)."""
    out_dir = Path(out_dir)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "label", "x", "y", "w", "h"])
    for im in images:
        rel = f"images/{im.image_id}.pgm"
        atomic_write_bytes(out_dir / rel, pgm_bytes(im.image))
        if im.gt_face_box is not None:
            b = im.gt_face_box
            writer.writerow([rel, im.label, repr(b.x), repr(b.y), repr(b.w), repr(b.h)])
        else:
            writer.writerow([rel, im.label, "", "", "", ""])
    manifest = out_dir / "manifest.csv"
    atomic_write_text(manifest, buf.getvalue())
    return manifest


def load_dataset(manifest_path: str | Path) -> list[LabeledImage]:
    """Read a manifest.csv and its PGM images (paths relative to the manifest)."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    out = []
    first_line: dict[str, int] = {}
    try:
        rows = list(csv.reader(manifest_path.read_text(encoding="utf-8").splitlines()))
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read manifest {manifest_path}: {e}") from e
    if not rows or rows[0][:2] != ["path", "label"]:
        raise DataError("manifest must start with a 'path,label,x,y,w,h' header")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise DataError(f"manifest line {lineno}: expected 6 columns, got {len(row)}")
        path, label, *box_fields = row
        image_id = Path(path).stem  # ids name images downstream, so they must be unique
        if first_line.setdefault(image_id, lineno) != lineno:
            raise DataError(
                f"manifest lines {first_line[image_id]} and {lineno} both give image id {image_id!r}"
            )
        box = None
        if any(f != "" for f in box_fields):
            try:
                box = Rect(*(float(f) for f in box_fields))
            except (ValueError, DataError) as e:
                raise DataError(f"manifest line {lineno}: bad box: {e}") from e
        try:
            img = load_pgm(root / path)
        except DataError as e:
            raise DataError(f"manifest line {lineno}: image {path!r}: {e}") from e
        out.append(
            LabeledImage(image=img, label=label, gt_face_box=box, image_id=image_id)
        )
    return out
