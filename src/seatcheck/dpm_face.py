"""Part-based face detection baseline: HoG features, tree-structured part
models, and exact dynamic-programming inference.

HoG is imagecore's gradient-histogram kernel, shared with dense SIFT, over
unsigned orientations and normalized per 2x2 block of cells.

A model is a mixture of trees over a shared pool of parts. Each part carries
an appearance template (a linear filter over HoG cells); each tree edge
carries an anchor offset and quadratic deformation coefficients. The score
of a full configuration is

    sum_i  w_i . phi(fmap, l_i)
  + sum_ij a*dx^2 + b*dy^2 + c*dx + d*dy      (dx, dy) = child - (parent + anchor)
  + mixture bias

and inference maximizes it exactly over part placements and mixtures by
leaf-to-root message passing. The spring cost is separable, fx(xp, xc) +
fy(yp, yc), so each message is a max over the child's y for every (parent y,
child x), then over the child's x (Felzenszwalb & Huttenlocher's distance
transform order), taken directly: grids here are a few dozen cells a side.

Training of the templates is out of scope; models are either loaded from
a model file or synthesized from mean HoG responses of labeled face crops
(build_synthetic_face_model), which is all the occupancy comparison needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, is_integer
from .eval_metrics import Rect
from .imagecore import (
    DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR, GrayImage, _cell_weights, _normalize_descriptors, _orientation_planes,
    build_pyramid, compute_gradients, resize_bilinear,
)

DEFAULT_CELL_SIZE = 8
DEFAULT_BINS = 9


@dataclass(frozen=True)
class HogFeatureMap:
    """Block-normalized cell histograms: (cells_y, cells_x, bins), values in [0, 1]."""

    features: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        if f.ndim != 3:
            raise DataError("HoG features must be (cells_y, cells_x, bins)")
        if f.min() < 0.0 or f.max() > 1.0 + 1e-12:
            raise DataError("HoG features must lie in [0, 1]")
        object.__setattr__(self, "features", f)

    @property
    def cells_y(self) -> int:
        return self.features.shape[0]

    @property
    def cells_x(self) -> int:
        return self.features.shape[1]

    @property
    def bins(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class Edge:
    """Spring between parent and child: anchor offset plus quadratic costs.

    a and b must be strictly negative so the deformation score has a
    maximum and dynamic programming is well-posed.
    """

    parent: int
    child: int
    anchor_x: int
    anchor_y: int
    a: float
    b: float
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if not (self.a < 0 and self.b < 0):
            raise DataError("deformation coefficients a and b must be negative")
        values = (self.anchor_x, self.anchor_y, self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in values):
            raise DataError("edge anchor and deformation coefficients must be finite")

    def deformation(self, dx: float, dy: float) -> float:
        return self.a * dx * dx + self.b * dy * dy + self.c * dx + self.d * dy


@dataclass(frozen=True)
class PartTree:
    """One mixture: part templates plus a tree of deformation edges; ``order``
    lists the edges leaf to root (children before parents)."""

    templates: tuple[np.ndarray, ...]
    edges: tuple[Edge, ...]
    root: int = 0
    order: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tpls = tuple(np.ascontiguousarray(t, dtype=np.float64) for t in self.templates)
        if not tpls:
            raise DataError("a part tree needs at least one part")
        for t in tpls:
            if t.ndim != 3:
                raise DataError("templates must be (h_cells, w_cells, bins) arrays")
            if not np.isfinite(t).all():
                raise DataError("templates must be finite")
        n = len(tpls)
        parts = [self.root] + [i for e in self.edges for i in (e.parent, e.child)]
        if not all(0 <= i < n for i in parts):
            raise DataError("root or edge part index out of range")
        if len(self.edges) != n - 1:
            raise DataError(f"a tree over {n} parts needs {n - 1} edges")
        children = [e.child for e in self.edges]
        if len(set(children)) != len(children) or self.root in children:
            raise DataError("edges must give every non-root part exactly one parent")
        # With one parent per non-root part, a walk from the root visits each
        # part at most once; it reaches all n - 1 edges only when the edges
        # form one tree (a cycle or a second component stays unreached).
        by_parent: dict[int, list[Edge]] = {}
        for e in self.edges:
            by_parent.setdefault(e.parent, []).append(e)
        order: list[Edge] = []

        def visit(node: int) -> None:
            for e in by_parent.get(node, []):
                visit(e.child)
                order.append(e)

        visit(self.root)
        if len(order) != n - 1:
            raise DataError("part tree is not connected")
        object.__setattr__(self, "templates", tpls)
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "order", tuple(order))

    @property
    def n_parts(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class PartMixtureModel:
    """Mixture of part trees with per-mixture biases and shared HoG geometry."""

    mixtures: tuple[PartTree, ...]
    biases: tuple[float, ...]
    cell_size: int = DEFAULT_CELL_SIZE
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        if not self.mixtures:
            raise DataError("model needs at least one mixture")
        if len(self.biases) != len(self.mixtures):
            raise DataError("one bias per mixture required")
        if not all(math.isfinite(b) for b in self.biases):
            raise DataError("biases must be finite")
        if not all(is_integer(v) and v >= 1 for v in (self.cell_size, self.bins)):
            raise DataError(f"cell_size and bins must be integers >= 1, got {(self.cell_size, self.bins)!r}")
        for tree in self.mixtures:
            for t in tree.templates:
                if t.shape[2] != self.bins:
                    raise DataError("template bin count does not match model bins")
        object.__setattr__(self, "mixtures", tuple(self.mixtures))
        object.__setattr__(self, "biases", tuple(float(b) for b in self.biases))


@dataclass(frozen=True)
class Detection:
    """Best-scoring configuration: bounding box, score, mixture, part placements."""

    box: Rect
    score: float
    mixture: int
    part_locations: tuple[tuple[int, int], ...] = field(default=())


# --- HoG --------------------------------------------------------------------


def compute_hog(img: GrayImage, cell_size: int = DEFAULT_CELL_SIZE, bins: int = DEFAULT_BINS) -> HogFeatureMap:
    """imagecore's gradient-histogram kernel: ``bins`` orientation planes over
    [0, pi), pooled into ``cell_size`` cells by one matmul per axis, each 2x2
    block of cells normalized as one row of 4*bins (L2, clip at 0.2, L2; zero
    at norm <= NORM_FLOOR), then each cell averaged over its blocks."""
    cells_y = img.height // cell_size
    cells_x = img.width // cell_size
    if cells_y < 3 or cells_x < 3:
        raise DataError(
            f"image {img.width}x{img.height} yields {cells_x}x{cells_y} cells; need >= 3x3"
        )
    mag, ori = compute_gradients(img)
    planes = _orientation_planes(mag, ori, bins, np.pi)  # (H, W, bins)
    wy = _cell_weights(cells_y, img.height, cell_size)
    wx = _cell_weights(cells_x, img.width, cell_size)
    # pool y, then x: (cells_y, W, bins), then (cells_y, cells_x, bins)
    hist = wx @ (wy @ planes.reshape(img.height, -1)).reshape(cells_y, img.width, bins)

    nby, nbx = cells_y - 1, cells_x - 1
    blocks = sliding_window_view(hist, (2, 2), axis=(0, 1))  # (nby, nbx, bins, 2, 2)
    normed = _normalize_descriptors(blocks.reshape(nby * nbx, 4 * bins)).reshape(blocks.shape)
    acc = np.zeros_like(hist)
    cnt = np.zeros((cells_y, cells_x, 1))
    for dy in (0, 1):
        for dx in (0, 1):
            acc[dy : dy + nby, dx : dx + nbx] += normed[:, :, :, dy, dx]
            cnt[dy : dy + nby, dx : dx + nbx] += 1.0
    return HogFeatureMap(acc / cnt)


# --- scoring and inference ---------------------------------------------------


def _template_bounds(fmap: HogFeatureMap, tpl: np.ndarray) -> tuple[int, int]:
    ny = fmap.cells_y - tpl.shape[0] + 1
    nx = fmap.cells_x - tpl.shape[1] + 1
    return ny, nx


def _appearance_response(fmap: HogFeatureMap, tpl: np.ndarray) -> np.ndarray:
    """(ny, nx) filter response of a template at every valid top-left cell."""
    ny, nx = _template_bounds(fmap, tpl)
    if ny < 1 or nx < 1:
        raise DataError("feature map too small for template")
    windows = sliding_window_view(fmap.features, tpl.shape[:2], axis=(0, 1))
    return np.tensordot(windows, np.moveaxis(tpl, 2, 0), axes=([2, 3, 4], [0, 1, 2]))


def score_configuration(
    model: PartMixtureModel,
    m: int,
    fmap: HogFeatureMap,
    locations: list[tuple[int, int]] | tuple[tuple[int, int], ...],
) -> float:
    """Score one explicit placement: appearance + deformation + mixture bias.

    ``locations`` holds the (x, y) top-left cell of each part's template.
    """
    if not (0 <= m < len(model.mixtures)):
        raise DataError(f"mixture index {m} out of range")
    tree = model.mixtures[m]
    if len(locations) != tree.n_parts:
        raise DataError("one location per part required")
    total = 0.0
    for i, (x, y) in enumerate(locations):
        tpl = tree.templates[i]
        th, tw = tpl.shape[:2]
        if not (0 <= y <= fmap.cells_y - th and 0 <= x <= fmap.cells_x - tw):
            raise DataError(f"part {i} location ({x}, {y}) out of bounds")
        total += float((tpl * fmap.features[y : y + th, x : x + tw, :]).sum())
    for e in tree.edges:
        px, py = locations[e.parent]
        cx, cy = locations[e.child]
        total += e.deformation(cx - (px + e.anchor_x), cy - (py + e.anchor_y))
    return total + model.biases[m]


def _infer_tree(tree: PartTree, bias: float, fmap: HogFeatureMap):
    """Exact leaf-to-root DP for one mixture.

    Returns (best_value, locations) where ties between placements resolve
    to the smallest (x, y) lexicographically, x first.
    """
    # node value + accepted child messages
    totals = [_appearance_response(fmap, t) for t in tree.templates]
    argmax_child: dict[int, np.ndarray] = {}

    for e in tree.order:
        child_total = totals[e.child]
        nyc, nxc = child_total.shape
        nyp, nxp = totals[e.parent].shape
        dx = np.arange(nxc)[None, :] - (np.arange(nxp)[:, None] + e.anchor_x)
        dy = np.arange(nyc)[None, :] - (np.arange(nyp)[:, None] + e.anchor_y)
        fx = e.a * dx * dx + e.c * dx  # (nxp, nxc)
        fy = e.b * dy * dy + e.d * dy  # (nyp, nyc)
        # the spring is separable: max over yc for each (yp, xc), then over xc
        # for each (yp, xp); argmax keeps the first index at each step, so
        # ties resolve to the smallest (x, y), x first
        by_y = child_total.T[None, :, :] + fy[:, None, :]  # (nyp, nxc, nyc)
        yc = by_y.argmax(axis=2)
        col = np.take_along_axis(by_y, yc[:, :, None], axis=2)[:, :, 0]  # (nyp, nxc)
        by_x = col[:, None, :] + fx[None, :, :]  # (nyp, nxp, nxc)
        xc = by_x.argmax(axis=2)
        totals[e.parent] = totals[e.parent] + np.take_along_axis(by_x, xc[:, :, None], axis=2)[:, :, 0]
        argmax_child[e.child] = xc * nyc + np.take_along_axis(yc, xc, axis=1)

    root_scores = totals[tree.root]
    nyr, nxr = root_scores.shape
    flat_idx = int(root_scores.T.reshape(-1).argmax())  # x-major scan
    rx, ry = flat_idx // nyr, flat_idx % nyr
    value = float(root_scores[ry, rx]) + bias

    locations: list[tuple[int, int] | None] = [None] * tree.n_parts
    locations[tree.root] = (rx, ry)
    for e in tree.order[::-1]:  # root-to-leaf
        px, py = locations[e.parent]
        nyc = totals[e.child].shape[0]
        code = int(argmax_child[e.child][py, px])
        locations[e.child] = (code // nyc, code % nyc)
    return value, [loc for loc in locations]


def infer_best(model: PartMixtureModel, fmap: HogFeatureMap) -> Detection:
    """Maximize the configuration score over placements and mixtures, exactly.

    Ties break to the lowest mixture index, then the lexicographically
    smallest root location. The reported score is recomputed from the
    winning placement via score_configuration, so it is bit-identical to
    what any caller would get scoring that placement directly.
    """
    best = None
    for m, tree in enumerate(model.mixtures):
        value, locations = _infer_tree(tree, model.biases[m], fmap)
        if best is None or value > best[0]:
            best = (value, m, locations)
    value, m, locations = best
    score = score_configuration(model, m, fmap, locations)
    tree = model.mixtures[m]
    cs = model.cell_size
    xs0 = [loc[0] for loc in locations]
    ys0 = [loc[1] for loc in locations]
    xs1 = [loc[0] + t.shape[1] for loc, t in zip(locations, tree.templates)]
    ys1 = [loc[1] + t.shape[0] for loc, t in zip(locations, tree.templates)]
    box = Rect(
        x=cs * min(xs0),
        y=cs * min(ys0),
        w=cs * (max(xs1) - min(xs0)),
        h=cs * (max(ys1) - min(ys0)),
    )
    return Detection(box=box, score=score, mixture=m, part_locations=tuple(locations))


def detect_occupancy(
    model: PartMixtureModel,
    img: GrayImage,
    threshold: float,
    levels: int = DEFAULT_LEVELS,
    factor: float = DEFAULT_SCALE_FACTOR,
) -> tuple[str, Detection]:
    """Run HoG + inference on a scale pyramid; 'person' iff the best score
    clears the threshold. The detection box is mapped back to original
    image pixels for auditing against ground truth."""
    pyr = build_pyramid(img, levels=levels, factor=factor)
    best: Detection | None = None
    for level, scale in zip(pyr.levels, pyr.scale_factors):
        try:
            fmap = compute_hog(level, model.cell_size, model.bins)
            det = infer_best(model, fmap)
        except DataError:
            continue  # level too small for this model
        if best is None or det.score > best.score:
            b = det.box
            best = Detection(
                box=Rect(x=b.x / scale, y=b.y / scale, w=b.w / scale, h=b.h / scale),
                score=det.score,
                mixture=det.mixture,
                part_locations=det.part_locations,
            )
    if best is None:
        raise DataError("no pyramid level was large enough for the model")
    decision = "person" if best.score >= threshold else "empty"
    return decision, best


# --- synthetic model construction --------------------------------------------

# Canonical face crop side in pixels for template building. Matches the small
# end of the synthetic face-size range: detection pyramids only downscale, so
# the template must fit the smallest faces at level 0.
FACE_PATCH = 24
# HoG cell side of the face model: a FACE_PATCH crop gives 8x8 cells.
FACE_CELL_SIZE = 3


def build_synthetic_face_model(
    faces: list[tuple[GrayImage, Rect]],
    negatives: list[GrayImage],
    cell_size: int = FACE_CELL_SIZE,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
) -> PartMixtureModel:
    """Derive a three-part tree from mean HoG responses of face crops.

    The root template is the mean positive HoG minus the mean HoG of random
    crops from empty-seat images; eye-band and mouth-band parts reuse the
    corresponding sub-blocks. This is not a trained detector, just enough
    signal to exercise scoring and inference on synthetic data.
    """
    if not faces or not negatives:
        raise DataError("need at least one face crop and one negative image")
    if not is_integer(cell_size):
        raise DataError(f"cell size must be an integer, got {cell_size!r}")
    if cell_size < 1:
        raise DataError(f"cell size must be at least 1, got {cell_size!r}")
    if not is_integer(seed):
        raise DataError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)

    def crop_hog(img: GrayImage, rect: Rect) -> np.ndarray:
        x0 = max(0, int(math.floor(rect.x)))
        y0 = max(0, int(math.floor(rect.y)))
        x1 = min(img.width, int(math.ceil(rect.x + rect.w)))
        y1 = min(img.height, int(math.ceil(rect.y + rect.h)))
        if x1 - x0 < 4 or y1 - y0 < 4:
            raise DataError("face box too small to crop")
        patch = GrayImage(img.pixels[y0:y1, x0:x1])
        patch = resize_bilinear(patch, FACE_PATCH, FACE_PATCH)
        return compute_hog(patch, cell_size, bins).features

    pos = np.mean([crop_hog(img, rect) for img, rect in faces], axis=0)

    neg_maps = []
    for _ in range(max(len(faces), 16)):
        img = negatives[int(rng.integers(len(negatives)))]
        if img.width < FACE_PATCH or img.height < FACE_PATCH:
            raise DataError("negative image smaller than the face patch")
        x0 = int(rng.integers(img.width - FACE_PATCH + 1))
        y0 = int(rng.integers(img.height - FACE_PATCH + 1))
        patch = GrayImage(img.pixels[y0 : y0 + FACE_PATCH, x0 : x0 + FACE_PATCH])
        neg_maps.append(compute_hog(patch, cell_size, bins).features)
    neg = np.mean(neg_maps, axis=0)

    w = pos - neg
    n_cells = w.shape[0]
    mid = n_cells // 2
    eye_block = w[1:mid, 1 : n_cells - 1]
    mouth_block = w[mid : n_cells - 1, 2 : n_cells - 2]
    tree = PartTree(
        templates=(w, eye_block, mouth_block),
        edges=(
            Edge(parent=0, child=1, anchor_x=1, anchor_y=1, a=-0.3, b=-0.3),
            Edge(parent=0, child=2, anchor_x=2, anchor_y=mid, a=-0.3, b=-0.3),
        ),
        root=0,
    )
    return PartMixtureModel(mixtures=(tree,), biases=(0.0,), cell_size=cell_size, bins=bins)
