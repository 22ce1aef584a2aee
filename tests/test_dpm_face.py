import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from seatcheck import dpm_face
from seatcheck.dpm_face import (
    Edge,
    HogFeatureMap,
    PartMixtureModel,
    PartTree,
    build_synthetic_face_model,
    compute_hog,
    detect_occupancy,
    infer_best,
    score_configuration,
)
from seatcheck.errors import DataError
from seatcheck.eval_metrics import Rect
from seatcheck.imagecore import GrayImage, build_pyramid, compute_gradients
from seatcheck.pipeline import build_face_model
from seatcheck.synthetic import SyntheticSpec, generate_synthetic, split


def hog_oracle(pixels, cell=8, bins=9):
    """Naive per-pixel re-vote of the HoG computation, loops only."""
    g_mag, g_ori = compute_gradients(GrayImage(pixels))
    h, w = pixels.shape
    cy_n, cx_n = h // cell, w // cell
    hist = np.zeros((cy_n, cx_n, bins))
    delta = math.pi / bins
    for y in range(h):
        for x in range(w):
            m = g_mag[y, x]
            o = (g_ori[y, x] % math.pi) / delta
            b0 = int(math.floor(o)) % bins
            fb = o - math.floor(o)
            cy = (y + 0.5) / cell - 0.5
            cx = (x + 0.5) / cell - 0.5
            iy, fy = int(math.floor(cy)), cy - math.floor(cy)
            ix, fx = int(math.floor(cx)), cx - math.floor(cx)
            for yy, wy in ((iy, 1 - fy), (iy + 1, fy)):
                if not 0 <= yy < cy_n:
                    continue
                for xx, wx in ((ix, 1 - fx), (ix + 1, fx)):
                    if not 0 <= xx < cx_n:
                        continue
                    for b, wb in ((b0, 1 - fb), ((b0 + 1) % bins, fb)):
                        hist[yy, xx, b] += m * wy * wx * wb
    acc = np.zeros_like(hist)
    cnt = np.zeros((cy_n, cx_n, 1))
    for by in range(cy_n - 1):
        for bx in range(cx_n - 1):
            block = hist[by : by + 2, bx : bx + 2, :].copy()
            n = math.sqrt(float((block**2).sum()))
            bn = block / n if n > 0 else np.zeros_like(block)
            bn = np.minimum(bn, 0.2)
            n2 = math.sqrt(float((bn**2).sum()))
            bn = bn / n2 if n2 > 0 else np.zeros_like(bn)
            for dy in (0, 1):
                for dx in (0, 1):
                    acc[by + dy, bx + dx] += bn[dy, dx]
                    cnt[by + dy, bx + dx] += 1
    return acc / cnt


def scatter_hog_oracle(img, cell_size=8, bins=9):
    """HoG by scattered votes: eight np.add.at calls over per-pixel cell and
    bin indices, then two-step block normalization with a zero-norm guard."""
    cells_y = img.height // cell_size
    cells_x = img.width // cell_size
    g_mag, g_ori = compute_gradients(img)
    mag = g_mag.ravel()
    ori = np.mod(g_ori, np.pi).ravel()

    delta = np.pi / bins
    o = ori / delta
    b0 = np.floor(o)
    fb = o - b0
    b0 = b0.astype(np.int64) % bins
    b1 = (b0 + 1) % bins

    h, w = img.pixels.shape
    ys, xs = np.indices((h, w))
    cy = (ys.ravel() + 0.5) / cell_size - 0.5
    cx = (xs.ravel() + 0.5) / cell_size - 0.5
    cy0 = np.floor(cy).astype(np.int64)
    cx0 = np.floor(cx).astype(np.int64)
    fy = cy - cy0
    fx = cx - cx0

    hist = np.zeros((cells_y, cells_x, bins))
    for ciy, wy in ((cy0, 1.0 - fy), (cy0 + 1, fy)):
        for cix, wx in ((cx0, 1.0 - fx), (cx0 + 1, fx)):
            ok = (ciy >= 0) & (ciy < cells_y) & (cix >= 0) & (cix < cells_x)
            for bb, wb in ((b0, 1.0 - fb), (b1, fb)):
                np.add.at(hist, (ciy[ok], cix[ok], bb[ok]), (mag * wy * wx * wb)[ok])

    blocks = sliding_window_view(hist, (2, 2), axis=(0, 1))  # (cy-1, cx-1, bins, 2, 2)
    norms = np.sqrt((blocks**2).sum(axis=(2, 3, 4), keepdims=True))
    normed = np.divide(blocks, norms, out=np.zeros_like(blocks), where=norms > 0)
    normed = np.minimum(normed, 0.2)
    norms2 = np.sqrt((normed**2).sum(axis=(2, 3, 4), keepdims=True))
    normed = np.divide(normed, norms2, out=np.zeros_like(normed), where=norms2 > 0)

    acc = np.zeros_like(hist)
    cnt = np.zeros((cells_y, cells_x, 1))
    nby, nbx = cells_y - 1, cells_x - 1
    for dy in (0, 1):
        for dx in (0, 1):
            acc[dy : dy + nby, dx : dx + nbx] += normed[:, :, :, dy, dx]
            cnt[dy : dy + nby, dx : dx + nbx] += 1.0
    return acc / cnt


def random_model(rng, max_parts=4, bins=2, mixtures=1):
    trees = []
    for _ in range(mixtures):
        n = int(rng.integers(1, max_parts + 1))
        templates = []
        for _ in range(n):
            th, tw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            templates.append(rng.normal(size=(th, tw, bins)))
        edges = []
        for child in range(1, n):
            parent = int(rng.integers(0, child))
            edges.append(
                Edge(
                    parent=parent,
                    child=child,
                    anchor_x=int(rng.integers(-2, 3)),
                    anchor_y=int(rng.integers(-2, 3)),
                    a=float(-rng.uniform(0.05, 1.0)),
                    b=float(-rng.uniform(0.05, 1.0)),
                    c=float(rng.normal() * 0.3),
                    d=float(rng.normal() * 0.3),
                )
            )
        trees.append(PartTree(templates=tuple(templates), edges=tuple(edges), root=0))
    biases = tuple(float(rng.normal()) for _ in trees)
    return PartMixtureModel(mixtures=tuple(trees), biases=biases, cell_size=8, bins=bins)


def exhaustive_best(model, fmap):
    """Enumerate every joint placement of every mixture; first strict max wins.

    Placements are enumerated root-first with x-major location order, so the
    winner under ties matches the documented (mixture, root x, root y) rule.
    """
    best = None
    for m, tree in enumerate(model.mixtures):
        loc_lists = []
        for t in tree.templates:
            ny = fmap.cells_y - t.shape[0] + 1
            nx = fmap.cells_x - t.shape[1] + 1
            loc_lists.append([(x, y) for x in range(nx) for y in range(ny)])
        order = [tree.root] + [i for i in range(tree.n_parts) if i != tree.root]
        for combo in itertools.product(*(loc_lists[i] for i in order)):
            locations = [None] * tree.n_parts
            for part, loc in zip(order, combo):
                locations[part] = loc
            s = score_configuration(model, m, fmap, locations)
            if best is None or s > best[0]:
                best = (s, m, tuple(locations))
    return best


def tensor_infer_tree(tree, bias, fmap):
    """_infer_tree before separable maxima, kept as the oracle: one full
    (nyp, nxp, nxc, nyc) tensor per edge and a flat argmax over the child's
    placements, x-major, so ties resolve to the smallest (x, y)."""
    totals = [dpm_face._appearance_response(fmap, t) for t in tree.templates]
    argmax_child = {}
    for e in tree.order:
        child_total = totals[e.child]
        nyc, nxc = child_total.shape
        nyp, nxp = totals[e.parent].shape
        dx = np.arange(nxc)[None, :] - (np.arange(nxp)[:, None] + e.anchor_x)
        dy = np.arange(nyc)[None, :] - (np.arange(nyp)[:, None] + e.anchor_y)
        fx = e.a * dx * dx + e.c * dx
        fy = e.b * dy * dy + e.d * dy
        m4 = child_total.T[None, None, :, :] + fx[None, :, :, None] + fy[:, None, None, :]
        flat = m4.reshape(nyp, nxp, nxc * nyc)
        best = flat.argmax(axis=2)
        totals[e.parent] = totals[e.parent] + np.take_along_axis(flat, best[:, :, None], axis=2)[:, :, 0]
        argmax_child[e.child] = best
    root_scores = totals[tree.root]
    nyr = root_scores.shape[0]
    flat_idx = int(root_scores.T.reshape(-1).argmax())
    rx, ry = flat_idx // nyr, flat_idx % nyr
    locations = [None] * tree.n_parts
    locations[tree.root] = (rx, ry)
    for e in tree.order[::-1]:
        px, py = locations[e.parent]
        nyc = totals[e.child].shape[0]
        code = int(argmax_child[e.child][py, px])
        locations[e.child] = (code // nyc, code % nyc)
    return float(root_scores[ry, rx]) + bias, locations


def with_tensor_oracle(fn, *args, **kwargs):
    """Call fn (infer_best or detect_occupancy) with the oracle message pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpm_face, "_infer_tree", tensor_infer_tree)
        return fn(*args, **kwargs)


def assert_dp_oracle_exhaustive_agree(model, fmap, label):
    det = infer_best(model, fmap)
    assert with_tensor_oracle(infer_best, model, fmap) == det, label
    s, m, locs = exhaustive_best(model, fmap)
    assert (det.score, det.mixture, det.part_locations) == (s, m, locs), label


def random_fmap(rng, cy, cx, bins=2):
    return HogFeatureMap(features=rng.uniform(size=(cy, cx, bins)))


# --- HoG ----------------------------------------------------------------------


def test_hog_constant_image_is_zero():
    fmap = compute_hog(GrayImage(np.full((40, 40), 0.7)))
    assert np.all(fmap.features == 0.0)


def test_hog_vertical_edge_energy_in_bin_zero():
    p = np.zeros((64, 64))
    p[:, 32:] = 1.0
    fmap = compute_hog(GrayImage(p))
    assert np.all(fmap.features[:, :, 1:] == 0.0)  # horizontal gradient only
    assert fmap.features[:, 3:5, 0].min() > 0.0  # center columns carry energy


def test_hog_matches_naive_revote_oracle():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(64, 64))
    fmap = compute_hog(GrayImage(p))
    np.testing.assert_allclose(fmap.features, hog_oracle(p), atol=1e-8)


@pytest.mark.parametrize("cell_size", [3, 8])
def test_hog_matches_scatter_oracle_on_synthetic_pyramids(cell_size):
    images = generate_synthetic(SyntheticSpec(count=40, seed=7))
    levels = [lv for im in images for lv in build_pyramid(im.image, levels=3).levels]
    assert len(levels) == 120
    for lv in levels:
        fmap = compute_hog(lv, cell_size=cell_size)
        np.testing.assert_allclose(fmap.features, scatter_hog_oracle(lv, cell_size), rtol=0, atol=1e-12)


def test_hog_near_flat_image_is_zero():
    # Pixel steps of ~1e-14 give block norms far under NORM_FLOOR (1e-10):
    # such blocks become zero, as a flat SIFT descriptor does. The scatter
    # oracle zeroes only exact-zero norms and scales them to full size.
    rng = np.random.default_rng(5)
    img = GrayImage(0.5 + 1e-14 * rng.uniform(size=(40, 48)))
    assert np.all(compute_hog(img).features == 0.0)
    assert scatter_hog_oracle(img).max() > 0.1


def test_hog_rejects_small_images():
    with pytest.raises(DataError):
        compute_hog(GrayImage(np.zeros((16, 64))))


# --- configuration scoring ------------------------------------------------------


def test_single_part_score_is_response_plus_bias():
    rng = np.random.default_rng(1)
    fmap = random_fmap(rng, 5, 5)
    tpl = rng.normal(size=(2, 2, 2))
    model = PartMixtureModel(
        mixtures=(PartTree(templates=(tpl,), edges=()),),
        biases=(0.25,),
        cell_size=8,
        bins=2,
    )
    s = score_configuration(model, 0, fmap, [(1, 2)])
    expected = float((tpl * fmap.features[2:4, 1:3, :]).sum()) + 0.25
    assert s == pytest.approx(expected, abs=1e-12)


def test_two_parts_at_anchor_have_zero_shape_term():
    rng = np.random.default_rng(2)
    fmap = random_fmap(rng, 6, 6)
    t0, t1 = rng.normal(size=(1, 1, 2)), rng.normal(size=(1, 1, 2))
    model = PartMixtureModel(
        mixtures=(
            PartTree(
                templates=(t0, t1),
                edges=(Edge(parent=0, child=1, anchor_x=2, anchor_y=1, a=-1.0, b=-1.0, c=0.5, d=-0.5),),
            ),
        ),
        biases=(0.1,),
        cell_size=8,
        bins=2,
    )
    s = score_configuration(model, 0, fmap, [(1, 1), (3, 2)])  # child at parent+anchor
    expected = float((t0 * fmap.features[1:2, 1:2]).sum() + (t1 * fmap.features[2:3, 3:4]).sum()) + 0.1
    assert s == pytest.approx(expected, abs=1e-12)


def test_score_matches_term_sum_oracle():
    rng = np.random.default_rng(3)
    fmap = random_fmap(rng, 6, 7)
    model = random_model(rng, max_parts=4)
    tree = model.mixtures[0]
    locations = []
    for t in tree.templates:
        ny = fmap.cells_y - t.shape[0] + 1
        nx = fmap.cells_x - t.shape[1] + 1
        locations.append((int(rng.integers(nx)), int(rng.integers(ny))))
    s = score_configuration(model, 0, fmap, locations)

    terms = []
    for i, (x, y) in enumerate(locations):
        t = tree.templates[i]
        for yy in range(t.shape[0]):
            for xx in range(t.shape[1]):
                for b in range(t.shape[2]):
                    terms.append(float(t[yy, xx, b]) * float(fmap.features[y + yy, x + xx, b]))
    for e in tree.edges:
        dx = locations[e.child][0] - (locations[e.parent][0] + e.anchor_x)
        dy = locations[e.child][1] - (locations[e.parent][1] + e.anchor_y)
        terms.append(e.a * dx * dx + e.b * dy * dy + e.c * dx + e.d * dy)
    terms.append(model.biases[0])
    assert s == pytest.approx(math.fsum(terms), abs=1e-10)


def test_score_rejects_bad_inputs():
    rng = np.random.default_rng(4)
    fmap = random_fmap(rng, 5, 5)
    tpl = rng.normal(size=(2, 2, 2))
    model = PartMixtureModel(
        mixtures=(PartTree(templates=(tpl,), edges=()),), biases=(0.0,), cell_size=8, bins=2
    )
    with pytest.raises(DataError):
        score_configuration(model, 1, fmap, [(0, 0)])
    with pytest.raises(DataError):
        score_configuration(model, 0, fmap, [(4, 0)])  # template sticks out


# --- inference -------------------------------------------------------------------


def test_single_part_inference_is_exhaustive_max():
    rng = np.random.default_rng(5)
    fmap = random_fmap(rng, 6, 6)
    tpl = rng.normal(size=(2, 3, 2))
    model = PartMixtureModel(
        mixtures=(PartTree(templates=(tpl,), edges=()),), biases=(-0.5,), cell_size=8, bins=2
    )
    det = infer_best(model, fmap)
    scores = {
        (x, y): score_configuration(model, 0, fmap, [(x, y)])
        for x in range(4)
        for y in range(5)
    }
    assert det.score == max(scores.values())
    assert scores[det.part_locations[0]] == det.score


def test_two_part_chain_matches_exhaustive_on_5x5():
    rng = np.random.default_rng(6)
    fmap = random_fmap(rng, 5, 5)
    model = PartMixtureModel(
        mixtures=(
            PartTree(
                templates=(rng.normal(size=(1, 1, 2)), rng.normal(size=(1, 1, 2))),
                edges=(Edge(parent=0, child=1, anchor_x=1, anchor_y=0, a=-0.2, b=-0.4, c=0.1, d=0.0),),
            ),
        ),
        biases=(0.3,),
        cell_size=8,
        bins=2,
    )
    det = infer_best(model, fmap)
    s, m, locs = exhaustive_best(model, fmap)
    assert det.score == s
    assert det.mixture == m
    assert det.part_locations == locs


def test_random_trees_match_exhaustive():
    rng = np.random.default_rng(7)
    for trial in range(25):
        mixtures = int(rng.integers(1, 3))
        model = random_model(rng, max_parts=3, mixtures=mixtures)
        fmap = random_fmap(rng, int(rng.integers(4, 7)), int(rng.integers(4, 7)))
        det = infer_best(model, fmap)
        s, m, locs = exhaustive_best(model, fmap)
        assert det.score == s, f"trial {trial}"
        assert det.mixture == m and det.part_locations == locs, f"trial {trial}"
        assert with_tensor_oracle(infer_best, model, fmap) == det, f"trial {trial}"


def test_tie_heavy_trees_match_tensor_oracle_and_exhaustive():
    # All-zero features and integer springs and biases: every score is an
    # exact integer, so many placements tie and only the tie-break decides.
    rng = np.random.default_rng(17)
    for trial in range(20):
        trees = []
        for _ in range(int(rng.integers(1, 3))):
            n = int(rng.integers(2, 4))
            edges = tuple(
                Edge(parent=int(rng.integers(0, child)), child=child,
                     anchor_x=int(rng.integers(-2, 3)), anchor_y=int(rng.integers(-2, 3)),
                     a=float(-rng.integers(1, 3)), b=float(-rng.integers(1, 3)),
                     c=float(rng.integers(-2, 3)), d=float(rng.integers(-2, 3)))
                for child in range(1, n)
            )
            templates = tuple(rng.normal(size=(int(rng.integers(1, 3)), int(rng.integers(1, 3)), 2))
                              for _ in range(n))
            trees.append(PartTree(templates=templates, edges=edges))
        biases = tuple(float(rng.integers(-1, 2)) for _ in trees)
        model = PartMixtureModel(mixtures=tuple(trees), biases=biases, cell_size=8, bins=2)
        fmap = HogFeatureMap(features=np.zeros((int(rng.integers(4, 6)), int(rng.integers(4, 6)), 2)))
        assert_dp_oracle_exhaustive_agree(model, fmap, f"trial {trial}")


def test_constant_response_shift_moves_best_score_by_constant():
    # On a constant feature map, adding delta to every entry of one part's
    # template raises that part's response by the same amount everywhere,
    # so S* moves by exactly that constant and the argmax stays put.
    rng = np.random.default_rng(8)
    model = random_model(rng, max_parts=3)
    tree = model.mixtures[0]
    v = 0.35
    fmap = HogFeatureMap(features=np.full((6, 6, 2), v))
    det = infer_best(model, fmap)

    delta = 0.01
    t0 = tree.templates[0]
    shift = delta * v * t0.size
    shifted = PartTree(templates=(t0 + delta,) + tree.templates[1:], edges=tree.edges, root=tree.root)
    model2 = PartMixtureModel(
        mixtures=(shifted,), biases=model.biases, cell_size=8, bins=2
    )
    det2 = infer_best(model2, fmap)
    assert det2.score == pytest.approx(det.score + shift, abs=1e-12)
    assert det2.part_locations == det.part_locations

    # same additive structure through the mixture bias
    model3 = PartMixtureModel(
        mixtures=model.mixtures, biases=(model.biases[0] + 1.7,), cell_size=8, bins=2
    )
    assert infer_best(model3, fmap).score == pytest.approx(det.score + 1.7, abs=1e-12)


def test_shape_term_maximal_at_anchor():
    e = Edge(parent=0, child=1, anchor_x=2, anchor_y=-1, a=-0.5, b=-0.25)
    base = e.deformation(0, 0)
    assert base == 0.0
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            if (dx, dy) != (0, 0):
                assert e.deformation(dx, dy) < base


def test_mixture_max_dominates_each_mixture():
    rng = np.random.default_rng(9)
    model = random_model(rng, max_parts=3, mixtures=3)
    fmap = random_fmap(rng, 6, 6)
    det = infer_best(model, fmap)
    singles = []
    for m in range(3):
        sub = PartMixtureModel(
            mixtures=(model.mixtures[m],), biases=(model.biases[m],), cell_size=8, bins=2
        )
        singles.append(infer_best(sub, fmap).score)
    assert det.score == max(singles)
    assert all(det.score >= s for s in singles)


def test_infer_rejects_too_small_fmap():
    rng = np.random.default_rng(10)
    tpl = rng.normal(size=(4, 4, 2))
    model = PartMixtureModel(
        mixtures=(PartTree(templates=(tpl,), edges=()),), biases=(0.0,), cell_size=8, bins=2
    )
    with pytest.raises(DataError):
        infer_best(model, random_fmap(rng, 3, 3))


# --- detection ---------------------------------------------------------------


def test_detect_occupancy_degenerate_thresholds():
    rng = np.random.default_rng(11)
    img = GrayImage(rng.uniform(size=(96, 128)))
    tpl = rng.normal(size=(3, 3, 9)) * 0.01
    model = PartMixtureModel(
        mixtures=(PartTree(templates=(tpl,), edges=()),), biases=(0.0,), cell_size=8, bins=9
    )
    decision, det = detect_occupancy(model, img, threshold=-math.inf)
    assert decision == "person"
    decision, _ = detect_occupancy(model, img, threshold=math.inf)
    assert decision == "empty"
    assert det.box.w > 0 and det.box.h > 0


def test_tree_validation():
    rng = np.random.default_rng(12)
    t = rng.normal(size=(1, 1, 2))
    with pytest.raises(DataError):
        PartTree(templates=(t, t), edges=())  # missing edge
    with pytest.raises(DataError):
        PartTree(
            templates=(t, t),
            edges=(Edge(parent=0, child=0, anchor_x=0, anchor_y=0, a=-1.0, b=-1.0),),
        )  # root as child
    with pytest.raises(DataError):
        Edge(parent=0, child=1, anchor_x=0, anchor_y=0, a=0.5, b=-1.0)  # a must be < 0


@pytest.fixture(scope="module")
def canonical_dpm():
    """The canonical run's face model (seed 7, 400 images) and its 80 test images."""
    images = generate_synthetic(SyntheticSpec(count=400, positive_fraction=0.5, seed=7))
    train, test = split(images, 0.8, seed=1)
    return build_face_model(train, seed=5), test


def test_canonical_detections_match_tensor_oracle(canonical_dpm):
    model, test = canonical_dpm
    assert len(test) == 80
    for im in test:
        got = detect_occupancy(model, im.image, threshold=0.0)
        assert got == with_tensor_oracle(detect_occupancy, model, im.image, threshold=0.0), im.image_id


def test_synthetic_model_decision_accuracy_on_corpus(canonical_dpm):
    # Mean-template model built from the train split separates person from
    # empty at >= 95% on the held-out split, at the accuracy-optimal threshold.
    from seatcheck.eval_metrics import ScoredSample, best_threshold

    model, test = canonical_dpm
    samples = []
    for im in test:
        _, det = detect_occupancy(model, im.image, threshold=-math.inf)
        samples.append(
            ScoredSample(id=im.image_id, score=det.score, label=1 if im.label == "person" else -1)
        )
    _, acc = best_threshold(samples)
    assert acc >= 0.95


def test_build_synthetic_face_model_structure():
    rng = np.random.default_rng(13)
    faces = []
    for _ in range(4):
        img = GrayImage(rng.uniform(size=(96, 128)))
        faces.append((img, Rect(40, 20, 30, 34)))
    negatives = [GrayImage(rng.uniform(size=(96, 128))) for _ in range(3)]
    model = build_synthetic_face_model(faces, negatives, cell_size=4)
    assert len(model.mixtures) == 1
    assert model.mixtures[0].n_parts == 3
    assert model.cell_size == 4
    # usable end to end
    decision, det = detect_occupancy(model, faces[0][0], threshold=-math.inf)
    assert decision == "person"


@pytest.mark.parametrize("cell_size", [3.5, True])
def test_build_synthetic_face_model_rejects_a_non_integer_cell_size(cell_size):
    faces = [(GrayImage(np.full((96, 128), 0.5)), Rect(40, 20, 30, 34))]
    negatives = [GrayImage(np.full((96, 128), 0.5))]
    with pytest.raises(DataError, match="cell size must be an integer"):
        build_synthetic_face_model(faces, negatives, cell_size=cell_size)


@pytest.mark.parametrize("seed", [1.5, True])
def test_build_synthetic_face_model_rejects_a_non_integer_seed(seed):
    faces = [(GrayImage(np.full((96, 128), 0.5)), Rect(40, 20, 30, 34))]
    negatives = [GrayImage(np.full((96, 128), 0.5))]
    with pytest.raises(DataError, match="seed must be an integer"):
        build_synthetic_face_model(faces, negatives, seed=seed)


def recursive_ordered_edges(tree):
    """The leaf-to-root order as PartTree.ordered_edges built it on every call."""
    by_parent = {}
    for e in tree.edges:
        by_parent.setdefault(e.parent, []).append(e)
    order = []

    def visit(node):
        for e in by_parent.get(node, []):
            visit(e.child)
            order.append(e)

    visit(tree.root)
    return order


def test_part_tree_keeps_the_leaf_to_root_order_of_its_validation_walk():
    rng = np.random.default_rng(12)
    for _ in range(40):
        for tree in random_model(rng, max_parts=7, mixtures=2).mixtures:
            assert list(tree.order) == recursive_ordered_edges(tree)


def test_part_tree_rejects_a_cycle_the_root_does_not_reach():
    tpl = np.zeros((1, 1, 2))
    edges = tuple(
        Edge(parent=p, child=c, anchor_x=0, anchor_y=0, a=-1.0, b=-1.0) for p, c in ((1, 2), (2, 1))
    )
    with pytest.raises(DataError, match="not connected"):
        PartTree(templates=(tpl,) * 3, edges=edges, root=0)
