import math

import numpy as np
import pytest

from seatcheck.codebooks import GmmModel, KmeansCodebook, assign_nearest
from seatcheck.dense_descriptors import DescriptorSet
from seatcheck.encoders import (
    BOW_REGIONS,
    Provenance,
    _grid_index,
    encode_bow,
    encode_fv,
    encode_vlad,
    l2_or_zero,
    power_l2_normalize,
)
from seatcheck.errors import DataError, NumericalError
from seatcheck.pipeline import PipelineConfig, describe
from seatcheck.store import save_corpus
from seatcheck.synthetic import SyntheticSpec, generate_synthetic


def make_set(vectors, x=None, y=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    t = vectors.shape[0]
    return DescriptorSet(
        vectors=vectors,
        x_norm=np.full(t, 0.5) if x is None else np.asarray(x, dtype=np.float64),
        y_norm=np.full(t, 0.5) if y is None else np.asarray(y, dtype=np.float64),
        scale_level=np.zeros(t, dtype=np.int64),
    )


def random_gmm(rng, K, d):
    w = rng.uniform(0.5, 1.5, size=K)
    return GmmModel(
        weights=w / w.sum(),
        means=rng.uniform(-1.0, 1.0, size=(K, d)),
        variances=rng.uniform(0.5, 2.0, size=(K, d)),
    )


def bow_oracle(ds, centroids):
    """Brute-force BoW: linear-scan assignment, direct coordinate binning."""
    K = centroids.shape[0]
    hists = np.zeros((21, K))
    regions = [(0, 1)]
    for t in range(len(ds)):
        dists = [float(((ds.vectors[t] - c) ** 2).sum()) for c in centroids]
        w = dists.index(min(dists))
        hists[0, w] += 1
        offset = 1
        for n in (2, 4):
            for cy in range(n):
                for cx in range(n):
                    x_lo, x_hi = cx / n, (cx + 1) / n
                    y_lo, y_hi = cy / n, (cy + 1) / n
                    in_x = (x_lo <= ds.x_norm[t] < x_hi) or (cx == n - 1 and ds.x_norm[t] == 1.0)
                    in_y = (y_lo <= ds.y_norm[t] < y_hi) or (cy == n - 1 and ds.y_norm[t] == 1.0)
                    if in_x and in_y:
                        hists[offset + cy * n + cx, w] += 1
            offset += n * n
    for r in range(21):
        s = hists[r].sum()
        if s > 0:
            hists[r] /= s
    flat = hists.ravel()
    norm = np.linalg.norm(flat)
    return flat / norm if norm > 0 else flat


def vlad_oracle(ds, centroids):
    """Brute-force VLAD accumulation with exactly-rounded per-component sums."""
    K, d = centroids.shape
    cells = [[[] for _ in range(d)] for _ in range(K)]
    for t in range(len(ds)):
        dists = [float(((ds.vectors[t] - c) ** 2).sum()) for c in centroids]
        w = dists.index(min(dists))
        for j in range(d):
            cells[w][j].append(float(ds.vectors[t][j] - centroids[w][j]))
    acc = np.array([[math.fsum(cells[i][j]) for j in range(d)] for i in range(K)])
    return acc.ravel()


def fv_fd_oracle(ds, gmm, step=1e-6):
    """Finite-difference gradient of the total log-likelihood w.r.t. means,
    scaled by sigma / (T * sqrt(w)) per component."""

    def total_loglik(means):
        total = 0.0
        for x in ds.vectors:
            p = 0.0
            for i in range(gmm.K):
                q = np.prod(
                    np.exp(-0.5 * (x - means[i]) ** 2 / gmm.variances[i])
                    / np.sqrt(2.0 * np.pi * gmm.variances[i])
                )
                p += gmm.weights[i] * q
            total += math.log(p)
        return total

    t = len(ds)
    grad = np.zeros((gmm.K, gmm.d))
    for i in range(gmm.K):
        for j in range(gmm.d):
            mp = gmm.means.copy()
            mm = gmm.means.copy()
            mp[i, j] += step
            mm[i, j] -= step
            grad[i, j] = (total_loglik(mp) - total_loglik(mm)) / (2 * step)
    scale = np.sqrt(gmm.variances) / (t * np.sqrt(gmm.weights))[:, None]
    return (grad * scale).ravel()


# --- BoW --------------------------------------------------------------------


def test_bow_single_word_top_left_cell():
    cb = KmeansCodebook(centroids=np.array([[10.0], [20.0], [30.0], [3.0]]))
    ds = make_set([[3.1], [2.9], [3.0]], x=[0.1, 0.05, 0.2], y=[0.1, 0.2, 0.05])
    enc = encode_bow(ds, cb)
    h = enc.reshape(21, 4)
    e3 = np.zeros(4)
    e3[3] = 1.0
    # populated regions: whole image, 2x2 cell (0,0), 4x4 cell (0,0)
    filled = {0, 1, 5}
    norm = np.linalg.norm([1.0] * 3)
    for r in range(21):
        expected = e3 / norm if r in filled else np.zeros(4)
        np.testing.assert_allclose(h[r], expected, atol=1e-12)
    assert abs(np.linalg.norm(enc) - 1.0) <= 1e-9


def test_bow_length_21k():
    rng = np.random.default_rng(0)
    cb = KmeansCodebook(centroids=rng.normal(size=(1024, 4)))
    ds = make_set(rng.normal(size=(10, 4)), x=rng.uniform(size=10), y=rng.uniform(size=10))
    enc = encode_bow(ds, cb)
    assert enc.shape == (21504,)


def test_bow_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    cb = KmeansCodebook(centroids=rng.normal(size=(6, 3)))
    ds = make_set(
        rng.normal(size=(50, 3)), x=rng.uniform(size=50), y=rng.uniform(size=50)
    )
    enc = encode_bow(ds, cb)
    np.testing.assert_allclose(enc, bow_oracle(ds, cb.centroids), atol=1e-12)


def test_bow_boundary_coordinates_bin_high():
    cb = KmeansCodebook(centroids=np.array([[0.0]]))
    ds = make_set([[0.0], [0.0]], x=[0.5, 1.0], y=[0.5, 1.0])
    enc = encode_bow(ds, cb, normalize=False)
    h = enc.reshape(21, 1)
    assert h[0, 0] == 1.0  # whole image, L1-normalized
    assert h[1 + 3, 0] == 1.0  # 2x2 cell (1,1) holds both
    assert h[5 + 10, 0] == 1.0  # 4x4 cell (2,2) holds x=y=0.5
    assert h[5 + 15, 0] == 1.0  # 4x4 cell (3,3) holds x=y=1.0


# --- VLAD -------------------------------------------------------------------


def test_vlad_zero_residual_single_descriptor():
    cb = KmeansCodebook(centroids=np.array([[1.0, 2.0], [5.0, 5.0]]))
    ds = make_set([[1.0, 2.0]])
    enc = encode_vlad(ds, cb)
    assert np.all(enc == 0.0)


def test_vlad_hand_accumulation():
    cb = KmeansCodebook(centroids=np.array([[0.0, 0.0], [10.0, 0.0]]))
    ds = make_set([[1.0, 0.0], [3.0, 0.0]])
    enc = encode_vlad(ds, cb, normalize=False)
    np.testing.assert_array_equal(enc, [4.0, 0.0, 0.0, 0.0])


def test_vlad_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    cb = KmeansCodebook(centroids=rng.normal(size=(5, 4)))
    ds = make_set(rng.normal(size=(60, 4)))
    enc = encode_vlad(ds, cb, normalize=False)
    np.testing.assert_allclose(enc, vlad_oracle(ds, cb.centroids), atol=1e-10)


# --- Fisher vector ----------------------------------------------------------


def test_fv_symmetric_cancellation():
    gmm = GmmModel(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    enc = encode_fv(make_set([[1.0], [-1.0]]), gmm, normalize=False)
    np.testing.assert_allclose(enc, [0.0], atol=1e-15)


def test_fv_hand_computed_value():
    gmm = GmmModel(weights=[1.0], means=[[1.0]], variances=[[1.0]])
    enc = encode_fv(make_set([[2.0], [4.0]]), gmm, normalize=False)
    np.testing.assert_allclose(enc, [2.0], atol=1e-12)


def test_fv_matches_finite_difference_oracle():
    rng = np.random.default_rng(3)
    gmm = random_gmm(rng, K=3, d=4)
    samples = gmm.means[rng.integers(0, 3, size=50)] + rng.normal(size=(50, 4)) * np.sqrt(
        gmm.variances[rng.integers(0, 3, size=50)]
    )
    ds = make_set(samples)
    enc = encode_fv(ds, gmm, normalize=False)
    oracle = fv_fd_oracle(ds, gmm)
    rel = np.abs(enc - oracle).max() / np.abs(oracle).max()
    assert rel < 1e-5


def test_fv_vlad_limit():
    # Unit variances, uniform weights, descriptors glued to well-separated
    # centroids: posteriors go hard and FV is proportional to VLAD.
    centroids = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    gmm = GmmModel(weights=np.full(3, 1 / 3), means=centroids, variances=np.ones((3, 2)))
    cb = KmeansCodebook(centroids=centroids)
    rng = np.random.default_rng(4)
    pts = centroids[rng.integers(0, 3, size=30)] + rng.normal(scale=0.05, size=(30, 2))
    ds = make_set(pts)
    fv = encode_fv(ds, gmm, normalize=False)
    vlad = encode_vlad(ds, cb, normalize=False)
    # g_i = sqrt(K)/T * v_i here
    np.testing.assert_allclose(fv, math.sqrt(3) / 30 * vlad, atol=1e-12)


def test_duplicating_descriptors():
    rng = np.random.default_rng(5)
    gmm = random_gmm(rng, K=2, d=3)
    cb = KmeansCodebook(centroids=rng.normal(size=(2, 3)))
    vecs = rng.normal(size=(20, 3))
    x = rng.uniform(size=20)
    y = rng.uniform(size=20)
    ds = make_set(vecs, x, y)
    ds2 = make_set(np.concatenate([vecs, vecs]), np.concatenate([x, x]), np.concatenate([y, y]))

    fv1 = encode_fv(ds, gmm, normalize=False)
    fv2 = encode_fv(ds2, gmm, normalize=False)
    np.testing.assert_allclose(fv2, fv1, rtol=1e-12)  # 1/T cancels

    v1 = encode_vlad(ds, cb, normalize=False)
    v2 = encode_vlad(ds2, cb, normalize=False)
    np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)

    b1 = encode_bow(ds, cb)
    b2 = encode_bow(ds2, cb)
    np.testing.assert_allclose(b2, b1, atol=1e-15)


# --- shared contracts --------------------------------------------------------


def test_permutation_invariance_exact():
    rng = np.random.default_rng(6)
    gmm = random_gmm(rng, K=4, d=5)
    cb = KmeansCodebook(centroids=rng.normal(size=(4, 5)))
    vecs = rng.normal(size=(40, 5))
    x, y = rng.uniform(size=40), rng.uniform(size=40)
    perm = rng.permutation(40)
    ds = make_set(vecs, x, y)
    ds_p = make_set(vecs[perm], x[perm], y[perm])
    assert np.array_equal(encode_fv(ds, gmm), encode_fv(ds_p, gmm))
    assert np.array_equal(encode_vlad(ds, cb), encode_vlad(ds_p, cb))
    assert np.array_equal(encode_bow(ds, cb), encode_bow(ds_p, cb))


def grid_positions(levels=3, nx=12, ny=9):
    """(x_norm, y_norm, scale_level) of a dense multi-level sampling grid."""
    x, y, lvl = [], [], []
    for level in range(levels):
        gx, gy = np.meshgrid((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny)
        x.append(gx.ravel())
        y.append(gy.ravel())
        lvl.append(np.full(nx * ny, level))
        nx, ny = nx - 3, ny - 2
    return np.concatenate(x), np.concatenate(y), np.concatenate(lvl)


def permuted_encodings_match(x, y, lvl, rng):
    gmm = random_gmm(rng, K=8, d=16)
    cb = KmeansCodebook(centroids=rng.normal(size=(8, 16)))
    t = len(x)
    vecs = rng.normal(size=(t, 16))
    perm = rng.permutation(t)
    ds = DescriptorSet(vectors=vecs, x_norm=x, y_norm=y, scale_level=lvl)
    ds_p = DescriptorSet(vectors=vecs[perm], x_norm=x[perm], y_norm=y[perm], scale_level=lvl[perm])
    for encode, q in ((encode_fv, gmm), (encode_vlad, cb)):
        for normalize in (False, True):
            a = encode(ds, q, normalize=normalize)
            b = encode(ds_p, q, normalize=normalize)
            assert np.array_equal(a, b), (encode.__name__, normalize)


def test_canonical_order_unique_positions_is_positional():
    rng = np.random.default_rng(21)
    x, y, lvl = grid_positions()
    assert len(set(zip(x, y, lvl))) == len(x)
    perm = rng.permutation(len(x))
    vecs = rng.normal(size=(len(x), 4))
    ds_p = DescriptorSet(vectors=vecs[perm], x_norm=x[perm], y_norm=y[perm], scale_level=lvl[perm])
    # grid_positions emits (level, y, x) order, as dense extraction does
    assert np.array_equal(ds_p.vectors, vecs)
    assert np.array_equal(ds_p.x_norm, x) and np.array_equal(ds_p.y_norm, y)
    assert np.array_equal(ds_p.scale_level, lvl)
    permuted_encodings_match(x, y, lvl, rng)


def test_canonical_order_keeps_extraction_order_without_a_copy():
    x, y, lvl = grid_positions()
    vecs = np.random.default_rng(23).normal(size=(len(x), 4))
    ds = DescriptorSet(vectors=vecs, x_norm=x, y_norm=y, scale_level=lvl)
    assert ds.vectors is vecs and ds.x_norm is x and ds.y_norm is y and ds.scale_level is lvl
    # one swapped pair leaves (level, y, x) order; all four arrays are sorted back together
    swap = np.arange(len(x))
    swap[[40, 41]] = swap[[41, 40]]
    ds_s = DescriptorSet(vectors=vecs[swap], x_norm=x[swap], y_norm=y[swap], scale_level=lvl[swap])
    assert np.array_equal(ds_s.vectors, vecs)
    assert np.array_equal(ds_s.x_norm, x) and np.array_equal(ds_s.y_norm, y)
    assert np.array_equal(ds_s.scale_level, lvl)


def test_rows_sharing_a_position_keep_their_given_order():
    x, y, lvl = grid_positions()
    # ascending positions, each repeated: already in order, so kept as given
    vecs = np.repeat(np.arange(15.0)[::-1, None], 2, axis=1)
    ds = DescriptorSet(vectors=vecs, x_norm=np.repeat(x[:5], 3), y_norm=np.repeat(y[:5], 3),
                       scale_level=np.repeat(lvl[:5], 3))
    assert ds.vectors is vecs
    # shuffled: sorted by position, and within a position in the order given
    pick = np.random.default_rng(22).permutation(np.repeat(np.arange(6), 3))
    vecs = np.repeat(np.arange(18.0)[:, None], 2, axis=1)
    ds = DescriptorSet(vectors=vecs, x_norm=x[pick], y_norm=y[pick], scale_level=lvl[pick])
    assert np.array_equal(ds.vectors, vecs[np.argsort(pick, kind="stable")])
    assert np.array_equal(ds.x_norm, x[np.sort(pick)]) and np.array_equal(ds.y_norm, y[np.sort(pick)])


def test_power_l2_normalize():
    np.testing.assert_array_equal(power_l2_normalize(np.zeros(4)), np.zeros(4))
    np.testing.assert_allclose(power_l2_normalize(np.array([4.0, 0.0])), [1.0, 0.0])
    rng = np.random.default_rng(8)
    v = rng.normal(size=32)
    out = power_l2_normalize(v)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
    assert np.array_equal(np.sign(out), np.sign(v))
    with pytest.raises(NumericalError):
        power_l2_normalize(np.array([1.0, np.nan]))


def test_dimensional_contracts_across_k_grid():
    rng = np.random.default_rng(9)
    d = 16  # scaled-down stand-in; the acceptance suite runs d=64
    ds = make_set(rng.normal(size=(30, d)), rng.uniform(size=30), rng.uniform(size=30))
    for K in (8, 32):
        cb = KmeansCodebook(centroids=rng.normal(size=(K, d)))
        gmm = random_gmm(rng, K=K, d=d)
        assert encode_bow(ds, cb).shape == (21 * K,)
        assert encode_vlad(ds, cb).shape == (K * d,)
        assert encode_fv(ds, gmm).shape == (K * d,)


def test_empty_set_and_dim_mismatch_errors():
    rng = np.random.default_rng(10)
    cb = KmeansCodebook(centroids=rng.normal(size=(3, 4)))
    gmm = random_gmm(rng, K=3, d=4)
    empty = DescriptorSet(
        vectors=np.zeros((0, 4)),
        x_norm=np.zeros(0),
        y_norm=np.zeros(0),
        scale_level=np.zeros(0, dtype=np.int64),
    )
    for fn, model in ((encode_bow, cb), (encode_vlad, cb), (encode_fv, gmm)):
        with pytest.raises(DataError):
            fn(empty, model)
        with pytest.raises(DataError):
            fn(make_set(rng.normal(size=(5, 7))), model)


def test_provenance_invariants():
    with pytest.raises(DataError):
        Provenance("blah", 2, 3)
    assert Provenance("vlad", 2, 3).length == 6
    assert Provenance("fisher", 2, 3).length == 6
    assert Provenance("bow", 2, 3).length == 21 * 2
    assert Provenance("fisher", 32, 64).fingerprint == "fisher:K=32:d=64"
    # a final PCA sets the length and is recorded in the fingerprint
    c = Provenance("fisher", 2, 3, compressed_dim=5)
    assert c.length == 5
    assert c.fingerprint == "fisher:K=2:d=3:pca=5"
    assert Provenance("vlad", np.int64(2), 3, np.int64(4)).length == 4


@pytest.mark.parametrize("K, d, compressed", [
    (0, 3, None), (-2, 64, None), (2, 0, None), (2, 3, 0), (2, 3, -1),
    (2.0, 3, None), (2, 3.5, None), (True, 3, None), (2, True, None), (2, 3, True), ("2", 3, None),
])
def test_provenance_rejects_sizes_below_1_and_non_integers(K, d, compressed):
    with pytest.raises(DataError, match="integers >= 1"):
        Provenance("bow", K, d, compressed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalized", [False, True])
def test_encoded_vector_rejects_non_finite_values(tmp_path, bad, normalized):
    # A signature is checked where its corpus is written, whether or not it
    # was normalized; nothing is left on disk.
    v = np.array([[0.6, 0.8, 0.0, 0.0]] if normalized else [[3.0, 4.0, 0.0, 0.0]])
    v[0, 3] = bad
    with pytest.raises(DataError, match="finite"):
        save_corpus(v, Provenance("fisher", 2, 2), [1], ["im0"], tmp_path / "corpus.bin")
    assert not (tmp_path / "corpus.bin").exists()


def loop_encode_bow(ds, cb, normalize=True):
    """encode_bow before its one-bincount form, kept as the oracle: one masked
    bincount per 2x2 and 4x4 cell."""
    words = assign_nearest(cb, ds.vectors)
    K = cb.K
    hists = np.zeros((BOW_REGIONS, K))
    hists[0] = np.bincount(words, minlength=K)
    region = 1
    for n in (2, 4):
        cell = _grid_index(ds.y_norm, n) * n + _grid_index(ds.x_norm, n)
        for c in range(n * n):
            mask = cell == c
            if mask.any():
                hists[region + c] = np.bincount(words[mask], minlength=K)
        region += n * n
    sums = hists.sum(axis=1, keepdims=True)
    hists = np.divide(hists, sums, out=np.zeros_like(hists), where=sums > 0)
    flat = hists.ravel()
    return l2_or_zero(flat) if normalize else flat


@pytest.mark.parametrize("normalize", [True, False])
def test_bow_one_bincount_equals_the_region_loop(normalize):
    images = generate_synthetic(SyntheticSpec(count=40, seed=7))
    sets = [describe(im.image, PipelineConfig()) for im in images]
    rng = np.random.default_rng(5)
    cb = KmeansCodebook(centroids=sets[0].vectors[rng.choice(len(sets[0]), 24, replace=False)])
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # cell boundaries, 1.0 closed
    sets.append(make_set(rng.normal(size=(25, 128)), np.repeat(edges, 5), np.tile(edges, 5)))
    for ds in sets:
        assert (encode_bow(ds, cb, normalize) == loop_encode_bow(ds, cb, normalize)).all()
