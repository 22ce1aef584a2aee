import itertools
import math

import mpmath
import numpy as np
import pytest

from seatcheck.codebooks import (
    GmmModel,
    KmeansCodebook,
    assign_nearest,
    gmm_debug_dump,
    mean_log_likelihood,
    posteriors,
    train_gmm,
    train_kmeans,
)
from seatcheck.dense_descriptors import extract_dense
from seatcheck.errors import DataError
from seatcheck.imagecore import build_pyramid
from seatcheck.pca_reduce import fit_pca, project
from seatcheck.synthetic import SyntheticSpec, generate_synthetic


def best_two_partition_sse(points):
    """Exhaustive search over all 2-partitions for the minimum-SSE clustering."""
    pts = list(points)
    best = (math.inf, None)
    for mask in itertools.product([0, 1], repeat=len(pts)):
        groups = [[p for p, m in zip(pts, mask) if m == g] for g in (0, 1)]
        if any(not g for g in groups):
            continue
        sse = 0.0
        means = []
        for g in groups:
            mu = sum(g) / len(g)
            means.append(mu)
            sse += sum((p - mu) ** 2 for p in g)
        if sse < best[0]:
            best = (sse, sorted(means))
    return best


def naive_mean_loglik(weights, means, variances, data):
    """Direct density-sum likelihood, no log-space tricks."""
    total = 0.0
    for x in data:
        p = 0.0
        for w, mu, var in zip(weights, means, variances):
            q = np.prod(1.0 / np.sqrt(2.0 * np.pi * var) * np.exp(-0.5 * (x - mu) ** 2 / var))
            p += w * q
        total += math.log(p)
    return total / len(data)


def naive_log_densities(gmm, x):
    """Direct (N, K, d) difference form of log w_i + log N(x | mu_i, diag sigma_i^2)."""
    log_norm = -0.5 * (gmm.d * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
    diff = x[:, None, :] - gmm.means[None, :, :]
    maha = (diff * diff / gmm.variances[None, :, :]).sum(axis=2)
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * maha


@pytest.fixture(scope="module")
def pca64_image_batch():
    """A K=32 GMM on PCA-64 dense descriptors, plus one held-out image's descriptors."""
    images = generate_synthetic(SyntheticSpec(count=12, seed=17))
    vectors = [extract_dense(build_pyramid(im.image)).vectors for im in images]
    pool = np.concatenate(vectors[1:])
    pca = fit_pca(pool, 64)
    gmm = train_gmm(project(pca, pool), K=32, seed=0, max_iter=15)
    return gmm, project(pca, vectors[0])


def test_kmeans_two_cluster_line_matches_enumeration():
    data = np.array([[0.0], [1.0], [9.0], [10.0]])
    cb = train_kmeans(data, K=2, seed=0)
    _, oracle_means = best_two_partition_sse([0.0, 1.0, 9.0, 10.0])
    got = sorted(float(c) for c in cb.centroids.ravel())
    np.testing.assert_allclose(got, oracle_means, atol=1e-12)
    assert got == [0.5, 9.5]


def test_kmeans_k_equals_distinct_points_zero_objective():
    data = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]])
    cb = train_kmeans(data, K=3, seed=1)
    assert cb.sse_history[-1] == 0.0
    got = {tuple(c) for c in cb.centroids}
    assert got == {tuple(p) for p in data}


def test_kmeans_recovers_separated_blobs_across_seeds():
    rng = np.random.default_rng(0)
    truth = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
    pts = np.concatenate([t + 0.02 * rng.normal(size=(60, 2)) for t in truth])
    for seed in range(20):
        cb = train_kmeans(pts, K=3, seed=seed)
        # every true mean is within 0.1 of some centroid
        d = np.linalg.norm(truth[:, None, :] - cb.centroids[None, :, :], axis=2)
        assert d.min(axis=1).max() < 0.1


def test_kmeans_sse_history_non_increasing():
    rng = np.random.default_rng(5)
    for seed in range(10):
        data = rng.normal(size=(120, 3))
        cb = train_kmeans(data, K=5, seed=seed)
        h = cb.sse_history
        assert all(a >= b - 1e-9 * max(1.0, abs(a)) for a, b in zip(h, h[1:]))


def test_kmeans_determinism_and_errors():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(50, 4))
    a = train_kmeans(data, K=6, seed=9)
    b = train_kmeans(data, K=6, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    with pytest.raises(DataError):
        train_kmeans(data[:3], K=5, seed=0)
    with pytest.raises(DataError):
        train_kmeans(np.zeros((10, 2)), K=2, seed=0)  # one distinct point


def test_assign_nearest_exact_hit_and_tiebreak():
    cb = KmeansCodebook(centroids=np.array([[0.0], [1.0], [4.0]]))
    assert assign_nearest(cb, np.array([4.0])) == 2
    assert assign_nearest(cb, np.array([0.5])) == 0  # tie -> lowest index
    with pytest.raises(DataError):
        assign_nearest(cb, np.zeros(2))


def test_assign_nearest_matches_brute_force_scan():
    rng = np.random.default_rng(3)
    cb = KmeansCodebook(centroids=rng.normal(size=(7, 5)))
    pts = rng.normal(size=(1000, 5))
    got = assign_nearest(cb, pts)
    for i in range(1000):
        dists = [float(((pts[i] - c) ** 2).sum()) for c in cb.centroids]
        assert got[i] == dists.index(min(dists))


def test_gmm_k1_closed_form():
    rng = np.random.default_rng(4)
    data = rng.normal(loc=2.0, scale=1.5, size=(200, 3))
    gmm = train_gmm(data, K=1, seed=0)
    np.testing.assert_allclose(gmm.weights, [1.0])
    np.testing.assert_allclose(gmm.means[0], data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(gmm.variances[0], data.var(axis=0), atol=1e-12)


def test_gmm_two_separated_blobs():
    rng = np.random.default_rng(6)
    a = rng.normal(loc=0.0, scale=0.8, size=(140, 1))
    b = rng.normal(loc=100.0, scale=0.8, size=(60, 1))
    gmm = train_gmm(np.concatenate([a, b]), K=2, seed=1)
    order = np.argsort(gmm.means[:, 0])
    np.testing.assert_allclose(gmm.means[order, 0], [a.mean(), b.mean()], atol=0.5)
    np.testing.assert_allclose(gmm.weights[order], [0.7, 0.3], atol=0.05)


def test_em_loglik_non_decreasing_with_independent_recompute():
    rng = np.random.default_rng(7)
    for trial in range(20):
        centers = rng.uniform(-3, 3, size=(3, 2))
        data = np.concatenate(
            [c + rng.normal(scale=rng.uniform(0.3, 1.0), size=(40, 2)) for c in centers]
        )
        trace = []
        gmm = train_gmm(data, K=3, seed=trial, trace=trace)
        assert len(trace) == len(gmm.loglik_history)
        recomputed = [naive_mean_loglik(w, m, v, data) for w, m, v in trace]
        np.testing.assert_allclose(recomputed, gmm.loglik_history, rtol=1e-10)
        diffs = np.diff(recomputed)
        assert (diffs >= -1e-9).all()


def test_gmm_determinism_and_sample_floor():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(100, 2))
    a = train_gmm(data, K=3, seed=5)
    b = train_gmm(data, K=3, seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
    with pytest.raises(DataError):
        train_gmm(data[:25], K=3, seed=0)  # below 10*K


def test_posteriors_k1_and_symmetry():
    gmm1 = GmmModel(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    np.testing.assert_array_equal(posteriors(gmm1, np.array([3.7])), [1.0])

    gmm2 = GmmModel(
        weights=[0.5, 0.5], means=[[-1.0], [1.0]], variances=[[1.0], [1.0]]
    )
    np.testing.assert_allclose(posteriors(gmm2, np.array([0.0])), [0.5, 0.5], atol=1e-15)


def test_posteriors_match_extended_precision_oracle():
    rng = np.random.default_rng(9)
    K, d = 4, 3
    w = rng.uniform(0.5, 1.5, size=K)
    w /= w.sum()
    gmm = GmmModel(
        weights=w,
        means=rng.uniform(-2, 2, size=(K, d)),
        variances=rng.uniform(0.5, 2.0, size=(K, d)),
    )
    mpmath.mp.dps = 50
    for _ in range(20):
        x = rng.uniform(-3, 3, size=d)
        dens = []
        for i in range(K):
            q = mpmath.mpf(1)
            for j in range(d):
                var = mpmath.mpf(float(gmm.variances[i, j]))
                diff = mpmath.mpf(float(x[j])) - mpmath.mpf(float(gmm.means[i, j]))
                q *= mpmath.exp(-diff**2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
            dens.append(mpmath.mpf(float(gmm.weights[i])) * q)
        total = sum(dens)
        expected = np.array([float(di / total) for di in dens])
        np.testing.assert_allclose(posteriors(gmm, x), expected, atol=1e-12)


def test_posteriors_sum_to_one_and_scale_invariance():
    rng = np.random.default_rng(10)
    w = rng.uniform(0.1, 1.0, size=5)
    gmm = GmmModel(
        weights=w / w.sum(),
        means=rng.normal(size=(5, 2)),
        variances=rng.uniform(0.5, 1.5, size=(5, 2)),
    )
    x = rng.normal(size=2)
    a = posteriors(gmm, x)
    assert abs(a.sum() - 1.0) <= 1e-10
    assert (a >= 0).all()


def test_gmm_model_invariant_enforcement():
    with pytest.raises(DataError):
        GmmModel(weights=[0.6, 0.5], means=[[0.0], [1.0]], variances=[[1.0], [1.0]])
    with pytest.raises(DataError):
        GmmModel(weights=[0.5, 0.5], means=[[0.0], [1.0]], variances=[[1.0], [0.0]])


def test_mean_log_likelihood_matches_naive():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(50, 2))
    gmm = train_gmm(data, K=2, seed=0)
    naive = naive_mean_loglik(gmm.weights, gmm.means, gmm.variances, data)
    assert mean_log_likelihood(gmm, data) == pytest.approx(naive, rel=1e-12)


def test_gmm_debug_dump_lists_components():
    gmm = GmmModel(weights=[0.25, 0.75], means=[[1.0, 2.0], [3.0, 4.0]], variances=[[1.0, 1.0], [2.0, 2.0]])
    text = gmm_debug_dump(gmm)
    assert "component 0" in text and "component 1" in text
    assert "0.25" in text and "2.0" in text


def test_log_densities_match_naive_difference_oracle(pca64_image_batch):
    gmm, x = pca64_image_batch
    assert x.shape == (794, 64)
    logd = naive_log_densities(gmm, x)
    m = logd.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logd - m).sum(axis=1))
    alpha = posteriors(gmm, x)
    assert np.abs(alpha - np.exp(logd - lse[:, None])).max() <= 1e-12
    assert mean_log_likelihood(gmm, x) == pytest.approx(lse.mean(), rel=1e-12)
