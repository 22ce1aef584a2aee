import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from seatcheck import codebooks
from seatcheck.codebooks import (
    GmmModel,
    KmeansCodebook,
    _kmeanspp_init,
    _nearest,
    _reseed_empty,
    _squared_distances,
    assign_nearest,
    gmm_debug_dump,
    mean_log_likelihood,
    posteriors,
    train_gmm,
    train_kmeans,
)
from seatcheck.dense_descriptors import extract_dense
from seatcheck.errors import DataError, NumericalError
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


# --- Vocabulary training as it was before it worked in place and in row
# blocks, kept as oracles: the current Lloyd loop must give the same bits,
# and EM, which evaluates the density as one matmul in a (K, n) layout and
# sums its statistics block by block, must agree to within 1e-12.


def old_squared_distances(data, centroids):
    if data.shape[0] * centroids.shape[0] * data.shape[1] <= 1 << 22:
        return ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    d2 = (
        (data * data).sum(axis=1)[:, None]
        - 2.0 * (data @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def old_kmeanspp_init(data, K, rng):
    n = data.shape[0]
    centroids = np.empty((K, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2min = ((data - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2min.sum()
        if total <= 0.0:
            raise DataError(f"fewer than K={K} distinct points in k-means input")
        idx = rng.choice(n, p=d2min / total)
        centroids[k] = data[idx]
        d2min = np.minimum(d2min, ((data - centroids[k]) ** 2).sum(axis=1))
    return centroids


def old_reseed(data, centroids, d2, labels):
    """The empty-cluster loop over the full distance matrix; returns the new
    labels and counts of reseeds and of points that joined a reseeded cluster
    on an exact tie."""
    n, K = d2.shape
    reseeds = ties = 0
    for _ in range(K):
        counts = np.bincount(labels, minlength=K)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        reseeds += 1
        own = d2[np.arange(n), labels]
        centroids[empty[0]] = data[int(np.argmax(own))]
        d2[:, empty[0]] = ((data - centroids[empty[0]]) ** 2).sum(axis=1)
        ties += int(((d2[:, empty[0]] == own) & (empty[0] < labels)).sum())
        labels = np.argmin(d2, axis=1)
    return labels, reseeds, ties


def old_lloyd(data, K, seed, max_iter=100):
    """(centroids, sse_history, reseeds, ties) of the old Lloyd loop."""
    n = data.shape[0]
    centroids = old_kmeanspp_init(data, K, np.random.default_rng(seed))
    prev_labels = None
    history = []
    reseeds = ties = 0
    for _ in range(max_iter):
        d2 = old_squared_distances(data, centroids)
        labels, r, t = old_reseed(data, centroids, d2, np.argmin(d2, axis=1))
        reseeds, ties = reseeds + r, ties + t
        history.append(float(d2[np.arange(n), labels].sum()))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        for k in range(K):
            centroids[k] = data[labels == k].mean(axis=0)
    return centroids, tuple(history), reseeds, ties


def old_log_densities(gmm, X):
    log_norm = -0.5 * (gmm.d * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
    inv = 1.0 / gmm.variances
    maha = (
        (X * X) @ inv.T
        - 2.0 * (X @ (gmm.means * inv).T)
        + (gmm.means * gmm.means * inv).sum(axis=1)[None, :]
    )
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * maha


def old_logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def old_em(data, K, seed, max_iter=100, tol=1e-5):
    """(weights, means, variances, loglik_history) of the old EM loop."""
    n, d = data.shape
    centroids = old_lloyd(data, K, seed, max_iter=codebooks.GMM_INIT_SWEEPS)[0]
    labels = np.argmin(old_squared_distances(data, centroids), axis=1)
    weights = np.bincount(labels, minlength=K).astype(np.float64) / n
    means = centroids.copy()
    variances = np.empty((K, d))
    for k in range(K):
        variances[k] = data[labels == k].var(axis=0)
    weights = np.maximum(weights, codebooks.WEIGHT_FLOOR)
    weights /= weights.sum()
    variances = np.maximum(variances, codebooks.VARIANCE_FLOOR)
    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        logd = old_log_densities(GmmModel(weights=weights, means=means, variances=variances), data)
        lse = old_logsumexp(logd, axis=1)
        ll = float(lse.mean())
        history.append(ll)
        if ll - prev_ll < tol:
            break
        prev_ll = ll
        resp = np.exp(logd - lse[:, None])
        nk = resp.sum(axis=0)
        live = nk > 1e-10
        weights = np.maximum(nk / n, codebooks.WEIGHT_FLOOR)
        weights /= weights.sum()
        new_means = means.copy()
        new_vars = variances.copy()
        safe_nk = np.where(live, nk, 1.0)
        mu = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ (data * data)) / safe_nk[:, None]
        new_means[live] = mu[live]
        new_vars[live] = second[live] - mu[live] ** 2
        means = new_means
        variances = np.maximum(new_vars, codebooks.VARIANCE_FLOOR)
    return weights, means, variances, tuple(history)


@pytest.fixture(scope="module")
def pca64_pool():
    """PCA-64 dense descriptors of 11 synthetic images, plus a 12th image's."""
    images = generate_synthetic(SyntheticSpec(count=12, seed=17))
    vectors = [extract_dense(build_pyramid(im.image)).vectors for im in images]
    pool = np.concatenate(vectors[1:])
    pca = fit_pca(pool, 64)
    return project(pca, pool), project(pca, vectors[0])


@pytest.fixture(scope="module")
def pca64_image_batch(pca64_pool):
    """A K=32 GMM on PCA-64 dense descriptors, plus one held-out image's descriptors."""
    pool, held_out = pca64_pool
    return train_gmm(pool, K=32, seed=0, max_iter=15), held_out


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


def test_lloyd_matches_old_loop_bit_for_bit(pca64_pool):
    pool, _ = pca64_pool
    cb = train_kmeans(pool, K=32, seed=3)
    centroids, history, _, _ = old_lloyd(pool, K=32, seed=3)
    assert np.array_equal(cb.centroids, centroids)
    assert cb.sse_history == history


def test_em_matches_old_iteration_within_1e_12(pca64_pool):
    pool, _ = pca64_pool
    gmm = train_gmm(pool, K=32, seed=0, max_iter=15)
    weights, means, variances, history = old_em(pool, K=32, seed=0, max_iter=15)
    assert len(gmm.loglik_history) == len(history) == 15
    assert np.abs(gmm.weights - weights).max() <= 1e-12 * weights.max()
    assert np.abs(gmm.means - means).max() <= 1e-12 * np.abs(means).max()
    assert (np.abs(gmm.variances - variances) <= 1e-12 * variances).all()
    np.testing.assert_allclose(gmm.loglik_history, history, rtol=1e-12, atol=0)


def test_gmm_init_runs_the_module_kmeans_at_its_sweep_cap(pca64_pool, monkeypatch):
    pool, _ = pca64_pool
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return train_kmeans(*args, **kwargs)

    monkeypatch.setattr(codebooks, "train_kmeans", recording)
    codebooks.train_gmm(pool, K=8, seed=2, max_iter=2)
    assert calls == [{"seed": 2, "max_iter": codebooks.GMM_INIT_SWEEPS}]


def test_default_caps_fit_within_half_a_percent_of_100_by_100(pca64_pool, monkeypatch):
    pool, _ = pca64_pool
    capped = mean_log_likelihood(train_gmm(pool, K=32, seed=0), pool)
    monkeypatch.setattr(codebooks, "GMM_INIT_SWEEPS", 100)
    full = mean_log_likelihood(train_gmm(pool, K=32, seed=0, max_iter=100), pool)
    assert abs(capped - full) <= 0.005 * abs(full)


def test_distances_match_old_matmul_branch_at_k256(pca64_pool):
    pool, _ = pca64_pool
    centroids = _kmeanspp_init(pool, 256, np.random.default_rng(1))
    assert np.array_equal(centroids, old_kmeanspp_init(pool, 256, np.random.default_rng(1)))
    old = old_squared_distances(pool, centroids)
    assert np.array_equal(_squared_distances(pool, centroids, (pool * pool).sum(axis=1)), old)
    labels, own = _nearest(pool, centroids)
    assert np.array_equal(labels, np.argmin(old, axis=1))
    assert np.array_equal(own, old[np.arange(pool.shape[0]), labels])
    assert np.array_equal(assign_nearest(KmeansCodebook(centroids=centroids), pool), labels)


def test_naive_branch_and_its_tie_break_match_old_code():
    rng = np.random.default_rng(12)
    data = rng.integers(0, 4, size=(40, 2)).astype(np.float64)
    centroids = data[[0, 5, 9, 17, 30]]
    old = old_squared_distances(data, centroids)
    assert ((old == old.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # ties occur
    labels, own = _nearest(data, centroids)
    assert np.array_equal(labels, np.argmin(old, axis=1))
    assert np.array_equal(own, old.min(axis=1))
    cb = train_kmeans(data, K=5, seed=4)
    old_centroids, history, _, _ = old_lloyd(data, K=5, seed=4)
    assert np.array_equal(cb.centroids, old_centroids)
    # The expanded form sums the SSE's distances in another order.
    np.testing.assert_allclose(cb.sse_history, history, rtol=1e-12, atol=0)


def test_reseed_step_matches_full_argmin_with_ties():
    # Three of the eight centroids are far from every point, so they start
    # empty; on the integer grid, a point is as near a reseeded centroid as
    # its own.
    data = np.array([[x, y] for x in range(6) for y in range(5)], dtype=np.float64)
    centroids = np.array(
        [[5.0, 3.0], [3.0, 1.0], [50.0, 50.0], [1.0, 0.0], [-40.0, 0.0],
         [0.0, 0.0], [1.0, 4.0], [0.0, 60.0]]
    )
    old_centroids = centroids.copy()
    d2 = old_squared_distances(data, old_centroids)
    old_labels, reseeds, ties = old_reseed(data, old_centroids, d2, np.argmin(d2, axis=1))
    assert reseeds == 3 and ties > 0
    labels, own = _nearest(data, centroids)
    _reseed_empty(data, centroids, labels, own)
    assert np.array_equal(centroids, old_centroids)
    assert np.array_equal(labels, old_labels)
    assert np.array_equal(own, d2[np.arange(data.shape[0]), old_labels])


def test_empty_cluster_reseed_matches_old_loop():
    # Fifteen 64-D locations of norm ~1e4, 300 copies each, and one point 1e-9
    # away from the first: the k-means++ seeding must take both, and the
    # expanded form cannot tell them apart, so one of their clusters empties.
    rng = np.random.default_rng(1)
    locations = rng.uniform(-1e3, 1e3, size=(15, 64))
    near = locations[0].copy()
    near[0] += 1e-9
    data = np.vstack([np.repeat(locations, 300, axis=0), near])
    assert data.shape[0] * 16 * 64 > 1 << 22  # the old code's expanded form
    cb = train_kmeans(data, K=16, seed=1, max_iter=2)
    centroids, history, reseeds, ties = old_lloyd(data, K=16, seed=1, max_iter=2)
    assert reseeds > 0 and ties > 0
    assert np.array_equal(cb.centroids, centroids)
    assert cb.sse_history == history
    # In the third sweep every point sits on a centroid, so K reseeds leave a
    # cluster empty and its mean is NaN: the old loop returned that codebook.
    with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning):
        assert np.isnan(old_lloyd(data, K=16, seed=1, max_iter=3)[0]).any()
        with pytest.raises(DataError):
            train_kmeans(data, K=16, seed=1, max_iter=3)


def test_cluster_left_empty_names_too_few_distinct_points():
    # The input of test_empty_cluster_reseed_matches_old_loop: in the third
    # sweep every point sits on a centroid and K reseeds leave a cluster
    # empty. The error comes before any mean is divided, so nothing warns.
    rng = np.random.default_rng(1)
    locations = rng.uniform(-1e3, 1e3, size=(15, 64))
    near = locations[0].copy()
    near[0] += 1e-9
    data = np.vstack([np.repeat(locations, 300, axis=0), near])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="fewer distinct points than K=16"):
            train_kmeans(data, K=16, seed=1, max_iter=3)


def test_posteriors_match_old_log_densities_within_1e_12(pca64_image_batch):
    gmm, x = pca64_image_batch
    old = old_log_densities(gmm, x)
    lse = old_logsumexp(old, axis=1)
    assert np.abs(posteriors(gmm, x) - np.exp(old - lse[:, None])).max() <= 1e-12
    assert mean_log_likelihood(gmm, x) == pytest.approx(float(lse.mean()), rel=1e-12)


def test_posteriors_equal_the_em_e_step_bit_for_bit(pca64_pool, monkeypatch):
    # Record the responsibilities of the first E-step, block by block, and ask
    # posteriors for the rows of one whole block. (The BLAS kernel computes
    # the last few columns of a long (K, n) product by a remainder path, so a
    # row cut at another place may differ in the last bit.)
    pool, _ = pca64_pool
    e_step = codebooks._e_step
    blocks = []

    def recording(W, c, Z, out):
        lse = e_step(W, c, Z, out)
        blocks.append(out.copy())
        return lse

    monkeypatch.setattr(codebooks, "_e_step", recording)
    trace = []
    train_gmm(pool, K=32, seed=0, max_iter=1, trace=trace)
    assert len(blocks) > 2 and sum(r.shape[1] for r in blocks) == pool.shape[0]
    a = blocks[0].shape[1]
    b = a + blocks[1].shape[1]
    assert np.array_equal(posteriors(GmmModel(*trace[0]), pool[a:b]), blocks[1].T)


def test_diverging_em_is_a_numerical_error(monkeypatch):
    # Non-finite parameters must surface as NumericalError (CLI exit 3), not as
    # the DataError that GmmModel raises for a non-finite model.
    def nan_responsibilities(W, c, Z, out):
        out.fill(np.nan)
        return np.zeros(Z.shape[0])

    monkeypatch.setattr(codebooks, "_e_step", nan_responsibilities)
    data = np.random.default_rng(13).normal(size=(60, 2))
    with pytest.raises(NumericalError):
        train_gmm(data, K=2, seed=0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_vocabulary_training_rejects_non_finite_input(bad):
    data = np.random.default_rng(14).normal(size=(40, 2))
    data[7, 1] = bad
    with pytest.raises(DataError):
        train_kmeans(data, K=2, seed=0)
    with pytest.raises(DataError):
        train_gmm(data, K=2, seed=0)
