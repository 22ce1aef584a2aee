"""Visual vocabularies: k-means codebooks and diagonal-covariance GMMs.

k-means (Lloyd's algorithm with k-means++ seeding) supplies the codebook
for BoW and VLAD and the initialization for GMM training. The GMM is fit
by maximum-likelihood EM and is consumed by the Fisher-vector encoder.
All training is deterministic given the seed: same seed, same data, same
hyperparameters give bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError

WEIGHT_FLOOR = 1e-6
VARIANCE_FLOOR = 1e-8

# Documented heuristic: EM needs a handful of points per component before
# the ML estimates mean anything.
MIN_SAMPLES_PER_COMPONENT = 10


@dataclass(frozen=True)
class KmeansCodebook:
    """K centroids in descriptor space, plus the per-iteration SSE trace."""

    centroids: np.ndarray
    sse_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise DataError("centroids must be a (K, d) array with K >= 1")
        object.__setattr__(self, "centroids", c)

    @property
    def K(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture: weights, means, variances.

    Weights sum to 1 and are floored at WEIGHT_FLOOR; variances are floored
    at VARIANCE_FLOOR. ``loglik_history`` traces the mean log-likelihood
    observed at each EM iteration.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    loglik_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        mu = np.ascontiguousarray(self.means, dtype=np.float64)
        var = np.ascontiguousarray(self.variances, dtype=np.float64)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or var.shape != mu.shape:
            raise DataError("inconsistent GMM parameter shapes")
        if abs(w.sum() - 1.0) > 1e-10:
            raise DataError(f"weights must sum to 1, got {w.sum()!r}")
        if (w < WEIGHT_FLOOR).any():
            raise DataError("weight below floor")
        if (var < VARIANCE_FLOOR).any():
            raise DataError("variance below floor")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def K(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances.

    Small batches use the naive difference form so ties behave exactly like
    a per-point linear scan (the tie-break contract); large batches use the
    expanded matmul form to avoid an (N, K, d) temporary.
    """
    if data.shape[0] * centroids.shape[0] * data.shape[1] <= 1 << 22:
        return ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    d2 = (
        (data * data).sum(axis=1)[:, None]
        - 2.0 * (data @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(data: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
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


def train_kmeans(data: np.ndarray, K: int, seed: int, max_iter: int = 100) -> KmeansCodebook:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments are unchanged or after max_iter sweeps. An empty
    cluster is re-seeded to the point currently farthest from its own
    centroid.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("train_kmeans expects a (samples, d) array")
    n = data.shape[0]
    if n < K or K < 1:
        raise DataError(f"need at least K={K} samples, got {n}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(data, K, rng)
    prev_labels = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = _squared_distances(data, centroids)
        labels = np.argmin(d2, axis=1)
        for _ in range(K):
            counts = np.bincount(labels, minlength=K)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            own = d2[np.arange(n), labels]
            centroids[empty[0]] = data[int(np.argmax(own))]
            d2[:, empty[0]] = ((data - centroids[empty[0]]) ** 2).sum(axis=1)
            labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        for k in range(K):
            centroids[k] = data[labels == k].mean(axis=0)
    return KmeansCodebook(centroids=centroids, sse_history=tuple(history))


def assign_nearest(cb: KmeansCodebook, x: np.ndarray) -> int | np.ndarray:
    """Index of the closest centroid; ties go to the lowest index.

    Accepts one d-vector (returns int) or an (n, d) batch (returns an array).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != cb.d:
        raise DataError(f"expected dimension {cb.d}, got {x.shape[1]}")
    idx = np.argmin(_squared_distances(x, cb.centroids), axis=1)
    return int(idx[0]) if single else idx


def _log_densities(gmm: GmmModel, X: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log(w_i) + log N(x | mu_i, diag sigma_i^2)."""
    log_norm = -0.5 * (gmm.d * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
    # sum_j (x_j - mu_ij)^2 / var_ij expanded into three matmul terms, one
    # form for every batch size: no (N, K, d) temporary is ever built
    inv = 1.0 / gmm.variances
    maha = (
        (X * X) @ inv.T
        - 2.0 * (X @ (gmm.means * inv).T)
        + (gmm.means * gmm.means * inv).sum(axis=1)[None, :]
    )
    return np.log(gmm.weights)[None, :] + log_norm[None, :] - 0.5 * maha


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def posteriors(gmm: GmmModel, x: np.ndarray) -> np.ndarray:
    """Soft assignments alpha_i(x) = w_i p_i(x) / sum_j w_j p_j(x).

    Computed in log space, so distant points still get a well-defined
    (rather than 0/0) posterior. Accepts a d-vector or an (n, d) batch.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != gmm.d:
        raise DataError(f"expected dimension {gmm.d}, got {x.shape[1]}")
    logd = _log_densities(gmm, x)
    alpha = np.exp(logd - _logsumexp(logd, axis=1)[:, None])
    return alpha[0] if single else alpha


def mean_log_likelihood(gmm: GmmModel, data: np.ndarray) -> float:
    """Mean over samples of log p(x | theta)."""
    data = np.asarray(data, dtype=np.float64)
    return float(_logsumexp(_log_densities(gmm, data), axis=1).mean())


def train_gmm(
    data: np.ndarray,
    K: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-5,
    trace: list | None = None,
) -> GmmModel:
    """Maximum-likelihood EM, initialized from a k-means clustering.

    Initial weights are cluster fractions and initial variances the
    within-cluster variances. Iteration stops when the mean log-likelihood
    improves by less than ``tol`` or after ``max_iter`` E-steps. When
    ``trace`` is a list, the parameter state entering each E-step is
    appended to it as (weights, means, variances) copies.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("train_gmm expects a (samples, d) array")
    n, d = data.shape
    if n < MIN_SAMPLES_PER_COMPONENT * K:
        raise DataError(
            f"need at least {MIN_SAMPLES_PER_COMPONENT * K} samples for K={K}, got {n}"
        )

    cb = train_kmeans(data, K, seed=seed)
    labels = assign_nearest(cb, data)
    counts = np.bincount(labels, minlength=K).astype(np.float64)
    weights = counts / n
    means = cb.centroids.copy()
    variances = np.empty((K, d))
    for k in range(K):
        variances[k] = data[labels == k].var(axis=0)
    weights = np.maximum(weights, WEIGHT_FLOOR)
    weights /= weights.sum()
    variances = np.maximum(variances, VARIANCE_FLOOR)

    history: list[float] = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        if trace is not None:
            trace.append((weights.copy(), means.copy(), variances.copy()))
        model = GmmModel(weights=weights, means=means, variances=variances)
        logd = _log_densities(model, data)
        lse = _logsumexp(logd, axis=1)
        ll = float(lse.mean())
        if not np.isfinite(ll):
            raise NumericalError("non-finite log-likelihood during EM")
        history.append(ll)
        if ll - prev_ll < tol:
            break
        prev_ll = ll

        resp = np.exp(logd - lse[:, None])  # (N, K)
        nk = resp.sum(axis=0)
        live = nk > 1e-10
        weights = np.maximum(nk / n, WEIGHT_FLOOR)
        weights /= weights.sum()
        new_means = means.copy()
        new_vars = variances.copy()
        safe_nk = np.where(live, nk, 1.0)
        mu = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ (data * data)) / safe_nk[:, None]
        new_means[live] = mu[live]
        new_vars[live] = second[live] - mu[live] ** 2
        means = new_means
        variances = np.maximum(new_vars, VARIANCE_FLOOR)

    return GmmModel(
        weights=weights, means=means, variances=variances, loglik_history=tuple(history)
    )


def gmm_debug_dump(gmm: GmmModel) -> str:
    """Plain-text listing of weight, mean, and variance per component."""
    lines = []
    for i in range(gmm.K):
        lines.append(f"component {i}")
        lines.append(f"  weight   {float(gmm.weights[i])!r}")
        lines.append("  mean     " + " ".join(repr(float(v)) for v in gmm.means[i]))
        lines.append("  variance " + " ".join(repr(float(v)) for v in gmm.variances[i]))
    return "\n".join(lines) + "\n"
