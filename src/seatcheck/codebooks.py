"""Visual vocabularies: k-means codebooks and diagonal-covariance GMMs.

k-means (Lloyd's algorithm with k-means++ seeding) supplies the codebook
for BoW and VLAD and the initialization for GMM training. The GMM is fit
by maximum-likelihood EM and is consumed by the Fisher-vector encoder.
All training is deterministic given the seed: same seed, same data, same
hyperparameters give bit-identical models.

k-means works in place, one cache-sized row block at a time, and sums each
cluster in input order, so its results are the bits of the whole-array
form. The GMM density has one form, shared by EM, ``posteriors`` and
``mean_log_likelihood``: log w_i + log N(x | mu_i, sigma_i^2) =
W_i . [x, x^2] + c_i, one matmul evaluated in a (K, n) layout so that the
max and the sum over components run along contiguous rows. Each EM
iteration is one pass over row blocks: E-step into a (K, block) buffer,
then the block's share of the sufficient statistics, so no (n, K) array is
held. The tests keep the three-matmul (n, K) form with whole-array
statistics as an oracle; EM and ``posteriors`` agree with it to 1e-12
relative, not bit for bit.
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

# Row blocks of the distance and E-step kernels hold about this many float64s
# (1 MiB, within a core's L2 cache). Splitting rows does not change any
# row's distances, but numpy computes a one-row product as a matrix-vector
# product, which may round differently, so a block has at least 64 rows.
# The E-step's (K, rows) product is not split-invariant: the last few
# columns of a long product go through the BLAS kernel's remainder path and
# may round differently, so its bits follow the cuts, which depend only on n.
BLOCK_ELEMS = 1 << 17
MIN_BLOCK_ROWS = 64

# Iteration caps of a GMM vocabulary: the Lloyd sweeps of the k-means
# clustering that seeds EM, and the EM iterations. Chosen from a grid on
# noisy synthetic corpora (BENCH_stopping.json): against 100 sweeps and 100
# iterations they move the mean accuracy and AUC by less than a change of
# seed does, and train the canonical GMM in a fifth of the time.
GMM_INIT_SWEEPS = 10
DEFAULT_EM_ITER = 20


@dataclass(frozen=True)
class KmeansCodebook:
    """K centroids in descriptor space, plus the per-iteration SSE trace."""

    centroids: np.ndarray
    sse_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise DataError("centroids must be a (K, d) array with K >= 1")
        if not np.isfinite(c).all():
            raise DataError("centroids must be finite")
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
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(var).all()):
            raise DataError("GMM parameters must be finite")
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


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """Near-equal row ranges [a, b) covering n rows, each of at most
    max(BLOCK_ELEMS // width, MIN_BLOCK_ROWS) rows."""
    count = max(1, -(-n // max(BLOCK_ELEMS // width, MIN_BLOCK_ROWS)))
    bounds = [n * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _squared_distances(data: np.ndarray, centroids: np.ndarray, data_sq: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances in the expanded form
    |x|^2 - 2 x.c + |c|^2.

    ``data_sq`` is (data * data).sum(axis=1), computed once by the caller.
    The terms are applied in place to the one (N, K) buffer the matmul
    returns, so no (N, K, d) or second (N, K) array is built.
    """
    d2 = data @ centroids.T
    d2 *= -2.0
    d2 += data_sq[:, None]
    d2 += (centroids * centroids).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _nearest(
    data: np.ndarray, centroids: np.ndarray, data_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the closest centroid for every row (ties go to the lowest
    index) and the squared distance to it, in the expanded form, one row
    block at a time."""
    n, K = data.shape[0], centroids.shape[0]
    if data_sq is None:
        data_sq = (data * data).sum(axis=1)
    labels = np.empty(n, dtype=np.intp)
    own = np.empty(n)
    for a, b in _row_blocks(n, K):
        d2 = _squared_distances(data[a:b], centroids, data_sq[a:b])
        labels[a:b] = np.argmin(d2, axis=1)
        own[a:b] = d2[np.arange(b - a), labels[a:b]]
    return labels, own


def _distances_to(data: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance of every row of ``data`` to one point, in the naive
    difference form, one row block at a time in one reused buffer."""
    n, d = data.shape
    blocks = _row_blocks(n, d)
    out = np.empty(n)
    buf = np.empty((max(b - a for a, b in blocks), d))
    for a, b in blocks:
        diff = buf[: b - a]
        np.subtract(data[a:b], point, out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=out[a:b])
    return out


def _cluster_sums(columns: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """(K, d) sums of each cluster's rows, given the data as its d columns.

    A weighted ``bincount`` adds each cluster's values in input order, as
    ``data[labels == k].sum(axis=0)`` does, so the sums are the same bits.
    """
    return np.stack([np.bincount(labels, weights=col, minlength=K) for col in columns], axis=1)


def _kmeanspp_init(data: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centroids = np.empty((K, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2min = _distances_to(data, centroids[0])
    for k in range(1, K):
        total = d2min.sum()
        if total <= 0.0:
            raise DataError(f"fewer than K={K} distinct points in k-means input")
        idx = rng.choice(n, p=d2min / total)
        centroids[k] = data[idx]
        np.minimum(d2min, _distances_to(data, centroids[k]), out=d2min)
    return centroids


def _reseed_empty(
    data: np.ndarray, centroids: np.ndarray, labels: np.ndarray, own: np.ndarray
) -> np.ndarray:
    """Move each empty cluster, lowest index first, to the point farthest from
    its own centroid, at most K times; update ``centroids``, ``labels`` and
    ``own`` (each point's squared distance to its centroid) in place, and
    return the cluster sizes. A cluster still empty after K moves means the
    data has fewer distinct points than K: a ``DataError``.

    Only the moved centroid's distances change, and no point had it as its
    nearest: a point joins it when it is nearer, or as near and of lower
    index, which is what an argmin over the updated distance matrix gives.
    """
    K = centroids.shape[0]
    for _ in range(K):
        empty = np.flatnonzero(np.bincount(labels, minlength=K) == 0)
        if empty.size == 0:
            break
        e = empty[0]
        centroids[e] = data[int(np.argmax(own))]
        d2e = _distances_to(data, centroids[e])
        moved = (d2e < own) | ((d2e == own) & (e < labels))
        labels[moved] = e
        own[moved] = d2e[moved]
    counts = np.bincount(labels, minlength=K)
    if not counts.all():
        raise DataError(f"k-means input has fewer distinct points than K={K}")
    return counts


def train_kmeans(data: np.ndarray, K: int, seed: int, max_iter: int = 100) -> KmeansCodebook:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments are unchanged or after max_iter sweeps. An empty
    cluster is re-seeded to the point currently farthest from its own
    centroid.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("train_kmeans expects a (samples, d) array")
    if not np.isfinite(data).all():
        raise DataError("k-means input contains non-finite values")
    n = data.shape[0]
    if n < K or K < 1:
        raise DataError(f"need at least K={K} samples, got {n}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(data, K, rng)
    data_sq = (data * data).sum(axis=1)
    columns = np.ascontiguousarray(data.T)
    prev_labels = None
    history: list[float] = []
    for _ in range(max_iter):
        labels, own = _nearest(data, centroids, data_sq)
        counts = _reseed_empty(data, centroids, labels, own)
        history.append(float(own.sum()))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        centroids = _cluster_sums(columns, labels, K)
        centroids /= counts[:, None]
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
    idx = _nearest(x, cb.centroids)[0]
    return int(idx[0]) if single else idx


def _features(x: np.ndarray) -> np.ndarray:
    """(n, 2d) rows [x, x^2], the inputs of the density form."""
    return np.hstack([x, x * x])


def _density_form(gmm: GmmModel) -> tuple[np.ndarray, np.ndarray]:
    """(W, c) with log w_i + log N(x | mu_i, diag sigma_i^2) = W_i . [x, x^2] + c_i.

    W = [mu / sigma^2, -1 / (2 sigma^2)] is (K, 2d) and
    c = log w - 1/2 (d log 2 pi + sum log sigma^2 + sum mu^2 / sigma^2).
    """
    inv = 1.0 / gmm.variances
    W = np.hstack([gmm.means * inv, -0.5 * inv])
    c = np.log(gmm.weights) - 0.5 * (
        gmm.d * np.log(2.0 * np.pi)
        + np.log(gmm.variances).sum(axis=1)
        + (gmm.means * gmm.means * inv).sum(axis=1)
    )
    return W, c


def _e_step(W: np.ndarray, c: np.ndarray, Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Responsibilities of the rows of ``Z`` (from ``_features``), written
    (K, rows) into ``out``; returns each row's log-likelihood.

    Components run along the first axis, so the max and the sum over them
    are elementwise passes over contiguous rows, and ``exp`` runs once per
    element.
    """
    np.matmul(W, Z.T, out=out)
    out += c[:, None]
    m = out.max(axis=0)
    out -= m
    np.exp(out, out=out)
    total = out.sum(axis=0)
    out /= total
    return m + np.log(total)


def _evaluate(gmm: GmmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, n) responsibilities and the n log-likelihoods of the rows of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != gmm.d:
        raise DataError(f"expected dimension {gmm.d}, got {x.shape[-1]}")
    W, c = _density_form(gmm)
    resp = np.empty((gmm.K, x.shape[0]))
    return resp, _e_step(W, c, _features(x), resp)


def posteriors(gmm: GmmModel, x: np.ndarray) -> np.ndarray:
    """Soft assignments alpha_i(x) = w_i p_i(x) / sum_j w_j p_j(x).

    Computed in log space, so distant points still get a well-defined
    (rather than 0/0) posterior. Accepts a d-vector or an (n, d) batch and
    returns a K-vector or an (n, K) array.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    resp = _evaluate(gmm, x[None, :] if single else x)[0]
    return resp[:, 0] if single else resp.T


def mean_log_likelihood(gmm: GmmModel, data: np.ndarray) -> float:
    """Mean over samples of log p(x | theta)."""
    return float(_evaluate(gmm, data)[1].mean())


def train_gmm(
    data: np.ndarray,
    K: int,
    seed: int,
    max_iter: int = DEFAULT_EM_ITER,
    tol: float = 1e-5,
    trace: list | None = None,
) -> GmmModel:
    """Maximum-likelihood EM, initialized from a k-means clustering.

    The clustering runs at most GMM_INIT_SWEEPS Lloyd sweeps. Initial
    weights are cluster fractions and initial variances the within-cluster
    variances. Iteration stops when the mean log-likelihood improves by less
    than ``tol`` or after ``max_iter`` E-steps (DEFAULT_EM_ITER; at that cap
    EM has not converged, and the tolerance rarely stops it first). When
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

    cb = train_kmeans(data, K, seed=seed, max_iter=GMM_INIT_SWEEPS)
    labels = assign_nearest(cb, data)
    counts = np.bincount(labels, minlength=K)
    weights = counts / n
    means = cb.centroids.copy()
    # Within-cluster variances as .var(axis=0) computes them: deviations from
    # the members' own mean, squared, summed in input order.
    columns = np.ascontiguousarray(data.T)
    dev = columns - (_cluster_sums(columns, labels, K) / counts[:, None]).T[:, labels]
    dev *= dev
    variances = _cluster_sums(dev, labels, K) / counts[:, None]
    del columns, dev
    weights = np.maximum(weights, WEIGHT_FLOOR)
    weights /= weights.sum()
    variances = np.maximum(variances, VARIANCE_FLOOR)

    Z = _features(data)
    blocks = _row_blocks(n, max(K, 2 * d))
    resp = np.empty((K, max(b - a for a, b in blocks)))
    lse = np.empty(n)
    history: list[float] = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        if trace is not None:
            trace.append((weights.copy(), means.copy(), variances.copy()))
        # Divergence is a numerical failure, not the DataError GmmModel raises.
        if not all(np.isfinite(p).all() for p in (weights, means, variances)):
            raise NumericalError("non-finite parameters during EM")
        W, c = _density_form(GmmModel(weights=weights, means=means, variances=variances))
        # One pass over the row blocks: E-step, then the sufficient statistics
        # S = sum_t r_t [x_t, x_t^2] and nk = sum_t r_t; no (n, K) array is held.
        S = np.zeros((K, 2 * d))
        nk = np.zeros(K)
        for a, b in blocks:
            r = resp[:, : b - a]
            lse[a:b] = _e_step(W, c, Z[a:b], r)
            S += r @ Z[a:b]
            nk += r.sum(axis=1)
        ll = float(lse.mean())
        if not np.isfinite(ll):
            raise NumericalError("non-finite log-likelihood during EM")
        history.append(ll)
        if ll - prev_ll < tol:
            break
        prev_ll = ll

        live = nk > 1e-10
        weights = np.maximum(nk / n, WEIGHT_FLOOR)
        weights /= weights.sum()
        new_means = means.copy()
        new_vars = variances.copy()
        S /= np.where(live, nk, 1.0)[:, None]
        mu, second = S[:, :d], S[:, d:]
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
