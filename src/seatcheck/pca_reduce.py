"""PCA fitting and projection.

Used twice in the pipeline: to take raw 128-D descriptors down to 64-D
before vocabulary learning, and optionally to compress final encoded
vectors (e.g. Fisher vectors to 512-D). Covariance is the biased (1/N)
estimate so that per-axis projected variance equals the stored eigenvalue
exactly on the training sample. No whitening: the downstream Fisher
encoding already divides by per-component standard deviations.

``fit_pca`` takes the sample as one array or as a sequence of row blocks
(the pipeline passes one block per image). The covariance is summed block
by block into one (d_in, d_in) buffer, so fitting never stacks the corpus
and never holds a centered copy of more than one block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dense_descriptors import DescriptorSet
from .errors import DataError, is_integer

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class PcaModel:
    """Mean plus an orthonormal basis (rows are principal axes, variance-sorted)."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if basis.ndim != 2 or mean.shape != (basis.shape[1],) or ev.shape != (basis.shape[0],):
            raise DataError("inconsistent PCA model shapes")
        if not (np.isfinite(mean).all() and np.isfinite(basis).all() and np.isfinite(ev).all()):
            raise DataError("PCA model parameters must be finite")
        # no entry of an orthonormal row exceeds 1; a larger one could overflow the Gram product
        too_big = np.abs(basis).max(initial=0.0) > 1.0 + ORTHO_TOL
        if too_big or np.abs(basis @ basis.T - np.eye(len(basis))).max() > ORTHO_TOL:
            raise DataError("PCA basis rows are not orthonormal")
        if np.any(np.diff(ev) > 0) or np.any(ev < 0):
            raise DataError("eigenvalues must be non-negative and non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def d_in(self) -> int:
        return self.basis.shape[1]

    @property
    def d_out(self) -> int:
        return self.basis.shape[0]


def fit_pca(data: np.ndarray | Sequence[np.ndarray], d_out: int) -> PcaModel:
    """Fit by symmetric eigendecomposition of the (biased) sample covariance.

    ``data`` is one (samples, d_in) array or a sequence of (n_i, d_in) row
    blocks that together form the sample. The mean is summed over blocks,
    then each block's centered scatter ``(b - mean).T @ (b - mean)`` is added
    into one buffer. One block gives the same bits as the whole-array fit;
    a split sample sums in another order and agrees to round-off.

    Each basis row's sign is fixed so its largest-magnitude component is
    positive, making fitted models reproducible across runs.
    """
    blocks = [data] if isinstance(data, np.ndarray) else list(data)
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    if not blocks or any(b.ndim != 2 for b in blocks):
        raise DataError("fit_pca expects a (samples, d_in) array or a sequence of them")
    d_in = blocks[0].shape[1]
    if any(b.shape[1] != d_in for b in blocks):
        raise DataError("fit_pca blocks must all have the same width")
    if not all(np.isfinite(b).all() for b in blocks):
        raise DataError("fit_pca input contains non-finite values")
    n = sum(b.shape[0] for b in blocks)
    if not (is_integer(d_out) and 1 <= d_out <= d_in):
        raise DataError(f"d_out must be an integer in [1, {d_in}], got {d_out!r}")
    if n < d_out:
        raise DataError(f"need at least d_out={d_out} samples, got {n}")

    total = np.zeros(d_in)
    for b in blocks:
        total += b.sum(axis=0)
    mean = total / n
    scatter = np.zeros((d_in, d_in))
    for b in blocks:
        centered = b - mean
        scatter += centered.T @ centered
    cov = scatter / n
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1][:d_out]
    ev = np.maximum(eigvals[order], 0.0)  # clip eigh round-off
    basis = eigvecs[:, order].T

    for i in range(d_out):
        j = int(np.argmax(np.abs(basis[i])))
        if basis[i, j] < 0:
            basis[i] = -basis[i]
    return PcaModel(mean=mean, basis=basis, eigenvalues=ev)


def project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project one vector or a (n, d_in) batch: basis @ (x - mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d_in:
        raise DataError(f"expected dimension {model.d_in}, got {x.shape[-1]}")
    return (x - model.mean) @ model.basis.T


def project_set(model: PcaModel, ds: DescriptorSet) -> DescriptorSet:
    """Project every descriptor in a set, keeping positions and provenance."""
    if ds.dim != model.d_in:
        raise DataError(f"descriptor dim {ds.dim} does not match PCA d_in {model.d_in}")
    return DescriptorSet(
        vectors=project(model, ds.vectors),
        x_norm=ds.x_norm,
        y_norm=ds.y_norm,
        scale_level=ds.scale_level,
        source_id=ds.source_id,
    )
