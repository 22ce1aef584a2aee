"""Aggregate a set of local descriptors into one fixed-length image signature.

Three encoders share the same contract: a descriptor set in, one 1-D
float64 array (the image signature) out.

* BoW: nearest-word histograms over a 1 + 2x2 + 4x4 spatial pyramid
  (21 regions), each region L1-normalized, concatenated, L2-normalized.
* VLAD: per-word accumulation of residuals x_t - mu_i, concatenated,
  then power- and L2-normalized.
* Fisher vector: per-component posterior-weighted, sigma-whitened mean
  residuals, g_i = (1 / (T * sqrt(w_i))) * sum_t alpha_t(i) (x_t - mu_i) / sigma_i,
  concatenated over components, then power- and L2-normalized.

VLAD and FV sums run over ``ds.vectors`` in the (scale_level, y_norm,
x_norm) order that DescriptorSet keeps its rows in, so when no two
descriptors share a position, encodings are bit-identical under any
permutation of the input set.

What produced a signature (encoder kind, K, d and any final PCA) is one
``Provenance`` per encoded corpus or model, checked once, not per image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebooks import GmmModel, KmeansCodebook, assign_nearest, posteriors
from .dense_descriptors import DescriptorSet
from .errors import DataError, NumericalError, is_integer

ENCODER_KINDS = ("bow", "vlad", "fisher")

# 1 whole-image region + 2x2 + 4x4 grid cells.
BOW_REGIONS = 1 + 4 + 16


def check_quantizer_kind(encoder_kind: str, quantizer) -> None:
    """Fisher needs a GMM; bow and vlad need a k-means codebook."""
    if encoder_kind == "fisher" and not isinstance(quantizer, GmmModel):
        raise DataError("fisher encoding requires a GMM vocabulary")
    if encoder_kind != "fisher" and not isinstance(quantizer, KmeansCodebook):
        raise DataError(f"{encoder_kind} encoding requires a k-means codebook")


@dataclass(frozen=True)
class Provenance:
    """What made a signature: the encoder kind, the vocabulary size K, the
    descriptor dim d, and the output dim of a final PCA when one compressed it.
    ``fingerprint`` is the one place that writes the provenance format; a
    classifier stores it as ``trained_on``."""

    kind: str
    K: int
    d: int
    compressed_dim: int | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise DataError(f"unknown encoder kind {self.kind!r}")
        dims = (self.K, self.d) if self.compressed_dim is None else (self.K, self.d, self.compressed_dim)
        if not all(is_integer(v) and v >= 1 for v in dims):
            raise DataError(f"provenance K, d and compressed_dim must be integers >= 1, got {dims!r}")

    @property
    def length(self) -> int:
        if self.compressed_dim is not None:
            return self.compressed_dim
        return BOW_REGIONS * self.K if self.kind == "bow" else self.K * self.d

    @property
    def fingerprint(self) -> str:
        base = f"{self.kind}:K={self.K}:d={self.d}"
        return base if self.compressed_dim is None else f"{base}:pca={self.compressed_dim}"


def power_l2_normalize(v: np.ndarray) -> np.ndarray:
    """Signed square root, sign(z) * |z| ** 0.5, followed by L2 normalization.

    The exponent is fixed at 0.5 (Perronnin et al., ECCV 2010). The all-zero
    vector maps to itself; anything non-finite is rejected.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise NumericalError("power_l2_normalize received non-finite input")
    powered = np.sign(v) * np.abs(v) ** 0.5
    norm = np.linalg.norm(powered)
    if norm == 0.0:
        return np.zeros_like(powered)
    return powered / norm


def l2_or_zero(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit L2 norm; the all-zero vector maps to itself."""
    norm = np.linalg.norm(v)
    return v / norm if norm != 0.0 else v


def _check_nonempty(ds: DescriptorSet, model_d: int) -> None:
    if len(ds) == 0:
        raise DataError("cannot encode an empty descriptor set")
    if ds.dim != model_d:
        raise DataError(f"descriptor dim {ds.dim} does not match model dim {model_d}")


def _grid_index(coord: np.ndarray, n: int) -> np.ndarray:
    """Half-open bins [i/n, (i+1)/n) with the final bin closed at 1.0."""
    return np.minimum(np.floor(coord * n).astype(np.int64), n - 1)


def encode_bow(ds: DescriptorSet, cb: KmeansCodebook, normalize: bool = True) -> np.ndarray:
    """Spatial-pyramid bag-of-words: whole image + 2x2 + 4x4 region histograms.

    Each region histogram is L1-normalized (empty regions stay zero) so the
    dense 4x4 level cannot drown the whole-image histogram; the 21*K
    concatenation is then L2-normalized. BoW receives no power normalization.
    All 21 histograms are one ``bincount`` over region * K + word; DescriptorSet
    keeps positions in [0, 1], so each descriptor lands in one cell per level.
    """
    _check_nonempty(ds, cb.d)
    words = assign_nearest(cb, ds.vectors)
    K = cb.K
    # (3, T): each descriptor's region at the whole-image, 2x2 and 4x4 levels
    region = np.stack([np.zeros_like(words)] + [
        first + _grid_index(ds.y_norm, n) * n + _grid_index(ds.x_norm, n) for first, n in ((1, 2), (5, 4))
    ])
    hists = np.bincount((region * K + words).ravel(), minlength=BOW_REGIONS * K)
    hists = hists.reshape(BOW_REGIONS, K).astype(np.float64)
    sums = hists.sum(axis=1, keepdims=True)
    hists = np.divide(hists, sums, out=np.zeros_like(hists), where=sums > 0)
    flat = hists.ravel()
    if normalize:
        flat = l2_or_zero(flat)
    return flat


def encode_vlad(ds: DescriptorSet, cb: KmeansCodebook, normalize: bool = True) -> np.ndarray:
    """VLAD: accumulate x_t - mu_i over descriptors nearest to word i."""
    _check_nonempty(ds, cb.d)
    x = ds.vectors
    words = assign_nearest(cb, x)
    acc = np.zeros((cb.K, cb.d))
    np.add.at(acc, words, x - cb.centroids[words])
    flat = acc.ravel()
    if normalize:
        flat = power_l2_normalize(flat)
    return flat


def encode_fv(ds: DescriptorSet, gmm: GmmModel, normalize: bool = True) -> np.ndarray:
    """Fisher vector over the mean parameters of a diagonal GMM.

    With S0_i = sum_t alpha_t(i) and S1_i = sum_t alpha_t(i) x_t, component
    i contributes (S1_i - S0_i mu_i) / (sigma_i * T * sqrt(w_i)), which is
    the posterior-weighted whitened residual sum.
    """
    _check_nonempty(ds, gmm.d)
    x = ds.vectors
    t = x.shape[0]
    alpha = posteriors(gmm, x)  # (T, K)
    s0 = alpha.sum(axis=0)
    s1 = alpha.T @ x
    sigma = np.sqrt(gmm.variances)
    g = (s1 - s0[:, None] * gmm.means) / (sigma * (t * np.sqrt(gmm.weights))[:, None])
    flat = g.ravel()
    if normalize:
        flat = power_l2_normalize(flat)
    return flat
