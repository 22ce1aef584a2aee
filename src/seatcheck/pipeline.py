"""End-to-end orchestration: extract -> PCA -> vocabulary -> encode -> SVM -> evaluate.

All fitting (PCA, codebook/GMM, final PCA, SVM) happens on the train split
only; the test split flows through frozen transforms. Every random choice
takes an explicit seed from the config, so a config determines the model
file and metric CSVs byte-for-byte. Artifacts are written atomically at the
end of the run: a failed stage leaves no partial model behind.

Each stage has one definition here, shared by ``run_pipeline``,
``score_image`` and the CLI. A test image takes the same per-image path
(``describe`` then ``signature``) as an image scored with a saved model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codebooks import DEFAULT_EM_ITER, train_gmm, train_kmeans
from .dense_descriptors import DEFAULT_PATCH, DEFAULT_STRIDE, DescriptorSet, extract_dense
from .dpm_face import PartMixtureModel, build_synthetic_face_model, detect_occupancy
from .encoders import ENCODER_KINDS, Provenance, encode_bow, encode_fv, encode_vlad, l2_or_zero
from .errors import DataError, SeatcheckError, StageError
from .eval_metrics import (
    ScoredSample,
    accuracy,
    accuracy_table,
    accuracy_vs_yield,
    best_threshold,
    curve_to_csv,
    roc_curve,
)
from .imagecore import DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR, GrayImage, build_pyramid
from .linear_classifier import LinearModel, score, train_svm
from .pca_reduce import PcaModel, fit_pca, project, project_set
from .store import PipelineModel, atomic_write_text, save_model
from .synthetic import LabeledImage, split

DEFAULT_YIELD_GRID = tuple(q / 20.0 for q in range(1, 21))


@dataclass(frozen=True)
class PipelineConfig:
    encoder: str = "fisher"  # bow | vlad | fisher
    k: int = 32
    pca_dim: int | None = 64
    final_pca: int | None = None  # e.g. 512 to compress FV/VLAD signatures
    patch: int = DEFAULT_PATCH
    stride: int = DEFAULT_STRIDE
    levels: int = DEFAULT_LEVELS
    scale_factor: float = DEFAULT_SCALE_FACTOR
    lambda_: float = 1e-5
    epochs: int = 50
    train_fraction: float = 0.8
    vocab_sample: int = 60000  # descriptor subsample cap for vocabulary training
    gmm_max_iter: int = DEFAULT_EM_ITER
    gmm_tol: float = 1e-5
    kmeans_max_iter: int = 100  # Lloyd cap of BoW/VLAD codebooks; a GMM's init uses GMM_INIT_SWEEPS
    split_seed: int = 1
    sample_seed: int = 2
    vocab_seed: int = 3
    svm_seed: int = 4
    with_dpm: bool = False
    dpm_seed: int = 5
    yield_grid: tuple[float, ...] = DEFAULT_YIELD_GRID

    def __post_init__(self):
        if self.encoder not in ENCODER_KINDS:
            raise DataError(f"encoder must be one of {ENCODER_KINDS}, got {self.encoder!r}")
        for name in ("k", "patch", "stride", "levels", "epochs", "vocab_sample"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class PipelineResult:
    model: PipelineModel
    accuracy: float
    auc: float
    yield_curve: tuple[tuple[float, float], ...]
    test_samples: tuple[ScoredSample, ...]
    dpm_accuracy: float | None = None
    dpm_threshold: float | None = None
    artifacts: tuple[str, ...] = field(default=())


def describe(image: GrayImage, geometry, pca: PcaModel | None = None, source_id: str = "") -> DescriptorSet:
    """Dense descriptors of one image, projected by ``pca`` when given.

    ``geometry`` is anything with ``patch``, ``stride``, ``levels`` and
    ``scale_factor`` attributes: a PipelineConfig, a PipelineModel, or the
    CLI's parsed arguments.
    """
    pyr = build_pyramid(image, levels=geometry.levels, factor=geometry.scale_factor)
    ds = extract_dense(pyr, patch=geometry.patch, stride=geometry.stride, source_id=source_id)
    return ds if pca is None else project_set(pca, ds)


def signature(ds: DescriptorSet, quantizer, encoder_kind: str, final_pca=None) -> np.ndarray:
    """Encode one descriptor set with a ``quantizer`` that suits ``encoder_kind``,
    then re-project it with ``final_pca`` and L2-normalize it when given."""
    encode = {"bow": encode_bow, "vlad": encode_vlad, "fisher": encode_fv}[encoder_kind]
    vec = encode(ds, quantizer)
    return vec if final_pca is None else l2_or_zero(project(final_pca, vec))


def pool_descriptors(sets: list[DescriptorSet], cap: int | None = None, seed: int = 0) -> np.ndarray:
    """Stack the descriptors of ``sets``; above ``cap`` rows, keep a seeded random subsample.

    The subsample draws its row indices over the concatenated sets first and
    then gathers only those rows, in the order drawn, so it equals indexing
    the concatenation without building it.
    """
    starts = np.cumsum([0] + [len(d) for d in sets])
    if cap is None or starts[-1] <= cap:
        return np.concatenate([d.vectors for d in sets])
    idx = np.random.default_rng(seed).choice(starts[-1], size=cap, replace=False)
    order = np.argsort(idx)
    cuts = np.searchsorted(idx[order], starts)
    pool = np.empty((cap, sets[0].dim))
    for d, start, lo, hi in zip(sets, starts, cuts, cuts[1:]):
        rows = order[lo:hi]
        pool[rows] = d.vectors[idx[rows] - start]
    return pool


def evaluate(classifier: LinearModel, x: np.ndarray, labels, ids, yield_grid=DEFAULT_YIELD_GRID):
    """Score the rows of the signature matrix ``x`` against their labels.

    Rows are scored one at a time, as ``score_image`` scores an image, so the
    two give the same bits; a batched x @ w may round differently.

    Returns (samples, accuracy, ROC curve, AUC, accuracy-vs-yield curve).
    """
    samples = tuple(
        ScoredSample(id=i, score=score(classifier, v), label=y)
        for v, y, i in zip(x, labels, ids)
    )
    roc, auc = roc_curve(samples)
    return samples, accuracy(samples), roc, auc, accuracy_vs_yield(samples, list(yield_grid))


def build_face_model(images: list[LabeledImage], **options) -> PartMixtureModel:
    """Synthesize the part model from the face boxes and empty seats of ``images``;
    ``options`` go to build_synthetic_face_model."""
    faces = [(im.image, im.gt_face_box) for im in images if im.label == "person"]
    negatives = [im.image for im in images if im.label == "empty"]
    return build_synthetic_face_model(faces, negatives, **options)


def detect_faces(model: PartMixtureModel, images, levels: int, factor: float) -> list:
    """(labeled sample of the best detection's score, that Detection) per image."""
    out = []
    for im in images:
        _, det = detect_occupancy(model, im.image, threshold=-math.inf, levels=levels, factor=factor)
        out.append((ScoredSample(id=im.image_id, score=det.score, label=im.target), det))
    return out


def _stage(name):
    """Tag errors raised inside run_pipeline's stages with the stage name."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except SeatcheckError as e:
                raise StageError(name, e) from e

        return run

    return wrap


@_stage("extract")
def _extract_all(images, config, pca=None) -> list[DescriptorSet]:
    return [describe(im.image, config, pca, im.image_id) for im in images]


@_stage("pca")
def _fit_project_pca(train_sets, config):
    """Fit on the sets as per-image blocks, then replace each set in ``train_sets``
    by its projection, so each raw set is freed as soon as its projection exists."""
    if config.pca_dim is None:
        return None, train_sets
    pca = fit_pca([d.vectors for d in train_sets], config.pca_dim)
    for i, d in enumerate(train_sets):
        train_sets[i] = project_set(pca, d)
    return pca, train_sets


@_stage("vocab")
def _train_vocab(train_sets, config):
    pool = pool_descriptors(train_sets, config.vocab_sample, config.sample_seed)
    if config.encoder == "fisher":
        return train_gmm(
            pool, K=config.k, seed=config.vocab_seed,
            max_iter=config.gmm_max_iter, tol=config.gmm_tol,
        )
    return train_kmeans(pool, K=config.k, seed=config.vocab_seed, max_iter=config.kmeans_max_iter)


def _vocab_stopping(quantizer, config) -> dict:
    """Where vocabulary training stopped: the iterations run (EM E-steps or
    Lloyd sweeps), the cap in force, and for a GMM the last change in mean
    log-likelihood (None after a single E-step or for a codebook)."""
    fisher = config.encoder == "fisher"
    h = quantizer.loglik_history if fisher else quantizer.sse_history
    return {
        "vocab_iterations": len(h),
        "vocab_iteration_cap": config.gmm_max_iter if fisher else config.kmeans_max_iter,
        "vocab_final_dll": h[-1] - h[-2] if fisher and len(h) > 1 else None,
    }


@_stage("encode")
def _encode_all(sets, quantizer, config, final_pca=None) -> np.ndarray:
    return np.stack([signature(d, quantizer, config.encoder, final_pca) for d in sets])


@_stage("final-pca")
def _compress(train_x, config):
    """Fit the final PCA on the training signatures, then compress each row
    as ``signature`` compresses one image."""
    if config.final_pca is None:
        return None, train_x
    pca = fit_pca(train_x, config.final_pca)
    return pca, np.stack([l2_or_zero(project(pca, v)) for v in train_x])


@_stage("svm")
def _train_classifier(train_x, train_labels, provenance, config):
    return train_svm(
        train_x, train_labels, provenance.fingerprint,
        lambda_=config.lambda_, epochs=config.epochs, seed=config.svm_seed,
    )


@_stage("dpm")
def _dpm_comparison(train_images, test_images, config):
    model = build_face_model(train_images, seed=config.dpm_seed)
    scored = detect_faces(model, test_images, config.levels, config.scale_factor)
    threshold, acc = best_threshold([s for s, _ in scored])
    return model, threshold, acc


def run_pipeline(
    images: list[LabeledImage],
    config: PipelineConfig = PipelineConfig(),
    out_dir: str | Path | None = None,
) -> PipelineResult:
    """Train and evaluate one configuration on a labeled image corpus.

    When ``out_dir`` is given, writes model.json, roc.csv, yield.csv,
    metrics.json, and table.csv there (atomically, only on success).
    """
    try:
        train_images, test_images = split(images, config.train_fraction, config.split_seed)
    except SeatcheckError as e:
        raise StageError("split", e) from e

    pca, train_sets = _fit_project_pca(_extract_all(train_images, config), config)
    quantizer = _train_vocab(train_sets, config)
    final_pca, train_x = _compress(_encode_all(train_sets, quantizer, config), config)
    provenance = Provenance(
        config.encoder, quantizer.K, quantizer.d, None if final_pca is None else final_pca.d_out
    )
    classifier = _train_classifier(train_x, [im.target for im in train_images], provenance, config)
    # Test images take the per-image path score_image takes with the saved model.
    test_x = _encode_all(_extract_all(test_images, config, pca), quantizer, config, final_pca)

    labels, ids = [im.target for im in test_images], [im.image_id for im in test_images]
    try:
        samples, acc, roc, auc, yc = evaluate(classifier, test_x, labels, ids, config.yield_grid)
    except SeatcheckError as e:
        raise StageError("evaluate", e) from e

    dpm_model = None
    dpm_acc = None
    dpm_threshold = None
    if config.with_dpm:
        dpm_model, dpm_threshold, dpm_acc = _dpm_comparison(train_images, test_images, config)

    model = PipelineModel(
        encoder_kind=config.encoder,
        k=config.k,
        d=train_sets[0].dim,
        pca=pca,
        quantizer=quantizer,
        classifier=classifier,
        final_pca=final_pca,
        dpm=dpm_model,
        patch=config.patch,
        stride=config.stride,
        levels=config.levels,
        scale_factor=config.scale_factor,
    )

    artifacts: list[str] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        try:
            save_model(model, out_dir / "model.json")
            atomic_write_text(out_dir / "roc.csv", curve_to_csv(roc))
            atomic_write_text(out_dir / "yield.csv", curve_to_csv(yc))
            atomic_write_text(out_dir / "table.csv", accuracy_table([(config.encoder, config.k, acc)]))
            metrics = {
                "accuracy": acc,
                "auc": auc,
                "count": len(images),
                "train": len(train_images),
                "test": len(test_images),
                "encoder": config.encoder,
                "k": config.k,
                "dpm_accuracy": dpm_acc,
                "dpm_threshold": dpm_threshold,
                # best_threshold picks the threshold that maximizes test accuracy.
                "dpm_threshold_split": "test" if config.with_dpm else None,
                **_vocab_stopping(quantizer, config),
            }
            atomic_write_text(
                out_dir / "metrics.json", json.dumps(metrics, sort_keys=True, indent=2) + "\n"
            )
            artifacts = [
                str(out_dir / n)
                for n in ("model.json", "roc.csv", "yield.csv", "table.csv", "metrics.json")
            ]
        except OSError as e:
            raise StageError("persist", SeatcheckError(str(e))) from e

    return PipelineResult(
        model=model,
        accuracy=acc,
        auc=auc,
        yield_curve=yc.points,
        test_samples=samples,
        dpm_accuracy=dpm_acc,
        dpm_threshold=dpm_threshold,
        artifacts=tuple(artifacts),
    )


def score_image(model: PipelineModel, image: GrayImage) -> float:
    """Score one GrayImage with a persisted pipeline model and its own geometry."""
    ds = describe(image, model, model.pca)
    return score(model.classifier, signature(ds, model.quantizer, model.encoder_kind, model.final_pca))
