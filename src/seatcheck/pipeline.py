"""End-to-end orchestration: extract -> PCA -> vocabulary -> encode -> SVM -> evaluate.

All fitting (PCA, codebook/GMM, final PCA, SVM) happens on the train split
only; the test split flows through frozen transforms. Every random choice
takes an explicit seed from the config, so a config determines the model
file and metric CSVs byte-for-byte. Artifacts are written atomically at the
end of the run: a failed stage leaves no partial model behind.

Each stage has one definition here, shared by ``run_pipeline``,
``score_image`` and the CLI. ``run_pipeline`` scores its test split with
``score_image`` and the model it is about to save, so a test image gets the
score a deployed model gives it.
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
from .encoders import (
    ENCODER_KINDS, Provenance, check_quantizer_kind, encode_bow, encode_fv, encode_vlad, l2_or_zero,
)
from .errors import DataError, SeatcheckError, StageError, is_integer
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
DPM_SEED = 5  # seed of the part model's random negative crops


@dataclass(frozen=True)
class PipelineConfig:
    encoder: str = "fisher"  # bow | vlad | fisher
    k: int = 32
    pca_dim: int | None = 64
    final_pca: int | None = None  # e.g. 256 to compress FV/VLAD signatures; at most the training image count
    patch: int = DEFAULT_PATCH
    stride: int = DEFAULT_STRIDE
    levels: int = DEFAULT_LEVELS
    scale_factor: float = DEFAULT_SCALE_FACTOR
    lambda_: float = 1e-5
    epochs: int = 50
    train_fraction: float = 0.8
    # Descriptor subsample cap for vocabulary training; its time is linear in the cap. The
    # smallest of 60,000, 30,000 and 15,000 whose accuracy and AUC, for both encoders, stay
    # within a seed change of 60,000's on the noisy-corpus grid in BENCH_vocab_sample.json.
    vocab_sample: int = 30000
    gmm_max_iter: int = DEFAULT_EM_ITER
    gmm_tol: float = 1e-5
    kmeans_max_iter: int = 100  # Lloyd cap of BoW/VLAD codebooks; a GMM's init uses GMM_INIT_SWEEPS
    split_seed: int = 1
    sample_seed: int = 2
    vocab_seed: int = 3
    svm_seed: int = 4
    with_dpm: bool = False

    def __post_init__(self):
        if self.encoder not in ENCODER_KINDS:
            raise DataError(f"encoder must be one of {ENCODER_KINDS}, got {self.encoder!r}")
        counts = ("k", "patch", "stride", "levels", "epochs", "vocab_sample", "gmm_max_iter", "kmeans_max_iter")
        seeds = ("split_seed", "sample_seed", "vocab_seed", "svm_seed")
        for name in counts + seeds:
            if not is_integer(getattr(self, name)):
                raise DataError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in seeds:
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be non-negative, got {getattr(self, name)!r}")


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
    ``scale_factor`` attributes: a PipelineConfig or a PipelineModel.
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
    if cap is not None and cap < 1:
        raise DataError(f"descriptor sample must be at least 1, got {cap!r}")
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


def evaluate(scores, labels, ids):
    """(samples, accuracy, ROC curve, AUC, accuracy-vs-yield curve) of ``scores`` against ``labels``."""
    samples = tuple(ScoredSample(id=i, score=s, label=y) for s, y, i in zip(scores, labels, ids))
    roc, auc = roc_curve(samples)
    return samples, accuracy(samples), roc, auc, accuracy_vs_yield(samples, list(DEFAULT_YIELD_GRID))


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


def _stage(name, fn, *args):
    """Run one stage of run_pipeline, tagging its errors with the stage name."""
    try:
        return fn(*args)
    except SeatcheckError as e:
        raise StageError(name, e) from e


def extract_all(images, geometry) -> list[DescriptorSet]:
    """``describe`` every image of ``images`` (LabeledImages) under ``geometry``."""
    return [describe(im.image, geometry, source_id=im.image_id) for im in images]


def fit_project_pca(train_sets, config):
    """Fit on the sets as per-image blocks, then replace each set in ``train_sets``
    by its projection, so each raw set is freed as soon as its projection exists."""
    if config.pca_dim is None:
        return None, train_sets
    pca = fit_pca([d.vectors for d in train_sets], config.pca_dim)
    for i, d in enumerate(train_sets):
        train_sets[i] = project_set(pca, d)
    return pca, train_sets


def train_vocabulary(sets, config):
    """A GMM for the Fisher encoder, else a k-means codebook, trained on the
    seeded ``vocab_sample`` subsample of the descriptors of ``sets``."""
    pool = pool_descriptors(sets, config.vocab_sample, config.sample_seed)
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


def encode_all(sets, quantizer, config) -> np.ndarray:
    """(N, D) matrix of the ``signature`` of each set under ``config.encoder``."""
    check_quantizer_kind(config.encoder, quantizer)
    return np.stack([signature(d, quantizer, config.encoder) for d in sets])


def _compress(train_x, config):
    """Fit the final PCA on the training signatures, then compress each row
    as ``signature`` compresses one image."""
    if config.final_pca is None:
        return None, train_x
    pca = fit_pca(train_x, config.final_pca)
    return pca, np.stack([l2_or_zero(project(pca, v)) for v in train_x])


def train_classifier(train_x, train_labels, provenance, config) -> LinearModel:
    """The linear SVM on signatures that ``provenance`` describes."""
    return train_svm(
        train_x, train_labels, provenance.fingerprint,
        lambda_=config.lambda_, epochs=config.epochs, seed=config.svm_seed,
    )


def _score_all(model: PipelineModel, images) -> list[float]:
    return [score_image(model, im.image) for im in images]


def _dpm_comparison(train_images, test_images, config):
    model = build_face_model(train_images, seed=DPM_SEED)
    scored = detect_faces(model, test_images, config.levels, config.scale_factor)
    threshold, acc = best_threshold([s for s, _ in scored])
    return model, threshold, acc


def _persist(out_dir: Path, model: PipelineModel, roc, yc, metrics: dict) -> tuple[str, ...]:
    """Write model.json, the two curves, table.csv and metrics.json; return their paths."""
    save_model(model, out_dir / "model.json")
    atomic_write_text(out_dir / "roc.csv", curve_to_csv(roc))
    atomic_write_text(out_dir / "yield.csv", curve_to_csv(yc))
    table = accuracy_table([(metrics["encoder"], metrics["k"], metrics["accuracy"])])
    atomic_write_text(out_dir / "table.csv", table)
    atomic_write_text(out_dir / "metrics.json", json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    names = ("model.json", "roc.csv", "yield.csv", "table.csv", "metrics.json")
    return tuple(str(out_dir / n) for n in names)


def run_pipeline(
    images: list[LabeledImage],
    config: PipelineConfig = PipelineConfig(),
    out_dir: str | Path | None = None,
) -> PipelineResult:
    """Train and evaluate one configuration on a labeled image corpus.

    When ``out_dir`` is given, writes model.json, roc.csv, yield.csv,
    metrics.json, and table.csv there (atomically, only on success).
    Every stage's errors reach the caller as a StageError naming the stage.
    """
    train_images, test_images = _stage("split", split, images, config.train_fraction, config.split_seed)
    train_sets = _stage("extract", extract_all, train_images, config)
    pca, train_sets = _stage("pca", fit_project_pca, train_sets, config)
    quantizer = _stage("vocab", train_vocabulary, train_sets, config)
    train_x = _stage("encode", encode_all, train_sets, quantizer, config)
    final_pca, train_x = _stage("final-pca", _compress, train_x, config)
    provenance = Provenance(
        config.encoder, quantizer.K, quantizer.d, None if final_pca is None else final_pca.d_out
    )
    train_labels = [im.target for im in train_images]
    classifier = _stage("svm", train_classifier, train_x, train_labels, provenance, config)
    dpm_model = dpm_acc = dpm_threshold = None
    if config.with_dpm:
        dpm_model, dpm_threshold, dpm_acc = _stage(
            "dpm", _dpm_comparison, train_images, test_images, config
        )
    model = PipelineModel(
        encoder_kind=config.encoder,
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

    scores = _stage("score", _score_all, model, test_images)
    labels, ids = [im.target for im in test_images], [im.image_id for im in test_images]
    samples, acc, roc, auc, yc = _stage("evaluate", evaluate, scores, labels, ids)

    artifacts: tuple[str, ...] = ()
    if out_dir is not None:
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
            "vocab_samples": min(config.vocab_sample, sum(len(d) for d in train_sets)),
            **_vocab_stopping(quantizer, config),
        }
        artifacts = _stage("persist", _persist, Path(out_dir), model, roc, yc, metrics)

    return PipelineResult(
        model=model,
        accuracy=acc,
        auc=auc,
        yield_curve=yc.points,
        test_samples=samples,
        dpm_accuracy=dpm_acc,
        dpm_threshold=dpm_threshold,
        artifacts=artifacts,
    )


def score_image(model: PipelineModel, image: GrayImage) -> float:
    """Score one GrayImage with a persisted pipeline model and its own geometry."""
    ds = describe(image, model, model.pca)
    return score(model.classifier, signature(ds, model.quantizer, model.encoder_kind, model.final_pca))
