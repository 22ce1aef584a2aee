"""seatcheck: front-seat vehicle occupancy detection toolkit.

Two competing detectors over the same grayscale imagery:

* global image classification: dense SIFT-style descriptors -> PCA ->
  BoW / VLAD / Fisher-vector aggregation -> linear SGD-SVM;
* a tree-structured part-model face detector over HoG features.

Plus the evaluation machinery (IoU overlap, ROC/AUC, accuracy-vs-yield)
used to compare them, a deterministic synthetic-corpus generator, model
persistence, and a CLI (`seatcheck`).
"""

from .codebooks import GmmModel, KmeansCodebook, posteriors, train_gmm, train_kmeans
from .dense_descriptors import DescriptorSet, extract_dense
from .dpm_face import (
    Detection,
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
from .encoders import Provenance, encode_bow, encode_fv, encode_vlad, power_l2_normalize
from .errors import DataError, NumericalError, SeatcheckError, StageError
from .eval_metrics import (
    EvalCurve,
    Rect,
    ScoredSample,
    accuracy,
    accuracy_table,
    accuracy_vs_yield,
    is_true_positive,
    overlap,
    roc_curve,
)
from .imagecore import GrayImage, ScalePyramid, build_pyramid, compute_gradients
from .linear_classifier import LinearModel, score, train_svm
from .pca_reduce import PcaModel, fit_pca, project
from .pipeline import PipelineConfig, PipelineResult, run_pipeline, score_image
from .store import PipelineModel, load_model, save_model
from .synthetic import LabeledImage, SyntheticSpec, generate_synthetic, split

__all__ = [
    "DataError",
    "DescriptorSet",
    "Detection",
    "Edge",
    "EvalCurve",
    "GmmModel",
    "GrayImage",
    "HogFeatureMap",
    "KmeansCodebook",
    "LabeledImage",
    "LinearModel",
    "NumericalError",
    "PartMixtureModel",
    "PartTree",
    "PcaModel",
    "PipelineConfig",
    "PipelineModel",
    "PipelineResult",
    "Provenance",
    "Rect",
    "ScalePyramid",
    "ScoredSample",
    "SeatcheckError",
    "StageError",
    "SyntheticSpec",
    "accuracy",
    "accuracy_table",
    "accuracy_vs_yield",
    "build_pyramid",
    "build_synthetic_face_model",
    "compute_gradients",
    "compute_hog",
    "detect_occupancy",
    "encode_bow",
    "encode_fv",
    "encode_vlad",
    "extract_dense",
    "fit_pca",
    "generate_synthetic",
    "infer_best",
    "is_true_positive",
    "load_model",
    "overlap",
    "posteriors",
    "power_l2_normalize",
    "project",
    "roc_curve",
    "run_pipeline",
    "save_model",
    "score",
    "score_configuration",
    "score_image",
    "split",
    "train_gmm",
    "train_kmeans",
    "train_svm",
]
