"""Binary linear SVM trained by stochastic gradient descent on the hinge loss.

Pegasos-style schedule: step t uses eta_t = 1 / (lambda * (t + t0)) with
t0 = 1 / lambda, i.e. eta_t = 1 / (1 + lambda * t). The weight vector decays
by (1 - eta_t * lambda) every step and additionally moves by eta_t * y * x on
margin violations; the bias is updated without regularization. The returned
model is the average over the final epoch, which stabilizes small-corpus
training. Raw scores w.x + b double as decisions (sign) and confidences
(magnitude) for the ROC/yield sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import Provenance
from .errors import DataError


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    lambda_: float
    trained_on: str  # Provenance.fingerprint of the signatures it was trained on

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise DataError("weights must be a 1-D vector")
        if not (np.isfinite(w).all() and np.isfinite(self.bias)):
            raise DataError("model parameters must be finite")
        if not self.lambda_ > 0:
            raise DataError("lambda must be positive")
        object.__setattr__(self, "weights", w)


def check_trained_on(model: LinearModel, provenance: Provenance) -> None:
    """Raise DataError unless ``model`` was trained on signatures of ``provenance``."""
    if model.trained_on != provenance.fingerprint or model.weights.shape != (provenance.length,):
        raise DataError(
            f"classifier trained on {model.trained_on!r} ({model.weights.shape[0]} weights) cannot "
            f"score {provenance.fingerprint!r} signatures (length {provenance.length})"
        )


def train_svm(
    x: np.ndarray,
    labels,
    trained_on: str,
    lambda_: float = 1e-5,
    epochs: int = 50,
    seed: int = 0,
) -> LinearModel:
    """Averaged SGD on the regularized hinge loss.

    ``x`` holds N signatures as rows, ``labels`` their N labels in {-1, +1} (both
    present), and ``trained_on`` the fingerprint of their Provenance.
    """
    if lambda_ <= 0 or epochs < 1:
        raise DataError("lambda must be positive and epochs >= 1")
    x = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or labels.shape != x.shape[:1]:
        raise DataError(f"need N > 0 signatures and N labels, got {x.shape} and {labels.shape}")
    if set(np.unique(labels)) != {-1.0, 1.0}:
        raise DataError("training data must contain both labels, in {-1, +1}")
    n, dim = x.shape

    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    b = 0.0
    t0 = 1.0 / lambda_
    t = 0
    w_avg = np.zeros(dim)
    b_avg = 0.0
    for epoch in range(epochs):
        order = rng.permutation(n)
        last = epoch == epochs - 1
        for i in order:
            t += 1
            eta = 1.0 / (lambda_ * (t + t0))
            margin = labels[i] * (w @ x[i] + b)
            w *= 1.0 - eta * lambda_
            if margin < 1.0:
                w += (eta * labels[i]) * x[i]
                b += eta * labels[i]
            if last:
                w_avg += w
                b_avg += b
    return LinearModel(weights=w_avg / n, bias=b_avg / n, lambda_=lambda_, trained_on=trained_on)


def score(model: LinearModel, x: np.ndarray) -> float:
    """Raw margin w.x + b of one signature; positive means 'person'."""
    if x.shape != model.weights.shape:
        raise DataError(
            f"signature of shape {x.shape} does not match model length {model.weights.shape[0]}"
        )
    return float(model.weights @ x + model.bias)


def hinge_objective(model: LinearModel, x: np.ndarray, labels) -> float:
    """Regularized mean hinge loss of ``model`` on the rows of ``x``."""
    total = 0.0
    for row, y in zip(x, labels):
        total += max(0.0, 1.0 - y * score(model, row))
    reg = 0.5 * model.lambda_ * float(model.weights @ model.weights)
    return reg + total / len(labels)
