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

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoders import EncodedVector
from .errors import DataError


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    lambda_: float
    trained_on: str  # encoder fingerprint this model is valid for

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise DataError("weights must be a 1-D vector")
        if not (np.isfinite(w).all() and np.isfinite(self.bias)):
            raise DataError("model parameters must be finite")
        if not self.lambda_ > 0:
            raise DataError("lambda must be positive")
        object.__setattr__(self, "weights", w)


def _check_fingerprint(model_fp: str, vec: EncodedVector) -> None:
    if vec.fingerprint != model_fp:
        raise DataError(
            f"vector fingerprint {vec.fingerprint!r} does not match model {model_fp!r}"
        )


def train_svm(
    data: Sequence[tuple[EncodedVector, int]],
    lambda_: float = 1e-5,
    epochs: int = 50,
    seed: int = 0,
) -> LinearModel:
    """Averaged SGD on the regularized hinge loss.

    ``data`` pairs encoded vectors with labels in {-1, +1}; all vectors must
    share one encoder fingerprint and both labels must be present.
    """
    if lambda_ <= 0 or epochs < 1:
        raise DataError("lambda must be positive and epochs >= 1")
    if not data:
        raise DataError("empty training set")
    fp = data[0][0].fingerprint
    labels = np.array([y for _, y in data], dtype=np.float64)
    if set(np.unique(labels)) != {-1.0, 1.0}:
        raise DataError("training data must contain both labels, in {-1, +1}")
    for vec, _ in data:
        _check_fingerprint(fp, vec)
    x = np.stack([vec.values for vec, _ in data])
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
    return LinearModel(weights=w_avg / n, bias=b_avg / n, lambda_=lambda_, trained_on=fp)


def score(model: LinearModel, x: EncodedVector) -> float:
    """Raw margin w.x + b; positive means 'person'."""
    _check_fingerprint(model.trained_on, x)
    if x.values.shape != model.weights.shape:
        raise DataError(
            f"vector length {x.values.shape[0]} does not match model {model.weights.shape[0]}"
        )
    return float(model.weights @ x.values + model.bias)


def hinge_objective(model: LinearModel, data: Sequence[tuple[EncodedVector, int]]) -> float:
    """Regularized mean hinge loss of ``model`` on ``data``."""
    total = 0.0
    for vec, y in data:
        total += max(0.0, 1.0 - y * score(model, vec))
    reg = 0.5 * model.lambda_ * float(model.weights @ model.weights)
    return reg + total / len(data)


def weights_to_csv(model: LinearModel) -> str:
    """One value per line: bias first, then each weight."""
    buf = io.StringIO()
    buf.write(f"bias,{model.bias!r}\n")
    for i, w in enumerate(model.weights):
        buf.write(f"w{i},{float(w)!r}\n")
    return buf.getvalue()
