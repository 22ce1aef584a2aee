import math

import numpy as np
import pytest

from seatcheck.encoders import Provenance
from seatcheck.errors import DataError
from seatcheck.linear_classifier import (
    LinearModel,
    check_trained_on,
    hinge_objective,
    score,
    train_svm,
)


def fingerprint(x):
    """Fisher K=1 provenance of a signature matrix: d is its width."""
    return Provenance("fisher", 1, x.shape[1]).fingerprint


def test_separable_pair():
    x, ys = np.array([[-1.0], [1.0]]), [-1, 1]
    model = train_svm(x, ys, fingerprint(x), lambda_=1e-3, epochs=50, seed=0)
    assert score(model, x[0]) < 0
    assert score(model, x[1]) > 0


def test_separable_blobs_train_accuracy_100():
    rng = np.random.default_rng(0)
    a = rng.normal(loc=(-2.0, 0.0), scale=0.4, size=(100, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=0.4, size=(100, 2))
    pts = np.concatenate([a, b])
    ys = [-1] * 100 + [1] * 100
    model = train_svm(pts, ys, fingerprint(pts), lambda_=1e-5, epochs=50, seed=1)
    correct = sum(1 for v, y in zip(pts, ys) if (score(model, v) >= 0) == (y > 0))
    assert correct == 200


def test_xor_cannot_exceed_75_percent():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    ys = [1, 1, -1, -1]
    model = train_svm(pts, ys, fingerprint(pts), lambda_=1e-4, epochs=100, seed=2)
    correct = sum(1 for v, y in zip(pts, ys) if (score(model, v) >= 0) == (y > 0))
    assert correct <= 3


def test_score_constant_model_and_linearity():
    m = LinearModel(weights=np.zeros(3), bias=0.7, lambda_=1.0, trained_on="fisher:K=1:d=3")
    assert score(m, np.array([5.0, -2.0, 3.0])) == 0.7

    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    m2 = LinearModel(weights=w, bias=0.25, lambda_=1.0, trained_on="fisher:K=1:d=4")
    x = rng.normal(size=4)
    for a in (0.0, 2.0, -3.5):
        assert score(m2, a * x) == pytest.approx(a * float(w @ x) + 0.25, rel=1e-12)


def test_score_matches_fsum_oracle():
    rng = np.random.default_rng(4)
    w = rng.normal(size=64)
    x = rng.normal(size=64)
    m = LinearModel(weights=w, bias=rng.normal(), lambda_=1.0, trained_on="fisher:K=1:d=64")
    expected = math.fsum([float(a * b) for a, b in zip(w, x)] + [m.bias])
    assert score(m, x) == pytest.approx(expected, abs=1e-12)


def test_objective_final_not_above_initial():
    rng = np.random.default_rng(5)
    pts = np.concatenate(
        [rng.normal(loc=(-1.0, 0.5), size=(40, 2)), rng.normal(loc=(1.0, -0.5), size=(40, 2))]
    )
    ys = [-1] * 40 + [1] * 40
    init = LinearModel(weights=np.zeros(2), bias=0.0, lambda_=1e-4, trained_on=fingerprint(pts))
    model = train_svm(pts, ys, fingerprint(pts), lambda_=1e-4, epochs=30, seed=6)
    assert hinge_objective(model, pts, ys) <= hinge_objective(init, pts, ys)


def test_sign_invariant_under_positive_rescaling():
    rng = np.random.default_rng(8)
    w = rng.normal(size=5)
    b = float(rng.normal())
    fp = "fisher:K=1:d=5"
    m = LinearModel(weights=w, bias=b, lambda_=1.0, trained_on=fp)
    m_scaled = LinearModel(weights=3.5 * w, bias=3.5 * b, lambda_=1.0, trained_on=fp)
    for _ in range(20):
        x = rng.normal(size=5)
        assert (score(m, x) >= 0) == (score(m_scaled, x) >= 0)


def test_determinism():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(30, 3))
    ys = [-1, 1] * 15
    m1 = train_svm(pts, ys, fingerprint(pts), lambda_=1e-3, epochs=10, seed=42)
    m2 = train_svm(pts, ys, fingerprint(pts), lambda_=1e-3, epochs=10, seed=42)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_error_cases():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(DataError):
        train_svm(x, [1, 1], fingerprint(x))  # single class
    with pytest.raises(DataError):
        train_svm(x, [1, -1, 1], fingerprint(x))  # one label too many
    with pytest.raises(DataError):
        train_svm(x[:0], [], fingerprint(x))  # no signatures
    m = LinearModel(weights=np.ones(2), bias=0.0, lambda_=1.0, trained_on="fisher:K=1:d=2")
    with pytest.raises(DataError):
        score(m, np.zeros(3))  # length mismatch
    check_trained_on(m, Provenance("fisher", 1, 2))
    with pytest.raises(DataError):
        check_trained_on(m, Provenance("vlad", 1, 2))  # same length, other encoder
    with pytest.raises(DataError):
        check_trained_on(m, Provenance("fisher", 1, 2, compressed_dim=2))  # other provenance
    with pytest.raises(DataError):
        LinearModel(weights=np.array([np.inf]), bias=0.0, lambda_=1.0, trained_on="x")
