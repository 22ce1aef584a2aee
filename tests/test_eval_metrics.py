import numpy as np
import pytest

from seatcheck.errors import DataError
from seatcheck.eval_metrics import (
    EvalCurve,
    Rect,
    ScoredSample,
    accuracy,
    accuracy_table,
    accuracy_vs_yield,
    best_threshold,
    curve_to_csv,
    is_true_positive,
    overlap,
    roc_curve,
)


def sample(i, score, label):
    return ScoredSample(id=f"s{i:03d}", score=score, label=label)


def roc_oracle(samples):
    """One recount per distinct threshold, descending (quadratic)."""
    labels = np.array([s.label for s in samples])
    scores = np.array([s.score for s in samples])
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == -1).sum())
    points = [(0.0, 0.0)]
    for threshold in sorted(set(scores.tolist()), reverse=True):
        pred_pos = scores >= threshold
        tpr = float((pred_pos & (labels == 1)).sum()) / n_pos
        fpr = float((pred_pos & (labels == -1)).sum()) / n_neg
        points.append((fpr, tpr))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, auc


def best_threshold_oracle(samples):
    """Recount the accuracy at every candidate; the first strict maximum wins."""
    scores = sorted({s.score for s in samples}, reverse=True)
    candidates = [scores[0] + 1.0] + scores
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = sum(1 for s in samples if (1 if s.score >= t else -1) == s.label) / len(samples)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t, best_acc


def tie_heavy_samples(rng):
    """Random labels on scores drawn from a few values, so most scores tie."""
    n = int(rng.integers(2, 60))
    values = rng.normal(size=int(rng.integers(1, 8)))
    scores = rng.choice(values, size=n)
    labels = rng.choice([-1, 1], size=n)
    labels[:2] = (-1, 1)
    return [sample(i, float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))]


@pytest.mark.parametrize("coords", [(np.nan, 0, 1, 1), (0, np.inf, 1, 1), (0, 0, np.nan, 1), (0, 0, 1, np.inf)])
def test_rect_rejects_non_finite_coordinates(coords):
    with pytest.raises(DataError, match="finite"):
        Rect(*coords)


def test_overlap_identical_disjoint_exact_third():
    a = Rect(0, 0, 10, 10)
    assert overlap(a, a) == 1.0
    assert overlap(a, Rect(20, 20, 5, 5)) == 0.0
    b = Rect(5, 0, 10, 10)
    assert overlap(a, b) == 50.0 / 150.0
    assert overlap(a, b) == 1.0 / 3.0


def test_overlap_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Rect(*rng.uniform(0, 10, size=2), *rng.uniform(0, 10, size=2))
        b = Rect(*rng.uniform(0, 10, size=2), *rng.uniform(0, 10, size=2))
        v = overlap(a, b)
        assert v == overlap(b, a)
        assert 0.0 <= v <= 1.0
    assert overlap(Rect(1, 1, 0, 0), Rect(1, 1, 0, 0)) == 0.0


def test_true_positive_strict_at_threshold():
    a = Rect(0, 0, 8, 5)
    assert is_true_positive(a, a)
    # IoU exactly 0.6: intersection 30, union 50
    b = Rect(2, 0, 8, 5)
    assert overlap(a, b) == 0.6
    assert not is_true_positive(a, b)
    assert not is_true_positive(Rect(0, 0, 10, 10), Rect(5, 0, 10, 10))  # 1/3


def test_roc_perfectly_separated():
    samples = [sample(i, s, l) for i, (s, l) in enumerate([(3.0, 1), (2.0, 1), (-1.0, -1), (-2.0, -1)])]
    curve, auc = roc_curve(samples)
    assert auc == 1.0


def test_roc_identical_scores_single_step():
    samples = [sample(i, 0.5, l) for i, l in enumerate([1, 1, -1, -1])]
    curve, auc = roc_curve(samples)
    assert curve.points == ((0.0, 0.0), (1.0, 1.0))
    assert auc == 0.5


def test_roc_hand_enumerated_table():
    # scores: 0.9+, 0.8-, 0.7+, 0.6+, 0.5-, 0.4-
    data = [(0.9, 1), (0.8, -1), (0.7, 1), (0.6, 1), (0.5, -1), (0.4, -1)]
    samples = [sample(i, s, l) for i, (s, l) in enumerate(data)]
    curve, auc = roc_curve(samples)
    expected = (
        (0.0, 0.0),
        (0.0, 1 / 3),  # >= 0.9
        (1 / 3, 1 / 3),  # >= 0.8
        (1 / 3, 2 / 3),  # >= 0.7
        (1 / 3, 1.0),  # >= 0.6
        (2 / 3, 1.0),  # >= 0.5
        (1.0, 1.0),  # >= 0.4
    )
    assert curve.points == expected
    assert auc == pytest.approx(1 / 3 * 1 / 3 + 1 / 3 + 1 / 3, abs=1e-12)


def test_roc_inversion_property():
    rng = np.random.default_rng(1)
    samples = [sample(i, float(rng.normal()), int(rng.choice([-1, 1]))) for i in range(40)]
    if not any(s.label == 1 for s in samples) or not any(s.label == -1 for s in samples):
        pytest.skip("degenerate draw")
    _, auc = roc_curve(samples)
    flipped = [ScoredSample(id=s.id, score=s.score, label=-s.label) for s in samples]
    _, auc_flip = roc_curve(flipped)
    assert auc + auc_flip == pytest.approx(1.0, abs=1e-12)


def test_roc_requires_both_labels():
    with pytest.raises(DataError):
        roc_curve([sample(0, 1.0, 1), sample(1, 2.0, 1)])
    with pytest.raises(DataError):
        roc_curve([])


def test_yield_one_equals_plain_accuracy_exactly():
    rng = np.random.default_rng(2)
    samples = [sample(i, float(rng.normal()), int(rng.choice([-1, 1]))) for i in range(37)]
    curve = accuracy_vs_yield(samples, [1.0])
    assert curve.points[0][1] == accuracy(samples)


def test_yield_excludes_lowest_confidence_mistake():
    samples = [sample(i, s, l) for i, (s, l) in enumerate(
        [(5.0, 1), (-4.0, -1), (3.0, 1), (-2.0, -1), (0.1, -1)]  # last one wrong
    )]
    curve = accuracy_vs_yield(samples, [0.2, 0.4, 0.6, 0.8, 1.0])
    assert [y for _, y in curve.points] == [1.0, 1.0, 1.0, 1.0, 0.8]


def test_yield_matches_recount_oracle():
    rng = np.random.default_rng(3)
    samples = [sample(i, float(rng.normal()), int(rng.choice([-1, 1]))) for i in range(50)]
    grid = [0.1, 0.25, 0.5, 0.75, 1.0]
    curve = accuracy_vs_yield(samples, grid)
    ranked = sorted(samples, key=lambda s: (-abs(s.score), s.id))
    for (q, acc_got) in curve.points:
        take = int(np.ceil(q * len(ranked)))
        chosen = ranked[:take]
        acc = sum(1 for s in chosen if (1 if s.score >= 0 else -1) == s.label) / take
        assert acc_got == acc


def test_yield_grid_validation():
    with pytest.raises(DataError):
        accuracy_vs_yield([sample(0, 1.0, 1)], [0.0])
    with pytest.raises(DataError):
        accuracy_vs_yield([], [0.5])


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    samples = [sample(i, float(rng.normal()), int(rng.choice([-1, 1]))) for i in range(30)]
    scaled = [ScoredSample(id=s.id, score=3.0 * s.score, label=s.label) for s in samples]
    _, auc_a = roc_curve(samples)
    _, auc_b = roc_curve(scaled)
    assert auc_a == auc_b
    grid = [0.3, 0.7, 1.0]
    ya = [y for _, y in accuracy_vs_yield(samples, grid).points]
    yb = [y for _, y in accuracy_vs_yield(scaled, grid).points]
    assert ya == yb


def test_best_threshold_maximizes_accuracy():
    samples = [sample(i, s, l) for i, (s, l) in enumerate(
        [(3.0, 1), (2.0, 1), (1.0, -1), (-1.0, -1)]
    )]
    t, acc = best_threshold(samples)
    assert acc == 1.0
    assert t == 2.0


def test_threshold_sweep_matches_recount_oracles_exactly():
    rng = np.random.default_rng(12)
    for _ in range(300):
        samples = tie_heavy_samples(rng)
        curve, auc = roc_curve(samples)
        points, auc_oracle = roc_oracle(samples)
        assert curve.points == tuple(points)
        assert auc == auc_oracle
        assert best_threshold(samples) == best_threshold_oracle(samples)
        single = samples[:1]
        assert best_threshold(single) == best_threshold_oracle(single)


def test_accuracy_table():
    assert accuracy_table([]) == "method\n"
    single = accuracy_table([("fisher", 256, 0.9596)])
    assert single == "method,256\nfisher,0.9596\n"
    runs = [
        ("vlad", 64, 0.5), ("bow", 32, 0.25), ("fisher", 32, 0.75),
        ("bow", 64, 0.5), ("vlad", 32, 0.5), ("fisher", 64, 1.0),
    ]
    a = accuracy_table(runs)
    b = accuracy_table(runs[::-1])
    assert a == b
    lines = a.strip().splitlines()
    assert lines[0] == "method,32,64"
    assert lines[1].startswith("bow,") and lines[2].startswith("vlad,") and lines[3].startswith("fisher,")
    sparse = accuracy_table([("bow", 32, 0.5), ("fisher", 64, 0.75)])
    assert "bow,0.5,\n" in sparse and "fisher,,0.75\n" in sparse


def test_curve_csv():
    curve = EvalCurve(points=((0.0, 0.0), (1.0, 1.0)), kind="roc")
    assert curve_to_csv(curve) == "fpr,tpr\n0.0,0.0\n1.0,1.0\n"


def test_curve_invariants():
    with pytest.raises(DataError):
        EvalCurve(points=((0.5, 0.0), (0.2, 1.0)), kind="roc")
    with pytest.raises(DataError):
        EvalCurve(points=((1.5, 1.0),), kind="accuracy_vs_yield")
