import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from seatcheck import pipeline
from seatcheck.dense_descriptors import DescriptorSet
from seatcheck.errors import DataError, StageError
from seatcheck.pipeline import PipelineConfig, pool_descriptors, run_pipeline, score_image
from seatcheck.store import load_model
from seatcheck.synthetic import SyntheticSpec, generate_synthetic

SMALL = PipelineConfig(
    encoder="fisher",
    k=4,
    pca_dim=16,
    epochs=5,
    vocab_sample=4000,
    gmm_max_iter=25,
    yield_grid=(0.5, 0.8, 1.0),
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SyntheticSpec(count=40, positive_fraction=0.5, width=80, height=64, seed=11))


def test_fisher_pipeline_end_to_end(corpus, tmp_path):
    result = run_pipeline(corpus, SMALL, out_dir=tmp_path)
    assert 0.0 <= result.accuracy <= 1.0
    assert 0.0 <= result.auc <= 1.0
    assert len(result.yield_curve) == 3
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "roc.csv").read_text().startswith("fpr,tpr\n")
    assert (tmp_path / "yield.csv").read_text().startswith("yield,accuracy\n")
    assert "fisher" in (tmp_path / "table.csv").read_text()
    assert json.loads((tmp_path / "metrics.json").read_text())["dpm_threshold_split"] is None

    model = load_model(tmp_path / "model.json")
    s = score_image(model, corpus[0].image)
    assert np.isfinite(s)


@pytest.mark.parametrize("encoder, cap", [("fisher", 3), ("fisher", 40), ("bow", 2), ("bow", 100)])
def test_metrics_say_where_the_vocabulary_stopped(corpus, tmp_path, encoder, cap):
    config = replace(SMALL, encoder=encoder, gmm_max_iter=cap, kmeans_max_iter=cap)
    result = run_pipeline(corpus, config, out_dir=tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["vocab_iteration_cap"] == cap
    if encoder == "fisher":
        h = result.model.quantizer.loglik_history
        assert metrics["vocab_iterations"] == len(h) <= cap
        assert metrics["vocab_final_dll"] == h[-1] - h[-2]
        # EM stops early only once the log-likelihood has stopped improving.
        assert len(h) == cap or metrics["vocab_final_dll"] < config.gmm_tol
    else:
        assert metrics["vocab_iterations"] == len(result.model.quantizer.sse_history) <= cap
        assert metrics["vocab_final_dll"] is None


def test_bow_and_vlad_pipelines(corpus):
    for encoder in ("bow", "vlad"):
        result = run_pipeline(corpus, replace(SMALL, encoder=encoder))
        assert 0.0 <= result.accuracy <= 1.0


def test_pipeline_determinism_bit_identical(corpus, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_pipeline(corpus, SMALL, out_dir=a_dir)
    run_pipeline(corpus, SMALL, out_dir=b_dir)
    for name in ("model.json", "roc.csv", "yield.csv", "metrics.json", "table.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def test_save_load_score_round_trip_exact(corpus, tmp_path):
    result = run_pipeline(corpus, SMALL, out_dir=tmp_path)
    back = load_model(tmp_path / "model.json")
    for im in corpus[:5]:
        assert score_image(back, im.image) == score_image(result.model, im.image)


def test_final_pca_compression(corpus):
    result = run_pipeline(corpus, replace(SMALL, final_pca=10))
    assert result.model.final_pca is not None
    assert result.model.classifier.weights.shape == (10,)
    assert result.model.classifier.trained_on.endswith(":pca=10")


def test_failing_stage_is_tagged_and_leaves_no_model(corpus, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(StageError) as err:
        run_pipeline(corpus, replace(SMALL, pca_dim=200), out_dir=out)  # descriptors are 128-D
    assert err.value.stage == "pca"
    assert not (out / "model.json").exists()  # failure atomicity


def test_dpm_comparison_included(corpus, tmp_path):
    result = run_pipeline(corpus, replace(SMALL, with_dpm=True), out_dir=tmp_path)
    assert result.dpm_accuracy is not None
    assert 0.0 <= result.dpm_accuracy <= 1.0
    model = load_model(tmp_path / "model.json")
    assert model.dpm is not None
    assert len(model.dpm.mixtures) == 1


@pytest.mark.parametrize("geometry", [{"stride": 8}, {"levels": 2}])
def test_saved_model_scores_with_its_training_geometry(corpus, tmp_path, geometry):
    result = run_pipeline(corpus, replace(SMALL, **geometry), out_dir=tmp_path)
    model = load_model(tmp_path / "model.json")
    by_id = {im.image_id: im for im in corpus}
    for sample in result.test_samples:
        assert score_image(model, by_id[sample.id].image) == sample.score


@pytest.mark.parametrize(
    "bad",
    [{"encoder": "foo"}, {"k": 0}, {"patch": 0}, {"stride": 0}, {"levels": 0}, {"epochs": 0},
     {"vocab_sample": 0}],
)
def test_config_rejects_invalid_values(bad):
    with pytest.raises(DataError):
        replace(SMALL, **bad)


def old_pool_descriptors(sets, cap=None, seed=0):
    """Concatenate every set, then index the concatenation."""
    pool = np.concatenate([d.vectors for d in sets])
    if cap is None or pool.shape[0] <= cap:
        return pool
    rng = np.random.default_rng(seed)
    return pool[rng.choice(pool.shape[0], size=cap, replace=False)]


def random_sets(rng, sizes, dim=5):
    return [
        DescriptorSet(vectors=rng.normal(size=(t, dim)), x_norm=np.zeros(t), y_norm=np.zeros(t),
                      scale_level=np.zeros(t, dtype=np.int64))
        for t in sizes
    ]


@pytest.mark.parametrize("sizes", [(7, 0, 30, 1, 12), (1,) * 25, (40,)])
def test_pool_gathers_the_rows_the_concatenation_would(sizes):
    sets = random_sets(np.random.default_rng(len(sizes)), sizes)
    total = sum(sizes)
    for cap in (None, 1, total // 2, total - 1, total, total + 1):
        for seed in (0, 3):
            got = pool_descriptors(sets, cap, seed)
            assert np.array_equal(got, old_pool_descriptors(sets, cap, seed)), (cap, seed)


def test_pca_stage_and_vocab_pool_stay_within_the_raw_corpus():
    """Through the pca stage and the vocabulary pool, traced memory peaks at 1.1x the
    raw descriptors' bytes, the raw descriptors included; a stacked copy of the corpus
    plus its centered copy would make it about 3x. No raw set outlives its projection."""
    images = generate_synthetic(SyntheticSpec(count=40, seed=7))
    config = PipelineConfig(pca_dim=64, vocab_sample=20000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sets = pipeline._extract_all(images, config)
        raw = sum(d.vectors.nbytes for d in sets)
        assert sum(len(d) for d in sets) > config.vocab_sample
        alive = [weakref.ref(d) for d in sets]
        tracemalloc.reset_peak()
        _, projected = pipeline._fit_project_pca(sets, config)
        pool = pipeline.pool_descriptors(projected, config.vocab_sample, config.sample_seed)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pool.shape == (config.vocab_sample, 64)
    assert peak <= 1.1 * raw, f"peak {peak / raw:.2f}x the raw corpus"
    assert not any(ref() is not None for ref in alive)
    assert all(d.dim == 64 for d in sets)
