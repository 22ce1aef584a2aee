from dataclasses import replace

import numpy as np
import pytest

from seatcheck.errors import DataError, StageError
from seatcheck.pipeline import PipelineConfig, run_pipeline, score_image
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

    model = load_model(tmp_path / "model.json")
    s = score_image(model, corpus[0].image)
    assert np.isfinite(s)


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
