import json

import numpy as np
import pytest

from seatcheck import store
from seatcheck.cli import main
from seatcheck.pipeline import PipelineConfig, describe
from seatcheck.synthetic import load_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main([
        "synth-gen", "--out", str(d), "--count", "40", "--width", "80",
        "--height", "64", "--seed", "11",
    ])
    assert rc == 0
    return d


def test_staged_workflow(dataset_dir, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.csv")
    desc = str(tmp_path / "desc.bin")
    assert main(["extract", "--manifest", manifest, "--out", desc]) == 0

    pca = str(tmp_path / "pca.json")
    assert main(["train-pca", "--descriptors", desc, "--dim", "16", "--out", pca]) == 0

    gmm = str(tmp_path / "gmm.json")
    assert main([
        "train-gmm", "--descriptors", desc, "--pca", pca, "--k", "4",
        "--sample", "4000", "--max-iter", "20", "--out", gmm,
        "--debug-dump", str(tmp_path / "gmm.txt"),
    ]) == 0
    assert "component 0" in (tmp_path / "gmm.txt").read_text()

    corpus = str(tmp_path / "corpus.bin")
    assert main([
        "encode", "--descriptors", desc, "--pca", pca, "--encoder", "fisher",
        "--vocab", gmm, "--manifest", manifest, "--out", corpus,
    ]) == 0

    svm = str(tmp_path / "svm.json")
    assert main([
        "train-svm", "--corpus", corpus, "--epochs", "5", "--out", svm,
        "--weights-csv", str(tmp_path / "weights.csv"),
    ]) == 0
    assert (tmp_path / "weights.csv").read_text().startswith("bias,")

    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--corpus", corpus, "--classifier", svm, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "roc.csv").exists() and (out_dir / "yield.csv").exists()
    assert "accuracy" in capsys.readouterr().out


def test_extract_uses_the_pipeline_describe_step(dataset_dir, tmp_path):
    manifest = dataset_dir / "manifest.csv"
    desc = tmp_path / "desc.bin"
    assert main(["extract", "--manifest", str(manifest), "--out", str(desc), "--stride", "8"]) == 0
    geometry = PipelineConfig(stride=8)
    expected = [describe(im.image, geometry, source_id=im.image_id) for im in load_dataset(manifest)]
    got = store.load_descriptor_sets(desc)
    assert [d.source_id for d in got] == [d.source_id for d in expected]
    for a, b in zip(got, expected):
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.x_norm, b.x_norm) and np.array_equal(a.y_norm, b.y_norm)
        assert np.array_equal(a.scale_level, b.scale_level)


def test_extract_dump_csv_writes_one_file_per_image(dataset_dir, tmp_path):
    dump = tmp_path / "dump"
    manifest = dataset_dir / "manifest.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "d.bin"),
                 "--dump-csv", str(dump)]) == 0
    sets = store.load_descriptor_sets(tmp_path / "d.bin")
    assert sorted(p.name for p in dump.iterdir()) == sorted(f"{ds.source_id}.csv" for ds in sets)
    assert len((dump / f"{sets[0].source_id}.csv").read_text().splitlines()) == len(sets[0])


def test_bow_workflow_with_codebook(dataset_dir, tmp_path):
    manifest = str(dataset_dir / "manifest.csv")
    desc = str(tmp_path / "desc.bin")
    assert main(["extract", "--manifest", manifest, "--out", desc]) == 0
    cb = str(tmp_path / "cb.json")
    assert main([
        "train-codebook", "--descriptors", desc, "--k", "8", "--sample", "3000", "--out", cb,
    ]) == 0
    corpus = str(tmp_path / "corpus.bin")
    assert main([
        "encode", "--descriptors", desc, "--encoder", "bow", "--vocab", cb,
        "--manifest", manifest, "--out", corpus, "--csv", str(tmp_path / "corpus.csv"),
    ]) == 0
    assert (tmp_path / "corpus.csv").exists()
    # mismatched vocabulary type is a clean data error
    assert main([
        "encode", "--descriptors", desc, "--encoder", "fisher", "--vocab", cb,
        "--out", str(tmp_path / "bad.bin"),
    ]) == 2


def test_evaluate_rejects_a_classifier_trained_on_another_encoder(dataset_dir, tmp_path, capsys):
    # With PCA to d=21 and K=4, BoW (21*K) and VLAD (K*d) signatures have the
    # same length, so only their provenance tells them apart.
    manifest = str(dataset_dir / "manifest.csv")
    desc, pca, cb = (str(tmp_path / n) for n in ("desc.bin", "pca.json", "cb.json"))
    assert main(["extract", "--manifest", manifest, "--out", desc]) == 0
    assert main(["train-pca", "--descriptors", desc, "--dim", "21", "--out", pca]) == 0
    assert main(["train-codebook", "--descriptors", desc, "--pca", pca, "--k", "4",
                 "--sample", "2000", "--out", cb]) == 0
    for encoder in ("bow", "vlad"):
        assert main(["encode", "--descriptors", desc, "--pca", pca, "--encoder", encoder,
                     "--vocab", cb, "--manifest", manifest,
                     "--out", str(tmp_path / f"{encoder}.bin")]) == 0
    svm = str(tmp_path / "svm.json")
    assert main(["train-svm", "--corpus", str(tmp_path / "bow.bin"), "--epochs", "2",
                 "--out", svm]) == 0
    assert main(["evaluate", "--corpus", str(tmp_path / "bow.bin"), "--classifier", svm,
                 "--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--corpus", str(tmp_path / "vlad.bin"), "--classifier", svm,
               "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bow:K=4:d=21" in err and "vlad:K=4:d=21" in err
    assert not (tmp_path / "eval").exists()


def test_dpm_workflow(dataset_dir, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.csv")
    dpm = str(tmp_path / "dpm.json")
    assert main(["build-dpm", "--manifest", manifest, "--out", dpm]) == 0
    out = tmp_path / "detections.csv"
    assert main(["detect-face", "--manifest", manifest, "--model", dpm, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("id,decision,score,")
    assert "person" in text
    assert "decision accuracy" in capsys.readouterr().out


def test_run_all_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "run-all", "--out", str(out), "--count", "30", "--width", "80", "--height", "64",
        "--seed", "11", "--k", "4", "--pca-dim", "12", "--epochs", "5",
        "--vocab-sample", "3000",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert (out / "model.json").exists()
    assert (out / "metrics.json").exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as e:
        main(["extract"])  # missing required args
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1


def test_data_error_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    rc = main(["extract", "--manifest", missing, "--out", str(tmp_path / "d.bin")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_pca_file_exits_2(tmp_path, capsys):
    # NaN in a saved model component is a data error, not a NaN result later.
    from seatcheck.dense_descriptors import DescriptorSet
    from seatcheck.pca_reduce import fit_pca

    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(40, 4))
    desc = tmp_path / "d.bin"
    store.save_descriptor_sets([DescriptorSet(
        vectors=vectors, x_norm=rng.uniform(size=40), y_norm=rng.uniform(size=40),
        scale_level=np.zeros(40, dtype=np.int64), source_id="img",
    )], desc)
    store.save_pca(fit_pca(vectors, 2), tmp_path / "pca.json")
    pca = json.loads((tmp_path / "pca.json").read_text())
    pca["eigenvalues"][1] = float("nan")
    (tmp_path / "pca.json").write_text(json.dumps(pca))
    rc = main(["train-codebook", "--descriptors", str(desc), "--pca", str(tmp_path / "pca.json"),
               "--k", "2", "--out", str(tmp_path / "cb.json")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_manifest_naming_a_missing_image_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,x,y,w,h\nimages/nope.pgm,empty,,,,\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "d.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "images/nope.pgm" in err
    assert "Traceback" not in err


def test_truncated_corpus_exits_2(dataset_dir, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.csv")
    desc = str(tmp_path / "desc.bin")
    assert main(["extract", "--manifest", manifest, "--out", desc]) == 0
    cb = str(tmp_path / "cb.json")
    assert main(["train-codebook", "--descriptors", desc, "--k", "4", "--sample", "2000",
                 "--out", cb]) == 0
    corpus = tmp_path / "corpus.bin"
    assert main(["encode", "--descriptors", desc, "--encoder", "bow", "--vocab", cb,
                 "--manifest", manifest, "--out", str(corpus)]) == 0
    corpus.write_bytes(corpus.read_bytes()[:20])
    rc = main(["train-svm", "--corpus", str(corpus), "--out", str(tmp_path / "svm.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_descriptor_corpus_without_images_exits_2(tmp_path, capsys):
    desc = tmp_path / "empty.bin"
    desc.write_bytes(store.DESC_MAGIC + b'{"dim": 5, "images": []}\n')
    rc = main(["train-codebook", "--descriptors", str(desc), "--k", "2",
               "--out", str(tmp_path / "cb.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no images" in err and "Traceback" not in err
    assert not (tmp_path / "cb.json").exists()


def test_corpus_with_non_numeric_labels_exits_2(tmp_path, capsys):
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 2, "length": 4,
        "compressed_dim": None, "ids": ["a", "b"], "labels": ["x", "y"],
    }
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(
        store.CORPUS_MAGIC + (json.dumps(header) + "\n").encode()
        + np.array([[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype="<f8").tobytes()
    )
    rc = main(["train-svm", "--corpus", str(corpus), "--out", str(tmp_path / "svm.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "labels" in err and "Traceback" not in err
    assert not (tmp_path / "svm.json").exists()


def test_em_cap_is_one_constant():
    import inspect

    from seatcheck.cli import build_parser
    from seatcheck.codebooks import DEFAULT_EM_ITER, train_gmm

    args = build_parser().parse_args(["train-gmm", "--descriptors", "d.bin", "--k", "2", "--out", "g.json"])
    assert args.max_iter == DEFAULT_EM_ITER
    assert PipelineConfig().gmm_max_iter == DEFAULT_EM_ITER
    assert inspect.signature(train_gmm).parameters["max_iter"].default == DEFAULT_EM_ITER


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_3(tmp_path, capsys):
    # descriptors carrying non-finite values surface as a numerical failure
    # when the encoder tries to normalize the aggregate
    import numpy as np

    from seatcheck import store
    from seatcheck.codebooks import GmmModel
    from seatcheck.dense_descriptors import DescriptorSet

    bad = DescriptorSet(
        vectors=np.full((5, 3), np.inf),
        x_norm=np.full(5, 0.5),
        y_norm=np.full(5, 0.5),
        scale_level=np.zeros(5, dtype=np.int64),
        source_id="bad",
    )
    desc = tmp_path / "bad.bin"
    store.save_descriptor_sets([bad], desc)
    gmm = GmmModel(weights=[1.0], means=[[0.0, 0.0, 0.0]], variances=[[1.0, 1.0, 1.0]])
    vocab = tmp_path / "gmm.json"
    store.save_quantizer(gmm, vocab)
    rc = main([
        "encode", "--descriptors", str(desc), "--encoder", "fisher",
        "--vocab", str(vocab), "--out", str(tmp_path / "c.bin"),
    ])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
