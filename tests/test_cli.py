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


@pytest.fixture(scope="module")
def dpm_path(dataset_dir, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dpm") / "dpm.json")
    assert main(["build-dpm", "--manifest", str(dataset_dir / "manifest.csv"), "--out", path]) == 0
    return path


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
    ]) == 0

    corpus = str(tmp_path / "corpus.bin")
    assert main([
        "encode", "--descriptors", desc, "--pca", pca, "--encoder", "fisher",
        "--vocab", gmm, "--manifest", manifest, "--out", corpus,
    ]) == 0

    svm = str(tmp_path / "svm.json")
    assert main(["train-svm", "--corpus", corpus, "--epochs", "5", "--out", svm]) == 0

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
        "--manifest", manifest, "--out", corpus,
    ]) == 0
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


@pytest.fixture(scope="module")
def small_stages(tmp_path_factory):
    """A 6-image corpus and each staged artifact made from it, by the CLI."""
    d = tmp_path_factory.mktemp("small")
    files = {"manifest": "manifest.csv", "desc": "desc.bin", "pca": "pca.json", "gmm": "gmm.json",
             "corpus": "corpus.bin", "svm": "svm.json", "dpm": "dpm.json"}
    paths = {"dir": str(d), **{name: str(d / f) for name, f in files.items()}}
    for command in (
        "synth-gen --out {dir} --count 6 --width 80 --height 64 --seed 7",
        "extract --manifest {manifest} --out {desc}",
        "train-pca --descriptors {desc} --dim 4 --out {pca}",
        "train-gmm --descriptors {desc} --pca {pca} --k 2 --out {gmm}",
        "encode --descriptors {desc} --pca {pca} --encoder fisher --vocab {gmm} --manifest {manifest} --out {corpus}",
        "train-svm --corpus {corpus} --epochs 2 --out {svm}",
        "build-dpm --manifest {manifest} --out {dpm}",
    ):
        assert main(command.format(**paths).split()) == 0, command
    return paths


# Each writing command but for the path of its output, which goes last.
WRITING_COMMANDS = {
    "synth-gen": "synth-gen --count 6 --out",
    "extract": "extract --manifest {manifest} --out",
    "train-pca": "train-pca --descriptors {desc} --dim 4 --out",
    "train-codebook": "train-codebook --descriptors {desc} --k 2 --out",
    "train-gmm": "train-gmm --descriptors {desc} --k 2 --out",
    "encode": "encode --descriptors {desc} --pca {pca} --encoder fisher --vocab {gmm} --out",
    "train-svm": "train-svm --corpus {corpus} --epochs 2 --out",
    "evaluate": "evaluate --corpus {corpus} --classifier {svm} --out-dir",
    "build-dpm": "build-dpm --manifest {manifest} --out",
    "detect-face": "detect-face --manifest {manifest} --model {dpm} --out",
    "run-all": "run-all --count 30 --width 80 --height 64 --seed 11 --k 4 --pca-dim 12 --epochs 5 "
               "--vocab-sample 3000 --out",
}


@pytest.mark.parametrize("command", list(WRITING_COMMANDS))
def test_output_under_a_regular_file_exits_2(small_stages, tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(WRITING_COMMANDS[command].format(**small_stages).split() + [str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize("command, cap, value", [("train-codebook", "kmeans_max_iter", "0"),
                                                 ("train-gmm", "gmm_max_iter", "-2")])
def test_iteration_cap_below_1_exits_2(small_stages, tmp_path, capsys, command, cap, value):
    out = tmp_path / "vocab.json"
    rc = main([command, "--descriptors", small_stages["desc"], "--k", "2", "--max-iter", value,
               "--out", str(out)])
    assert rc == 2
    assert f"{cap} must be positive, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["extract"])  # missing required args
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1
    # each artifact has one on-disk format, so no command takes a text-export option
    for argv in (
        ["extract", "--manifest", "m.csv", "--out", "d.bin", "--dump-csv", "dump"],
        ["train-gmm", "--descriptors", "d.bin", "--k", "2", "--out", "g.json", "--debug-dump", "g.txt"],
        ["encode", "--descriptors", "d.bin", "--encoder", "bow", "--vocab", "c.json", "--out", "c.bin",
         "--csv", "c.csv"],
        ["train-svm", "--corpus", "c.bin", "--out", "s.json", "--weights-csv", "w.csv"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


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


def test_manifest_that_is_not_utf8_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"path,label,x,y,w,h\nimages/\xb4.pgm,empty,,,,\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "d.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read manifest {manifest}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d.bin").exists()


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


def test_corpus_with_compressed_dim_0_exits_2(tmp_path, capsys):
    # a (3, 0) signature matrix would train a zero-weight classifier
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 3, "length": 0,
        "compressed_dim": 0, "ids": ["a", "b", "c"], "labels": [1, -1, 1],
    }
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(store.CORPUS_MAGIC + (json.dumps(header) + "\n").encode())
    rc = main(["train-svm", "--corpus", str(corpus), "--out", str(tmp_path / "svm.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "integers >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "svm.json").exists()


def six_descriptors(path):
    """Write a descriptor corpus of one image with six 4-D descriptors to ``path``."""
    from seatcheck.dense_descriptors import DescriptorSet

    rng = np.random.default_rng(0)
    store.save_descriptor_sets([DescriptorSet(
        vectors=rng.normal(size=(6, 4)), x_norm=rng.uniform(size=6), y_norm=rng.uniform(size=6),
        scale_level=np.zeros(6, dtype=np.int64), source_id="img",
    )], path)
    return path


@pytest.mark.parametrize("sample", ["-5", "0"])
def test_sample_below_1_exits_2(tmp_path, capsys, sample):
    desc = six_descriptors(tmp_path / "d.bin")
    rc = main(["train-pca", "--descriptors", str(desc), "--dim", "2", "--sample", sample,
               "--out", str(tmp_path / "pca.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"sample must be at least 1, got {sample}" in err and "Traceback" not in err
    assert not (tmp_path / "pca.json").exists()


def test_negative_synth_gen_seed_exits_2(tmp_path, capsys):
    rc = main(["synth-gen", "--out", str(tmp_path / "data"), "--count", "6", "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("flag", ["--split-seed", "--sample-seed", "--vocab-seed", "--svm-seed"])
def test_negative_run_all_seed_exits_2(tmp_path, capsys, flag):
    rc = main(["run-all", "--out", str(tmp_path / "run"), "--count", "20", "--width", "80",
               "--height", "64", flag, "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')} must be non-negative, got -1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_synth_gen_noise_sigma_exits_2(tmp_path, capsys, sigma):
    rc = main(["synth-gen", "--out", str(tmp_path / "data"), "--count", "6", "--noise-sigma", sigma])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"noise_sigma must be finite and non-negative, got {sigma}" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_nan_run_all_noise_sigma_exits_2(tmp_path, capsys):
    rc = main(["run-all", "--out", str(tmp_path / "run"), "--count", "20", "--width", "80",
               "--height", "64", "--noise-sigma", "nan"])
    assert rc == 2
    assert "noise_sigma must be finite and non-negative, got nan" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_train_pca_sample_seed_exits_2(tmp_path, capsys):
    desc = six_descriptors(tmp_path / "d.bin")
    rc = main(["train-pca", "--descriptors", str(desc), "--dim", "2", "--sample", "3",
               "--sample-seed", "-1", "--out", str(tmp_path / "pca.json")])
    assert rc == 2
    assert "sample_seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "pca.json").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-3", "seed must be non-negative, got -3"),
    ("--cell-size", "0", "cell size must be at least 1, got 0"),
    ("--cell-size", "-2", "cell size must be at least 1, got -2"),
], ids=["seed-3", "cell-size0", "cell-size-2"])
def test_build_dpm_bad_option_exits_2(dataset_dir, tmp_path, capsys, option, value, message):
    rc = main(["build-dpm", "--manifest", str(dataset_dir / "manifest.csv"), option, value,
               "--out", str(tmp_path / "dpm.json")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dpm.json").exists()


def test_build_dpm_on_a_nan_face_box_exits_2(dataset_dir, tmp_path, capsys):
    # the same images, read through absolute paths, with the first face box NaN
    header, *rows = (dataset_dir / "manifest.csv").read_text().splitlines()
    first = next(i for i, r in enumerate(rows) if ",person," in r)
    rows = [",".join([str(dataset_dir / r.split(",")[0]), *r.split(",")[1:]]) for r in rows]
    rows[first] = ",".join(rows[first].split(",")[:2] + ["nan"] * 4)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join([header, *rows]) + "\n")
    rc = main(["build-dpm", "--manifest", str(manifest), "--out", str(tmp_path / "dpm.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"manifest line {first + 2}: bad box: rectangle coordinates must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "dpm.json").exists()


def test_detect_face_infinite_threshold_decides_every_seat_empty(dataset_dir, dpm_path, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.csv")
    out = tmp_path / "detections.csv"
    assert main(["detect-face", "--manifest", manifest, "--model", dpm_path, "--threshold", "inf",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows and all(r.split(",")[1] == "empty" for r in rows)
    images = load_dataset(manifest)
    empty = sum(im.label == "empty" for im in images) / len(images)
    assert f"decision accuracy at threshold inf: {empty:.4f}" in capsys.readouterr().out


def test_detect_face_nan_threshold_exits_2(dataset_dir, dpm_path, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.csv")
    rc = main(["detect-face", "--manifest", manifest, "--model", dpm_path, "--threshold", "nan",
               "--out", str(tmp_path / "detections.csv")])
    assert rc == 2
    assert "threshold must be a number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "detections.csv").exists()


@pytest.mark.parametrize("key, value", [("cell_size", 3.5), ("bins", 9.0), ("cell_size", True)])
def test_detect_face_on_a_non_integer_dpm_geometry_exits_2(dataset_dir, dpm_path, tmp_path, capsys, key, value):
    # 3.5 and 9.0 would end in a TypeError traceback; true would detect at a cell size of 1
    with open(dpm_path) as f:
        doc = json.load(f)
    doc[key] = value
    model = tmp_path / "dpm.json"
    model.write_text(json.dumps(doc))
    rc = main(["detect-face", "--manifest", str(dataset_dir / "manifest.csv"), "--model", str(model),
               "--out", str(tmp_path / "detections.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cell_size and bins must be integers" in err and "Traceback" not in err
    assert not (tmp_path / "detections.csv").exists()


def test_em_cap_is_one_constant():
    import inspect

    from seatcheck.cli import build_parser
    from seatcheck.codebooks import DEFAULT_EM_ITER, train_gmm

    args = build_parser().parse_args(["train-gmm", "--descriptors", "d.bin", "--k", "2", "--out", "g.json"])
    assert args.gmm_max_iter == DEFAULT_EM_ITER
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


def test_numerical_failure_in_run_all_exits_3(tmp_path, capsys, monkeypatch):
    # run-all tags a stage's error with the stage name; the exit code follows its cause
    from seatcheck import pipeline
    from seatcheck.errors import NumericalError

    def diverge(*args, **kwargs):
        raise NumericalError("non-finite parameters during EM")

    monkeypatch.setattr(pipeline, "train_gmm", diverge)
    rc = main([
        "run-all", "--out", str(tmp_path / "run"), "--count", "20", "--width", "80",
        "--height", "64",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: [stage=vocab]" in err
    assert not (tmp_path / "run").exists()


# Every subcommand's options as (option strings, default, type), as the CLI
# had them before its staged commands called the pipeline's stage functions,
# but for the vocabulary sample's default, since lowered from 60000 to 30000,
# and for the four text exports, since removed.
CLI_SURFACE = {
    "synth-gen": [
        (("--out",), None, None), (("--count",), 400, "int"),
        (("--positive-fraction",), 0.5, "float"), (("--width",), 128, "int"),
        (("--height",), 96, "int"), (("--noise-sigma",), 0.02, "float"), (("--seed",), 0, "int"),
    ],
    "extract": [
        (("--manifest",), None, None), (("--out",), None, None), (("--patch",), 24, "int"),
        (("--stride",), 4, "int"), (("--levels",), 3, "int"),
        (("--factor",), 0.7071067811865475, "float"),
    ],
    "train-pca": [
        (("--descriptors",), None, None), (("--dim",), 64, "int"), (("--sample",), None, "int"),
        (("--sample-seed",), 2, "int"), (("--out",), None, None),
    ],
    "train-codebook": [
        (("--descriptors",), None, None), (("--pca",), None, None), (("--k",), None, "int"),
        (("--seed",), 3, "int"), (("--max-iter",), 100, "int"), (("--sample",), 30000, "int"),
        (("--sample-seed",), 2, "int"), (("--out",), None, None),
    ],
    "train-gmm": [
        (("--descriptors",), None, None), (("--pca",), None, None), (("--k",), None, "int"),
        (("--seed",), 3, "int"), (("--max-iter",), 20, "int"), (("--sample",), 30000, "int"),
        (("--sample-seed",), 2, "int"), (("--out",), None, None), (("--tol",), 1e-05, "float"),
    ],
    "encode": [
        (("--descriptors",), None, None), (("--pca",), None, None), (("--encoder",), None, None),
        (("--vocab",), None, None), (("--manifest",), None, None), (("--out",), None, None),
    ],
    "train-svm": [
        (("--corpus",), None, None), (("--lambda",), 1e-05, "float"), (("--epochs",), 50, "int"),
        (("--seed",), 4, "int"), (("--out",), None, None),
    ],
    "evaluate": [
        (("--corpus",), None, None), (("--classifier",), None, None), (("--out-dir",), None, None),
    ],
    "build-dpm": [
        (("--manifest",), None, None), (("--cell-size",), 3, "int"), (("--seed",), 5, "int"),
        (("--out",), None, None),
    ],
    "detect-face": [
        (("--manifest",), None, None), (("--model",), None, None),
        (("--threshold",), None, "float"), (("--levels",), 3, "int"),
        (("--factor",), 0.7071067811865475, "float"), (("--out",), None, None),
    ],
    "run-all": [
        (("--out",), None, None), (("--manifest",), None, None), (("--count",), 400, "int"),
        (("--positive-fraction",), 0.5, "float"), (("--width",), 128, "int"),
        (("--height",), 96, "int"), (("--noise-sigma",), 0.02, "float"), (("--seed",), 7, "int"),
        (("--encoder",), "fisher", None), (("--k",), 32, "int"), (("--pca-dim",), 64, "int"),
        (("--final-pca",), None, "int"), (("--lambda",), 1e-05, "float"),
        (("--epochs",), 50, "int"), (("--train-fraction",), 0.8, "float"),
        (("--vocab-sample",), 30000, "int"), (("--split-seed",), 1, "int"),
        (("--sample-seed",), 2, "int"), (("--vocab-seed",), 3, "int"),
        (("--svm-seed",), 4, "int"), (("--with-dpm",), False, None),
    ],
}


def test_cli_surface_is_unchanged():
    import argparse

    from seatcheck.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (tuple(a.option_strings), a.default, a.type.__name__ if a.type else None)
            for a in p._actions
            if a.option_strings != ["-h", "--help"]
        ]
        for name, p in sub.choices.items()
    }
    assert surface == CLI_SURFACE
