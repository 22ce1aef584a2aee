import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatcheck.codebooks import GmmModel, KmeansCodebook
from seatcheck.dense_descriptors import DescriptorSet
from seatcheck.dpm_face import Edge, PartMixtureModel, PartTree
from seatcheck.encoders import Provenance
from seatcheck.errors import DataError
from seatcheck.imagecore import load_pgm
from seatcheck.linear_classifier import LinearModel
from seatcheck.pca_reduce import fit_pca
from seatcheck.store import (
    CORPUS_MAGIC,
    DESC_MAGIC,
    MODEL_FORMAT,
    PipelineModel,
    corpus_to_csv,
    load_classifier,
    load_corpus,
    load_descriptor_sets,
    load_dpm_model,
    load_model,
    load_pca,
    load_quantizer,
    model_from_json,
    model_to_json,
    save_corpus,
    save_descriptor_sets,
    save_dpm_model,
    save_model,
    save_pca,
    save_quantizer,
)


def small_model(rng, with_dpm=False):
    d, k = 6, 3
    pca = fit_pca(rng.normal(size=(40, 8)), d)
    w = rng.uniform(0.5, 1.5, size=k)
    gmm = GmmModel(
        weights=w / w.sum(),
        means=rng.normal(size=(k, d)),
        variances=rng.uniform(0.5, 2.0, size=(k, d)),
    )
    clf = LinearModel(
        weights=rng.normal(size=k * d),
        bias=float(rng.normal()),
        lambda_=1e-5,
        trained_on=f"fisher:K={k}:d={d}",
    )
    dpm = None
    if with_dpm:
        tpl = rng.normal(size=(2, 2, 9))
        dpm = PartMixtureModel(
            mixtures=(
                PartTree(
                    templates=(tpl, tpl[:1, :1]),
                    edges=(Edge(parent=0, child=1, anchor_x=1, anchor_y=0, a=-0.5, b=-0.5, c=0.1),),
                ),
            ),
            biases=(0.25,),
            cell_size=4,
            bins=9,
        )
    return PipelineModel(
        encoder_kind="fisher", k=k, d=d, pca=pca, quantizer=gmm, classifier=clf, dpm=dpm
    )


def test_model_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    model = small_model(rng, with_dpm=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.classifier.weights, model.classifier.weights)
    assert back.classifier.bias == model.classifier.bias
    assert np.array_equal(back.quantizer.means, model.quantizer.means)
    assert np.array_equal(back.pca.basis, model.pca.basis)
    assert np.array_equal(back.dpm.mixtures[0].templates[0], model.dpm.mixtures[0].templates[0])
    assert back.dpm.mixtures[0].edges == model.dpm.mixtures[0].edges
    # byte-deterministic serialization
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_model_validation_rejects_mismatches():
    rng = np.random.default_rng(1)
    m = small_model(rng)
    with pytest.raises(DataError):
        PipelineModel(
            encoder_kind="bow", k=m.k, d=m.d, pca=m.pca, quantizer=m.quantizer,
            classifier=m.classifier,
        )  # bow needs kmeans
    bad_clf = LinearModel(weights=np.zeros(7), bias=0.0, lambda_=1.0, trained_on="x")
    with pytest.raises(DataError):
        PipelineModel(
            encoder_kind="fisher", k=m.k, d=m.d, pca=m.pca, quantizer=m.quantizer,
            classifier=bad_clf,
        )
    # the right length, trained on another encoder's signatures
    vlad_clf = dataclasses.replace(m.classifier, trained_on=Provenance("vlad", m.k, m.d).fingerprint)
    with pytest.raises(DataError, match="vlad:K=3:d=6"):
        dataclasses.replace(m, classifier=vlad_clf)


def test_model_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_model(p)
    p.write_text('{"format": "something-else"}')
    with pytest.raises(DataError):
        load_model(p)


def test_quantizer_and_pca_files(tmp_path):
    rng = np.random.default_rng(2)
    cb = KmeansCodebook(centroids=rng.normal(size=(4, 3)))
    save_quantizer(cb, tmp_path / "cb.json")
    back = load_quantizer(tmp_path / "cb.json")
    assert isinstance(back, KmeansCodebook)
    assert np.array_equal(back.centroids, cb.centroids)

    pca = fit_pca(rng.normal(size=(30, 5)), 2)
    save_pca(pca, tmp_path / "pca.json")
    back = load_pca(tmp_path / "pca.json")
    assert np.array_equal(back.basis, pca.basis)
    assert np.array_equal(back.mean, pca.mean)


def test_dpm_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    model = small_model(rng, with_dpm=True)
    save_dpm_model(model.dpm, tmp_path / "dpm.json")
    back = load_dpm_model(tmp_path / "dpm.json")
    assert back.cell_size == model.dpm.cell_size
    assert np.array_equal(back.mixtures[0].templates[1], model.dpm.mixtures[0].templates[1])


def test_descriptor_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    sets = []
    for i in range(3):
        t = int(rng.integers(5, 12))
        sets.append(
            DescriptorSet(
                vectors=rng.normal(size=(t, 7)),
                x_norm=rng.uniform(size=t),
                y_norm=rng.uniform(size=t),
                scale_level=rng.integers(0, 3, size=t),
                source_id=f"img-{i}",
            )
        )
    save_descriptor_sets(sets, tmp_path / "desc.bin")
    back = load_descriptor_sets(tmp_path / "desc.bin")
    assert [d.source_id for d in back] == ["img-0", "img-1", "img-2"]
    for a, b in zip(sets, back):
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.x_norm, b.x_norm)
        assert np.array_equal(a.scale_level, b.scale_level)


def test_encoded_corpus_round_trip_and_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    vlad = Provenance("vlad", 2, 3)
    ids = [f"im{i}" for i in range(4)]
    labels = [1, -1, 1, -1]
    save_corpus(x, vlad, labels, ids, tmp_path / "corpus.bin")
    back, provenance, blabels, bids = load_corpus(tmp_path / "corpus.bin")
    assert blabels == labels and bids == ids
    assert provenance == vlad
    assert np.array_equal(back, x)

    csv_text = corpus_to_csv(x, labels, ids)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("im0,1,")

    with pytest.raises(DataError):
        save_corpus(x[:0], vlad, None, [], tmp_path / "empty.bin")
    with pytest.raises(DataError, match="length 6"):
        save_corpus(x[:, :5], vlad, None, ids, tmp_path / "short.bin")
    with pytest.raises(DataError):
        save_corpus(x, vlad, labels[:3], ids, tmp_path / "labels.bin")


def _corpus_file(header: dict, x: np.ndarray) -> bytes:
    return (
        CORPUS_MAGIC
        + (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        + np.ascontiguousarray(x, dtype="<f8").tobytes()
    )


def test_corpus_in_the_earlier_byte_format_still_loads(tmp_path):
    # Earlier releases wrote a "normalized" key into the header.
    x = np.array([[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 2, "length": 4,
        "normalized": True, "compressed_dim": None, "ids": ["a", "b"], "labels": [1, -1],
    }
    path = tmp_path / "corpus.bin"
    path.write_bytes(_corpus_file(header, x))
    back, provenance, labels, ids = load_corpus(path)
    assert np.array_equal(back, x)
    assert provenance.fingerprint == "fisher:K=2:d=2"
    assert labels == [1, -1] and ids == ["a", "b"]


def test_corpus_header_length_must_match_its_provenance(tmp_path):
    # 3 x 4 values read as 2 x 6 fill the file exactly: only the provenance
    # (fisher K=2 d=2, length 4) tells the header is wrong.
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 2, "length": 6,
        "compressed_dim": None, "ids": ["a", "b"], "labels": None,
    }
    path = tmp_path / "corpus.bin"
    path.write_bytes(_corpus_file(header, np.zeros((3, 4))))
    with pytest.raises(DataError, match="provenance"):
        load_corpus(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_corpus_with_non_finite_value_is_rejected(tmp_path, bad):
    path = tmp_path / "corpus.bin"
    save_corpus(np.array([[0.6, 0.8, 0.0, 0.0]]), Provenance("fisher", 2, 2), [1], ["im0"], path)
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([bad], dtype="<f8").tobytes()  # the last float
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="finite"):
        load_corpus(path)


@pytest.mark.parametrize("labels", [["x", "y"], [True, False], [1, 2], [1.0, -1.0], [1, None]])
def test_corpus_labels_must_be_plus_or_minus_one(tmp_path, labels):
    x = np.array([[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 2, "length": 4,
        "compressed_dim": None, "ids": ["a", "b"], "labels": labels,
    }
    path = tmp_path / "corpus.bin"
    path.write_bytes(_corpus_file(header, x))
    with pytest.raises(DataError, match="labels"):
        load_corpus(path)
    with pytest.raises(DataError, match="labels"):
        save_corpus(x, Provenance("fisher", 2, 2), labels, ["a", "b"], tmp_path / "out.bin")


def test_empty_corpus_is_refused_on_load(tmp_path):
    header = {
        "encoder_kind": "fisher", "k": 2, "d": 2, "count": 0, "length": 4,
        "compressed_dim": None, "ids": [], "labels": [],
    }
    path = tmp_path / "corpus.bin"
    path.write_bytes(_corpus_file(header, np.zeros((0, 4))))
    with pytest.raises(DataError, match="at least one"):
        load_corpus(path)


def test_descriptor_corpus_without_images_is_refused(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(DESC_MAGIC + b'{"dim": 5, "images": []}\n')
    with pytest.raises(DataError, match="no images"):
        load_descriptor_sets(path)


def test_version_1_model_file_is_rejected():
    doc = json.loads(model_to_json(small_model(np.random.default_rng(6))))
    doc["version"] = 1
    doc.pop("extract", None)  # version 1 files carry no geometry
    with pytest.raises(DataError, match="retrain"):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("section", ["classifier", "encoder", "extract", "quantizer"])
def test_model_file_missing_section_is_data_error(section):
    doc = json.loads(model_to_json(small_model(np.random.default_rng(7))))
    del doc[section]
    with pytest.raises(DataError):
        model_from_json(json.dumps(doc))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(8)
    sets = [
        DescriptorSet(
            vectors=rng.normal(size=(t, 5)),
            x_norm=rng.uniform(size=t),
            y_norm=rng.uniform(size=t),
            scale_level=rng.integers(0, 3, size=t),
            source_id=f"img-{t}",
        )
        for t in (3, 0, 4)
    ]
    save_descriptor_sets(sets, d / "desc.bin")
    x = rng.normal(size=(3, 4))
    save_corpus(x, Provenance("fisher", 2, 2), [1, -1, 1], ["a", "b", "c"], d / "corpus.bin")
    save_model(small_model(rng, with_dpm=True), d / "model.json")
    return d


LOADERS = {"desc.bin": load_descriptor_sets, "corpus.bin": load_corpus, "model.json": load_model}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_truncated_files_raise_only_data_error(valid_files, name, data):
    blob = (valid_files / name).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path = valid_files / f"cut-{name}"
    path.write_bytes(blob[:cut])
    try:
        LOADERS[name](path)
    except DataError:
        return
    # Only the model's trailing newline can go without losing content.
    assert (name, cut) == ("model.json", len(blob) - 1)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_mutated_files_raise_only_data_error(valid_files, name, data):
    blob = bytearray((valid_files / name).read_bytes())
    for _ in range(data.draw(st.integers(1, 3), label="bytes changed")):
        blob[data.draw(st.integers(0, len(blob) - 1), label="at")] = data.draw(st.integers(0, 255))
    path = valid_files / f"mutated-{name}"
    path.write_bytes(bytes(blob))
    try:
        with warnings.catch_warnings():
            if name == "desc.bin":  # a NaN scale level would warn as it is cast to int
                warnings.simplefilter("error")
            loaded = LOADERS[name](path)  # a change inside a number may still load
    except DataError:
        return
    if name == "desc.bin":
        assert all((d.scale_level >= 0).all() for d in loaded)


@pytest.mark.parametrize("level", [np.nan, np.inf, -1.0, 0.5, 1e300])
def test_descriptor_corpus_rejects_bad_scale_level(valid_files, tmp_path, level):
    blob = (valid_files / "desc.bin").read_bytes()
    start = blob.index(b"\n", len(DESC_MAGIC)) + 1
    rows = np.frombuffer(blob[start:], dtype="<f8").reshape(-1, 3 + 5).copy()
    rows[1, 2] = level
    path = tmp_path / "desc.bin"
    path.write_bytes(blob[:start] + rows.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="scale levels"):
            load_descriptor_sets(path)


ALL_LOADERS = {
    **LOADERS,
    "pca.json": load_pca,
    "quantizer.json": load_quantizer,
    "classifier.json": load_classifier,
    "dpm.json": load_dpm_model,
    "image.pgm": load_pgm,
}
PREFIXES = [b"", DESC_MAGIC, CORPUS_MAGIC, b"P5\n", b"{", f'{{"format":"{MODEL_FORMAT}","version":2,'.encode()]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(ALL_LOADERS)),
    prefix=st.sampled_from(PREFIXES),
    tail=st.binary(max_size=64),
)
def test_random_bytes_raise_only_data_error(tmp_path_factory, name, prefix, tail):
    path = tmp_path_factory.mktemp("random") / name
    path.write_bytes(prefix + tail)
    with pytest.raises(DataError):
        ALL_LOADERS[name](path)


def _numeric_paths(node, path=()):
    """Paths to every number in a JSON document, taking the first item of each list."""
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield path
    elif isinstance(node, dict):
        for key in sorted(node):
            yield from _numeric_paths(node[key], path + (key,))
    elif node:
        yield from _numeric_paths(node[0], path + (0,))


def _models_with_every_section():
    rng = np.random.default_rng(7)
    fisher = small_model(rng, with_dpm=True)
    final = fit_pca(rng.normal(size=(30, fisher.k * fisher.d)), 4)
    compressed = Provenance("fisher", fisher.k, fisher.d, compressed_dim=4)
    fisher = dataclasses.replace(
        fisher,
        final_pca=final,
        classifier=dataclasses.replace(
            fisher.classifier, weights=rng.normal(size=4), trained_on=compressed.fingerprint
        ),
    )
    bow_provenance = Provenance("bow", fisher.k, fisher.d)
    bow = dataclasses.replace(
        fisher,
        encoder_kind="bow",
        quantizer=KmeansCodebook(centroids=rng.normal(size=(fisher.k, fisher.d))),
        final_pca=None,
        classifier=dataclasses.replace(
            fisher.classifier,
            weights=rng.normal(size=bow_provenance.length),
            trained_on=bow_provenance.fingerprint,
        ),
    )
    return {"fisher": fisher, "bow": bow}


NAN_CASES = [
    (kind, path)
    for kind, model in _models_with_every_section().items()
    for path in _numeric_paths(json.loads(model_to_json(model)))
    if kind == "fisher" or path[0] == "quantizer"
]


@pytest.mark.parametrize(
    "kind,path", NAN_CASES, ids=[f"{k}:{'/'.join(map(str, p))}" for k, p in NAN_CASES]
)
def test_nan_anywhere_in_model_file_is_data_error(kind, path):
    model = _models_with_every_section()[kind]
    doc = json.loads(model_to_json(model))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float("nan")
    with pytest.raises(DataError):
        model_from_json(json.dumps(doc))
