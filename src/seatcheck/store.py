"""Persistence: the versioned pipeline model file and bulk corpus formats.

The model file is structured JSON. Python's float repr is the shortest
round-tripping decimal, so JSON serialization is lossless for every finite
float64 and save -> load -> score is bit-exact. Keys are sorted and arrays
are nested lists, making files diffable and byte-deterministic.

Bulk data (descriptor sets, encoded corpora) uses a one-line JSON header
followed by raw little-endian float64, which is compact, deterministic,
and trivially seekable. All writes go through a temp-file rename so a
failed run never leaves a partial artifact; a failed write raises DataError.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebooks import GmmModel, KmeansCodebook
from .dense_descriptors import DEFAULT_PATCH, DEFAULT_STRIDE, DescriptorSet
from .dpm_face import Edge, PartMixtureModel, PartTree
from .encoders import Provenance, check_quantizer_kind
from .errors import DataError, is_integer
from .imagecore import DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR
from .linear_classifier import LinearModel, check_trained_on
from .pca_reduce import PcaModel

MODEL_FORMAT = "seatcheck-model"
# Version 2 added the extraction geometry; version 1 files are rejected
# because their geometry is unknown.
MODEL_VERSION = 2
DESC_MAGIC = b"SCDS1\n"
CORPUS_MAGIC = b"SCEC1\n"


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` by temp file and rename; any OSError becomes a DataError."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextmanager
def _decoding(what: str):
    """Report a file that cannot be read or decoded (missing keys, wrong JSON
    types, bad array shapes, nesting too deep to parse) as a DataError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError, RecursionError) as e:
        raise DataError(f"cannot read {what}: {e!r}") from e


@dataclass(frozen=True)
class PipelineModel:
    """Everything needed to score a new image, its extraction geometry
    included, bundled and versioned."""

    encoder_kind: str
    pca: PcaModel | None
    quantizer: KmeansCodebook | GmmModel
    classifier: LinearModel
    final_pca: PcaModel | None = None
    dpm: PartMixtureModel | None = None
    patch: int = DEFAULT_PATCH
    stride: int = DEFAULT_STRIDE
    levels: int = DEFAULT_LEVELS
    scale_factor: float = DEFAULT_SCALE_FACTOR

    def __post_init__(self):
        check_quantizer_kind(self.encoder_kind, self.quantizer)
        k, d = self.quantizer.K, self.quantizer.d
        native = Provenance(self.encoder_kind, k, d)  # rejects an unknown kind
        counts = (self.patch, self.stride, self.levels)
        if not (all(map(is_integer, counts)) and min(counts) >= 1 and 0.0 < self.scale_factor < 1.0):
            raise DataError("invalid extraction geometry")
        if self.pca is not None and self.pca.d_out != d:
            raise DataError(f"PCA output dim {self.pca.d_out} does not match d={d}")
        if self.final_pca is not None and self.final_pca.d_in != native.length:
            raise DataError("final PCA input dim does not match encoded length")
        compressed = None if self.final_pca is None else self.final_pca.d_out
        check_trained_on(self.classifier, Provenance(self.encoder_kind, k, d, compressed))


# --- JSON codecs --------------------------------------------------------------


def _pca_to_json(m: PcaModel | None):
    if m is None:
        return None
    return {
        "mean": m.mean.tolist(),
        "basis": m.basis.tolist(),
        "eigenvalues": m.eigenvalues.tolist(),
    }


def _pca_from_json(obj) -> PcaModel | None:
    if obj is None:
        return None
    return PcaModel(
        mean=np.array(obj["mean"]),
        basis=np.array(obj["basis"]),
        eigenvalues=np.array(obj["eigenvalues"]),
    )


def _quantizer_to_json(q: KmeansCodebook | GmmModel):
    if isinstance(q, GmmModel):
        return {
            "type": "gmm",
            "weights": q.weights.tolist(),
            "means": q.means.tolist(),
            "variances": q.variances.tolist(),
        }
    return {"type": "kmeans", "centroids": q.centroids.tolist()}


def _quantizer_from_json(obj):
    if obj["type"] == "gmm":
        return GmmModel(
            weights=np.array(obj["weights"]),
            means=np.array(obj["means"]),
            variances=np.array(obj["variances"]),
        )
    if obj["type"] == "kmeans":
        return KmeansCodebook(centroids=np.array(obj["centroids"]))
    raise DataError(f"unknown quantizer type {obj['type']!r}")


def _classifier_to_json(clf: LinearModel):
    return {
        "weights": clf.weights.tolist(),
        "bias": clf.bias,
        "lambda": clf.lambda_,
        "trained_on": clf.trained_on,
    }


def _classifier_from_json(obj) -> LinearModel:
    return LinearModel(
        weights=np.array(obj["weights"]),
        bias=obj["bias"],
        lambda_=obj["lambda"],
        trained_on=obj["trained_on"],
    )


def _dpm_to_json(model: PartMixtureModel | None):
    if model is None:
        return None
    mixtures = []
    for tree in model.mixtures:
        mixtures.append(
            {
                "root": tree.root,
                "templates": [t.tolist() for t in tree.templates],
                "edges": [
                    {
                        "parent": e.parent,
                        "child": e.child,
                        "anchor": [e.anchor_x, e.anchor_y],
                        "a": e.a,
                        "b": e.b,
                        "c": e.c,
                        "d": e.d,
                    }
                    for e in tree.edges
                ],
            }
        )
    return {
        "cell_size": model.cell_size,
        "bins": model.bins,
        "biases": list(model.biases),
        "mixtures": mixtures,
    }


def _dpm_from_json(obj) -> PartMixtureModel | None:
    if obj is None:
        return None
    trees = []
    for t in obj["mixtures"]:
        edges = tuple(
            Edge(
                parent=e["parent"],
                child=e["child"],
                anchor_x=e["anchor"][0],
                anchor_y=e["anchor"][1],
                a=e["a"],
                b=e["b"],
                c=e["c"],
                d=e["d"],
            )
            for e in t["edges"]
        )
        trees.append(
            PartTree(
                templates=tuple(np.array(x) for x in t["templates"]),
                edges=edges,
                root=t["root"],
            )
        )
    return PartMixtureModel(
        mixtures=tuple(trees),
        biases=tuple(obj["biases"]),
        cell_size=obj["cell_size"],
        bins=obj["bins"],
    )


def model_to_json(model: PipelineModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "extract": {
            "patch": model.patch,
            "stride": model.stride,
            "levels": model.levels,
            "scale_factor": model.scale_factor,
        },
        "encoder": {"kind": model.encoder_kind, "k": model.quantizer.K, "d": model.quantizer.d},
        "pca": _pca_to_json(model.pca),
        "quantizer": _quantizer_to_json(model.quantizer),
        "final_pca": _pca_to_json(model.final_pca),
        "classifier": _classifier_to_json(model.classifier),
        "dpm": _dpm_to_json(model.dpm),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def model_from_json(text: str) -> PipelineModel:
    with _decoding("model file"):
        doc = json.loads(text)
        if doc.get("format") != MODEL_FORMAT:
            raise DataError("not a seatcheck model file")
        if doc.get("version") != MODEL_VERSION:
            raise DataError(
                f"unsupported model version {doc.get('version')!r}; this release reads "
                f"version {MODEL_VERSION} only, so retrain the model"
            )
        geometry, encoder = doc["extract"], doc["encoder"]
        model = PipelineModel(
            encoder_kind=encoder["kind"],
            pca=_pca_from_json(doc["pca"]),
            quantizer=_quantizer_from_json(doc["quantizer"]),
            final_pca=_pca_from_json(doc["final_pca"]),
            classifier=_classifier_from_json(doc["classifier"]),
            dpm=_dpm_from_json(doc["dpm"]),
            patch=geometry["patch"],
            stride=geometry["stride"],
            levels=geometry["levels"],
            scale_factor=geometry["scale_factor"],
        )
        k, d = encoder["k"], encoder["d"]
        if not (is_integer(k) and is_integer(d) and (k, d) == (model.quantizer.K, model.quantizer.d)):
            raise DataError(f"encoder (k, d) = ({k!r}, {d!r}) does not match the quantizer's shape")
        return model


def save_model(model: PipelineModel, path: str | Path) -> None:
    atomic_write_text(path, model_to_json(model))


def load_model(path: str | Path) -> PipelineModel:
    with _decoding("model file"):
        text = Path(path).read_text()
    return model_from_json(text)


def _save_component(obj, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def _load_component(path: str | Path, from_json, what: str):
    with _decoding(what):
        obj = from_json(json.loads(Path(path).read_text()))
    if obj is None:
        raise DataError(f"{what} holds null")
    return obj


def save_quantizer(q: KmeansCodebook | GmmModel, path: str | Path) -> None:
    _save_component(_quantizer_to_json(q), path)


def load_quantizer(path: str | Path) -> KmeansCodebook | GmmModel:
    return _load_component(path, _quantizer_from_json, "quantizer file")


def save_pca(m: PcaModel, path: str | Path) -> None:
    _save_component(_pca_to_json(m), path)


def load_pca(path: str | Path) -> PcaModel:
    return _load_component(path, _pca_from_json, "PCA file")


def save_classifier(clf: LinearModel, path: str | Path) -> None:
    _save_component(_classifier_to_json(clf), path)


def load_classifier(path: str | Path) -> LinearModel:
    return _load_component(path, _classifier_from_json, "classifier file")


def save_dpm_model(model: PartMixtureModel, path: str | Path) -> None:
    _save_component(_dpm_to_json(model), path)


def load_dpm_model(path: str | Path) -> PartMixtureModel:
    return _load_component(path, _dpm_from_json, "DPM model file")


# --- binary corpora ------------------------------------------------------------


def _write_framed(path: str | Path, magic: bytes, header: dict, blocks) -> None:
    """The binary corpus frame: ``magic``, one line of sorted-key JSON
    ``header``, then each block's values as row-major little-endian float64."""
    parts = [magic, (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")]
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes() for b in blocks]
    atomic_write_bytes(path, b"".join(parts))


def _read_framed(path: str | Path, magic: bytes, what: str) -> tuple[dict, np.ndarray]:
    """(header, read-only float64 values) of a file ``_write_framed`` wrote; a
    trailing partial value is dropped, so callers see truncation as a short count."""
    data = Path(path).read_bytes()
    if not data.startswith(magic):
        raise DataError(f"not a seatcheck {what}")
    nl = data.index(b"\n", len(magic))
    values = np.frombuffer(data, dtype="<f8", count=(len(data) - nl - 1) // 8, offset=nl + 1)
    return json.loads(data[len(magic) : nl]), values


def save_descriptor_sets(sets: list[DescriptorSet], path: str | Path) -> None:
    """One file for a whole corpus: header line + per-image float64 blocks.

    Each image block is (count, 3 + dim): x_norm, y_norm, scale_level, vector.
    """
    if not sets:
        raise DataError("refusing to write an empty descriptor corpus")
    dim = sets[0].dim
    if any(d.dim != dim for d in sets):
        raise DataError("all descriptor sets in a corpus must share one dim")
    header = {"dim": dim, "images": [{"id": d.source_id, "count": len(d)} for d in sets]}
    _write_framed(path, DESC_MAGIC, header, (
        np.column_stack([d.x_norm, d.y_norm, d.scale_level.astype(np.float64), d.vectors]) for d in sets
    ))


def load_descriptor_sets(path: str | Path) -> list[DescriptorSet]:
    with _decoding("descriptor corpus"):
        header, values = _read_framed(path, DESC_MAGIC, "descriptor corpus")
        if not header["images"]:
            raise DataError("descriptor corpus holds no images")
        out = []
        offset = 0
        width = 3 + header["dim"]
        for entry in header["images"]:
            count = entry["count"]
            block = values[offset : offset + count * width]
            if block.size != count * width:
                raise DataError("descriptor corpus truncated")
            block = block.reshape(count, width)
            offset += count * width
            levels = block[:, 2]
            # Non-negative integers that fit int64; NaN fails every comparison.
            if not ((levels >= 0) & (levels < 2.0**63) & (levels == np.floor(levels))).all():
                raise DataError("descriptor scale levels must be non-negative integers")
            out.append(
                DescriptorSet(
                    vectors=block[:, 3:].copy(),
                    x_norm=block[:, 0].copy(),
                    y_norm=block[:, 1].copy(),
                    scale_level=levels.astype(np.int64),
                    source_id=entry["id"],
                )
            )
        return out


def _check_corpus(x: np.ndarray, provenance: Provenance, labels, ids) -> None:
    """What an encoded corpus satisfies on its way to disk and back."""
    if len(ids) == 0:
        raise DataError("an encoded corpus holds at least one image")
    if x.shape != (len(ids), provenance.length):
        raise DataError(
            f"corpus of shape {x.shape} with {len(ids)} ids does not match its provenance "
            f"{provenance.fingerprint!r} (length {provenance.length})"
        )
    if not all(isinstance(i, str) for i in ids):
        raise DataError("corpus ids must be strings")
    if labels is not None and len(labels) != len(ids):
        raise DataError("corpus ids/labels do not match its count")
    if labels is not None and not all(type(v) is int and v in (-1, 1) for v in labels):
        raise DataError("corpus labels must be the integers -1 and +1")
    if not np.isfinite(x).all():
        raise DataError("corpus values must be finite")


def save_corpus(
    x: np.ndarray,
    provenance: Provenance,
    labels: list[int] | None,
    ids: list[str],
    path: str | Path,
) -> None:
    """Dense matrix file: JSON header (encoder kind, K, d, final PCA dim,
    count, length, ids, labels) followed by the row-major float64 values of
    the (N, D) signature matrix ``x``."""
    x = np.asarray(x, dtype=np.float64)
    _check_corpus(x, provenance, labels, ids)
    header = {
        "encoder_kind": provenance.kind,
        "k": provenance.K,
        "d": provenance.d,
        "compressed_dim": provenance.compressed_dim,
        "count": len(x),
        "length": provenance.length,
        "ids": list(ids),
        "labels": list(labels) if labels is not None else None,
    }
    _write_framed(path, CORPUS_MAGIC, header, [x])


def load_corpus(path: str | Path) -> tuple[np.ndarray, Provenance, list[int] | None, list[str]]:
    """(read-only (N, D) signature matrix, its provenance, labels or None, ids).
    Headers from earlier releases also hold a ``normalized`` key, ignored here."""
    with _decoding("encoded corpus"):
        header, x = _read_framed(path, CORPUS_MAGIC, "encoded corpus")
        provenance = Provenance(
            header["encoder_kind"], header["k"], header["d"], header["compressed_dim"]
        )
        count, length = header["count"], header["length"]
        if x.size != count * length:
            raise DataError("corpus truncated")
        x = x.reshape(count, length)
        labels, ids = header["labels"], header["ids"]
        _check_corpus(x, provenance, labels, ids)
        return x, provenance, labels, ids
