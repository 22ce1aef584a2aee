"""Command-line interface.

Subcommands mirror the pipeline stages (synth-gen, extract, train-pca,
train-codebook, train-gmm, encode, train-svm, evaluate, build-dpm,
detect-face) plus run-all for the whole experiment in one shot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import store
from .dense_descriptors import DEFAULT_PATCH, DEFAULT_STRIDE
from .dpm_face import FACE_CELL_SIZE
from .encoders import ENCODER_KINDS, Provenance
from .errors import DataError, NumericalError, SeatcheckError, StageError
from .eval_metrics import best_threshold, curve_to_csv, is_true_positive
from .imagecore import DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR
from .linear_classifier import check_trained_on, score
from .pca_reduce import fit_pca, project_set
from .pipeline import (
    DPM_SEED,
    PipelineConfig,
    build_face_model,
    detect_faces,
    encode_all,
    evaluate,
    extract_all,
    pool_descriptors,
    run_pipeline,
    train_classifier,
    train_vocabulary,
)
from .synthetic import SyntheticSpec, generate_synthetic, load_dataset, save_dataset

DEFAULTS = PipelineConfig()


class Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _from_args(cls, args):
    """Build a config dataclass from the parsed options named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def _labeled_corpus(path):
    x, provenance, labels, ids = store.load_corpus(path)
    if labels is None:
        raise DataError("corpus has no labels; encode with --manifest to attach them")
    return x, provenance, labels, ids


def cmd_synth_gen(args) -> int:
    manifest = save_dataset(generate_synthetic(_from_args(SyntheticSpec, args)), args.out)
    print(f"wrote {args.count} images; manifest at {manifest}")
    return 0


def cmd_extract(args) -> int:
    sets = extract_all(load_dataset(args.manifest), _from_args(PipelineConfig, args))
    store.save_descriptor_sets(sets, args.out)
    total = sum(len(s) for s in sets)
    print(f"extracted {total} descriptors from {len(sets)} images -> {args.out}")
    return 0


def cmd_train_pca(args) -> int:
    sets = store.load_descriptor_sets(args.descriptors)
    if args.sample is None:
        blocks = [s.vectors for s in sets]
    else:
        blocks = [pool_descriptors(sets, args.sample, _from_args(PipelineConfig, args).sample_seed)]
    model = fit_pca(blocks, args.dim)
    store.save_pca(model, args.out)
    n = sum(len(b) for b in blocks)
    print(f"PCA {model.d_in} -> {model.d_out} fitted on {n} descriptors -> {args.out}")
    return 0


def _load_projected_sets(args):
    sets = store.load_descriptor_sets(args.descriptors)
    if args.pca:
        pca = store.load_pca(args.pca)
        sets = [project_set(pca, s) for s in sets]
    return sets


def cmd_train_vocabulary(args) -> int:
    """train-codebook (encoder bow) and train-gmm (encoder fisher)."""
    vocab = train_vocabulary(_load_projected_sets(args), _from_args(PipelineConfig, args))
    store.save_quantizer(vocab, args.out)
    if args.encoder == "fisher":
        print(f"GMM K={vocab.K} d={vocab.d} trained ({len(vocab.loglik_history)} EM iterations) -> {args.out}")
    else:
        print(f"k-means codebook K={vocab.K} d={vocab.d} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    sets = _load_projected_sets(args)
    quantizer = store.load_quantizer(args.vocab)
    x = encode_all(sets, quantizer, _from_args(PipelineConfig, args))
    ids = [s.source_id for s in sets]
    labels = None
    if args.manifest:
        targets = {im.image_id: im.target for im in load_dataset(args.manifest)}
        try:
            labels = [targets[i] for i in ids]
        except KeyError as e:
            raise DataError(f"image {e} is not in the manifest") from e
    store.save_corpus(x, Provenance(args.encoder, quantizer.K, quantizer.d), labels, ids, args.out)
    print(f"encoded {len(x)} images ({args.encoder}, len={len(x[0])}) -> {args.out}")
    return 0


def cmd_train_svm(args) -> int:
    x, provenance, labels, _ = _labeled_corpus(args.corpus)
    clf = train_classifier(x, labels, provenance, _from_args(PipelineConfig, args))
    store.save_classifier(clf, args.out)
    print(f"SVM trained on {len(x)} signatures -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    x, provenance, labels, ids = _labeled_corpus(args.corpus)
    clf = store.load_classifier(args.classifier)
    check_trained_on(clf, provenance)
    _, acc, roc, auc, yc = evaluate([score(clf, v) for v in x], labels, ids)
    out_dir = Path(args.out_dir)
    store.atomic_write_text(out_dir / "roc.csv", curve_to_csv(roc))
    store.atomic_write_text(out_dir / "yield.csv", curve_to_csv(yc))
    print(f"accuracy {acc:.4f}  auc {auc:.4f}  curves -> {out_dir}")
    return 0


def cmd_build_dpm(args) -> int:
    images = load_dataset(args.manifest)
    model = build_face_model(images, cell_size=args.cell_size, seed=args.seed)
    store.save_dpm_model(model, args.out)
    faces = sum(im.gt_face_box is not None for im in images)
    print(f"synthetic part model from {faces} faces -> {args.out}")
    return 0


def cmd_detect_face(args) -> int:
    images = load_dataset(args.manifest)
    model = store.load_dpm_model(args.model)
    scored = detect_faces(model, images, args.levels, args.scale_factor)
    samples = [s for s, _ in scored]
    threshold = args.threshold
    if threshold is None:
        threshold, acc = best_threshold(samples)
        print(f"threshold not given; using score-sweep optimum {threshold!r} (accuracy {acc:.4f})")
    elif math.isnan(threshold):
        raise DataError("detect-face threshold must be a number, got nan")
    acc = sum((s.score >= threshold) == (s.label == 1) for s in samples) / len(samples)
    lines = ["id,decision,score,x,y,w,h,box_matches_gt"]
    for im, (s, det) in zip(images, scored):
        decision = "person" if s.score >= threshold else "empty"
        iou_ok = ""
        if im.gt_face_box is not None:
            iou_ok = str(is_true_positive(det.box, im.gt_face_box)).lower()
        box = det.box
        lines.append(
            f"{im.image_id},{decision},{s.score!r},{box.x!r},{box.y!r},{box.w!r},{box.h!r},{iou_ok}"
        )
    if args.out:
        store.atomic_write_text(args.out, "\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(f"decision accuracy at threshold {threshold!r}: {acc:.4f}")
    return 0


def cmd_run_all(args) -> int:
    if args.manifest:
        images = load_dataset(args.manifest)
    else:
        images = generate_synthetic(_from_args(SyntheticSpec, args))
    config = _from_args(PipelineConfig, args)
    result = run_pipeline(images, config, out_dir=args.out)
    print(json.dumps(
        {
            "accuracy": result.accuracy,
            "auc": result.auc,
            "dpm_accuracy": result.dpm_accuracy,
            "artifacts": list(result.artifacts),
        },
        indent=2,
        sort_keys=True,
    ))
    return 0


def _add_corpus_options(p, seed: int) -> None:
    """The SyntheticSpec options of synth-gen and run-all, with SyntheticSpec's defaults."""
    p.add_argument("--count", type=int, default=400)
    for f in fields(SyntheticSpec):
        if f.name not in ("count", "seed"):
            p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.add_argument("--seed", type=int, default=seed)


def build_parser() -> Parser:
    parser = Parser(prog="seatcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    _add_corpus_options(p, seed=0)
    p.set_defaults(fn=cmd_synth_gen)

    p = sub.add_parser("extract", help="dense descriptors for every manifest image")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patch", type=int, default=DEFAULT_PATCH)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p.add_argument("--factor", dest="scale_factor", type=float, default=DEFAULT_SCALE_FACTOR)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train-pca", help="fit descriptor PCA")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--dim", type=int, default=DEFAULTS.pca_dim)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--sample-seed", type=int, default=DEFAULTS.sample_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_pca)

    for name, encoder, cap in (("train-codebook", "bow", "kmeans_max_iter"),
                               ("train-gmm", "fisher", "gmm_max_iter")):
        p = sub.add_parser(name, help=f"{'ML-EM GMM' if encoder == 'fisher' else 'k-means codebook'} from descriptors")
        p.add_argument("--descriptors", required=True)
        p.add_argument("--pca", help="optional PCA model applied before training")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--seed", dest="vocab_seed", type=int, default=DEFAULTS.vocab_seed)
        p.add_argument("--max-iter", dest=cap, type=int, default=getattr(DEFAULTS, cap))
        p.add_argument("--sample", dest="vocab_sample", type=int, default=DEFAULTS.vocab_sample)
        p.add_argument("--sample-seed", type=int, default=DEFAULTS.sample_seed)
        p.add_argument("--out", required=True)
        if encoder == "fisher":
            p.add_argument("--tol", dest="gmm_tol", type=float, default=DEFAULTS.gmm_tol)
        p.set_defaults(fn=cmd_train_vocabulary, encoder=encoder)

    p = sub.add_parser("encode", help="aggregate descriptors into image signatures")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--pca", help="optional PCA model applied before encoding")
    p.add_argument("--encoder", choices=ENCODER_KINDS, required=True)
    p.add_argument("--vocab", required=True, help="codebook (bow/vlad) or GMM (fisher) file")
    p.add_argument("--manifest", help="attach labels from this manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("train-svm", help="train the linear SGD-SVM on an encoded corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=DEFAULTS.lambda_)
    p.add_argument("--epochs", type=int, default=DEFAULTS.epochs)
    p.add_argument("--seed", dest="svm_seed", type=int, default=DEFAULTS.svm_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_svm)

    p = sub.add_parser("evaluate", help="accuracy, ROC, and yield curves for a classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("build-dpm", help="synthesize a part model from labeled faces")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cell-size", type=int, default=FACE_CELL_SIZE)
    p.add_argument("--seed", type=int, default=DPM_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_dpm)

    p = sub.add_parser("detect-face", help="run the part-model detector over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold; default: accuracy-optimal sweep")
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p.add_argument("--factor", dest="scale_factor", type=float, default=DEFAULT_SCALE_FACTOR)
    p.add_argument("--out", help="write per-image decisions CSV here")
    p.set_defaults(fn=cmd_detect_face)

    p = sub.add_parser("run-all", help="full experiment: data -> model -> metrics")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="use this corpus instead of generating one")
    _add_corpus_options(p, seed=7)
    p.add_argument("--encoder", choices=ENCODER_KINDS, default=DEFAULTS.encoder)
    p.add_argument("--k", type=int, default=DEFAULTS.k)
    p.add_argument("--pca-dim", type=int, default=DEFAULTS.pca_dim)
    p.add_argument("--final-pca", type=int, default=DEFAULTS.final_pca)
    p.add_argument("--lambda", dest="lambda_", type=float, default=DEFAULTS.lambda_)
    p.add_argument("--epochs", type=int, default=DEFAULTS.epochs)
    p.add_argument("--train-fraction", type=float, default=DEFAULTS.train_fraction)
    p.add_argument("--vocab-sample", type=int, default=DEFAULTS.vocab_sample)
    p.add_argument("--split-seed", type=int, default=DEFAULTS.split_seed)
    p.add_argument("--sample-seed", type=int, default=DEFAULTS.sample_seed)
    p.add_argument("--vocab-seed", type=int, default=DEFAULTS.vocab_seed)
    p.add_argument("--svm-seed", type=int, default=DEFAULTS.svm_seed)
    p.add_argument("--with-dpm", action="store_true")
    p.set_defaults(fn=cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SeatcheckError as e:
        # run-all tags each stage's error; the cause decides the exit code
        if isinstance(e.cause if isinstance(e, StageError) else e, NumericalError):
            print(f"numerical failure: {e}", file=sys.stderr)
            return 3
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
