"""seatcheck benchmark: three workloads, timed end to end, with an optional traced run.

    python3 bench/run.py --workload train-fisher --seed 7 --seconds 8 --trace 0

Workloads (see bench/README.md for why each exists and what it should move):

* ``train-fisher``: ``run_pipeline`` on a seeded 400-image corpus, Fisher
  K=32, PCA 64, with the DPM face-detection baseline (the canonical run),
  EM run to its cap of 100 iterations.
* ``train-bow``: the same corpus through BoW K=256, PCA 64, no DPM, with
  Lloyd capped at 50 sweeps.
* ``score-stream``: set-up trains and saves a Fisher K=32 + DPM model and
  reloads it; then one closed-loop client scores fresh images with
  ``score_image`` and ``detect_occupancy``, one call after another.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer call and prints per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed call or
check makes the command exit 1. Files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("train-fisher", "train-bow", "score-stream")
CORPUS_SIZE = 400
# The train workloads generate their corpus this many times and report the
# median; score-stream's set-up is a full training run, so it sets up once.
SETUP_REPEATS = 5
# Each per-image phase runs for --seconds and at least this many calls, so
# that p90 has ten samples beyond it.
SCORE_SAMPLES = 100
# score-stream deploys the same model in every run; the seed varies only the
# stream. Its GMM trains on a third of the canonical 60,000-descriptor sample,
# which keeps set-up near 10 s; the model has the canonical shape.
STREAM_SETUP_SIZE = 100
STREAM_SETUP_SEED = 7
STREAM_VOCAB_SAMPLE = 20_000
STREAM_SIZE = 200
STREAM_SEED_OFFSET = 1_000_000
# train-bow caps Lloyd at this many sweeps, so that every seed does the same
# work. At the default cap of 100, Lloyd ran all 100 sweeps on the corpora of
# seeds 1-5 and converged after 87 at seed 7; as it is 80% of train_s, the
# corpus, not the program, moved train_s by about 10% from seed to seed.
BOW_LLOYD_SWEEPS = 50
# For the same reason train-fisher runs EM to its cap of 100 iterations on
# every seed: with the default tolerance EM stopped after 83 and 89 iterations
# on two of ten seeds and ran to the cap on the others. Seed 7, the canonical
# run, reaches the cap either way, so its model is unchanged.
FISHER_EM_TOL = -math.inf
# Every phase runs with one BLAS thread. With a busy loop on the second of two
# vCPUs, train_s at two threads rose from 29.6 to 42.0 s (train-bow) and to
# 58 s (train-fisher, 33 s when quiet); at one thread it went from 31.5 to
# 34.9 s and from 36.3 to 37.5 s. Two threads wait on the second vCPU whenever
# the host is busy, and scoring showed the same (p90 17-60 ms against 24-25 ms).
BLAS_THREADS = 1
# score-stream images whose scores must match bit for bit between the reloaded
# and the in-memory model.
ROUND_TRIP_IMAGES = 5
# Floor that the canonical experiment's classifier must clear (criterion 6).
MIN_FISHER_ACCURACY = 0.90


class Ledger:
    """Counts attempted and failed calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = defaultdict(float)  # function name -> total time in calls

    def call(self, fn, *args, **kwargs):
        """Run one program call; return (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        dt = time.perf_counter() - t0
        self.seconds[fn.__name__] += dt
        return result, dt

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        print(f"check {name}: {'ok' if ok else 'FAILED'}{' (' + detail + ')' if detail else ''}")


def p50_p90(ms: list[float]) -> tuple[float, float]:
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest() -> str:
    """sha256 over the package and the benchmark sources."""
    h = hashlib.sha256()
    for p in sorted((SRC / "seatcheck").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Blas:
    """numpy's OpenBLAS: its version, and its thread count read through ctypes."""

    def __init__(self, np):
        try:
            self.version = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            self.version = None
        self._get = None
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    if get is not None:
                        get.restype = ctypes.c_int
                        self._get = get
                        return

    def threads(self) -> int | None:
        return int(self._get()) if self._get is not None else None


def pin_allocator() -> dict | None:
    """Fix glibc malloc's mmap and trim thresholds for the whole process.

    By default glibc raises its mmap threshold after large frees, so whether
    the per-image temporaries (about 19 MB for extraction's window tensor)
    are fresh, page-faulting mmaps or reused heap depends on what the
    process allocated before. That history differs between workloads and
    seeds and moved score_image latency by up to 40% from run to run. Pinned,
    every allocation up to 32 MB comes from the heap in every run.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    settings = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 1 << 30)}
    if not all(mallopt(param, value) for param, value in settings.values()):
        return None
    return {name: value for name, (_, value) in settings.items()}


def same_corpus(a, b) -> bool:
    return len(a) == len(b) and all(
        x.image_id == y.image_id and x.label == y.label and x.gt_face_box == y.gt_face_box
        and (x.image.pixels == y.image.pixels).all()
        for x, y in zip(a, b)
    )


def check_model_digest(ctx, workload: str, seed: int, digest: str) -> None:
    """model.json must hash the same in every run of this code, workload and seed."""
    record = OUT / "digests" / f"{ctx.record['code_sha256'][:16]}-{workload}-seed{seed}.sha256"
    if record.is_file():
        earlier = record.read_text().strip()
        ctx.ledger.check("model.json-sha256-matches-earlier-runs", earlier == digest,
                         f"{digest[:12]} vs {earlier[:12]}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digest + "\n")
        ctx.ledger.check("model.json-sha256-matches-earlier-runs", True,
                         f"first run, recorded {digest[:12]}")


# --- workloads ------------------------------------------------------------------


def train_workload(ctx, workload, seed):
    sc, api, ledger = ctx.sc, ctx.api, ctx.ledger
    if workload == "train-fisher":
        config = sc.PipelineConfig(encoder="fisher", k=32, pca_dim=64, with_dpm=True,
                                   gmm_tol=FISHER_EM_TOL)
    else:
        config = sc.PipelineConfig(encoder="bow", k=256, pca_dim=64,
                                   kmeans_max_iter=BOW_LLOYD_SWEEPS)
    spec = sc.SyntheticSpec(count=CORPUS_SIZE, seed=seed)

    setup_s, corpora = [], []
    for _ in range(SETUP_REPEATS):
        images, dt = ledger.call(api.generate_synthetic, spec)
        setup_s.append(dt)
        corpora.append(images)
    ledger.check("corpus-identical-across-set-ups",
                 all(same_corpus(corpora[0], c) for c in corpora[1:]))
    images = corpora[0]
    del corpora

    ctx.tracer.phase = "measure"
    out_dir = OUT / "runs" / f"{workload}-seed{seed}"
    train_s, digests = [], []
    start = time.perf_counter()
    while not train_s or time.perf_counter() - start < ctx.seconds:
        result, dt = ledger.call(api.run_pipeline, images, config, out_dir)
        train_s.append(dt)
        digests.append(sha256_file(out_dir / "model.json"))
    ledger.check("model.json-sha256-identical-within-run", len(set(digests)) == 1)
    check_model_digest(ctx, workload, seed, digests[0])

    # Deployment latency of the model this run trained: score its test split,
    # cycling, with the saved model.json. Every score must equal run_pipeline's.
    model, _ = ledger.call(api.load_model, out_dir / "model.json")
    by_id = {im.image_id: im for im in images}
    tests = result.test_samples
    score_ms, differ = [], 0
    start = time.perf_counter()
    while len(score_ms) < SCORE_SAMPLES or time.perf_counter() - start < ctx.seconds:
        sample = tests[len(score_ms) % len(tests)]
        got, dt = ledger.call(api.score_image, model, by_id[sample.id].image)
        score_ms.append(dt * 1e3)
        differ += got != sample.score
    ledger.check("score_image-on-model.json-equals-run_pipeline-scores", differ == 0,
                 f"{differ}/{len(score_ms)} differ")

    quantizer = result.model.quantizer
    extra = {
        "train_calls": (len(train_s), "count"),
        # Iterations of the vocabulary training, from its public return value.
        "vocab_iterations": (len(getattr(quantizer, "sse_history", ())
                                 or getattr(quantizer, "loglik_history", ())), "count"),
        "score_samples": (len(score_ms), "count"),
    }
    if config.with_dpm:
        ledger.check("test_accuracy-at-least-0.90", result.accuracy >= MIN_FISHER_ACCURACY,
                     f"{result.accuracy!r}")
        ledger.check("test_accuracy-at-least-dpm_accuracy", result.accuracy >= result.dpm_accuracy,
                     f"{result.accuracy!r} vs {result.dpm_accuracy!r}")
        extra["dpm_accuracy"] = (result.dpm_accuracy, "fraction")
    p50, p90 = p50_p90(score_ms)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_s": (statistics.median(train_s), "s"),
        "test_accuracy": (result.accuracy, "fraction"),
        "test_auc": (result.auc, "fraction"),
        "score_ms_p50": (p50, "ms"),
        "score_ms_p90": (p90, "ms"),
    }
    ctx.record["seeds"] = {"workload": seed, "corpus": seed}
    return metrics, extra


def score_stream(ctx, seed):
    sc, api, ledger = ctx.sc, ctx.api, ctx.ledger
    config = sc.PipelineConfig(encoder="fisher", k=32, pca_dim=64, with_dpm=True,
                               vocab_sample=STREAM_VOCAB_SAMPLE)
    train_spec = sc.SyntheticSpec(count=STREAM_SETUP_SIZE, seed=STREAM_SETUP_SEED)
    stream_spec = sc.SyntheticSpec(count=STREAM_SIZE, seed=seed + STREAM_SEED_OFFSET)
    path = OUT / "runs" / "score-stream" / "model.json"
    path.parent.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    train_images, _ = ledger.call(api.generate_synthetic, train_spec)
    result, train_s = ledger.call(api.run_pipeline, train_images, config)
    ledger.call(api.save_model, result.model, path)
    model, _ = ledger.call(api.load_model, path)
    stream, _ = ledger.call(api.generate_synthetic, stream_spec)
    setup_s = time.perf_counter() - t0
    check_model_digest(ctx, "score-stream", STREAM_SETUP_SEED, sha256_file(path))

    ctx.tracer.phase = "check"
    differ = 0
    for im in stream[:ROUND_TRIP_IMAGES]:
        a, _ = ledger.call(api.score_image, model, im.image)
        b, _ = ledger.call(api.score_image, result.model, im.image)
        differ += a != b
    ledger.check("score_image-reloaded-equals-in-memory", differ == 0,
                 f"{differ}/{ROUND_TRIP_IMAGES} differ")
    threshold = result.dpm_threshold
    del result, train_images

    ctx.tracer.phase = "measure"
    score_ms, dpm_ms, scored, detected = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < SCORE_SAMPLES or time.perf_counter() - start < ctx.seconds:
        im = stream[i % len(stream)]
        label = 1 if im.label == "person" else -1
        s, dt = ledger.call(api.score_image, model, im.image)
        score_ms.append(dt * 1e3)
        (decision, det), dt = ledger.call(
            api.detect_occupancy, model.dpm, im.image, threshold,
            levels=config.levels, factor=config.scale_factor,
        )
        dpm_ms.append(dt * 1e3)
        if i < SCORE_SAMPLES:
            scored.append(sc.ScoredSample(id=im.image_id, score=s, label=label))
            detected.append((sc.ScoredSample(id=im.image_id, score=det.score, label=label), decision))
        i += 1
    ctx.tracer.phase = "report"

    p50, p90 = p50_p90(score_ms)
    d50, d90 = p50_p90(dpm_ms)
    test_auc = sc.roc_curve(scored)[1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "train_s": (train_s, "s"),
        "test_accuracy": (sc.accuracy(scored), "fraction"),
        "test_auc": (test_auc, "fraction"),
        "score_ms_p50": (p50, "ms"),
        "score_ms_p90": (p90, "ms"),
    }
    extra = {
        "dpm_ms_p50": (d50, "ms"),
        "dpm_ms_p90": (d90, "ms"),
        "score_auc": (test_auc, "fraction"),
        "dpm_auc": (sc.roc_curve([d for d, _ in detected])[1], "fraction"),
        "dpm_accuracy": (
            sum((dec == "person") == (d.label == 1) for d, dec in detected) / len(detected),
            "fraction",
        ),
        "stream_images": (i, "count"),
    }
    ctx.record["seeds"] = {"workload": seed, "setup_corpus": STREAM_SETUP_SEED,
                           "stream_corpus": seed + STREAM_SEED_OFFSET}
    return metrics, extra


# --- traced-run report ------------------------------------------------------------


def report_trace(tracing, tracer, workload, ledger, metrics, untraced):
    """Print each root call's time split into module self times, and check
    that the self times add up to what the benchmark's own clock measured."""
    spans = tracer.spans
    for root in ("pipeline.run_pipeline", "pipeline.score_image", "dpm_face.detect_occupancy"):
        roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == root]
        if not roots:
            continue
        parts = tracing.self_times(spans, roots)
        scale, unit = (1.0, "s") if root == "pipeline.run_pipeline" else (1e3 / len(roots), "ms per call")
        clocked = ledger.seconds[root.split(".")[1]]
        print(f"self times under {root} ({len(roots)} calls, {clocked * scale:.4f} {unit}):")
        for mod, v in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:<18} {v * scale:10.4f} {unit}")
        total = sum(parts.values())
        ledger.check(f"self-times-add-up-to-{root}", abs(total - clocked) <= 1e-3 * clocked,
                     f"{total!r} s of {clocked!r} s")
    if workload == "score-stream":
        leaked = sum(s.dur for s in spans if s.phase == "measure"
                     and s.name in ("codebooks.train_gmm", "codebooks.train_kmeans"))
        ledger.check("no-codebooks-training-in-stream-phase", leaked == 0.0, f"{leaked!r} s")
    if untraced is None:
        print("tracing overhead: no untraced run of this code and seed recorded yet")
        return
    for name in ("train_s", "score_ms_p50"):
        traced_v, base = metrics[name][0], untraced["metrics"][name]["value"]
        print(f"tracing overhead {name}: {traced_v - base:+.6f} ({(traced_v / base - 1) * 100:+.2f}%)"
              " against the last untraced run of this code and seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seatcheck" / "__init__.py").is_file():
        print(f"error: no seatcheck package under {SRC}; run from a seatcheck checkout",
              file=sys.stderr)
        return 2
    # Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    allocator = pin_allocator()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import seatcheck as sc
    import tracing

    tracer = tracing.Tracer() if args.trace else tracing.Untraced()
    api = SimpleNamespace(**{
        name: tracer.wrap(getattr(sc, name))
        for name in ("generate_synthetic", "run_pipeline", "score_image",
                     "detect_occupancy", "save_model", "load_model")
    })
    blas = Blas(np)
    digest = code_digest()
    ctx = SimpleNamespace(
        sc=sc, api=api, tracer=tracer, ledger=Ledger(), blas=blas, seconds=args.seconds,
        record={
            "workload": args.workload,
            "git_sha": git_sha(),
            "code_sha256": digest,
            "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": blas.version,
            "blas_threads": blas.threads(),
            "malloc": allocator,
            "seconds": args.seconds,
            "trace": args.trace,
        },
    )
    ledger, record = ctx.ledger, ctx.record

    try:
        with tracing.instrument(tracer) if args.trace else contextlib.nullcontext():
            if args.workload == "score-stream":
                metrics, extra = score_stream(ctx, args.seed)
            else:
                metrics, extra = train_workload(ctx, args.workload, args.seed)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(ledger.attempted, 1),
                          "failed": max(ledger.failed, 1), "metrics": {}}))
        return 1
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print("run record: " + json.dumps(record, sort_keys=True))

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{'traced ' if args.trace else ''}{name} = {value!r} {unit}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    untraced_path = results / f"{args.workload}-seed{args.seed}-trace0.json"
    if args.trace:
        untraced = None
        if untraced_path.is_file():
            untraced = json.loads(untraced_path.read_text())
            if untraced["record"]["code_sha256"] != digest:
                untraced = None
        report_trace(tracing, tracer, args.workload, ledger, metrics, untraced)
        out_metrics = tracing.layer_metrics(tracer.spans)
    else:
        out_metrics = metrics
    failed_frac = ledger.failed / ledger.attempted
    print(f"failed_frac = {failed_frac!r} ({ledger.failed} of {ledger.attempted} calls and checks)")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in out_metrics.items()},
    }
    if not args.trace:
        untraced_path.write_text(json.dumps({"record": record, **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
