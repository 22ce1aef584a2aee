"""Spans around calls into seatcheck's modules, recorded from outside the package.

A traced run swaps module attributes for wrappers and puts the originals
back afterwards; nothing under ``src/`` changes. The wrapped call sites are:

* every seatcheck function imported into ``seatcheck.pipeline`` (so each
  stage call ``run_pipeline`` and ``score_image`` make is a span);
* ``codebooks.train_kmeans`` as ``train_gmm`` calls it;
* ``codebooks.posteriors`` as ``encoders`` calls it;
* ``compute_hog`` and ``infer_best`` as ``detect_occupancy`` calls them.

A span's self time is its duration minus the durations of its direct
children, so the self times of a tree add up to its root's duration.
Counts are read at the same boundaries from arguments, return values and
exceptions; kernel sizes and bytes are computed from shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Size at or below which codebooks' distance and density kernels take the
# naive (N, K, d) broadcast branch instead of the matmul expansion.
NAIVE_CUTOFF = 1 << 22

# (module, attribute) sites wrapped inside the package, beyond the names
# pipeline imports.
INNER_SITES = (
    ("seatcheck.codebooks", "train_kmeans"),
    ("seatcheck.encoders", "posteriors"),
    ("seatcheck.dpm_face", "compute_hog"),
    ("seatcheck.dpm_face", "infer_best"),
)

MODULES = (
    "pipeline",
    "synthetic",
    "imagecore",
    "dense_descriptors",
    "pca_reduce",
    "codebooks",
    "encoders",
    "linear_classifier",
    "eval_metrics",
    "dpm_face",
    "store",
)


@dataclass
class Span:
    name: str  # "<module>.<function>"
    parent: int  # index into Tracer.spans; -1 for a root
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Keeps spans in memory; ``phase`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        observe = OBSERVERS.get(fn.__name__)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, parent, self.phase, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.dur
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = observe(result, **bound.arguments)
            return result

        return traced


class Untraced:
    """Stand-in for Tracer in untraced runs: records nothing, wraps nothing."""

    phase = "setup"

    @staticmethod
    def wrap(fn):
        return fn


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the call sites listed in the module docstring for the duration."""
    pipeline = importlib.import_module("seatcheck.pipeline")
    sites = [
        (pipeline, name)
        for name, obj in vars(pipeline).items()
        if inspect.isfunction(obj)
        and obj.__module__ != pipeline.__name__
        and obj.__module__.startswith("seatcheck.")
    ]
    sites += [(importlib.import_module(m), name) for m, name in INNER_SITES]
    saved = []
    try:
        for mod, name in sites:
            fn = getattr(mod, name)
            saved.append((mod, name, fn))
            setattr(mod, name, tracer.wrap(fn))
        yield
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


# --- counts read at the boundaries -------------------------------------------


def _side(nkd: int) -> str:
    return "naive" if nkd <= NAIVE_CUTOFF else "matmul"


def _extract(result, pyr, patch, stride, source_id):
    windows = 0
    for lv in pyr.levels:
        windows += ((lv.height - patch) // stride + 1) * ((lv.width - patch) // stride + 1)
    return {
        "descriptors": len(result),
        "zero": int((~result.vectors.any(axis=1)).sum()),
        # float64 (windows, 8 orientations, patch, patch) copy made per image
        "window_bytes": windows * 8 * patch * patch * 8,
    }


def _posteriors(result, gmm, x):
    n = x.shape[0] if x.ndim == 2 else 1
    nkd = n * gmm.K * gmm.d
    return {"nkd": nkd, "side": _side(nkd)}


def _kmeans(result, data, K, seed, max_iter):
    sweeps = len(result.sse_history)
    nkd = data.shape[0] * K * data.shape[1]
    return {
        "sweeps": sweeps,
        "at_cap": sweeps >= max_iter,
        "samples": data.shape[0],
        "nkd": nkd,
        "side": _side(nkd),
    }


def _gmm(result, data, K, seed, max_iter, tol, trace):
    h = result.loglik_history
    dll = h[-1] - h[-2] if len(h) >= 2 else 0.0
    return {
        "iters": len(h),
        "at_cap": len(h) >= max_iter and not dll < tol,
        "final_dll": dll,
        "samples": data.shape[0],
    }


def _encode(result, ds, normalize, cb=None, gmm=None):
    q = gmm if cb is None else cb
    nkd = len(ds) * q.K * q.d
    return {"nkd": nkd, "side": _side(nkd)}


def _infer(result, model, fmap):
    elems = 0
    for tree in model.mixtures:
        shapes = [(fmap.cells_y - t.shape[0] + 1, fmap.cells_x - t.shape[1] + 1) for t in tree.templates]
        for e in tree.edges:
            (nyp, nxp), (nyc, nxc) = shapes[e.parent], shapes[e.child]
            elems += nyp * nxp * nyc * nxc
    return {"message_elems": elems}


def _save_model(result, model, path):
    return {"bytes": os.path.getsize(path)}


OBSERVERS = {
    "extract_dense": _extract,
    "posteriors": _posteriors,
    "train_kmeans": _kmeans,
    "train_gmm": _gmm,
    "encode_bow": _encode,
    "encode_vlad": _encode,
    "encode_fv": _encode,
    "infer_best": _infer,
    "save_model": _save_model,
}


# --- aggregation ---------------------------------------------------------------


def self_times(spans: list[Span], roots: list[int]) -> dict[str, float]:
    """Self time per module over the span trees under ``roots``."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)
    out = defaultdict(float)
    todo = list(roots)
    while todo:
        i = todo.pop()
        out[spans[i].module] += spans[i].self_s
        todo.extend(children[i])
    return dict(out)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every span of the run, as name -> (value, unit)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names):
        return sum(s.dur for n in names for s in by[n])

    def info(name, key):
        return [s.info[key] for s in by[name] if key in s.info]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    under_detect = [
        s for s in spans
        if s.parent >= 0 and spans[s.parent].name == "dpm_face.detect_occupancy"
    ]
    hog = [s for s in under_detect if s.name == "dpm_face.compute_hog"]
    infer = [s for s in under_detect if s.name == "dpm_face.infer_best"]
    encodes = ("encoders.encode_bow", "encoders.encode_vlad", "encoders.encode_fv")
    assigns = [s.info for n in encodes[:2] for s in by[n] if s.info]
    gmm_self = sum(s.self_s for s in by["codebooks.train_gmm"])

    descriptors = sum(info("dense_descriptors.extract_dense", "descriptors"))
    extract_s = total("dense_descriptors.extract_dense")
    em_iters = info("codebooks.train_gmm", "iters")
    sweeps = info("codebooks.train_kmeans", "sweeps")
    post = info("codebooks.posteriors", "side")
    m = {
        "dense_descriptors.extract_s": (extract_s, "s"),
        "dense_descriptors.descriptors": (descriptors, "count"),
        "dense_descriptors.descriptors_per_s": (ratio(descriptors, extract_s), "1/s"),
        "dense_descriptors.zero_descriptors": (sum(info("dense_descriptors.extract_dense", "zero")), "count"),
        "dense_descriptors.window_bytes_computed": (mean(info("dense_descriptors.extract_dense", "window_bytes")), "B"),
        "imagecore.build_pyramid_s": (total("imagecore.build_pyramid"), "s"),
        "codebooks.train_gmm_s": (total("codebooks.train_gmm"), "s"),
        "codebooks.em_iters": (sum(em_iters), "count"),
        "codebooks.em_s_per_iter": (ratio(gmm_self, sum(em_iters)), "s"),
        "codebooks.em_at_cap": (sum(info("codebooks.train_gmm", "at_cap")), "count"),
        "codebooks.em_final_dll": (mean(info("codebooks.train_gmm", "final_dll")), "nat"),
        "codebooks.train_kmeans_s": (total("codebooks.train_kmeans"), "s"),
        "codebooks.lloyd_sweeps": (sum(sweeps), "count"),
        "codebooks.lloyd_s_per_sweep": (ratio(total("codebooks.train_kmeans"), sum(sweeps)), "s"),
        "codebooks.lloyd_at_cap": (sum(info("codebooks.train_kmeans", "at_cap")), "count"),
        "codebooks.lloyd_nkd_computed": (mean(info("codebooks.train_kmeans", "nkd")), "elems"),
        "codebooks.vocab_samples": (
            mean(info("codebooks.train_gmm", "samples") + [
                s.info["samples"] for s in by["codebooks.train_kmeans"]
                if s.parent < 0 or spans[s.parent].name != "codebooks.train_gmm"
            ]),
            "count",
        ),
        "codebooks.posteriors_s": (total("codebooks.posteriors"), "s"),
        "codebooks.posteriors_nkd_computed": (mean(info("codebooks.posteriors", "nkd")), "elems"),
        "codebooks.posteriors_naive_calls": (post.count("naive"), "count"),
        "codebooks.posteriors_matmul_calls": (post.count("matmul"), "count"),
        "encoders.encode_s": (total(*encodes), "s"),
        "encoders.calls": (sum(len(by[n]) for n in encodes), "count"),
        "encoders.assign_nkd_computed": (mean([a["nkd"] for a in assigns]), "elems"),
        "encoders.assign_naive_calls": (sum(a["side"] == "naive" for a in assigns), "count"),
        "encoders.assign_matmul_calls": (sum(a["side"] == "matmul" for a in assigns), "count"),
        "dpm_face.detect_s": (total("dpm_face.detect_occupancy"), "s"),
        "dpm_face.compute_hog_s": (sum(s.dur for s in hog), "s"),
        "dpm_face.infer_best_s": (sum(s.dur for s in infer), "s"),
        "dpm_face.build_model_s": (total("dpm_face.build_synthetic_face_model"), "s"),
        "dpm_face.levels_skipped": (sum(s.error == "DataError" for s in under_detect), "count"),
        "dpm_face.message_elems_computed": (mean([s.info["message_elems"] for s in infer if s.info]), "elems"),
        "pca_reduce.fit_s": (total("pca_reduce.fit_pca"), "s"),
        "pca_reduce.project_s": (total("pca_reduce.project_set", "pca_reduce.project"), "s"),
        "linear_classifier.train_svm_s": (total("linear_classifier.train_svm"), "s"),
        "linear_classifier.score_s": (total("linear_classifier.score"), "s"),
        "eval_metrics.roc_curve_s": (total("eval_metrics.roc_curve"), "s"),
        "eval_metrics.best_threshold_s": (total("eval_metrics.best_threshold"), "s"),
        "eval_metrics.accuracy_vs_yield_s": (total("eval_metrics.accuracy_vs_yield"), "s"),
        "store.save_model_s": (total("store.save_model"), "s"),
        "store.load_model_s": (total("store.load_model"), "s"),
        "store.model_bytes": (mean(info("store.save_model", "bytes")), "B"),
        "synthetic.generate_s": (total("synthetic.generate_synthetic"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    selfs = self_times(spans, roots)
    for mod in MODULES:
        m[f"{mod}.self_s"] = (selfs.get(mod, 0.0), "s")
    return m
