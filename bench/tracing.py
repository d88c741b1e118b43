"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces the functions listed in `_targets` at the place
where the program looks them up (a module attribute or a class method) with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory until `write()`.  Nothing in `src/` changes,
and `uninstall()` puts every original back.

A span's name is `<layer>.<what>`, the layer being the module of `fscil`
whose function ran.  Self time is a span's duration minus the durations of
its child spans, so the self times of a tree add up to its root.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from fscil import backbone, base_trainer, harness, numerics, optim, protocol, prototype_rectification, stochastic_classifier

PHASE_SPANS = (
    "base_trainer.train_base",
    "delta_params.train_session",
    "prototype_rectification.train",
    "prototype_rectification.pseudo_label",
    "prototype_rectification.refine",
    "base_trainer.embed_all",
    "task_inference.fit_class_stats",
    "task_inference.route",
    "harness.compute_metrics",
)
"""Spans that are called from `run_protocol` directly; the premise of each
workload names the one that should take the most time."""


def _batch(images) -> int:
    return images.shape[0] if images.ndim == 4 else 1


def _targets():
    """(owner, attribute, span name, counter hook) for every traced call.

    A hook gets (tracer, span index, args, result) after the call and may
    rename the span or add to the counters.
    """

    def count(key, size):
        return lambda tr, idx, a, out: tr.add(key, size(a))

    def forward(tr, idx, a, out):
        kind = "grad" if out.requires_grad else "nograd"
        tr.spans[idx][0] = f"backbone.forward_{kind}"
        tr.add(f"backbone.forward_{kind}_images", _batch(a[1]))

    return [
        (protocol, "run_protocol", "protocol.run_protocol", None),
        (protocol, "generate_blobs", "harness.generate_blobs", None),
        (harness, "build_fscil_splits", "harness.splits", None),
        (protocol, "compute_metrics", "harness.compute_metrics", None),
        (protocol, "train_base", "base_trainer.train_base", None),
        (protocol, "embed_all", "base_trainer.embed_all", count("base_trainer.embed_all_samples", lambda a: len(a[1]))),
        (base_trainer, "embed_all", "base_trainer.embed_all", count("base_trainer.embed_all_samples", lambda a: len(a[1]))),
        (base_trainer, "dino_step", "base_trainer.dino_step", None),
        (base_trainer, "crop_slots", "base_trainer.crop_slots", None),
        (base_trainer, "ema_update_teacher", "base_trainer.ema_update", None),
        (protocol, "train_session", "delta_params.train_session", None),
        (protocol, "fit_class_stats", "task_inference.fit_class_stats", None),
        (protocol, "select_class_batch", "task_inference.route", count("task_inference.routed_queries", lambda a: len(a[0]))),
        (prototype_rectification, "select_class_batch", "task_inference.route", count("task_inference.routed_queries", lambda a: len(a[0]))),
        (protocol, "train_prediction_net", "prototype_rectification.train", count("prototype_rectification.pairs", lambda a: len(a[1]))),
        (protocol, "pseudo_label", "prototype_rectification.pseudo_label", None),
        (protocol, "refine_gaussian_stats", "prototype_rectification.refine", None),
        (backbone.Encoder, "forward", "backbone.forward", forward),
        (backbone.Encoder, "tokenize", "backbone.tokenize", None),
        (backbone.Encoder, "sequence_pool", "backbone.pool", None),
        (backbone.EncoderBlock, "attention", "backbone.attention", None),
        (backbone.EncoderBlock, "ffn", "backbone.ffn", None),
        (backbone, "batch_norm", "backbone.batch_norm", None),
        (numerics.Tensor, "backward", "numerics.backward", None),
        (numerics.SeededRng, "child", "numerics.rng", None),
        (optim.Adam, "step", "optim.step", None),
        (optim.SGD, "step", "optim.step", None),
        (stochastic_classifier.StochasticHead, "logits", "stochastic_classifier.logits", None),
    ]


def graph_size(root) -> int:
    """Number of distinct tensors reachable from `root` through graph links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory spans `[name, start, end, parent index, run id]` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.graph_nodes: list[int] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, n: int):
        self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, idx, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, fn):
        tracer = self

        def backward(tensor, grad=None):
            with tracer.span("trace.graph_walk"):
                tracer.graph_nodes.append(graph_size(tensor))
            idx = tracer.open("numerics.backward")
            try:
                return fn(tensor, grad)
            finally:
                tracer.close(idx)

        backward.__wrapped__ = fn
        return backward

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapped = self._wrap_backward(original) if name == "numerics.backward" else self._wrap(original, name, hook)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, run_id: str) -> dict:
        """Inclusive seconds and call count per span name within one run."""
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, rid in self.spans:
            if rid == run_id:
                seconds[name] += end - start
                calls[name] += 1
        return {"seconds": dict(seconds), "calls": dict(calls)}

    def layer_self(self, run_id: str) -> dict:
        """Self seconds summed per layer (the span-name prefix)."""
        out: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[4] == run_id:
                out[span[0].split(".", 1)[0]] += own
        return dict(out)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": rid}) + "\n")


SELF_TIME_LAYERS = (
    "numerics",
    "backbone",
    "optim",
    "stochastic_classifier",
    "base_trainer",
    "delta_params",
    "task_inference",
    "prototype_rectification",
    "harness",
)


def layer_metrics(tracer: Tracer, run_id: str, flops_per_image: int, log_records: list, covariance, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    totals = tracer.totals(run_id)
    sec, calls = totals["seconds"], totals["calls"]
    counts = tracer.counts
    layer_self = tracer.layer_self(run_id)

    def s(name):
        return sec.get(name, 0.0)

    def epochs(phase):
        return sum(1 for r in log_records if r["phase"] == phase and r["key"] == "loss")

    forward_s = s("backbone.forward_grad") + s("backbone.forward_nograd")
    images = counts["backbone.forward_grad_images"] + counts["backbone.forward_nograd_images"]
    traced_run_s = s("protocol.run_protocol")
    out = {
        "numerics.backward_s": s("numerics.backward"),
        "numerics.backward_calls": calls.get("numerics.backward", 0),
        "numerics.graph_nodes_per_step": statistics.median(tracer.graph_nodes) if tracer.graph_nodes else 0,
        "numerics.graph_nodes_max": max(tracer.graph_nodes, default=0),
        "numerics.rng_streams": calls.get("numerics.rng", 0),
        "numerics.rng_s": s("numerics.rng"),
        # flop_estimate() is a computed multiply count per image, not a measured one
        "numerics.gflops": flops_per_image * images / forward_s / 1e9 if forward_s else 0.0,
        "backbone.forward_grad_s": s("backbone.forward_grad"),
        "backbone.forward_grad_images": counts["backbone.forward_grad_images"],
        "backbone.forward_nograd_s": s("backbone.forward_nograd"),
        "backbone.forward_nograd_images": counts["backbone.forward_nograd_images"],
        "backbone.tokenize_s": s("backbone.tokenize"),
        "backbone.attention_s": s("backbone.attention"),
        "backbone.ffn_s": s("backbone.ffn"),
        "backbone.batch_norm_s": s("backbone.batch_norm"),
        "backbone.pool_s": s("backbone.pool"),
        "optim.step_s": s("optim.step"),
        "optim.steps": calls.get("optim.step", 0),
        "stochastic_classifier.logits_s": s("stochastic_classifier.logits"),
        "stochastic_classifier.logits_calls": calls.get("stochastic_classifier.logits", 0),
        "base_trainer.train_base_s": s("base_trainer.train_base"),
        "base_trainer.ssl_epochs": epochs("ssl"),
        "base_trainer.supervised_epochs": epochs("supervised"),
        "base_trainer.dino_step_s": s("base_trainer.dino_step"),
        "base_trainer.crop_slots_s": s("base_trainer.crop_slots"),
        "base_trainer.ema_update_s": s("base_trainer.ema_update"),
        "base_trainer.embed_all_s": s("base_trainer.embed_all"),
        "base_trainer.embed_all_samples": counts["base_trainer.embed_all_samples"],
        "delta_params.train_session_s": s("delta_params.train_session"),
        "delta_params.epochs": epochs("incremental"),
        "task_inference.fit_class_stats_s": s("task_inference.fit_class_stats"),
        "task_inference.route_s": s("task_inference.route"),
        "task_inference.routed_queries": counts["task_inference.routed_queries"],
        "task_inference.covariance_cond": float(np.linalg.cond(covariance.matrix)) if covariance is not None else 0.0,
        "prototype_rectification.train_s": s("prototype_rectification.train"),
        "prototype_rectification.pairs": counts["prototype_rectification.pairs"],
        "prototype_rectification.pseudo_label_s": s("prototype_rectification.pseudo_label"),
        "prototype_rectification.refine_s": s("prototype_rectification.refine"),
        "harness.generate_blobs_s": s("harness.generate_blobs"),
        "harness.splits_s": s("harness.splits"),
        "harness.compute_metrics_s": s("harness.compute_metrics"),
        "protocol.self_s": layer_self.get("protocol", 0.0),
        "trace.overhead_frac": traced_run_s / untraced_run_s - 1.0,
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out


def phase_shares(tracer: Tracer, run_id: str) -> dict:
    """Inclusive seconds of each phase span as a share of `run_protocol`."""
    sec = tracer.totals(run_id)["seconds"]
    run = sec.get("protocol.run_protocol", 0.0)
    return {name: sec.get(name, 0.0) / run for name in PHASE_SPANS} if run else {}


# -- layer micro-timings --------------------------------------------------------


def _median_ms(calls) -> float:
    times = []
    for call in calls:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def kernel_timings(model_cfg, batch: int = 64, reps: int = 20, seed: int = 0) -> dict:
    """Forward and backward milliseconds of each layer on one batch.

    Each forward builds its own graph from fresh leaf tensors; the backward is
    seeded with ones on the layer output (or the scalar loss for the head).
    The layers are called through the `Encoder` and `EncoderBlock` methods
    that the encoder itself uses.
    """
    from fscil.backbone import Encoder
    from fscil.base_trainer import cross_entropy_loss
    from fscil.numerics import SeededRng, Tensor, batch_norm
    from fscil.stochastic_classifier import StochasticHead

    rng = SeededRng(seed).child("kernels")
    encoder = Encoder(model_cfg, rng.child("encoder")).train()
    block = encoder.blocks[0]
    side, d = model_cfg.image_size, model_cfg.embed_dim
    images = rng.child("images").normal(size=(batch, model_cfg.in_channels, side, side))
    tokens = rng.child("tokens").normal(size=(batch, model_cfg.token_count(), d))
    head = StochasticHead(d)
    for m in range(10):
        head.add_class(rng.child("mu", m).normal(size=d))
    features = rng.child("features").normal(size=(batch, d))
    labels = np.arange(batch) % head.num_classes
    gamma, beta = Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True)
    running_mean, running_var = np.zeros(d), np.ones(d)

    kernels = {
        "tokenizer": lambda: encoder.tokenize(Tensor(images, requires_grad=True)),
        "attention": lambda: block.attention(Tensor(tokens, requires_grad=True))[0],
        "ffn": lambda: block.ffn(Tensor(tokens, requires_grad=True), "train"),
        "batch_norm": lambda: batch_norm(Tensor(tokens, requires_grad=True), gamma, beta, running_mean, running_var, "train"),
        "head_ce": lambda: cross_entropy_loss(head, Tensor(features, requires_grad=True), labels, rng.child("eps"), noise=True),
    }
    out = {}
    for name, forward in kernels.items():
        forward()  # first call pays one-off allocation
        out[f"kernel.{name}.fwd_ms"] = _median_ms([forward] * reps)
        graphs = [forward() for _ in range(reps)]
        out[f"kernel.{name}.bwd_ms"] = _median_ms([lambda g=g: g.backward(np.ones_like(g.data)) for g in graphs])
    return out
