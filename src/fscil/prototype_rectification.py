"""Prototype rectification via per-session prediction networks.

Few-shot prototypes are biased estimates of the true class means.  A small
network is trained (MSE) to map class members - drawn from the most distant
members of each class, optionally enriched with pseudo-labeled test-pool
embeddings - onto their class prototype.  At inference the network's output
is averaged with the raw prototype, and the session's Gaussian statistics
are re-estimated around the refined means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .backbone import Linear
from .errors import ArgumentError
from .numerics import SeededRng, Tensor, gelu, mlp_mse, no_grad
from .optim import make_optimizer, run_epochs
from .task_inference import ClassGaussian, select_class_batch


@dataclass
class OutlierPairs:
    """(input embedding, target prototype) training pairs for one session."""

    inputs: np.ndarray
    targets: np.ndarray
    per_class: int

    def __len__(self):
        return len(self.inputs)


class PredictionNet:
    """P: R^D -> R^D; `depth` counts linear layers (1 = purely linear)."""

    def __init__(self, dim: int, session: int, rng: SeededRng, depth: int = 2, hidden: int | None = None):
        if depth not in (1, 2):
            raise ArgumentError(f"prediction net depth must be 1 or 2, got {depth}")
        self.dim = dim
        self.session = session
        self.depth = depth
        hidden = hidden or dim
        if depth == 1:
            self.layers = [Linear(rng.child("l0"), dim, dim, bias=True, std=1.0 / np.sqrt(dim))]
        else:
            self.layers = [
                Linear(rng.child("l0"), dim, hidden, bias=True, std=1.0 / np.sqrt(dim)),
                Linear(rng.child("l1"), hidden, dim, bias=True, std=1.0 / np.sqrt(hidden)),
            ]

    def __call__(self, x: Tensor) -> Tensor:
        """The composed forward graph; training uses the fused `mlp_mse` loss."""
        out = self.layers[0](x)
        if self.depth == 2:
            out = self.layers[1](gelu(out))
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The net's output for an array of embeddings; builds no graph."""
        with no_grad():
            return self(Tensor(np.asarray(x, dtype=float))).data

    def params(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"layers.{i}"))
        return out

    @classmethod
    def identity(cls, dim: int, session: int = 0) -> "PredictionNet":
        """Exact identity map (linear variant), handy as a fixed point."""
        net = cls(dim, session, SeededRng(0), depth=1)
        net.layers[0].weight.data = np.eye(dim)
        net.layers[0].bias.data = np.zeros(dim)
        return net


def estimate_intra_class_bias(full_embeddings: np.ndarray, fewshot_embeddings: np.ndarray) -> np.ndarray:
    """mean(full population) - mean(few-shot subset): the bias rectification corrects.

    A diagnostic for planted-bias experiments (demos/05 reports it); the
    protocol never knows the full population, so it does not call this.
    """
    full = np.asarray(full_embeddings, dtype=float)
    few = np.asarray(fewshot_embeddings, dtype=float)
    if len(full) == 0 or len(few) == 0:
        raise ArgumentError("bias estimate needs non-empty sample sets")
    return full.mean(axis=0) - few.mean(axis=0)


def select_outlier_pairs(embeddings: np.ndarray, prototype: np.ndarray, n_outliers: int, lenient: bool = False) -> OutlierPairs:
    """The `n_outliers` class members farthest (euclidean) from the prototype,
    each paired with the prototype as regression target."""
    embeddings = np.asarray(embeddings, dtype=float)
    prototype = np.asarray(prototype, dtype=float)
    if n_outliers > len(embeddings):
        if not lenient:
            raise ArgumentError(f"requested {n_outliers} outliers from a class of {len(embeddings)}")
        warnings.warn(f"clamping outlier count {n_outliers} to class size {len(embeddings)}")
        n_outliers = len(embeddings)
    dists = np.linalg.norm(embeddings - prototype, axis=1)
    order = np.argsort(-dists, kind="stable")[:n_outliers]
    inputs = embeddings[order]
    targets = np.broadcast_to(prototype, inputs.shape).copy()
    return OutlierPairs(inputs=inputs, targets=targets, per_class=n_outliers)


def merge_pairs(parts: list) -> OutlierPairs:
    parts = [p for p in parts if len(p)]
    if not parts:
        raise ArgumentError("no training pairs supplied")
    return OutlierPairs(
        inputs=np.concatenate([p.inputs for p in parts]),
        targets=np.concatenate([p.targets for p in parts]),
        per_class=parts[0].per_class,
    )


def pseudo_label(pool_embeddings: np.ndarray, gaussians: list, covariance, metric: str) -> np.ndarray:
    """Assign every pool embedding to its nearest class under `metric`.

    The assignments enrich prototypes and prediction-net targets only; they
    are never counted toward any reported accuracy.
    """
    pool_embeddings = np.asarray(pool_embeddings, dtype=float)
    if len(pool_embeddings) == 0:
        return np.array([], dtype=int)
    class_ids, _ = select_class_batch(pool_embeddings, gaussians, covariance, metric)
    return class_ids


def train_prediction_net(net: PredictionNet, pairs: OutlierPairs, config, rng: SeededRng, log=None, session: int = 0) -> PredictionNet:
    """Fit the net with MSE onto the (input, prototype) pairs."""
    if len(pairs) == 0:
        raise ArgumentError("prediction net needs at least one pair")
    opt = make_optimizer(config.optimizer, [{"params": list(net.params().values()), "lr": config.prednet_lr, "weight_decay": config.prednet_weight_decay}])

    weights = [t for layer in net.layers for t in (layer.weight, layer.bias)]

    def batch_loss(idx, epoch, start):
        return mlp_mse(pairs.inputs[idx], pairs.targets[idx], *weights)

    run_epochs(opt, len(pairs), config.prednet_batch_size, config.prednet_epochs, rng, batch_loss, log, "prediction_net", session)
    return net


def rectify_prototype(net: PredictionNet, prototype: np.ndarray) -> np.ndarray:
    """R(mu) = (P(mu) + mu) / 2."""
    prototype = np.asarray(prototype, dtype=float)
    if prototype.shape[-1] != net.dim:
        raise ArgumentError(f"prototype dim {prototype.shape[-1]} does not match net dim {net.dim}")
    return 0.5 * (net.apply(prototype) + prototype)


def refine_gaussian_stats(net: PredictionNet, embeddings: np.ndarray, labels: np.ndarray, gaussians: list):
    """Refined session statistics: means become R(mu) and the scatter is
    re-pooled from the net's outputs around the refined means."""
    embeddings = np.asarray(embeddings, dtype=float)
    labels = np.asarray(labels)
    if len(embeddings) != len(labels):
        raise ArgumentError("embeddings and labels length mismatch")
    refined = []
    by_class = {g.class_id: g for g in gaussians}
    dim = embeddings.shape[1]
    scatter = np.zeros((dim, dim))
    mapped = net.apply(embeddings)
    for cls in sorted(by_class):
        g = by_class[cls]
        new_mean = rectify_prototype(net, g.mean)
        refined.append(ClassGaussian(class_id=cls, session=g.session, mean=new_mean, count=g.count))
        rows = mapped[labels == cls]
        centered = rows - new_mean
        scatter += centered.T @ centered
    return refined, scatter / len(embeddings)
