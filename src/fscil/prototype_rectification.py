"""Prototype rectification via per-session prediction networks.

Few-shot prototypes are biased estimates of the true class means.  In each
incremental session a small network is trained (MSE) to map class members -
the most distant members of each class, enriched with pseudo-labeled
test-pool embeddings - onto their class prototype.  The rectified prototype
averages the network's output with the raw one; it initializes the
session's new classifier rows, while routing keeps the raw statistics.

Training builds no autodiff graph: the net's weights and biases lie end to
end in one flat parameter vector, and each step writes the closed-form MSE
gradient into one flat buffer before an ordinary optimizer step.  The
gradient repeats the composed graph's arithmetic in its order, so trained
weights are bitwise those of backpropagating `PredictionNet.__call__`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backbone import Linear
from .errors import ArgumentError
from .numerics import SeededRng, Tensor, flat_views, gelu, gelu_cdf, gelu_grad, no_grad
from .optim import make_optimizer, run_epochs
from .task_inference import select_class_batch


@dataclass
class OutlierPairs:
    """(input embedding, target prototype) training pairs for one session."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return len(self.inputs)


class PredictionNet:
    """P: R^D -> R^D; `depth` counts linear layers (1 = purely linear)."""

    def __init__(self, dim: int, rng: SeededRng, depth: int = 2, hidden: int | None = None):
        if depth not in (1, 2):
            raise ArgumentError(f"prediction net depth must be 1 or 2, got {depth}")
        self.dim = dim
        self.depth = depth
        hidden = hidden or dim
        if depth == 1:
            self.layers = [Linear(rng.child("l0"), dim, dim, std=1.0 / np.sqrt(dim))]
        else:
            self.layers = [
                Linear(rng.child("l0"), dim, hidden, std=1.0 / np.sqrt(dim)),
                Linear(rng.child("l1"), hidden, dim, std=1.0 / np.sqrt(hidden)),
            ]

    def __call__(self, x: Tensor) -> Tensor:
        """The composed forward graph; training uses the closed-form step of `train_prediction_net`."""
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
    def identity(cls, dim: int) -> "PredictionNet":
        """Exact identity map (linear variant), handy as a fixed point."""
        net = cls(dim, SeededRng(0), depth=1)
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


def select_outlier_pairs(embeddings: np.ndarray, prototype: np.ndarray, n_outliers: int) -> OutlierPairs:
    """The `n_outliers` class members farthest (euclidean) from the prototype,
    each paired with the prototype as regression target."""
    embeddings = np.asarray(embeddings, dtype=float)
    prototype = np.asarray(prototype, dtype=float)
    if n_outliers > len(embeddings):
        raise ArgumentError(f"requested {n_outliers} outliers from a class of {len(embeddings)}")
    dists = np.linalg.norm(embeddings - prototype, axis=1)
    order = np.argsort(-dists, kind="stable")[:n_outliers]
    inputs = embeddings[order]
    targets = np.broadcast_to(prototype, inputs.shape).copy()
    return OutlierPairs(inputs=inputs, targets=targets)


def merge_pairs(parts: list) -> OutlierPairs:
    parts = [p for p in parts if len(p)]
    if not parts:
        raise ArgumentError("no training pairs supplied")
    return OutlierPairs(
        inputs=np.concatenate([p.inputs for p in parts]),
        targets=np.concatenate([p.targets for p in parts]),
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


def mse_gradients(x: np.ndarray, target: np.ndarray, params: list, grads: list) -> float:
    """Loss mean((net(x) - target)^2) of the net whose `params` are (w1, b1) or
    (w1, b1, w2, b2), as `PredictionNet.__call__` applies them; writes the
    loss's gradient with respect to each parameter into the matching array of
    `grads`.

    The backward takes the composed graph's steps in the same order (the
    mean's 1/n, the square's two equal halves, the bias sums over the batch),
    so the loss and every gradient are bitwise those of backpropagating the
    composed ops.
    """
    w1, b1 = params[:2]
    hidden = x @ w1 + b1
    out = hidden
    if len(params) == 4:
        w2, b2 = params[2:]
        cdf = gelu_cdf(hidden)
        act = hidden * cdf
        out = act @ w2 + b2
    diff = out - target
    inv_n = 1.0 / diff.size
    half = inv_n * diff
    g_out = half + half
    if len(params) == 4:
        g_out.sum(axis=0, out=grads[3])
        np.matmul(act.T, g_out, out=grads[2])
        g_out = gelu_grad(g_out @ w2.T, hidden, cdf)
    g_out.sum(axis=0, out=grads[1])
    np.matmul(x.T, g_out, out=grads[0])
    return float((diff * diff).sum() * inv_n)


def train_prediction_net(net: PredictionNet, pairs: OutlierPairs, config, rng: SeededRng, log=None, session: int = 0) -> PredictionNet:
    """Fit the net with MSE onto the (input, prototype) pairs.

    The layers' weights and biases train as one flat parameter vector (see
    the module docstring) and hold its trained values on return.
    """
    if len(pairs) == 0:
        raise ArgumentError("prediction net needs at least one pair")
    inputs = np.asarray(pairs.inputs, dtype=float)
    targets = np.asarray(pairs.targets, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != net.dim or targets.shape != inputs.shape:
        raise ArgumentError(f"prediction net of dim {net.dim} needs (N, {net.dim}) inputs and targets, got {inputs.shape} and {targets.shape}")
    tensors = [t for layer in net.layers for t in (layer.weight, layer.bias)]
    flat = np.concatenate([t.data.reshape(-1) for t in tensors])
    theta = Tensor(flat, requires_grad=True, dtype=flat.dtype)
    grad = np.empty_like(theta.data)
    shapes = [t.shape for t in tensors]
    params, grads = flat_views(theta.data, shapes), flat_views(grad, shapes)
    opt = make_optimizer(config.optimizer, [{"params": [theta], "lr": config.prednet_lr, "weight_decay": config.prednet_weight_decay}])

    def step(idx, epoch, start):
        loss = mse_gradients(inputs[idx], targets[idx], params, grads)
        theta.grad = grad
        opt.step()
        return loss

    run_epochs(opt, len(pairs), config.prednet_batch_size, config.prednet_epochs, rng, step, log, "prediction_net", session)
    for t, trained in zip(tensors, params):
        t.data = trained.copy()
    return net


def rectify_prototype(net: PredictionNet, prototype: np.ndarray) -> np.ndarray:
    """R(mu) = (P(mu) + mu) / 2."""
    prototype = np.asarray(prototype, dtype=float)
    if prototype.shape[-1] != net.dim:
        raise ArgumentError(f"prototype dim {prototype.shape[-1]} does not match net dim {net.dim}")
    return 0.5 * (net.apply(prototype) + prototype)


def refine_gaussian_stats(net: PredictionNet, gaussians: list) -> list:
    """The session's Gaussians with each mean replaced by R(mu); class id,
    session and count are unchanged."""
    return [replace(g, mean=rectify_prototype(net, g.mean)) for g in gaussians]
