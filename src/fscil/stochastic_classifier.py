"""Stochastic cosine classifier.

Each class owns a weight distribution, row m of the (M, d) `mu` and `sigma`
tensors; a concrete weight vector is drawn with the reparameterization
phi = mu + eps (*) softplus(sigma - c), eps ~ N(0, 1), so gradients flow into
both mu and sigma.  One (M, d) draw from the batch's rng,
`StochasticHead.draw`, gives eps for every class.  Scores are
temperature-scaled cosine similarities between the sampled weight and the
feature, turned into class probabilities by a softmax.  The training loss
is written once, as `head_loss`; the graph node `cross_entropy_loss` and
prefix sessions both call it.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError
from .numerics import SeededRng, Tensor, _result, expit, l2_normalize, no_grad, softmax, softplus

SOFTPLUS_OFFSET = 4.0  # hyper-parameter c; sigma starts at c so the initial noise scale is ln 2


class StochasticHead:
    """(M, dim) `mu` and `sigma` matrices: row m is class m's distribution."""

    def __init__(self, dim: int, temperature: float = 16.0, offset: float = SOFTPLUS_OFFSET):
        if temperature <= 0:
            raise ArgumentError(f"temperature must be positive, got {temperature}")
        self.dim = dim
        self.temperature = temperature
        self.offset = offset
        self.mu = Tensor(np.empty((0, dim)), requires_grad=True)
        self.sigma = Tensor(np.empty((0, dim)), requires_grad=True)

    @property
    def num_classes(self) -> int:
        return self.mu.shape[0]

    def add_class(self, mean: np.ndarray) -> int:
        """Append one row to `mu` (the mean) and `sigma` (c); existing rows are untouched."""
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (self.dim,):
            raise ArgumentError(f"prototype shape {mean.shape} does not match head dim {self.dim}")
        self.mu.data = np.concatenate([self.mu.data, mean[None]])
        self.sigma.data = np.concatenate([self.sigma.data, np.full((1, self.dim), self.offset)])
        self.mu.grad = self.sigma.grad = None
        return self.num_classes - 1

    def draw(self, rng: SeededRng) -> np.ndarray:
        """(M, dim) standard-normal eps in `mu`'s dtype, the only draw of head noise.

        One `rng.normal` call fills the rows in order, so row m is the same
        for a given rng whatever the number of classes.
        """
        return rng.normal(size=self.mu.shape).astype(self.mu.dtype, copy=False)

    def weights(self, eps: np.ndarray | None = None) -> Tensor:
        """phi = mu + eps (*) softplus(sigma - c) for every row; `mu` itself when `eps` is None.

        Class m's sample is row m.
        """
        return self.mu if eps is None else self.mu + eps * softplus(self.sigma - self.offset)

    def logits(self, z: Tensor, eps: np.ndarray | None = None) -> Tensor:
        """eta * <phi_hat_m, z_hat> for every class; z may be (d,) or (B, d).

        Composed of generic ops (`softplus`, `l2_normalize`, matmul); the
        logits are bitwise those that `head_loss` scores a batch with.
        """
        if self.num_classes == 0:
            raise ArgumentError("head has no classes")
        z = z if isinstance(z, Tensor) else Tensor(z)
        if np.any(np.linalg.norm(z.data, axis=-1) == 0.0):
            raise DomainError("class probabilities undefined for zero feature vectors")
        return (l2_normalize(z) @ l2_normalize(self.weights(eps)).swapaxes(-1, -2)) * self.temperature

    def class_probs(self, z: Tensor, eps: np.ndarray | None = None) -> Tensor:
        """P(Y=m | x): softmax over temperature-scaled cosine scores, without a graph."""
        with no_grad():
            return softmax(self.logits(z, eps), axis=-1)

    def predict_label(self, z, eps: np.ndarray | None = None):
        """argmax class; ties break toward the lowest class index."""
        probs = self.class_probs(z, eps).data
        return int(np.argmax(probs)) if probs.ndim == 1 else np.argmax(probs, axis=-1)

    def params(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma}

    def trained_params(self, noise: bool) -> list:
        """The tensors a loss gives gradients: `mu`, and `sigma` only with the noise on."""
        return [self.mu, self.sigma] if noise else [self.mu]


def _l2_rows(x: np.ndarray):
    """(row norms, rows divided by them), computed as `l2_normalize(x)` computes them."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True) + 1e-12)
    return norm, x / norm


def _l2_rows_grad(g: np.ndarray, x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient reaching `x` from the gradient `g` of x / norm, in the composed
    graph's order: the division's g / norm, then the norm's sqrt and sum, then
    the square's two equal halves, added in that order."""
    g_norm = (-g * x / (norm * norm)).sum(axis=-1, keepdims=True)
    half = np.broadcast_to(g_norm * 0.5 / norm, x.shape).copy() * x
    return g / norm + half + half


def head_loss(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray, eps, labels: np.ndarray, offset: float, temperature: float):
    """Mean cross-entropy of the head's cosine logits for the (B, d) batch `z` at `labels`.

    The (M, d) weights are mu + eps (*) softplus(sigma - offset), or `mu`
    when `eps` is None (noise off).  Returns `(loss, grad)`, where
    `grad(g, rows, want_z)` maps the loss's upstream gradient `g` to
    `(z's gradient or None, mu[rows]'s, sigma[rows]'s or None without
    noise)`.  The loss and, over all rows, the gradients are bitwise those of
    the composed graph `log_softmax_nll(head.logits(z, eps))`, whose steps the
    backward replays in order.
    """
    if not np.all(np.linalg.norm(z, axis=-1)):
        raise DomainError("class probabilities undefined for zero feature vectors")
    if eps is None:
        weights = mu
    else:
        shifted = sigma - offset
        weights = mu + eps * np.logaddexp(0.0, shifted)
    z_norm, zn = _l2_rows(z)
    w_norm, wn = _l2_rows(weights)
    logits = (zn @ wn.swapaxes(-1, -2)) * temperature
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    total = e.sum(axis=-1, keepdims=True)
    batch = np.arange(len(labels))
    loss = (np.log(total[:, 0]) - logits[batch, labels]).mean()

    def grad(g, rows=slice(None), want_z: bool = True):
        g_cos = e / total
        g_cos[batch, labels] -= 1.0
        g_cos = g_cos * (g / len(labels)) * temperature
        g_z = _l2_rows_grad(g_cos @ wn, z, z_norm) if want_z else None
        g_mu = _l2_rows_grad((zn.T @ g_cos[:, rows]).swapaxes(0, 1), weights[rows], w_norm[rows])
        return g_z, g_mu, None if eps is None else g_mu * eps[rows] * expit(shifted[rows])

    return loss, grad


def cross_entropy_loss(head: StochasticHead, z: Tensor, labels: np.ndarray, rng: SeededRng, noise: bool = True) -> Tensor:
    """`head_loss` of the (B, d) batch `z` under one (M, d) draw from `rng`, as one
    graph node whose parents are `z`, `head.mu` and, with noise, `head.sigma`."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    labels = np.asarray(labels)
    shapes_ok = z.shape[1:] == (head.dim,) and labels.shape == z.shape[:1] and labels.size and np.issubdtype(labels.dtype, np.integer)
    if not (shapes_ok and 0 <= labels.min() <= labels.max() < head.num_classes):
        raise ArgumentError(f"cross_entropy_loss expects (B, {head.dim}) features and B > 0 labels in [0, {head.num_classes}), got {z.shape} and {labels.shape} {labels.dtype}")
    eps = head.draw(rng) if noise else None
    loss, grad = head_loss(z.data, head.mu.data, head.sigma.data, eps, labels, head.offset, head.temperature)
    parents = (z, head.mu) if eps is None else (z, head.mu, head.sigma)

    def backward(g):
        for t, g_t in zip(parents, grad(g, want_z=z.requires_grad)):
            if t.requires_grad:
                t._accumulate(g_t)

    return _result(np.asarray(loss), parents, backward)


def init_means_from_prototypes(head: StochasticHead, prototypes: dict) -> StochasticHead:
    """Extend `head` with rows for new classes, means set to the prototypes.

    `prototypes` maps a global class id to its prototype vector; ids must be
    new to the head and are appended in sorted order.  Existing rows are
    left bitwise untouched.
    """
    for cls in sorted(prototypes):
        head.add_class(np.asarray(prototypes[cls], dtype=float))
    return head
