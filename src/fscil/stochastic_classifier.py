"""Stochastic cosine classifier.

Each class owns a weight distribution, row m of the (M, d) `mu` and `sigma`
tensors; a concrete weight vector is drawn with the reparameterization
phi = mu + eps (*) softplus(sigma - c), eps ~ N(0, 1), so gradients flow into
both mu and sigma.  One (M, d) draw from the batch's rng gives eps for every
class, and the whole (M, d) weight matrix is one graph node (with the noise
off it is the `mu` leaf itself).  Scores are temperature-scaled cosine
similarities between the sampled weight and the feature (for a batch, one
`cosine_logits` node), turned into class probabilities by a softmax.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError
from .numerics import SeededRng, Tensor, cosine_logits, l2_normalize, softmax, stochastic_weights

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

    def _eps(self, rows: int, rng: SeededRng | None, noise: bool, frozen_eps) -> np.ndarray | None:
        """(rows, dim) standard-normal draw, or None when noise is off.

        One `rng.normal(size=(rows, dim))` call fills the rows in order, so
        row m is the same for a given rng whatever the number of classes.
        """
        if not noise:
            return None
        if frozen_eps is not None:
            return np.asarray(frozen_eps, dtype=float).reshape(rows, self.dim)
        if rng is None:
            raise ArgumentError("noise=True needs an rng or a frozen eps")
        return rng.normal(size=(rows, self.dim))

    def sample_weights(self, class_index: int, rng: SeededRng | None = None, noise: bool = True, frozen_eps: np.ndarray | None = None) -> Tensor:
        """phi_m = mu_m + eps (*) softplus(sigma_m - c); phi = mu when noise is off.

        `frozen_eps` fixes the draw so the sampling path stays deterministic
        for gradient checking.  Training draws all rows at once through
        `logits`; this one-row draw is what the Monte-Carlo moment tests and
        demos/03 sample the reparameterization with.
        """
        if not 0 <= class_index < self.num_classes:
            raise ArgumentError(f"class index {class_index} out of range (M={self.num_classes})")
        eps = self._eps(1, rng, noise, frozen_eps)
        return stochastic_weights(self.mu[class_index], self.sigma[class_index], None if eps is None else eps[0], self.offset)

    def logits(self, z: Tensor, rng: SeededRng | None = None, noise: bool = False, frozen_eps: np.ndarray | None = None) -> Tensor:
        """eta * <phi_hat_m, z_hat> for every class; z may be (d,) or (B, d)."""
        if self.num_classes == 0:
            raise ArgumentError("head has no classes")
        zdata = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=float)
        if np.any(np.linalg.norm(np.atleast_2d(zdata), axis=-1) == 0.0):
            raise DomainError("class probabilities undefined for zero feature vectors")
        z = z if isinstance(z, Tensor) else Tensor(z)
        weights = stochastic_weights(self.mu, self.sigma, self._eps(self.num_classes, rng, noise, frozen_eps), self.offset)
        if z.ndim == 2:
            return cosine_logits(z, weights, self.temperature)
        cos = l2_normalize(z, axis=-1) @ l2_normalize(weights, axis=-1).swapaxes(-1, -2)
        return cos * self.temperature

    def class_probs(self, z: Tensor, rng: SeededRng | None = None, noise: bool = False, frozen_eps: np.ndarray | None = None) -> Tensor:
        """P(Y=m | x): softmax over temperature-scaled cosine scores."""
        return softmax(self.logits(z, rng=rng, noise=noise, frozen_eps=frozen_eps), axis=-1)

    def predict_label(self, z, rng: SeededRng | None = None, noise: bool = False):
        """argmax class; ties break toward the lowest class index."""
        probs = self.class_probs(z, rng=rng, noise=noise).data
        return int(np.argmax(probs)) if probs.ndim == 1 else np.argmax(probs, axis=-1)

    def params(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma}


def init_means_from_prototypes(head: StochasticHead, prototypes: dict) -> StochasticHead:
    """Extend `head` with rows for new classes, means set to the prototypes.

    `prototypes` maps a global class id to its prototype vector; ids must be
    new to the head and are appended in sorted order.  Existing rows are
    left bitwise untouched.
    """
    for cls in sorted(prototypes):
        head.add_class(np.asarray(prototypes[cls], dtype=float))
    return head
