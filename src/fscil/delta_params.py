"""Per-session delta parameters: trainable key/value prefixes for attention.

A session's prefix of total length L_p is split into key and value halves
of L_p/2 rows per encoder layer, held as two (L, L_p/2, d) tensors p_K and
p_V.  During a layer's attention its rows are prepended to the token keys
and values while queries stay intact, so the output keeps the plain n x d
shape and every attention row spans n + L_p/2 columns; an empty prefix has
zero rows and leaves attention as it is.  The backbone stays frozen; only
prefixes (and the new classifier rows) train during a session, each step a
closed-form loss and gradient (`session_gradients`) on the
batch-norm-folded encoder, with no autodiff graph.
"""

from __future__ import annotations

import numpy as np

from .backbone import Encoder, FoldedEncoder, hash_state
from .errors import ArgumentError, ContractViolation
from .numerics import SeededRng, Tensor, flat_views, no_grad
from .optim import ReduceOnPlateau, make_optimizer, run_epochs
from .stochastic_classifier import head_loss

PREFIX_INIT_RANGE = 0.02
INC_PLATEAU_PATIENCE, INC_PLATEAU_FACTOR, INC_MIN_LR = 5, 0.25, 0.0  # session lr: cut by the factor after 5 flat epochs


class PrefixSet:
    """A session's prefixes: `p_k` and `p_v`, each one (L, L_p/2, d) tensor with
    layer i's rows at [i].  Layer i's rows are drawn from
    `rng.child(f"layer{i}", role)`, or are zeros without an `rng`."""

    def __init__(self, layers: int, prefix_len: int, dim: int, rng: SeededRng | None = None):
        if prefix_len < 0 or prefix_len % 2 != 0:
            raise ArgumentError(f"total prefix length must be even and non-negative, got {prefix_len}")
        shape = (layers, prefix_len // 2, dim)

        def init(role):
            if rng is None:
                return np.zeros(shape)
            rows = [rng.child(f"layer{i}", role).uniform(-PREFIX_INIT_RANGE, PREFIX_INIT_RANGE, size=shape[1:]) for i in range(layers)]
            return np.array(rows).reshape(shape)

        self.p_k, self.p_v = (Tensor(init(role), requires_grad=True) for role in "kv")

    def layer_kv(self, layer: int):
        """(p_K, p_V) rows of one layer, each (L_p/2, d); (0, d) for an empty prefix."""
        return self.p_k[layer], self.p_v[layer]

    def params(self) -> dict:
        return {"p_k": self.p_k, "p_v": self.p_v}


def trainable_fraction(prefixes: PrefixSet, head_params: list, encoder: Encoder) -> float:
    """Trained parameter count over total, for the session being trained."""
    trained = sum(p.size for p in prefixes.params().values()) + sum(p.size for p in head_params)
    total = trained + sum(p.size for p in encoder.params().values())
    return trained / total


def session_gradients(folded: FoldedEncoder, tokens: np.ndarray, labels: np.ndarray, prefix_kv, head, mu: np.ndarray, sigma: np.ndarray, eps, new_rows, grads: list) -> float:
    """Mean head cross-entropy of a batch of session tokens and its gradient, without a graph.

    `tokens` (B, n, d) run through the folded frozen encoder with the
    prefixes `prefix_kv` = (p_K, p_V), each an (L, L_p/2, d) array; `mu`
    and `sigma` are all M head rows as (M, d) arrays and `eps` the batch's
    (M, d) draw, or None when the noise is off.  The loss is the head's
    `head_loss`.  Writes its gradient with respect to p_K, p_V, the
    `new_rows` of `mu` and (when there is noise) those of `sigma` into
    `grads`, in that order; old rows get none, and the encoder runs
    backwards only when the prefixes have rows.  Returns the loss.
    """
    cache = [] if prefix_kv[0].size else None
    z = folded.forward(tokens, prefix_kv, cache)
    loss, grad = head_loss(z, mu, sigma, eps, labels, head.offset, head.temperature)
    g_z, g_mu, g_sigma = grad(1.0, new_rows, want_z=cache is not None)
    grads[2][...] = g_mu
    if g_sigma is not None:
        grads[3][...] = g_sigma
    if cache is not None:
        grads[0][...], grads[1][...] = folded.backward(g_z, cache)
    return float(loss)


def train_session(
    data_x: np.ndarray,
    data_y: np.ndarray,
    encoder: Encoder,
    head,
    prefixes: PrefixSet,
    new_rows: list,
    config,
    rng: SeededRng,
    log=None,
    session: int = 0,
):
    """Train the session's prefixes and the newly added head rows only.

    The backbone must come in frozen; a state hash of it and a copy of the
    pre-existing head rows guard that both leave the function unchanged.
    Each batch is one `session_gradients` call on the batch-norm-folded
    encoder and one optimizer step on a flat vector that lays p_K, p_V, the
    new `mu` rows and (with head noise) the new `sigma` rows end to end; the
    tensors get the trained values on return.
    `run_epochs` checks and logs each step's gradient norm.
    """
    if any(p.requires_grad for p in encoder.params().values()):
        raise ContractViolation("backbone must be frozen before a session is trained")
    frozen_hash = hash_state(encoder)
    old_rows = np.setdiff1d(np.arange(head.num_classes), new_rows)
    frozen_rows = [(t, t.data[old_rows]) for t in (head.mu, head.sigma)]

    noise = config.head_noise_train
    mu, sigma = head.mu.data.copy(), head.sigma.data.copy()
    trained = [prefixes.p_k, prefixes.p_v]
    init = [t.data for t in trained] + [mu[new_rows]] + ([sigma[new_rows]] if noise else [])
    theta = Tensor(np.concatenate([a.reshape(-1) for a in init]), requires_grad=True)
    grad = np.empty_like(theta.data)
    shapes = [a.shape for a in init]
    views, grads = flat_views(theta.data, shapes), flat_views(grad, shapes)
    opt = make_optimizer(config.optimizer, [{"params": [theta], "lr": config.inc_lr, "weight_decay": config.inc_weight_decay}])
    plateau = ReduceOnPlateau(opt, INC_PLATEAU_PATIENCE, INC_PLATEAU_FACTOR, INC_MIN_LR)

    encoder.eval()  # frozen backbone: running stats must not move
    epochs = config.inc_epochs_base if session == 0 else config.inc_epochs
    folded = FoldedEncoder(encoder)
    # prefixes enter after the tokenizer, and the frozen eval-mode tokenizer
    # maps each image on its own, so the session's tokens are computed once
    with no_grad():
        tokens = encoder.tokenize(Tensor(data_x)).data

    def step(idx, epoch, start):
        eps = head.draw(rng.child("eps", f"e{epoch}", f"b{start}")) if noise else None
        mu[new_rows] = views[2]
        if noise:
            sigma[new_rows] = views[3]
        loss = session_gradients(folded, tokens[idx], data_y[idx], views[:2], head, mu, sigma, eps, new_rows, grads)
        theta.grad = grad
        opt.step()
        return loss

    run_epochs(opt, len(data_x), config.inc_batch_size, epochs, rng, step, log, "incremental", session, plateau=plateau)
    for t, value in zip(trained, views):
        t.data = value.copy()
    head.mu.data[new_rows] = views[2]
    if noise:
        head.sigma.data[new_rows] = views[3]

    if hash_state(encoder) != frozen_hash:
        raise ContractViolation("frozen backbone parameters changed during session training")
    if not all(np.array_equal(t.data[old_rows], rows, equal_nan=True) for t, rows in frozen_rows):
        raise ContractViolation("frozen classifier rows changed during session training")
    return prefixes, head
