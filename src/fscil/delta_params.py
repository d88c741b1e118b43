"""Per-session delta parameters: trainable key/value prefixes for attention.

A session's prefix tensor of total length L_p is split into key and value
halves p_K, p_V of L_p/2 rows each, per encoder layer.  During attention the
halves are prepended to the token keys and values while queries stay intact,
so the output keeps the plain n x d shape and every attention row spans
n + L_p/2 columns.  The backbone stays frozen; only prefixes (and the new
classifier rows) train during a session, each step a closed-form loss and
gradient (`session_gradients`) on the batch-norm-folded encoder, with no
autodiff graph.
"""

from __future__ import annotations

import numpy as np

from .backbone import Encoder, EncoderBlock, FoldedEncoder, hash_state
from .errors import ArgumentError, ContractViolation
from .numerics import SeededRng, Tensor, flat_views, no_grad
from .optim import ReduceOnPlateau, make_optimizer, run_epochs
from .stochastic_classifier import head_loss

PREFIX_INIT_RANGE = 0.02


class PrefixSet:
    """One (p_K, p_V) pair per encoder layer, owned by a single session."""

    def __init__(self, session: int, layers: int, prefix_len: int, dim: int, rng: SeededRng | None = None):
        if prefix_len % 2 != 0:
            raise ArgumentError(f"total prefix length must be even, got {prefix_len}")
        self.session = session
        self.prefix_len = prefix_len
        half = prefix_len // 2
        self.p_k: list[Tensor] = []
        self.p_v: list[Tensor] = []
        for i in range(layers):
            if rng is not None and half > 0:
                pk = rng.child(f"layer{i}", "k").uniform(-PREFIX_INIT_RANGE, PREFIX_INIT_RANGE, size=(half, dim))
                pv = rng.child(f"layer{i}", "v").uniform(-PREFIX_INIT_RANGE, PREFIX_INIT_RANGE, size=(half, dim))
            else:
                pk = np.zeros((half, dim))
                pv = np.zeros((half, dim))
            self.p_k.append(Tensor(pk, requires_grad=True))
            self.p_v.append(Tensor(pv, requires_grad=True))

    def layer_kv(self, layer: int):
        """(p_K, p_V) for one layer, or None when the prefix is empty."""
        if self.prefix_len == 0:
            return None
        return self.p_k[layer], self.p_v[layer]

    def params(self) -> dict:
        out = {}
        for i in range(len(self.p_k)):
            out[f"p_k.{i}"] = self.p_k[i]
            out[f"p_v.{i}"] = self.p_v[i]
        return out


def prefix_mhsa(x: Tensor, block: EncoderBlock, prefixes: PrefixSet | None, layer: int = 0):
    """Attention with `prefixes` for `layer` prepended to keys and values.

    The one-block entry point, with the prefix width checked against the
    block; `Encoder.forward` hands `layer_kv` to its blocks itself, and the
    prefix tests and demos/02 call this.
    """
    kv = prefixes.layer_kv(layer) if prefixes is not None else None
    if kv is not None and kv[0].shape[-1] != block.cfg.embed_dim:
        raise ArgumentError(f"prefix dim {kv[0].shape[-1]} does not match embed dim {block.cfg.embed_dim}")
    return block.attention(x, prefix_kv=kv)


def trainable_fraction(prefixes: PrefixSet, head_params: list, encoder: Encoder) -> float:
    """Trained parameter count over total, for the session being trained."""
    trained = sum(p.size for p in prefixes.params().values()) + sum(p.size for p in head_params)
    total = trained + sum(p.size for p in encoder.params().values())
    return trained / total


def session_gradients(folded: FoldedEncoder, tokens: np.ndarray, labels: np.ndarray, prefix_kv: list, head, mu: np.ndarray, sigma: np.ndarray, eps, new_rows, grads: list) -> float:
    """Mean head cross-entropy of a batch of session tokens and its gradient, without a graph.

    `tokens` (B, n, d) run through the folded frozen encoder with each
    layer's `prefix_kv` (p_K, p_V) arrays (or None); `mu` and `sigma` are all
    M head rows as (M, d) arrays and `eps` the batch's (M, d) draw, or None
    when the noise is off.  The loss is the head's `head_loss`.  Writes its
    gradient with respect to each layer's p_K and p_V and to the `new_rows`
    of `mu` (and of `sigma` when there is noise) into `grads`, laid out in
    that order; old rows get none.  Returns the loss.
    """
    cache = []
    z = folded.forward(tokens, prefix_kv, cache)
    loss, grad = head_loss(z, mu, sigma, eps, labels, head.offset, head.temperature)
    n_pre = sum(2 for kv in prefix_kv if kv is not None)
    g_z, g_mu, g_sigma = grad(1.0, new_rows, want_z=n_pre > 0)
    grads[n_pre][...] = g_mu
    if g_sigma is not None:
        grads[n_pre + 1][...] = g_sigma
    if n_pre:
        for dst, src in zip(grads, (g for pair in folded.backward(g_z, cache) for g in pair)):
            dst[...] = src
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
    pre-existing head rows guard that both leave the function unchanged.  Each batch is one `session_gradients` call on the
    batch-norm-folded encoder and one optimizer step on a flat vector that
    lays the prefixes, the new `mu` rows and (with head noise) the new
    `sigma` rows end to end; the tensors get the trained values on return.
    `run_epochs` checks and logs each step's gradient norm.
    """
    if any(p.requires_grad for p in encoder.params().values()):
        raise ContractViolation("backbone must be frozen before a session is trained")
    frozen_hash = hash_state(encoder)
    old_rows = np.setdiff1d(np.arange(head.num_classes), new_rows)
    frozen_rows = [(t, t.data[old_rows]) for t in (head.mu, head.sigma)]

    noise = config.head_noise_train
    mu, sigma = head.mu.data.copy(), head.sigma.data.copy()
    trained = list(prefixes.params().values()) if prefixes.prefix_len else []
    n_pre = len(trained)
    init = [t.data for t in trained] + [mu[new_rows]] + ([sigma[new_rows]] if noise else [])
    theta = Tensor(np.concatenate([a.reshape(-1) for a in init]), requires_grad=True)
    grad = np.empty_like(theta.data)
    shapes = [a.shape for a in init]
    views, grads = flat_views(theta.data, shapes), flat_views(grad, shapes)
    prefix_kv = [tuple(views[i : i + 2]) if n_pre else None for i in range(0, 2 * len(encoder.blocks), 2)]
    opt = make_optimizer(config.optimizer, [{"params": [theta], "lr": config.inc_lr, "weight_decay": config.inc_weight_decay}])
    plateau = ReduceOnPlateau(opt, config.inc_plateau_patience, config.inc_plateau_factor, config.inc_min_lr)

    encoder.eval()  # frozen backbone: running stats must not move
    epochs = config.inc_epochs_base if session == 0 else config.inc_epochs
    folded = FoldedEncoder(encoder)
    # prefixes enter after the tokenizer, and the frozen eval-mode tokenizer
    # maps each image on its own, so the session's tokens are computed once
    with no_grad():
        tokens = encoder.tokenize(Tensor(data_x)).data

    def step(idx, epoch, start):
        eps_rng = rng.child("eps", f"e{epoch}", f"b{start}")
        eps = eps_rng.normal(size=mu.shape) if noise else None
        mu[new_rows] = views[n_pre]
        if noise:
            sigma[new_rows] = views[n_pre + 1]
        loss = session_gradients(folded, tokens[idx], data_y[idx], prefix_kv, head, mu, sigma, eps, new_rows, grads)
        theta.grad = grad
        opt.step()
        return loss

    run_epochs(opt, len(data_x), config.inc_batch_size, epochs, rng, step, log, "incremental", session, plateau=plateau)
    for t, value in zip(trained, views):
        t.data = value.copy()
    head.mu.data[new_rows] = views[n_pre]
    if noise:
        head.sigma.data[new_rows] = views[n_pre + 1]

    if hash_state(encoder) != frozen_hash:
        raise ContractViolation("frozen backbone parameters changed during session training")
    if not all(np.array_equal(t.data[old_rows], rows, equal_nan=True) for t, rows in frozen_rows):
        raise ContractViolation("frozen classifier rows changed during session training")
    return prefixes, head
