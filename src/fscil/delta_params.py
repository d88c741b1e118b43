"""Per-session delta parameters: trainable key/value prefixes for attention.

A session's prefix tensor of total length L_p is split into key and value
halves p_K, p_V of L_p/2 rows each, per encoder layer.  During attention the
halves are prepended to the token keys and values while queries stay intact,
so the output keeps the plain n x d shape and every attention row spans
n + L_p/2 columns.  The backbone stays frozen; only prefixes (and the new
classifier rows) train during a session.
"""

from __future__ import annotations

import numpy as np

from .backbone import Encoder, EncoderBlock, hash_state
from .errors import ArgumentError, ContractViolation
from .numerics import SeededRng, Tensor, no_grad
from .optim import ReduceOnPlateau, backprop_step, make_optimizer, run_epochs

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

    def set_requires_grad(self, flag: bool):
        for p in self.params().values():
            p.requires_grad = flag


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

    The backbone and all pre-existing head rows must come in frozen; a state
    hash of the backbone and a copy of those rows guard that they leave the
    function unchanged.
    """
    if any(p.requires_grad for p in encoder.params().values()):
        raise ContractViolation("backbone must be frozen before a session is trained")
    frozen_hash = hash_state(encoder)
    old_rows = [m for m in range(head.num_classes) if m not in new_rows]
    frozen_rows = [(head.mu[m].data.copy(), head.sigma[m].data.copy()) for m in old_rows]

    head.set_requires_grad(False)
    head.set_requires_grad(True, classes=new_rows)
    prefixes.set_requires_grad(True)
    trainable = list(prefixes.params().values()) + [head.mu[m] for m in new_rows] + [head.sigma[m] for m in new_rows]
    opt = make_optimizer(config.optimizer, [{"params": trainable, "lr": config.inc_lr, "weight_decay": config.inc_weight_decay}])
    plateau = ReduceOnPlateau(opt, config.inc_plateau_patience, config.inc_plateau_factor, config.inc_min_lr)

    encoder.eval()  # frozen backbone: running stats must not move
    epochs = config.inc_epochs_base if session == 0 else config.inc_epochs
    from .base_trainer import cross_entropy_loss  # shared CE through the stochastic head

    # prefixes enter after the tokenizer, and the frozen eval-mode tokenizer
    # maps each image on its own, so the session's tokens are computed once
    with no_grad():
        tokens = encoder.tokenize(Tensor(data_x)).data

    def batch_loss(idx, epoch, start):
        z = encoder.encode(Tensor(tokens[idx]), prefixes=prefixes)
        return cross_entropy_loss(head, z, data_y[idx], rng.child("eps", f"e{epoch}", f"b{start}"), noise=config.head_noise_train)

    run_epochs(opt, len(data_x), config.inc_batch_size, epochs, rng, backprop_step(opt, batch_loss), log, "incremental", session, plateau=plateau)

    if hash_state(encoder) != frozen_hash:
        raise ContractViolation("frozen backbone parameters changed during session training")
    if not all(
        np.array_equal(head.mu[m].data, mu, equal_nan=True) and np.array_equal(head.sigma[m].data, sigma, equal_nan=True)
        for m, (mu, sigma) in zip(old_rows, frozen_rows)
    ):
        raise ContractViolation("frozen classifier rows changed during session training")
    return prefixes, head
