"""Compact patch-tokenizer transformer encoder with batch-norm.

The tokenizer transposes the (B, C, H, W) images to channels-last once,
embeds the patches of the (B, H, W, C) map (one unpadded `patch_size`-square
conv with stride `patch_size` and `embed_dim` output channels, as in ViT,
then a channel BN and ReLU; no max-pool drops input) and reshapes the grid
into a token sequence; no class token and no positional embedding are
added.  Every batch-norm normalizes the last axis.  Encoder blocks are
pre-norm residual blocks whose norms are batch-norm layers, and the FFN
carries one more BN between its two linear layers.  A final BN normalizes
the last block's tokens, and one learned (n d, d) projection of the
flattened tokens pools them into a single feature vector; it keeps where
each token sits in the grid, which an average over the tokens would lose.

No projection carries a bias; the batch-norm shifts play that role.  In eval
mode every batch-norm is a fixed scale and shift, so `FoldedEncoder` folds
each one into its neighbouring projection (or, for the final BN, one scale
and shift of the tokens before the pool); an eval-mode
`Encoder.encode` that needs no graph runs that folded forward.

A session's prefixes reach `Encoder.encode` as a `delta_params.PrefixSet`,
two (L, L_p/2, d) tensors p_K and p_V; layer i's attention prepends their
rows [i] to its keys and values.  `FoldedEncoder.forward` takes the two
arrays and its backward returns their gradients in the same layout.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError
from .numerics import SeededRng, Tensor, batch_norm, bn_scale_shift, conv2d, gelu, gelu_cdf, gelu_grad, merge_heads, needs_graph, relu, reshape, split_heads
from .numerics import attention as attention_node

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def trunc_normal(rng: SeededRng, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) clipped to two standard deviations."""
    return np.clip(rng.normal(size=shape, scale=std), -2 * std, 2 * std)


@dataclass
class BackboneConfig:
    image_size: int = 4
    in_channels: int = 1
    patch_size: int = 2
    embed_dim: int = 32
    layers: int = 2
    heads: int = 2
    ffn_hidden: int = 64

    def __post_init__(self):
        if self.layers < 0:
            raise ArgumentError(f"layers must be at least 0, got {self.layers}")
        if self.heads < 1:
            raise ArgumentError(f"heads must be at least 1, got {self.heads}")
        if self.embed_dim % self.heads != 0:
            raise ArgumentError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        self.grid_after_tokenizer()

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    def grid_after_tokenizer(self) -> int:
        """Side of the token grid: the patch conv divides the image side by `patch_size`."""
        side = self.image_size
        if self.patch_size < 1 or side % self.patch_size:
            raise ArgumentError(f"patch_size {self.patch_size} does not divide the {side}x{side} map")
        return side // self.patch_size

    def token_count(self) -> int:
        return self.grid_after_tokenizer() ** 2

    def flop_estimate(self) -> int:
        """Leading-order multiply count for one image forward pass."""
        n, d, dp = self.token_count(), self.embed_dim, self.ffn_hidden
        per_block = 4 * n * d * d + 2 * n * n * d + 2 * n * d * dp
        return self.layers * per_block + n * d * d


class BatchNorm:
    """Per-feature (last axis) scale/shift with running statistics."""

    def __init__(self, num_features: int):
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var, mode, eps=BN_EPS, momentum=BN_MOMENTUM)

    def scale_shift(self):
        """(s, t) of the eval-mode map x -> x * s + t."""
        return bn_scale_shift(self.gamma.data, self.beta.data, self.running_mean, self.running_var, BN_EPS)

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def buffers(self, prefix: str) -> dict:
        return {f"{prefix}.running_mean": self.running_mean, f"{prefix}.running_var": self.running_var}


class Linear:
    """Dense projection plus bias; init std defaults to the transformer setting."""

    def __init__(self, rng: SeededRng, in_dim: int, out_dim: int, std: float = 0.02):
        self.weight = Tensor(trunc_normal(rng, (in_dim, out_dim), std=std), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class ConvTokenizer:
    """Patch embedding producing the token sequence X in R^{n x d}.

    The (B, C, H, W) images are transposed once to channels-last; the patch
    conv, batch-norm and ReLU then work on the (B, H, W, C) map, and its
    grid cells, in row-major order, are the tokens.
    """

    def __init__(self, rng: SeededRng, cfg: BackboneConfig):
        self.cfg = cfg
        c, k = cfg.in_channels, cfg.patch_size
        w = rng.child("conv0").normal(size=(cfg.embed_dim, c, k, k))
        self.weight = Tensor(w / np.sqrt(c * k * k), requires_grad=True)
        self.norm = BatchNorm(cfg.embed_dim)

    def __call__(self, images: Tensor, mode: str) -> Tensor:
        x = images.swapaxes(1, 3).swapaxes(1, 2)  # (B, C, H, W) -> (B, H, W, C)
        x = relu(self.norm(conv2d(x, self.weight), mode))
        b, h, w, c = x.shape
        return reshape(x, (b, h * w, c))

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.conv0.weight": self.weight, **self.norm.params(f"{prefix}.bn0")}

    def buffers(self, prefix: str) -> dict:
        return self.norm.buffers(f"{prefix}.bn0")


class EncoderBlock:
    """Pre-norm residual block: BN -> MHSA -> add, BN -> FFN -> add."""

    def __init__(self, rng: SeededRng, cfg: BackboneConfig):
        self.cfg = cfg
        d, dk, h = cfg.embed_dim, cfg.head_dim, cfg.heads
        # (d, H, d_k): head i's (d, d_k) projection, drawn from its own stream, at [:, i]
        self.q, self.k, self.v = (
            Tensor(np.stack([trunc_normal(rng.child(f"{role}{i}"), (d, dk)) for i in range(h)], axis=1), requires_grad=True) for role in "qkv"
        )
        self.out_proj = Tensor(trunc_normal(rng.child("out"), (d, d)), requires_grad=True)
        self.theta1 = Tensor(trunc_normal(rng.child("ffn1"), (d, cfg.ffn_hidden)), requires_grad=True)
        self.theta2 = Tensor(trunc_normal(rng.child("ffn2"), (cfg.ffn_hidden, d)), requires_grad=True)
        self.attn_bn = BatchNorm(d)
        self.ffn_bn = BatchNorm(d)
        self.inner_bn = BatchNorm(cfg.ffn_hidden)

    def attention(self, x: Tensor, prefix_kv=None):
        """MHSA over tokens; keys/values optionally get prepended prefixes.

        Returns (output, attention maps), maps as a detached (H, ..., n,
        n + Lp/2) numpy array whose rows sum to 1.  All heads run in one
        fused graph node.
        """
        return attention_node(x, self.q, self.k, self.v, self.out_proj, prefix_kv)

    def ffn(self, x: Tensor, mode: str) -> Tensor:
        """theta2(gelu(BN(theta1 x)))."""
        return gelu(self.inner_bn(x @ self.theta1, mode)) @ self.theta2

    def norms(self) -> tuple:
        """(checkpoint name, BatchNorm) pairs."""
        return (("attn_bn", self.attn_bn), ("ffn_bn", self.ffn_bn), ("ffn_bn_mid", self.inner_bn))

    def __call__(self, x: Tensor, mode: str, prefix_kv=None):
        attn_out, maps = self.attention(self.attn_bn(x, mode), prefix_kv=prefix_kv)
        x = x + attn_out
        x = x + self.ffn(self.ffn_bn(x, mode), mode)
        return x, maps

    def params(self, prefix: str) -> dict:
        out = {f"{prefix}.q": self.q, f"{prefix}.k": self.k, f"{prefix}.v": self.v}
        out[f"{prefix}.out_proj"] = self.out_proj
        out[f"{prefix}.theta1"] = self.theta1
        out[f"{prefix}.theta2"] = self.theta2
        for name, bn in self.norms():
            out.update(bn.params(f"{prefix}.{name}"))
        return out

    def buffers(self, prefix: str) -> dict:
        out = {}
        for name, bn in self.norms():
            out.update(bn.buffers(f"{prefix}.{name}"))
        return out


class Encoder:
    """Full backbone: tokenizer -> L blocks -> final BN -> sequence pool."""

    def __init__(self, cfg: BackboneConfig, rng: SeededRng):
        self.cfg = cfg
        self.mode = "train"
        self.tokenizer = ConvTokenizer(rng.child("tokenizer"), cfg)
        self.blocks = [EncoderBlock(rng.child(f"block{i}"), cfg) for i in range(cfg.layers)]
        self.final_bn = BatchNorm(cfg.embed_dim)
        n_d = cfg.token_count() * cfg.embed_dim
        # fan-in scaled, as the tokenizer conv is, so z starts at a mean pool's scale
        self.pool_proj = Tensor(trunc_normal(rng.child("pool"), (n_d, cfg.embed_dim), std=1 / np.sqrt(n_d)), requires_grad=True)

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self

    def tokenize(self, images: Tensor) -> Tensor:
        if images.ndim == 3:
            images = reshape(images, (1,) + images.shape)
        if images.shape[-1] != self.cfg.image_size or images.shape[-2] != self.cfg.image_size:
            raise ArgumentError(f"expected {self.cfg.image_size}x{self.cfg.image_size} images, got {images.shape}")
        return self.tokenizer(images, self.mode)

    def _flat_width(self, tokens) -> int:
        """n d for (..., n, d) tokens; any other grid raises `ArgumentError`, as `pool_proj` cannot take it."""
        n, d = self.cfg.token_count(), self.cfg.embed_dim
        if tokens.shape[-2:] != (n, d):
            raise ArgumentError(f"sequence_pool expects (..., {n}, {d}) tokens, got shape {tokens.shape}")
        return n * d

    def sequence_pool(self, tokens: Tensor) -> Tensor:
        """tokens (..., n, d) -> z (..., d): the flattened tokens times `pool_proj`."""
        return reshape(tokens, tokens.shape[:-2] + (self._flat_width(tokens),)) @ self.pool_proj

    def forward(self, images: Tensor, prefixes=None, folded=None) -> Tensor:
        """images (B, C, H, W) -> pooled feature z (B, d)."""
        return self.encode(self.tokenize(images), prefixes, folded)

    def encode(self, tokens: Tensor, prefixes=None, folded=None) -> Tensor:
        """tokens (B, n, d) from `tokenize` -> pooled feature z (B, d): the blocks,
        with the `PrefixSet` `prefixes` (when given) prepended to each layer's
        keys and values, then the final BN and the sequence pool.

        An eval-mode forward that builds no graph (no gradient is enabled
        and needed for the tokens, a parameter or a prefix) runs
        `FoldedEncoder` instead of the composed ops: `folded`, a fold of
        this encoder's current weights that the caller reuses over several
        batches, or else one built here.  Prefixes other than two (L, m, d)
        tensors of this encoder's L and d raise `ArgumentError` on either
        path.
        """
        self._flat_width(tokens)  # the folded forward has no check of its own
        kv = [] if prefixes is None else [prefixes.p_k, prefixes.p_v]
        if kv and not (kv[0].shape == kv[1].shape and kv[0].ndim == 3 and kv[0].shape[::2] == (self.cfg.layers, self.cfg.embed_dim)):
            raise ArgumentError(f"prefixes must be two ({self.cfg.layers}, m, {self.cfg.embed_dim}) tensors, got {kv[0].shape} and {kv[1].shape}")
        if self.mode == "eval" and not needs_graph([tokens, *self.params().values(), *kv]):
            return Tensor((folded or FoldedEncoder(self)).forward(tokens.data, [t.data for t in kv] or None))
        x = tokens
        for i, block in enumerate(self.blocks):
            x, _ = block(x, self.mode, prefix_kv=None if prefixes is None else prefixes.layer_kv(i))
        return self.sequence_pool(self.final_bn(x, self.mode))

    def params(self) -> dict:
        out = self.tokenizer.params("tokenizer")
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"blocks.{i}"))
        out.update(self.final_bn.params("final_bn"))
        out["pool_proj"] = self.pool_proj
        return out

    def buffers(self) -> dict:
        out = self.tokenizer.buffers("tokenizer")
        for i, block in enumerate(self.blocks):
            out.update(block.buffers(f"blocks.{i}"))
        out.update(self.final_bn.buffers("final_bn"))
        return out

    def set_requires_grad(self, flag: bool):
        for p in self.params().values():
            p.requires_grad = flag


class FoldedEncoder:
    """The eval-mode `Encoder.encode` with every batch-norm folded into its neighbour.

    Each block's `attn_bn` folds into one (d, 3 H d_k) QKV projection plus a
    bias, with the attention scale 1/sqrt(d_k) in its query columns;
    `ffn_bn` and the inner BN fold into `theta1` plus a bias.  Prefixes are
    not normalized, so they keep the raw key and value weights.  The final
    BN is the eval-mode scale and shift x * s + t of the tokens, with the
    composed op's arithmetic, and the pool is one product of the flattened
    tokens with `pool_proj`.  The weights are a snapshot: fold again after
    the encoder changes.
    """

    def __init__(self, encoder: Encoder):
        cfg = encoder.cfg
        self.heads, self.dk = cfg.heads, cfg.head_dim
        self.blocks = []
        for block in encoder.blocks:
            w_q, w_k, w_v = (w.data.reshape(cfg.embed_dim, -1) for w in (block.q, block.k, block.v))
            s, t = block.attn_bn.scale_shift()
            w_qkv = np.concatenate([w_q / np.sqrt(self.dk), w_k, w_v], axis=1)
            s_f, t_f = block.ffn_bn.scale_shift()
            s_i, t_i = block.inner_bn.scale_shift()
            theta1 = block.theta1.data
            w1, b1 = s_f[:, None] * theta1 * s_i, (t_f @ theta1) * s_i + t_i
            self.blocks.append((s[:, None] * w_qkv, t @ w_qkv, w_k, w_v, block.out_proj.data, w1, b1, block.theta2.data))
        self.final = encoder.final_bn.scale_shift()
        self.pool = encoder.pool_proj.data

    def forward(self, tokens: np.ndarray, prefix_kv=None, cache: list | None = None) -> np.ndarray:
        """tokens (B, n, d) -> z (B, d); `prefix_kv` is the (p_K, p_V) pair of
        (L, L_p/2, d) arrays, layer i's rows at [i], or None for no prefixes.
        With a `cache` list, keeps what `backward` needs."""
        b, n, d = tokens.shape

        def prepend(rows, w, part):  # rows projected by w, before every sample's (B, H, n, dk) part
            pre = split_heads((rows @ w)[None], self.heads)
            return np.concatenate([np.broadcast_to(pre, (b,) + pre.shape[1:]), part], axis=2)

        x = tokens.reshape(b * n, d)
        for i, (w_qkv, b_qkv, w_k, w_v, w_o, w1, b1, w2) in enumerate(self.blocks):
            q, k, v = (x @ w_qkv + b_qkv).reshape(b, n, 3, self.heads, self.dk).transpose(2, 0, 3, 1, 4)
            if prefix_kv is not None:
                k, v = prepend(prefix_kv[0][i], w_k, k), prepend(prefix_kv[1][i], w_v, v)
            scores = q @ k.swapaxes(-1, -2)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            x = x + merge_heads(att @ v) @ w_o
            u = x @ w1 + b1
            cdf = gelu_cdf(u)
            if cache is not None:
                cache.append((q, k, v, att, u, cdf))
            x = x + (u * cdf) @ w2
        x = x * self.final[0]
        x += self.final[1]
        return x.reshape(b, n * d) @ self.pool

    def backward(self, g_z: np.ndarray, cache: list):
        """Gradients (g_pK, g_pV), each (L, L_p/2, d), of the prefixes of the
        forward that filled `cache`, from the gradient `g_z` of its output.

        Block 0 sends nothing further back (the tokens are constants), so
        its token Q/K/V gradients are never formed.
        """
        s = self.final[0]
        b, n = len(g_z), len(self.pool) // len(s)
        n_pre = cache[0][1].shape[2] - n
        g_pre = np.empty((2, len(self.blocks), n_pre, len(s)))
        g = (g_z @ self.pool.T).reshape(b * n, -1) * s
        for layer in reversed(range(len(self.blocks))):
            w_qkv, _, w_k, w_v, w_o, w1, _, w2 = self.blocks[layer]
            q, k, v, att, u, cdf = cache[layer]
            g = g + gelu_grad(g @ w2.T, u, cdf) @ w1.T
            g_heads = split_heads((g @ w_o.T).reshape(b, n, -1), self.heads)
            g_att = g_heads @ v.swapaxes(-1, -2)
            g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))
            keys = slice(None) if layer else slice(n_pre)
            g_k = g_scores[..., keys].swapaxes(-1, -2) @ q
            g_v = att[..., keys].swapaxes(-1, -2) @ g_heads
            # prefix rows are shared by the batch: their gradients sum over it
            g_pre[:, layer] = [merge_heads(gp[:, :, :n_pre].sum(axis=0, keepdims=True)) @ w.T for gp, w in ((g_k, w_k), (g_v, w_v))]
            if layer:
                g_qkv = np.stack([g_scores @ k, g_k[:, :, n_pre:], g_v[:, :, n_pre:]])  # (3, B, H, n, dk)
                g = g + g_qkv.transpose(1, 3, 0, 2, 4).reshape(b * n, -1) @ w_qkv.T
        return g_pre[0], g_pre[1]


# -- state: copying, hashing, saving and loading all use one name -> ndarray map


def state_arrays(model) -> dict:
    """Flat name -> ndarray map covering parameters and buffers."""
    out = {name: p.data for name, p in model.params().items()}
    if hasattr(model, "buffers"):
        out.update(model.buffers())
    return out


def _check_arrays(model, arrays: dict, prefix: str):
    for name, current in state_arrays(model).items():
        entry = arrays.get(prefix + name)
        if not isinstance(entry, np.ndarray) or entry.shape != current.shape:
            found = "no entry" if entry is None else f"shape {np.shape(entry)}"
            raise FormatError(f"state entry {prefix + name!r}: expected shape {current.shape}, found {found}")


def load_arrays(model, arrays: dict, prefix: str = ""):
    """Copy `arrays[prefix + name]` into every parameter and buffer of `model`.

    Names and shapes are all checked before anything is written, so a
    missing or mis-shaped entry raises `FormatError` and leaves `model`
    unchanged.  Entries the model does not have are ignored.
    """
    _check_arrays(model, arrays, prefix)
    for name, p in model.params().items():
        p.data = np.array(arrays[prefix + name], dtype=p.data.dtype)
    for name, buf in getattr(model, "buffers", dict)().items():
        buf[...] = arrays[prefix + name]


def hash_state(*models) -> str:
    """Digest of every parameter and buffer (names and bytes, in name order) of `models`."""
    digest = hashlib.sha256()
    for model in models:
        arrays = state_arrays(model)
        for name in sorted(arrays):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def save_state(path, models: dict, **arrays):
    """One `.npz` file of each model's arrays as `scope.name` plus `arrays` (`np.savez` adds a missing `.npz`)."""
    scoped = {f"{scope}.{name}": arr for scope, model in models.items() for name, arr in state_arrays(model).items()}
    np.savez(path, **scoped, **arrays)


def load_state(path, models: dict) -> dict:
    """Load a `save_state` file into the live `models`; returns every entry.

    Raises `FormatError`, and changes no model, when the file is not a
    readable `.npz` or an entry a model needs is missing or mis-shaped.
    """
    try:
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:  # TypeError: a bare .npy array
        raise FormatError(f"{path} is not a readable .npz state file: {exc}") from exc
    for scope, model in models.items():
        _check_arrays(model, arrays, f"{scope}.")
    for scope, model in models.items():
        load_arrays(model, arrays, f"{scope}.")
    return arrays
