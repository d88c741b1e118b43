#!/usr/bin/env python3
"""The compact transformer backbone, step by step.

Patch tokenization (no class token, no positional embedding),
batch-norm encoder blocks, prefix-augmented attention, and sequence pooling.
"""

from fscil.backbone import BackboneConfig, Encoder
from fscil.delta_params import PrefixSet
from fscil.numerics import SeededRng, Tensor

# The tokenizer embeds non-overlapping patches: 4x4 patches tile a 28x28
# image as a 7x7 grid, one token per patch.
cfg = BackboneConfig(image_size=28, conv_channels=(32,), patch_size=4, embed_dim=32, layers=2, heads=4, ffn_hidden=64)
print("tokens per image:", cfg.token_count())
print("leading-order multiplies per image:", cfg.flop_estimate())

rng = SeededRng(7)
encoder = Encoder(cfg, rng).eval()
images = Tensor(rng.child("imgs").normal(size=(2, 1, 28, 28)))
tokens = encoder.tokenize(images)
print("token sequence:", tokens.shape)

# Attention maps are row-stochastic: each token's weights sum to one.
out, maps = encoder.blocks[0].attention(tokens)
print("attention maps (heads, batch, n, n):", maps.shape, "row sums ~", maps.sum(axis=-1).round(9).min())

# Prefixes lengthen only the key/value side; the output shape is unchanged.
prefixes = PrefixSet(layers=cfg.layers, prefix_len=8, dim=cfg.embed_dim, rng=rng.child("prefix"))
print("prefix tensors p_K, p_V (layers, L_p/2, d):", prefixes.p_k.shape, prefixes.p_v.shape)
pre_out, pre_maps = encoder.blocks[0].attention(tokens, prefix_kv=prefixes.layer_kv(0))
print("with prefixes: output", pre_out.shape, "- attention rows now span", pre_maps.shape[-1], "columns")

# The pooled feature is one learned projection of the flattened token grid.
z = encoder.forward(images)
print("pooled feature:", z.shape)
