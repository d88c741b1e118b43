"""Backbone tests: tokenizer geometry, attention/FFN oracles, full-block grads, state files."""

import copy

import numpy as np
import pytest

from fscil.backbone import BackboneConfig, Encoder, hash_state, load_arrays, load_state, save_state, state_arrays
from fscil.delta_params import PrefixSet
from fscil.errors import ArgumentError, FormatError
from fscil.numerics import SeededRng, Tensor, gelu, grad_check, no_grad
from fscil.stochastic_classifier import StochasticHead


def small_cfg(**kw):
    base = dict(
        image_size=4,
        conv_channels=(8,),
        patch_size=1,
        embed_dim=8,
        layers=1,
        heads=2,
        ffn_hidden=12,
    )
    base.update(kw)
    return BackboneConfig(**base)


# -- tokenizer geometry ----------------------------------------------------------


def test_token_count_28px_patch4():
    # 4x4 patches tile a 28x28 image as a 7x7 grid: 49 tokens
    cfg = BackboneConfig(image_size=28, conv_channels=(16,), patch_size=4, embed_dim=16, heads=2)
    assert cfg.token_count() == 49
    enc = Encoder(cfg, SeededRng(0)).eval()
    tokens = enc.tokenize(Tensor(np.random.default_rng(0).normal(size=(2, 1, 28, 28))))
    assert tokens.shape == (2, 49, 16)


def test_tokens_are_the_patches_of_the_image_in_row_major_order():
    # one linear channel per pixel of a patch (identity kernel; BN is the identity in eval mode)
    enc = Encoder(BackboneConfig(image_size=4, conv_channels=(4,), patch_size=2, embed_dim=4, heads=1), SeededRng(0)).eval()
    enc.tokenizer.weights[0].data = np.eye(4).reshape(4, 1, 2, 2)
    images = np.random.default_rng(0).uniform(size=(3, 1, 4, 4))  # positive, so the ReLU keeps them
    patches = images.reshape(3, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(3, 4, 4)  # (B, patch row-major, pixel row-major)
    np.testing.assert_array_equal(enc.tokenize(Tensor(images)).data, patches)


def test_token_count_degenerate_kernel_equals_image():
    cfg = BackboneConfig(image_size=7, conv_channels=(8,), patch_size=7, embed_dim=8, heads=2)
    assert cfg.token_count() == 1
    enc = Encoder(cfg, SeededRng(1)).eval()
    tokens = enc.tokenize(Tensor(np.zeros((1, 1, 7, 7))))
    assert tokens.shape == (1, 1, 8)


def test_two_conv_layers_with_7px_kernels_constructible():
    cfg = BackboneConfig(image_size=49, conv_channels=(12, 24), patch_size=7, embed_dim=24, heads=4)
    enc = Encoder(cfg, SeededRng(2)).eval()
    tokens = enc.tokenize(Tensor(np.random.default_rng(1).normal(size=(1, 1, 49, 49))))
    assert tokens.shape == (1, 1, 24) and cfg.token_count() == 1


def test_kernel_larger_than_image_rejected():
    with pytest.raises(ArgumentError, match="patch_size 9 does not divide the 4x4 map"):
        BackboneConfig(image_size=4, conv_channels=(8,), patch_size=9, embed_dim=8, heads=2)


@pytest.mark.parametrize("image_size, conv_channels, patch_size", [(4, (8,), 3), (6, (4, 8), 2), (4, (8,), 0)])
def test_a_patch_size_that_does_not_tile_every_map_is_rejected(image_size, conv_channels, patch_size):
    # 3 does not divide 4; 2 divides 6 but not the 3x3 map after it; 0 is no patch
    with pytest.raises(ArgumentError, match=f"patch_size {patch_size} does not divide"):
        BackboneConfig(image_size=image_size, conv_channels=conv_channels, patch_size=patch_size, embed_dim=8, heads=2)


# -- attention --------------------------------------------------------------------


def test_single_token_single_head_attention():
    cfg = small_cfg(heads=1)
    enc = Encoder(cfg, SeededRng(3))
    block = enc.blocks[0]
    x = Tensor(np.random.default_rng(2).normal(size=(1, 8)))
    out, maps = block.attention(x)
    expected = (x.data @ block.v.data[:, 0]) @ block.out_proj.data  # softmax over one token is 1
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(maps, np.ones((1, 1, 1)), atol=1e-15)


def test_attention_matches_naive_oracle():
    cfg = BackboneConfig(image_size=4, conv_channels=(2,), embed_dim=2, heads=1, layers=1, ffn_hidden=4)
    enc = Encoder(cfg, SeededRng(4))
    block = enc.blocks[0]
    q = np.array([[0.3, -0.2], [1.0, 0.4]])
    k = np.array([[0.5, 0.1], [-0.7, 0.9]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    o = np.array([[0.2, -0.4], [0.8, 0.3]])
    block.q.data, block.k.data, block.v.data, block.out_proj.data = q[:, None], k[:, None], v[:, None], o  # (d, H=1, d_k)
    x = np.array([[0.1, 0.9], [0.5, -0.3]])

    # naive oracle, written straight from the definition
    qm, km, vm = x @ q, x @ k, x @ v
    scores = qm @ km.T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    expected = (att @ vm) @ o

    out, maps = block.attention(Tensor(x))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(maps[0], att, atol=1e-12)


def test_attention_rows_sum_to_one_and_shape_preserved():
    cfg = small_cfg(heads=4, embed_dim=16, conv_channels=(16,))
    enc = Encoder(cfg, SeededRng(5))
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        x = Tensor(rng.normal(size=(2, n, 16)))
        out, maps = enc.blocks[0].attention(x)
        assert out.shape == (2, n, 16)
        np.testing.assert_allclose(maps.sum(axis=-1), np.ones(maps.shape[:-1]), atol=1e-9)


def test_paper_scale_heads_divide_embed_dim():
    cfg = BackboneConfig(image_size=8, conv_channels=(384,), embed_dim=384, heads=6, layers=1, ffn_hidden=128, patch_size=2)
    assert cfg.head_dim == 64
    enc = Encoder(cfg, SeededRng(6))
    x = Tensor(np.random.default_rng(4).normal(size=(1, 9, 384)))
    out, _ = enc.blocks[0].attention(x)
    assert out.shape == (1, 9, 384)


# -- FFN ---------------------------------------------------------------------------


def test_ffn_zero_projections_give_zero():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 8)))
    block = Encoder(small_cfg(), SeededRng(7)).blocks[0]
    block.theta1.data = np.zeros_like(block.theta1.data)
    block.theta2.data = np.zeros_like(block.theta2.data)
    np.testing.assert_allclose(block.ffn(x, "eval").data, np.zeros((3, 8)), atol=1e-15)


def test_ffn_between_with_identity_bn_matches_mlp_oracle():
    enc = Encoder(small_cfg(), SeededRng(8))
    block = enc.blocks[0]
    x = np.random.default_rng(6).normal(size=(3, 8))
    out = block.ffn(Tensor(x), "eval")  # fresh running stats: BN is identity in eval
    oracle = gelu(Tensor(x @ block.theta1.data)).data @ block.theta2.data
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


# -- sequence pool -------------------------------------------------------------------


def test_sequence_pool_is_the_flattened_tokens_times_pool_proj():
    enc = Encoder(small_cfg(), SeededRng(10))
    assert enc.pool_proj.shape == (16 * 8, 8)
    assert np.abs(enc.pool_proj.data).max() <= 2 / np.sqrt(16 * 8)  # fan-in scaled, clipped at two std
    x = np.random.default_rng(8).normal(size=(3, 16, 8))
    np.testing.assert_array_equal(enc.sequence_pool(Tensor(x)).data, x.reshape(3, 128) @ enc.pool_proj.data)
    np.testing.assert_array_equal(enc.sequence_pool(Tensor(x[0])).data, x[0].reshape(128) @ enc.pool_proj.data)


@pytest.mark.parametrize("shape", [(2, 15, 8), (2, 16, 7), (2, 8, 16), (128,)])
def test_sequence_pool_rejects_a_token_grid_pool_proj_does_not_fit(shape):
    enc = Encoder(small_cfg(), SeededRng(11)).eval()
    with pytest.raises(ArgumentError, match=r"\(\.\.\., 16, 8\) tokens"):
        enc.sequence_pool(Tensor(np.zeros(shape)))
    with no_grad(), pytest.raises(ArgumentError, match=r"\(\.\.\., 16, 8\) tokens"):
        enc.encode(Tensor(np.zeros(shape)))  # the folded forward


# -- encoder ---------------------------------------------------------------------------


def test_encoder_zero_blocks_is_pooled_tokenizer():
    # the final BN has fresh (0, 1) statistics, so in eval mode it is an exact identity
    enc = Encoder(small_cfg(layers=0), SeededRng(13)).eval()
    x = Tensor(np.random.default_rng(11).normal(size=(2, 1, 4, 4)))
    z = enc.forward(x)
    np.testing.assert_array_equal(z.data, enc.sequence_pool(enc.tokenize(x)).data)


def test_encoder_eval_deterministic_bitwise():
    enc = Encoder(small_cfg(layers=2), SeededRng(14)).eval()
    x = Tensor(np.random.default_rng(12).normal(size=(3, 1, 4, 4)))
    z1 = enc.forward(x)
    z2 = enc.forward(x)
    assert np.array_equal(z1.data, z2.data)


def _halves_of_two_lengths():
    prefixes = PrefixSet(2, 4, 8)
    prefixes.p_v = Tensor(np.zeros((2, 3, 8)), requires_grad=True)
    return prefixes


@pytest.mark.parametrize(
    "make",
    [lambda: PrefixSet(1, 4, 8), lambda: PrefixSet(2, 4, 6), lambda: PrefixSet(3, 4, 8), _halves_of_two_lengths],
    ids=["fewer_layers", "other_width", "more_layers", "unequal_halves"],
)
def test_encode_rejects_a_prefix_set_built_for_another_encoder(make):
    # a 2-layer, d = 8 encoder takes two (2, m, 8) tensors, and nothing else on either path
    enc = Encoder(small_cfg(layers=2), SeededRng(15))
    tokens = Tensor(np.random.default_rng(13).normal(size=(2, 16, 8)))
    with no_grad(), pytest.raises(ArgumentError, match=r"\(2, m, 8\) tensors"):
        enc.eval().encode(tokens, make())  # the folded forward
    with pytest.raises(ArgumentError, match=r"\(2, m, 8\) tensors"):
        enc.train().encode(tokens, make())  # the composed forward


def test_flop_estimate_scales_with_depth_and_width():
    base = small_cfg(layers=2)
    deep = small_cfg(layers=4)
    n, d = base.token_count(), base.embed_dim
    pool = n * d * d
    assert deep.flop_estimate() - pool == 2 * (base.flop_estimate() - pool)
    wide = small_cfg(layers=2, ffn_hidden=24)
    assert wide.flop_estimate() - base.flop_estimate() == base.layers * 2 * n * d * 12  # linear in ffn width


def test_full_block_gradients_through_train_bn():
    cfg = small_cfg(layers=1)
    enc = Encoder(cfg, SeededRng(15)).train()
    x = np.random.default_rng(13).normal(size=(8, 1, 4, 4))
    block = enc.blocks[0]
    # (name, getter, setter) so the probe tensor itself enters the graph
    checks = [
        ("q", lambda: block.q, lambda t: setattr(block, "q", t)),
        ("theta1", lambda: block.theta1, lambda t: setattr(block, "theta1", t)),
        ("attn_bn.gamma", lambda: block.attn_bn.gamma, lambda t: setattr(block.attn_bn, "gamma", t)),
        ("ffn_bn_mid.beta", lambda: block.inner_bn.beta, lambda t: setattr(block.inner_bn, "beta", t)),
        ("pool_proj", lambda: enc.pool_proj, lambda t: setattr(enc, "pool_proj", t)),
        ("conv0", lambda: enc.tokenizer.weights[0], lambda t: enc.tokenizer.weights.__setitem__(0, t)),
    ]
    for name, getter, setter in checks:

        def f(t, getter=getter, setter=setter):
            old = getter()
            setter(t)
            try:
                return (enc.forward(Tensor(x)) ** 2).sum()
            finally:
                setter(old)

        report = grad_check(f, Tensor(getter().data.copy()), tol=1e-4)
        assert report.passed, f"{name}: {report.max_rel_error}"


def test_checkpoint_round_trip(tmp_path):
    enc = Encoder(small_cfg(layers=2), SeededRng(16))
    path = tmp_path / "ckpt.npz"
    save_state(path, {"encoder": enc})
    clone = Encoder(small_cfg(layers=2), SeededRng(99))
    assert hash_state(clone) != hash_state(enc)
    load_state(path, {"encoder": clone})
    assert hash_state(clone) == hash_state(enc)


def test_ffn_builds_only_the_selected_bn():
    params = Encoder(small_cfg(), SeededRng(17)).params()
    inner = [key for key in params if ".ffn_bn_" in key]
    assert inner == ["blocks.0.ffn_bn_mid.gamma", "blocks.0.ffn_bn_mid.beta"]
    assert params[inner[0]].shape == (12,)


def test_checkpoint_with_both_ffn_bns_still_loads(tmp_path):
    enc = Encoder(small_cfg(), SeededRng(18))
    path = tmp_path / "ckpt.npz"
    unused_bn = {f"encoder.blocks.0.ffn_bn_in.{key}": np.full(8, 0.5) for key in ("gamma", "beta", "running_mean", "running_var")}
    save_state(path, {"encoder": enc}, **unused_bn)
    clone = Encoder(small_cfg(), SeededRng(99))
    load_state(path, {"encoder": clone})
    assert hash_state(clone) == hash_state(enc)


def test_copy_is_an_independent_equal_encoder():
    # `make_teacher` clones the student this way
    enc = Encoder(small_cfg(), SeededRng(19)).eval()
    before = hash_state(enc)
    clone = copy.deepcopy(enc)
    assert hash_state(clone) == before and clone.mode == "eval"
    clone.blocks[0].theta1.data[0, 0] += 1.0  # a parameter
    clone.blocks[0].attn_bn.running_mean[0] += 1.0  # a buffer
    assert hash_state(enc) == before != hash_state(clone)


def test_hash_state_of_several_models_covers_each():
    a, b = Encoder(small_cfg(), SeededRng(20)), Encoder(small_cfg(), SeededRng(21))
    assert hash_state(a) == hash_state(Encoder(small_cfg(), SeededRng(20)))
    assert hash_state(a, b) != hash_state(a, a) != hash_state(b, b)


def per_entry_names(arrays: dict) -> dict:
    """`state_arrays` entries under the names of the per-head and per-class
    layout: `….q{h}` for head h of a (d, H, d_k) `….q`, and `mu.{m}` for row m."""
    out = {}
    for name, arr in arrays.items():
        role = name.rsplit(".", 1)[-1]
        if role in ("q", "k", "v"):
            out.update({f"{name}{h}": arr[:, h] for h in range(arr.shape[1])})
        elif role in ("mu", "sigma"):
            out.update({f"{name}.{m}": row for m, row in enumerate(arr)})
        else:
            out[name] = arr
    return out


@pytest.mark.parametrize("field, value", [("heads", 4), ("ffn_hidden", 16), ("names", "per-entry")])
def test_mismatched_checkpoint_raises_format_error_and_changes_nothing(tmp_path, field, value):
    path = tmp_path / "ckpt.npz"
    target = Encoder(small_cfg(), SeededRng(23))
    if field == "names":
        source, head = {"encoder": Encoder(small_cfg(), SeededRng(22)), "head": StochasticHead(8)}, StochasticHead(8)
        for row in np.random.default_rng(30).normal(size=(3, 8)):
            source["head"].add_class(row)
            head.add_class(-row)
        np.savez(path, **{f"{scope}.{name}": arr for scope, model in source.items() for name, arr in per_entry_names(state_arrays(model)).items()})
        cases = [({"encoder": target, "head": head}, "'encoder.blocks.0.q'"), ({"head": head}, "'head.mu'")]
    else:
        save_state(path, {"encoder": Encoder(small_cfg(**{field: value}), SeededRng(22))})
        cases = [({"encoder": target}, "encoder.blocks.0")]
    for models, entry in cases:
        before = hash_state(*models.values())
        with pytest.raises(FormatError, match=entry):
            load_state(path, models)
        assert hash_state(*models.values()) == before


def test_incomplete_state_names_the_missing_entry_and_changes_nothing():
    source, target = Encoder(small_cfg(), SeededRng(24)), Encoder(small_cfg(), SeededRng(25))
    arrays = dict(state_arrays(source))
    del arrays["final_bn.running_var"]
    before = hash_state(target)
    with pytest.raises(FormatError, match="'final_bn.running_var'"):
        load_arrays(target, arrays)
    assert hash_state(target) == before


def test_checkpoint_of_the_softmax_pool_raises_format_error_and_changes_nothing(tmp_path):
    # the old layout: a (d, 1) `pool_score` scored the tokens and no `pool_proj` existed
    arrays = {f"encoder.{name}": arr for name, arr in state_arrays(Encoder(small_cfg(), SeededRng(31))).items() if name != "pool_proj"}
    path = tmp_path / "ckpt.npz"
    np.savez(path, **arrays, **{"encoder.pool_score": np.zeros((8, 1))})
    target = Encoder(small_cfg(), SeededRng(32))
    before = hash_state(target)
    with pytest.raises(FormatError, match="'encoder.pool_proj'"):
        load_state(path, {"encoder": target})
    assert hash_state(target) == before


def test_failed_load_of_one_scope_leaves_every_scope_unchanged(tmp_path):
    path = tmp_path / "ckpt.npz"
    save_state(path, {"a": Encoder(small_cfg(), SeededRng(26)), "b": Encoder(small_cfg(heads=4), SeededRng(27))})
    first, second = Encoder(small_cfg(), SeededRng(28)), Encoder(small_cfg(), SeededRng(29))
    before = hash_state(first, second)
    with pytest.raises(FormatError, match="'b.blocks.0"):
        load_state(path, {"a": first, "b": second})
    assert hash_state(first, second) == before


@pytest.mark.parametrize("damage", ["truncated", "garbled", "empty", "bare_npy"])
def test_unreadable_state_file_raises_format_error(tmp_path, damage):
    enc = Encoder(small_cfg(), SeededRng(30))
    path = tmp_path / "ckpt.npz"
    save_state(path, {"encoder": enc})
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[: len(data) // 2])
    elif damage == "garbled":
        path.write_bytes(b"not an npz archive\n" * 20)
    elif damage == "empty":
        path.write_bytes(b"")
    else:
        with open(path, "wb") as fh:
            np.save(fh, np.ones(3))
    target = Encoder(small_cfg(), SeededRng(31))
    before = hash_state(target)
    with pytest.raises(FormatError):
        load_state(path, {"encoder": target})
    assert hash_state(target) == before


def test_embed_dim_must_divide_heads():
    with pytest.raises(ArgumentError):
        BackboneConfig(image_size=4, embed_dim=10, heads=4, conv_channels=(10,))
