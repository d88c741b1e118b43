"""Prefix attention tests: empty-prefix equivalence, concat oracle, freeze contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscil import delta_params
from fscil.backbone import BackboneConfig, Encoder, FoldedEncoder, hash_state
from fscil.base_trainer import cross_entropy_loss
from fscil.config import TrainingConfig, desk_profile
from fscil.delta_params import PrefixSet, session_gradients, train_session, trainable_fraction
from fscil.errors import ArgumentError, ContractViolation, NumericError
from fscil.events import EventLog
from fscil.numerics import SeededRng, Tensor, grad_check, no_grad
from fscil.stochastic_classifier import StochasticHead


def make_block(d=8, heads=2, seed=0):
    cfg = BackboneConfig(image_size=4, conv_channels=(d,), embed_dim=d, heads=heads, layers=1, ffn_hidden=2 * d)
    return Encoder(cfg, SeededRng(seed)).blocks[0]


def test_empty_prefix_equals_plain_attention_bitwise():
    block = make_block()
    prefixes = PrefixSet(layers=1, prefix_len=0, dim=8, rng=SeededRng(0))
    kv = prefixes.layer_kv(0)
    assert [t.shape for t in kv] == [(0, 8), (0, 8)]  # the node gets zero rows, not None
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(size=(2, 3, 8)))
        plain, plain_maps = block.attention(x)
        with_prefix, maps = block.attention(x, prefix_kv=kv)
        assert np.array_equal(plain.data, with_prefix.data)
        assert np.array_equal(plain_maps, maps)
    # through a whole encoder, on the folded forward and on the composed graph
    cfg = BackboneConfig(image_size=4, conv_channels=(8,), embed_dim=8, heads=2, layers=2, ffn_hidden=12)
    encoder = random_eval_encoder(cfg, 33)
    empty = PrefixSet(layers=2, prefix_len=0, dim=8, rng=SeededRng(34))
    tokens = rng.normal(size=(3, cfg.token_count(), 8))
    with no_grad():
        assert np.array_equal(encoder.encode(Tensor(tokens), prefixes=empty).data, encoder.encode(Tensor(tokens)).data)
    x = Tensor(tokens, requires_grad=True)
    assert np.array_equal(encoder.encode(x, prefixes=empty).data, encoder.encode(x).data)


def test_prefix_length_sixteen_shapes():
    assert TrainingConfig().prefix_len == 16  # published incremental setting
    block = make_block(d=8)
    prefixes = PrefixSet(layers=1, prefix_len=16, dim=8, rng=SeededRng(1))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
    out, maps = block.attention(x, prefix_kv=prefixes.layer_kv(0))
    assert out.shape == (2, 5, 8)  # output dimension unchanged
    assert maps.shape[-1] == 5 + 8  # rows span n + L_p/2 columns
    np.testing.assert_allclose(maps.sum(axis=-1), np.ones(maps.shape[:-1]), atol=1e-9)


def test_prefix_matches_concatenate_then_attend_oracle():
    block = make_block(d=4, heads=1, seed=2)
    prefixes = PrefixSet(layers=1, prefix_len=2, dim=4, rng=SeededRng(3))
    x = np.random.default_rng(2).normal(size=(2, 4))
    pk, pv = prefixes.p_k.data[0], prefixes.p_v.data[0]

    q = x @ block.q.data[:, 0]
    k = np.concatenate([pk, x]) @ block.k.data[:, 0]
    v = np.concatenate([pv, x]) @ block.v.data[:, 0]
    scores = q @ k.T / np.sqrt(4.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    expected = (att @ v) @ block.out_proj.data

    out, maps = block.attention(Tensor(x), prefix_kv=prefixes.layer_kv(0))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(maps[0], att, atol=1e-12)


def test_output_shape_for_any_prefix_length():
    block = make_block()
    x = Tensor(np.random.default_rng(3).normal(size=(3, 6, 8)))
    for lp in (0, 2, 4, 10):
        prefixes = PrefixSet(layers=1, prefix_len=lp, dim=8, rng=SeededRng(lp))
        out, _ = block.attention(x, prefix_kv=prefixes.layer_kv(0))
        assert out.shape == (3, 6, 8)


def test_odd_prefix_length_rejected():
    with pytest.raises(ArgumentError):
        PrefixSet(layers=1, prefix_len=3, dim=8)


def test_negative_prefix_length_rejected():
    with pytest.raises(ArgumentError, match="non-negative, got -2"):
        PrefixSet(layers=1, prefix_len=-2, dim=8)


def test_prefix_dim_mismatch_rejected():
    block = make_block(d=8)
    bad = PrefixSet(layers=1, prefix_len=4, dim=6, rng=SeededRng(4))
    with pytest.raises(ArgumentError):
        block.attention(Tensor(np.zeros((1, 2, 8))), prefix_kv=bad.layer_kv(0))


def test_prefix_gradients_pass_grad_check():
    """Through `layer_kv`'s row slice of the whole (L, L_p/2, d) tensor, for a middle layer."""
    block = make_block(d=6, heads=2, seed=5)
    x = np.random.default_rng(4).normal(size=(2, 3, 6))
    base = PrefixSet(layers=3, prefix_len=4, dim=6, rng=SeededRng(6))
    for attr in ("p_k", "p_v"):

        def f(t, attr=attr):
            prefixes = PrefixSet(layers=3, prefix_len=4, dim=6, rng=SeededRng(6))
            setattr(prefixes, attr, t)
            out, _ = block.attention(Tensor(x), prefix_kv=prefixes.layer_kv(1))
            return (out**2).sum()

        report = grad_check(f, Tensor(getattr(base, attr).data.copy()), tol=1e-4)
        assert report.passed, f"{attr}: {report.max_rel_error}"


def _session_setup(seed=0):
    cfg = BackboneConfig(image_size=4, conv_channels=(8,), embed_dim=8, heads=2, layers=1, ffn_hidden=16)
    encoder = Encoder(cfg, SeededRng(seed))
    encoder.set_requires_grad(False)
    encoder.eval()
    from fscil.stochastic_classifier import StochasticHead

    head = StochasticHead(8)
    rng = np.random.default_rng(seed)
    for c in range(4):
        head.add_class(rng.normal(size=8))
    x = rng.normal(size=(10, 1, 4, 4))
    y = np.array([2, 3] * 5)
    return cfg, encoder, head, x, y


def test_train_session_keeps_backbone_and_old_rows_frozen():
    cfg, encoder, head, x, y = _session_setup()
    tc = desk_profile(inc_epochs=3, inc_batch_size=5)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(7))
    before_backbone = hash_state(encoder)
    before_old = head.mu.data[:2].copy(), head.sigma.data[:2].copy()
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=tc, rng=SeededRng(8), session=1)
    assert hash_state(encoder) == before_backbone
    assert all(p.grad is None for model in (encoder, head, prefixes) for p in model.params().values())
    assert np.array_equal(head.mu.data[:2], before_old[0]) and np.array_equal(head.sigma.data[:2], before_old[1])


def test_eval_tokens_of_a_batch_are_rows_of_the_whole_sets_tokens():
    _, encoder, _, x, _ = _session_setup(4)
    with no_grad():
        whole = encoder.tokenize(Tensor(x)).data
        for idx in (np.array([3, 0, 7]), np.array([9]), np.arange(10)[::-1]):
            assert np.array_equal(encoder.tokenize(Tensor(x[idx])).data, whole[idx])
            np.testing.assert_array_equal(encoder.encode(Tensor(whole[idx])).data, encoder.forward(Tensor(x[idx])).data)


def test_train_session_tokenizes_the_session_once(monkeypatch):
    _, encoder, head, x, y = _session_setup(5)
    calls = []
    for name in ("tokenize", "forward"):
        real = getattr(Encoder, name)
        monkeypatch.setattr(Encoder, name, lambda self, *a, _real=real, _name=name, **k: calls.append(_name) or _real(self, *a, **k))
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(14))
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=2, inc_batch_size=4), rng=SeededRng(15), session=1)
    assert calls == ["tokenize"]


@pytest.mark.parametrize("part", ["mu", "sigma"])
def test_train_session_rejects_a_changed_frozen_head_row(monkeypatch, part):
    cfg, encoder, head, x, y = _session_setup(3)
    real = delta_params.run_epochs

    def drifting(*args, **kwargs):
        out = real(*args, **kwargs)
        getattr(head, part).data[1, 0] += 1e-12  # an old row moves during training
        return out

    monkeypatch.setattr(delta_params, "run_epochs", drifting)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(12))
    with pytest.raises(ContractViolation, match="classifier rows"):
        train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=1, inc_batch_size=5), rng=SeededRng(13), session=1)


def test_train_session_rejects_unfrozen_backbone():
    cfg, encoder, head, x, y = _session_setup(1)
    encoder.set_requires_grad(True)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(9))
    with pytest.raises(ContractViolation):
        train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(), rng=SeededRng(10), session=1)


def test_earlier_prefix_sets_untouched_by_later_session():
    cfg, encoder, head, x, y = _session_setup(2)
    tc = desk_profile(inc_epochs=3, inc_batch_size=5)
    first = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(11))
    train_session(x, y, encoder, head, first, new_rows=[2, 3], config=tc, rng=SeededRng(12), session=1)
    frozen = hash_state(first)
    head.add_class(np.random.default_rng(5).normal(size=8))
    second = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(13))
    train_session(x, np.full(len(x), 4), encoder, head, second, new_rows=[4], config=tc, rng=SeededRng(14), session=2)
    assert hash_state(first) == frozen


def test_trainable_fraction_matches_parameter_count_oracle():
    cfg, encoder, head, x, y = _session_setup(3)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(15))
    rows = [head.mu.data[2:4], head.sigma.data[2:4]]
    frac = trainable_fraction(prefixes, rows, encoder)
    # oracle: count arrays directly
    assert prefixes.p_k.shape == prefixes.p_v.shape == (1, 2, 8)
    n_prefix = prefixes.p_k.data.size + prefixes.p_v.data.size
    n_rows = 2 * 2 * 8  # two new classes, a mu and a sigma row each
    n_backbone = sum(p.data.size for p in encoder.params().values())
    assert frac == (n_prefix + n_rows) / (n_prefix + n_rows + n_backbone)
    assert frac < 0.25  # small next to the backbone


def test_incremental_epoch_default_is_fifteen():
    assert TrainingConfig().inc_epochs == 15
    assert TrainingConfig().inc_epochs_base == 4


def random_eval_encoder(cfg, seed):
    """Frozen eval-mode encoder whose batch-norms are far from the identity."""
    encoder = Encoder(cfg, SeededRng(seed))
    rng = np.random.default_rng(seed)
    for name, arr in encoder.buffers().items():
        arr[...] = rng.uniform(0.5, 1.5, arr.shape) if name.endswith("running_var") else rng.normal(0.0, 0.3, arr.shape)
    for name, p in encoder.params().items():
        if name.endswith("gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape)
        elif name.endswith("beta"):
            p.data = rng.normal(0.0, 0.3, p.shape)
    encoder.set_requires_grad(False)
    return encoder.eval()


@pytest.mark.parametrize("prefix_len", [0, 6])
def test_folded_no_grad_forward_equals_the_composed_eval_forward(monkeypatch, prefix_len):
    cfg = BackboneConfig(image_size=4, conv_channels=(8,), embed_dim=8, heads=2, layers=2, ffn_hidden=12, patch_size=1)
    encoder = random_eval_encoder(cfg, 30 + prefix_len)
    prefixes = PrefixSet(layers=2, prefix_len=prefix_len, dim=8, rng=SeededRng(31))
    tokens = np.random.default_rng(32).normal(size=(5, cfg.token_count(), 8))
    with no_grad():
        x = Tensor(tokens)
        for i, block in enumerate(encoder.blocks):
            x, _ = block(x, "eval", prefix_kv=prefixes.layer_kv(i))
        composed = encoder.sequence_pool(encoder.final_bn(x, "eval")).data
        folds = []
        real = FoldedEncoder.forward
        monkeypatch.setattr(FoldedEncoder, "forward", lambda self, *a: folds.append(1) or real(self, *a))
        folded = encoder.encode(Tensor(tokens), prefixes=prefixes).data
    assert folds == [1]  # a no-grad eval encode dispatches to the folded forward
    np.testing.assert_allclose(folded, composed, rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    layers=st.integers(1, 2),
    heads=st.sampled_from([1, 2]),
    prefix_len=st.sampled_from([0, 2, 8]),
    noise=st.booleans(),
    batch=st.integers(1, 6),
    tail=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_session_gradients_match_the_autodiff_oracle(layers, heads, prefix_len, noise, batch, tail, seed):
    """Closed-form loss and flat gradient vs encode + cross_entropy_loss + backward."""
    cfg = BackboneConfig(image_size=4, conv_channels=(8,), embed_dim=8, heads=heads, layers=layers, ffn_hidden=12)
    encoder = random_eval_encoder(cfg, seed)
    prefixes = PrefixSet(layers=layers, prefix_len=prefix_len, dim=8, rng=SeededRng(seed + 1))
    rng = np.random.default_rng(seed)
    head = StochasticHead(8)
    for _ in range(5):
        head.add_class(rng.normal(size=8))
    head.sigma.data = head.sigma.data + rng.normal(0.0, 0.5, (5, 8))
    new_rows = [3, 4] if tail else list(range(5))
    tokens = rng.normal(size=(batch, cfg.token_count(), 8))
    labels = rng.integers(0, 5, size=batch)

    # the oracle: tokens that need a gradient keep `encode` on the composed autodiff path
    z = encoder.encode(Tensor(tokens, requires_grad=True), prefixes=prefixes)
    loss = cross_entropy_loss(head, z, labels, SeededRng(seed).child("eps"), noise=noise)
    loss.backward()
    expected = [np.zeros(prefixes.p_k.shape) if p.grad is None else p.grad for p in (prefixes.p_k, prefixes.p_v)] + [head.mu.grad[new_rows]]
    if noise:
        expected.append(head.sigma.grad[new_rows])

    grads = [np.full_like(g, np.nan) for g in expected]
    mu, sigma = head.mu.data, head.sigma.data
    eps = head.draw(SeededRng(seed).child("eps")) if noise else None
    value = session_gradients(FoldedEncoder(encoder), tokens, labels, (prefixes.p_k.data, prefixes.p_v.data), head, mu, sigma, eps, new_rows, grads)

    np.testing.assert_allclose(value, loss.item(), rtol=1e-10)
    flat, oracle = np.concatenate([g.ravel() for g in grads]), np.concatenate([g.ravel() for g in expected])
    np.testing.assert_allclose(flat, oracle, rtol=1e-10, atol=1e-13 * np.abs(oracle).max())


def test_train_session_builds_no_graph_and_never_calls_the_head(monkeypatch):
    _, encoder, head, x, y = _session_setup(6)

    def forbidden(*args, **kwargs):
        raise AssertionError("a session step must not build or backpropagate a graph")

    monkeypatch.setattr(Tensor, "backward", forbidden)
    monkeypatch.setattr(StochasticHead, "logits", forbidden)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(16))
    before = prefixes.p_k.data.copy()
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=2, inc_batch_size=4), rng=SeededRng(17), session=1)
    assert not np.array_equal(prefixes.p_k.data, before)


def test_train_session_logs_one_finite_grad_norm_per_epoch():
    _, encoder, head, x, y = _session_setup(7)
    log = EventLog(None)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(18))
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=3, inc_batch_size=4), rng=SeededRng(19), log=log, session=1)
    norms = [r for r in log.records if r["key"] == "grad_norm"]
    assert [(r["phase"], r["session"], r["epoch"]) for r in norms] == [("incremental", 1, e) for e in range(3)]
    assert all(np.isfinite(r["value"]) and r["value"] > 0 for r in norms)


def test_train_session_rejects_a_non_finite_gradient_under_a_finite_loss(monkeypatch):
    _, encoder, head, x, y = _session_setup(8)
    real = delta_params.session_gradients

    def planted(*args):
        loss = real(*args)
        args[-1][0].reshape(-1)[0] = np.nan  # first entry of the p_K gradient
        return loss

    monkeypatch.setattr(delta_params, "session_gradients", planted)
    prefixes = PrefixSet(layers=1, prefix_len=4, dim=8, rng=SeededRng(20))
    with pytest.raises(NumericError, match="non-finite gradient .* session 2, epoch 0"):
        train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=2, inc_batch_size=4), rng=SeededRng(21), session=2)
