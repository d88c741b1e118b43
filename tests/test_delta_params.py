"""Prefix attention tests: empty-prefix equivalence, concat oracle, freeze contracts."""

import numpy as np
import pytest

from fscil import delta_params
from fscil.backbone import BackboneConfig, Encoder, hash_state
from fscil.config import TrainingConfig, desk_profile
from fscil.delta_params import PrefixSet, prefix_mhsa, train_session, trainable_fraction
from fscil.errors import ArgumentError, ContractViolation
from fscil.numerics import SeededRng, Tensor, grad_check, no_grad


def make_block(d=8, heads=2, seed=0):
    cfg = BackboneConfig(image_size=4, conv_channels=(d,), embed_dim=d, heads=heads, layers=1, ffn_hidden=2 * d, conv_kernel=3, conv_padding=1)
    return Encoder(cfg, SeededRng(seed)).blocks[0]


def test_empty_prefix_equals_plain_attention_bitwise():
    block = make_block()
    prefixes = PrefixSet(session=0, layers=1, prefix_len=0, dim=8)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(size=(2, 3, 8)))
        plain, _ = block.attention(x)
        with_prefix, _ = prefix_mhsa(x, block, prefixes, layer=0)
        assert np.array_equal(plain.data, with_prefix.data)


def test_prefix_length_sixteen_shapes():
    assert TrainingConfig().prefix_len == 16  # published incremental setting
    block = make_block(d=8)
    prefixes = PrefixSet(session=1, layers=1, prefix_len=16, dim=8, rng=SeededRng(1))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
    out, maps = prefix_mhsa(x, block, prefixes, layer=0)
    assert out.shape == (2, 5, 8)  # output dimension unchanged
    assert maps.shape[-1] == 5 + 8  # rows span n + L_p/2 columns
    np.testing.assert_allclose(maps.sum(axis=-1), np.ones(maps.shape[:-1]), atol=1e-9)


def test_prefix_matches_concatenate_then_attend_oracle():
    block = make_block(d=4, heads=1, seed=2)
    prefixes = PrefixSet(session=1, layers=1, prefix_len=2, dim=4, rng=SeededRng(3))
    x = np.random.default_rng(2).normal(size=(2, 4))
    pk, pv = prefixes.p_k[0].data, prefixes.p_v[0].data

    q = x @ block.q[0].data
    k = np.concatenate([pk, x]) @ block.k[0].data
    v = np.concatenate([pv, x]) @ block.v[0].data
    scores = q @ k.T / np.sqrt(4.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    expected = (att @ v) @ block.out_proj.data

    out, maps = prefix_mhsa(Tensor(x), block, prefixes, layer=0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(maps[0], att, atol=1e-12)


def test_output_shape_for_any_prefix_length():
    block = make_block()
    x = Tensor(np.random.default_rng(3).normal(size=(3, 6, 8)))
    for lp in (0, 2, 4, 10):
        prefixes = PrefixSet(session=0, layers=1, prefix_len=lp, dim=8, rng=SeededRng(lp))
        out, _ = prefix_mhsa(x, block, prefixes, layer=0)
        assert out.shape == (3, 6, 8)


def test_odd_prefix_length_rejected():
    with pytest.raises(ArgumentError):
        PrefixSet(session=0, layers=1, prefix_len=3, dim=8)


def test_prefix_dim_mismatch_rejected():
    block = make_block(d=8)
    bad = PrefixSet(session=0, layers=1, prefix_len=4, dim=6, rng=SeededRng(4))
    with pytest.raises(ArgumentError):
        prefix_mhsa(Tensor(np.zeros((1, 2, 8))), block, bad, layer=0)


def test_prefix_gradients_pass_grad_check():
    block = make_block(d=6, heads=2, seed=5)
    x = np.random.default_rng(4).normal(size=(2, 3, 6))
    base = PrefixSet(session=0, layers=1, prefix_len=4, dim=6, rng=SeededRng(6))
    for attr in ("p_k", "p_v"):

        def f(t, attr=attr):
            prefixes = PrefixSet(session=0, layers=1, prefix_len=4, dim=6, rng=SeededRng(6))
            getattr(prefixes, attr)[0] = t
            out, _ = prefix_mhsa(Tensor(x), block, prefixes, layer=0)
            return (out**2).sum()

        report = grad_check(f, Tensor(getattr(base, attr)[0].data.copy()), tol=1e-4)
        assert report.passed, f"{attr}: {report.max_rel_error}"


def _session_setup(seed=0):
    cfg = BackboneConfig(image_size=4, conv_channels=(8,), embed_dim=8, heads=2, layers=1, ffn_hidden=16, conv_kernel=3, conv_padding=1)
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
    prefixes = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(7))
    before_backbone = hash_state(encoder)
    before_old = [head.mu[m].data.copy() for m in (0, 1)]
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=tc, rng=SeededRng(8), session=1)
    assert hash_state(encoder) == before_backbone
    assert all(p.grad is None for model in (encoder, head, prefixes) for p in model.params().values())
    for m, old in zip((0, 1), before_old):
        assert np.array_equal(head.mu[m].data, old)


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
    prefixes = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(14))
    train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=2, inc_batch_size=4), rng=SeededRng(15), session=1)
    assert calls == ["tokenize"]


@pytest.mark.parametrize("part", ["mu", "sigma"])
def test_train_session_rejects_a_changed_frozen_head_row(monkeypatch, part):
    cfg, encoder, head, x, y = _session_setup(3)
    real = delta_params.run_epochs

    def drifting(*args, **kwargs):
        out = real(*args, **kwargs)
        getattr(head, part)[1].data[0] += 1e-12  # an old row moves during training
        return out

    monkeypatch.setattr(delta_params, "run_epochs", drifting)
    prefixes = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(12))
    with pytest.raises(ContractViolation, match="classifier rows"):
        train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(inc_epochs=1, inc_batch_size=5), rng=SeededRng(13), session=1)


def test_train_session_rejects_unfrozen_backbone():
    cfg, encoder, head, x, y = _session_setup(1)
    encoder.set_requires_grad(True)
    prefixes = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(9))
    with pytest.raises(ContractViolation):
        train_session(x, y, encoder, head, prefixes, new_rows=[2, 3], config=desk_profile(), rng=SeededRng(10), session=1)


def test_earlier_prefix_sets_untouched_by_later_session():
    cfg, encoder, head, x, y = _session_setup(2)
    tc = desk_profile(inc_epochs=3, inc_batch_size=5)
    first = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(11))
    train_session(x, y, encoder, head, first, new_rows=[2, 3], config=tc, rng=SeededRng(12), session=1)
    frozen = hash_state(first)
    head.add_class(np.random.default_rng(5).normal(size=8))
    second = PrefixSet(session=2, layers=1, prefix_len=4, dim=8, rng=SeededRng(13))
    train_session(x, np.full(len(x), 4), encoder, head, second, new_rows=[4], config=tc, rng=SeededRng(14), session=2)
    assert hash_state(first) == frozen


def test_trainable_fraction_matches_parameter_count_oracle():
    cfg, encoder, head, x, y = _session_setup(3)
    prefixes = PrefixSet(session=1, layers=1, prefix_len=4, dim=8, rng=SeededRng(15))
    rows = [head.mu[2], head.sigma[2], head.mu[3], head.sigma[3]]
    frac = trainable_fraction(prefixes, rows, encoder)
    # oracle: count arrays directly
    n_prefix = sum(p.data.size for p in prefixes.p_k + prefixes.p_v)
    n_rows = sum(r.data.size for r in rows)
    n_backbone = sum(p.data.size for p in encoder.params().values())
    assert frac == (n_prefix + n_rows) / (n_prefix + n_rows + n_backbone)
    assert frac < 0.25  # small next to the backbone


def test_incremental_epoch_default_is_fifteen():
    assert TrainingConfig().inc_epochs == 15
    assert TrainingConfig().inc_epochs_base == 4
