"""Stochastic head tests: reparameterized sampling moments, cosine scoring, ties."""

import numpy as np
import pytest

from fscil import numerics
from fscil.errors import ArgumentError, DomainError
from fscil.numerics import SeededRng, Tensor, grad_check, log_softmax, softmax
from fscil.stochastic_classifier import SOFTPLUS_OFFSET, StochasticHead, init_means_from_prototypes

LN2 = 0.6931471805599453


def make_head(means, temperature=16.0, offset=4.0):
    head = StochasticHead(len(means[0]), temperature=temperature, offset=offset)
    for m in means:
        head.add_class(np.asarray(m, dtype=float))
    return head


# -- sampling -------------------------------------------------------------------


def test_noise_off_returns_mu_exactly():
    head = make_head([[2.0, -1.0, 0.5]])
    assert head.weights() is head.mu and head.weights(None) is head.mu
    np.testing.assert_array_equal(head.weights().data[0], [2.0, -1.0, 0.5])


def test_softplus_offset_is_four():
    assert SOFTPLUS_OFFSET == 4.0
    assert StochasticHead(3).offset == 4.0  # the base head `train_base` builds


def test_sample_moments_match_monte_carlo_oracle():
    # sigma = c  =>  noise scale = softplus(0) = ln 2 per coordinate
    # N copies of one class: one (N, d) `draw` gives N samples of its weights
    one = make_head([[2.0, -3.0]])
    head = make_head([[2.0, -3.0]])
    head.mu.data, head.sigma.data = (np.repeat(t.data, 100_000, axis=0) for t in (head.mu, head.sigma))
    eps = head.draw(SeededRng(77))
    assert eps.shape == (100_000, 2) and eps.dtype == head.mu.dtype
    draws = head.weights(eps).data
    # row 0 is the one-class head's sample from the same rng
    np.testing.assert_array_equal(one.weights(one.draw(SeededRng(77))).data, draws[:1])
    mean = draws.mean(axis=0)
    var = draws.var(axis=0)
    np.testing.assert_allclose(mean, [2.0, -3.0], rtol=0.01)  # E[phi] = mu within 1%
    np.testing.assert_allclose(var, [LN2**2, LN2**2], rtol=0.05)  # within 5%


# -- probabilities -----------------------------------------------------------------


def test_single_class_probability_one():
    head = make_head([[1.0, 2.0]])
    probs = head.class_probs(Tensor([0.3, 0.4]))
    np.testing.assert_allclose(probs.data, [1.0], atol=1e-15)


def test_temperature_limit_uniform():
    head = make_head([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], temperature=1e-9)
    probs = head.class_probs(Tensor([0.7, 0.1])).data
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)


def test_two_class_closed_form_softmax():
    # z = mu1, mu2 orthogonal, eta = 10:  P(1) = e^10/(e^10 + e^0)
    head = make_head([[1.0, 0.0], [0.0, 1.0]], temperature=10.0)
    probs = head.class_probs(Tensor([1.0, 0.0])).data
    expected = np.exp(10.0) / (np.exp(10.0) + 1.0)
    assert abs(expected - 0.9999546021312976) < 1e-15
    np.testing.assert_allclose(probs, [expected, 1.0 - expected], atol=1e-12)


def test_probs_sum_to_one_property():
    rng = np.random.default_rng(1)
    head = make_head(rng.normal(size=(6, 5)))
    for _ in range(50):
        probs = head.class_probs(Tensor(rng.normal(size=5))).data
        assert abs(probs.sum() - 1.0) < 1e-12


def test_zero_feature_rejected():
    head = make_head([[1.0, 0.0]])
    with pytest.raises(DomainError):
        head.class_probs(Tensor([0.0, 0.0]))


# -- prediction ----------------------------------------------------------------------


def test_predict_own_mean():
    rng = np.random.default_rng(2)
    means = rng.normal(size=(5, 8)) * 4
    head = make_head(means)
    for m in range(5):
        assert head.predict_label(Tensor(means[m])) == m


def test_predict_scale_invariant():
    rng = np.random.default_rng(3)
    head = make_head(rng.normal(size=(4, 6)))
    z = rng.normal(size=6)
    assert head.predict_label(Tensor(z)) == head.predict_label(Tensor(7.0 * z))


def test_exact_tie_breaks_to_lower_index():
    # symmetric means around z: identical cosine scores by construction
    head = make_head([[0.6, 0.8], [0.6, -0.8]])
    assert head.predict_label(Tensor([1.0, 0.0])) == 0


def test_argmax_invariant_under_temperature():
    rng = np.random.default_rng(4)
    means = rng.normal(size=(5, 7))
    z = rng.normal(size=7)
    labels = {make_head(means, temperature=beta).predict_label(Tensor(z)) for beta in (0.5, 1.0, 16.0, 300.0)}
    assert len(labels) == 1


# -- prototype initialization -----------------------------------------------------------


def test_init_single_sample_class():
    head = StochasticHead(3)
    emb = np.array([0.1, 0.2, 0.3])
    init_means_from_prototypes(head, {0: emb})
    np.testing.assert_array_equal(head.mu.data[0], emb)


def test_init_five_shot_mean_matches_oracle():
    rng = np.random.default_rng(5)
    shots = rng.normal(size=(5, 4))
    oracle = shots.sum(axis=0) / 5.0
    head = StochasticHead(4)
    init_means_from_prototypes(head, {0: shots.mean(axis=0)})
    np.testing.assert_allclose(head.mu.data[0], oracle, atol=1e-12)


def test_incremental_extension_preserves_old_rows_bitwise():
    rng = np.random.default_rng(6)
    head = make_head(rng.normal(size=(3, 4)))
    before = head.mu.data.copy(), head.sigma.data.copy()
    init_means_from_prototypes(head, {3: rng.normal(size=4), 4: rng.normal(size=4)})
    assert head.num_classes == 5 and head.mu.shape == head.sigma.shape == (5, 4)
    assert np.array_equal(head.mu.data[:3], before[0]) and np.array_equal(head.sigma.data[:3], before[1])


def test_init_dimension_mismatch_rejected():
    head = StochasticHead(4)
    with pytest.raises(ArgumentError):
        init_means_from_prototypes(head, {0: np.zeros(7)})


# -- gradients ----------------------------------------------------------------------------


def test_ce_gradient_with_frozen_eps_passes_grad_check():
    rng = np.random.default_rng(7)
    means = rng.normal(size=(3, 5))
    z = rng.normal(size=(2, 5))
    labels = np.array([0, 2])
    eps = rng.normal(size=(3, 5))  # fixed so the loss is deterministic

    def loss_from(head):
        logits = head.logits(Tensor(z), eps)
        logp = log_softmax(logits, axis=-1)
        onehot = np.zeros((2, 3))
        onehot[np.arange(2), labels] = 1.0
        return -(Tensor(onehot) * logp).sum() * 0.5

    for attr in ("mu", "sigma"):

        def f(t, attr=attr):
            head = make_head(means)
            setattr(head, attr, t)
            return loss_from(head)

        start = means if attr == "mu" else np.full((3, 5), 4.0)
        report = grad_check(f, Tensor(start.copy()), tol=1e-4)
        assert report.passed, f"{attr}: {report.max_rel_error}"


def test_feature_gradient_passes_grad_check():
    rng = np.random.default_rng(8)
    means = rng.normal(size=(4, 6))

    def f(t):
        head = make_head(means)
        probs = softmax(head.logits(t), axis=-1)  # `class_probs` is this, without a graph
        return (probs * Tensor(np.arange(4.0))).sum()

    assert grad_check(f, Tensor(rng.normal(size=6)), tol=1e-4).passed


def test_scoring_builds_no_graph_while_mu_trains(monkeypatch):
    rng = np.random.default_rng(9)
    head = make_head(rng.normal(size=(4, 6)))
    assert head.mu.requires_grad and head.sigma.requires_grad
    z = Tensor(rng.normal(size=(3, 6)))
    wired = []
    real_result = numerics._result

    def spy(data, parents, backward):
        out = real_result(data, parents, backward)
        wired.append(out.requires_grad)
        return out

    monkeypatch.setattr(numerics, "_result", spy)
    for eps in (None, head.draw(SeededRng(10))):
        probs = head.class_probs(z, eps)
        assert not probs.requires_grad and probs._parents == ()
        assert head.predict_label(z, eps).shape == (3,)
    assert wired and not any(wired)
