"""Prototype rectification tests: bias estimator, outlier pairs, de-biasing MC."""

import numpy as np
import pytest

from fscil import prototype_rectification
from fscil.backbone import hash_state
from fscil.config import TrainingConfig, desk_profile
from fscil.errors import ArgumentError, NumericError
from fscil.events import EventLog
from fscil.numerics import SeededRng, Tensor, _result, grad_check
from fscil.optim import backprop_step, make_optimizer, run_epochs
from fscil.prototype_rectification import (
    OutlierPairs,
    PredictionNet,
    estimate_intra_class_bias,
    merge_pairs,
    mse_gradients,
    pseudo_label,
    rectify_prototype,
    refine_gaussian_stats,
    select_outlier_pairs,
    train_prediction_net,
)
from fscil.task_inference import SharedCovariance, fit_class_stats


# -- intra-class bias ------------------------------------------------------------


def test_bias_zero_when_subset_is_full_set():
    rng = np.random.default_rng(0)
    full = rng.normal(size=(20, 4))
    np.testing.assert_allclose(estimate_intra_class_bias(full, full), np.zeros(4), atol=1e-12)


def test_bias_definition_case():
    full = np.array([[1.0, 1.0], [1.0, 1.0]])
    few = np.array([[0.0, 0.0]])
    np.testing.assert_array_equal(estimate_intra_class_bias(full, few), [1.0, 1.0])


def test_bias_norm_shrinks_with_shot_count():
    # Monte-Carlo oracle: mean ||bias|| over resamples decreases 1 -> 5 -> 25
    rng = np.random.default_rng(1)
    full = rng.normal(size=(2000, 6))
    norms = {}
    for k in (1, 5, 25):
        vals = []
        for _ in range(300):
            idx = rng.choice(len(full), size=k, replace=False)
            vals.append(np.linalg.norm(estimate_intra_class_bias(full, full[idx])))
        norms[k] = np.mean(vals)
    assert norms[1] > norms[5] > norms[25]


def test_bias_empty_inputs_rejected():
    with pytest.raises(ArgumentError):
        estimate_intra_class_bias(np.zeros((0, 3)), np.zeros((1, 3)))


# -- outlier pairs -----------------------------------------------------------------


def test_single_outlier_is_argmax_distance():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(12, 3))
    proto = emb.mean(axis=0)
    pairs = select_outlier_pairs(emb, proto, 1)
    dists = np.linalg.norm(emb - proto, axis=1)
    np.testing.assert_array_equal(pairs.inputs[0], emb[dists.argmax()])
    np.testing.assert_array_equal(pairs.targets[0], proto)


def test_outlier_ranking_matches_full_sort_oracle():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(30, 5))
    proto = rng.normal(size=5)
    pairs = select_outlier_pairs(emb, proto, 7)
    order = np.argsort(-np.linalg.norm(emb - proto, axis=1), kind="stable")[:7]
    np.testing.assert_array_equal(pairs.inputs, emb[order])


def test_outlier_count_defaults_follow_published_settings():
    cfg = TrainingConfig()
    assert cfg.outliers_inc == 1


def test_too_many_outliers_rejected():
    with pytest.raises(ArgumentError):
        select_outlier_pairs(np.zeros((3, 2)), np.zeros(2), 5)


# -- pseudo labeling ---------------------------------------------------------------


def _blob_stats(rng, n_classes=4, dim=4, spread=6.0):
    means = rng.normal(size=(n_classes, dim)) * spread
    emb = np.concatenate([means[c] + 0.3 * rng.normal(size=(10, dim)) for c in range(n_classes)])
    labels = np.repeat(np.arange(n_classes), 10)
    gaussians, scatter = fit_class_stats(emb, labels, session=0)
    shared = SharedCovariance(matrix=scatter + np.eye(dim))
    return means, gaussians, shared


def test_pool_point_at_class_mean_gets_that_class():
    rng = np.random.default_rng(4)
    means, gaussians, shared = _blob_stats(rng)
    got = pseudo_label(gaussians[2].mean[None, :], gaussians, shared, "mahalanobis")
    assert got.tolist() == [2]


def test_separated_blobs_pseudo_label_perfectly():
    rng = np.random.default_rng(5)
    means, gaussians, shared = _blob_stats(rng, spread=10.0)
    pool = np.concatenate([means[c] + 0.3 * rng.normal(size=(25, 4)) for c in range(4)])
    truth = np.repeat(np.arange(4), 25)
    got = pseudo_label(pool, gaussians, shared, "mahalanobis")
    assert np.array_equal(got, truth)


def test_empty_pool_returns_empty():
    rng = np.random.default_rng(6)
    _, gaussians, shared = _blob_stats(rng)
    assert len(pseudo_label(np.zeros((0, 4)), gaussians, shared, "euclidean")) == 0


# -- prediction net ------------------------------------------------------------------


def test_identity_pairs_reach_small_mse():
    # the linear variant can represent the identity exactly
    rng = np.random.default_rng(7)
    data = rng.normal(size=(20, 4))
    pairs = OutlierPairs(inputs=data, targets=data.copy())
    net = PredictionNet(4, SeededRng(0), depth=1)
    cfg = desk_profile(prednet_epochs=400, prednet_batch_size=20, prednet_lr=1e-2)
    train_prediction_net(net, pairs, cfg, SeededRng(1))
    assert all(p.grad is None for p in net.params().values())
    out = net.apply(data)
    mse = float(((out - data) ** 2).mean())
    assert mse < 1e-4


def test_apply_builds_no_graph(monkeypatch):
    net = PredictionNet(3, SeededRng(11), depth=2)
    x = np.random.default_rng(12).normal(size=(4, 3))
    expected = net(Tensor(x))
    assert expected.requires_grad and expected._parents  # the composed forward builds one
    forward, outputs = PredictionNet.__call__, []
    monkeypatch.setattr(PredictionNet, "__call__", lambda self, t: outputs.append(forward(self, t)) or outputs[-1])
    assert np.array_equal(net.apply(x), expected.data)
    assert not outputs[0].requires_grad and outputs[0]._parents == ()


def test_single_pair_memorized():
    pairs = OutlierPairs(inputs=np.array([[1.0, -2.0]]), targets=np.array([[0.5, 0.5]]))
    net = PredictionNet(2, SeededRng(2), depth=2)
    cfg = desk_profile(prednet_epochs=1200, prednet_batch_size=1, prednet_lr=1e-2)
    train_prediction_net(net, pairs, cfg, SeededRng(3))
    mse = float(((net.apply(pairs.inputs) - pairs.targets) ** 2).mean())
    assert mse < 1e-6


def test_prednet_lr_default():
    assert TrainingConfig().prednet_lr == 1e-3


def test_empty_pairs_rejected():
    net = PredictionNet(2, SeededRng(4))
    with pytest.raises(ArgumentError):
        train_prediction_net(net, OutlierPairs(np.zeros((0, 2)), np.zeros((0, 2))), desk_profile(), SeededRng(5))
    with pytest.raises(ArgumentError):
        merge_pairs([])


def test_linear_variant_and_depth_validation():
    net = PredictionNet(3, SeededRng(6), depth=1)
    assert len(net.layers) == 1
    with pytest.raises(ArgumentError):
        PredictionNet(3, SeededRng(7), depth=5)


def test_prediction_net_gradients():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 3))

    def f(w):
        net = PredictionNet(3, SeededRng(9), depth=2)
        net.layers[0].weight = w
        diff = net(Tensor(x)) - Tensor(t)
        return (diff * diff).mean()

    start = PredictionNet(3, SeededRng(9), depth=2).layers[0].weight.data
    assert grad_check(f, Tensor(start.copy()), tol=1e-4).passed


def _mlp_arrays(depth, dtype=np.float64, batch=5, dim=4, hidden=6):
    """(x, target, w1, b1[, w2, b2]) with nonzero biases."""
    rng = np.random.default_rng(20 + depth)
    widths = [(dim, dim)] if depth == 1 else [(dim, hidden), (hidden, dim)]
    arrays = [rng.normal(size=(batch, dim)), rng.normal(size=(batch, dim))]
    for fan_in, fan_out in widths:
        arrays += [rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in), rng.normal(size=fan_out) * 0.5]
    return [a.astype(dtype) for a in arrays]


def _split(flat, shapes):
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    return [flat[end - int(np.prod(shape)) : end].reshape(shape) for shape, end in zip(shapes, ends)]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("dtype, tol, step", [(np.float64, 1e-4, 1e-5), (np.float32, 5e-2, 1e-2)])
def test_mse_gradients_pass_grad_check(depth, dtype, tol, step):
    x, target, *params = _mlp_arrays(depth, dtype)
    shapes = [p.shape for p in params]

    def f(theta):  # the closed-form loss as a one-node graph over the flat parameters
        flat = theta.data.astype(dtype)
        grad = np.empty_like(flat)
        loss = mse_gradients(x, target, _split(flat, shapes), _split(grad, shapes))
        return _result(np.asarray(loss), (theta,), lambda g: theta._accumulate(g * grad))

    report = grad_check(f, Tensor(np.concatenate([p.reshape(-1) for p in params]), dtype=dtype), tol=tol, step=step)
    assert report.passed, f"depth {depth}: {report}"


@pytest.mark.parametrize("depth", [1, 2])
def test_mse_gradients_match_the_composed_prediction_net_bitwise(depth):
    x, target, *params = _mlp_arrays(depth)
    net = PredictionNet(4, SeededRng(0), depth=depth, hidden=6)
    tensors = [t for layer in net.layers for t in (layer.weight, layer.bias)]
    for t, a in zip(tensors, params):
        t.data = a.copy()
    diff = net(Tensor(x)) - Tensor(target)
    expected = (diff * diff).mean()
    expected.backward()
    grads = [np.empty_like(a) for a in params]
    assert mse_gradients(x, target, params, grads) == expected.item()
    for grad, t in zip(grads, tensors):
        assert np.array_equal(grad, t.grad)


def _backprop_trained(net, pairs, config, rng, log):
    """The graph path the closed-form step replaced (the oracle): the composed
    forward and MSE, backpropagated, with one optimizer entry per layer tensor."""
    opt = make_optimizer(config.optimizer, [{"params": list(net.params().values()), "lr": config.prednet_lr, "weight_decay": config.prednet_weight_decay}])

    def batch_loss(idx, epoch, start):
        diff = net(Tensor(pairs.inputs[idx])) - Tensor(pairs.targets[idx])
        return (diff * diff).mean()

    run_epochs(opt, len(pairs), config.prednet_batch_size, config.prednet_epochs, rng, backprop_step(opt, batch_loss), log, "prediction_net", 3)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("optimizer", ["sgd", "adam", "adamw"])
@pytest.mark.parametrize("n, batch", [(7, 3), (12, 5)])
def test_closed_form_training_matches_backprop_bitwise(depth, optimizer, n, batch):
    rng = np.random.default_rng(30)
    pairs = OutlierPairs(inputs=rng.normal(size=(n, 5)), targets=rng.normal(size=(n, 5)))
    cfg = desk_profile(optimizer=optimizer, prednet_epochs=12, prednet_batch_size=batch, prednet_lr=3e-2, prednet_weight_decay=0.05)
    nets = [PredictionNet(5, SeededRng(31), depth=depth, hidden=7) for _ in range(2)]
    logs = [EventLog(None), EventLog(None)]
    train_prediction_net(nets[0], pairs, cfg, SeededRng(32), log=logs[0], session=3)
    _backprop_trained(nets[1], pairs, cfg, SeededRng(32), logs[1])
    assert logs[0].records == logs[1].records
    closed, oracle = (net.params() for net in nets)
    assert list(closed) == list(oracle)
    for name in closed:
        assert np.array_equal(closed[name].data, oracle[name].data), name
        assert closed[name].grad is None


def test_prediction_net_training_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("prediction-net training backpropagated a graph")

    monkeypatch.setattr(Tensor, "backward", refuse)
    pairs = OutlierPairs(inputs=np.eye(3), targets=np.ones((3, 3)))
    train_prediction_net(PredictionNet(3, SeededRng(33)), pairs, desk_profile(prednet_epochs=2), SeededRng(34))


def test_train_prediction_net_rejects_bad_shapes():
    net = PredictionNet(3, SeededRng(35))
    cfg = desk_profile(prednet_epochs=1)
    for inputs, targets in [(np.zeros(3), np.zeros(3)), (np.zeros((4, 3)), np.zeros((4, 2))), (np.zeros((4, 2)), np.zeros((4, 2)))]:
        with pytest.raises(ArgumentError):
            train_prediction_net(net, OutlierPairs(inputs, targets), cfg, SeededRng(36))


# -- rectification --------------------------------------------------------------------


def test_identity_net_is_exact_fixed_point():
    net = PredictionNet.identity(5)
    mu = np.random.default_rng(10).normal(size=5)
    out = rectify_prototype(net, mu)
    assert np.array_equal(out, mu)


def test_rectify_linear_shift_case():
    # P(mu) = mu + 2b  =>  R(mu) = mu + b
    net = PredictionNet.identity(3)
    b = np.array([0.5, -1.0, 2.0])
    net.layers[0].bias.data = 2.0 * b
    mu = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(rectify_prototype(net, mu), mu + b, atol=1e-12)


def test_rectify_matches_half_sum_oracle():
    rng = np.random.default_rng(11)
    net = PredictionNet(6, SeededRng(12), depth=2)
    for _ in range(20):
        mu = rng.normal(size=6)
        oracle = 0.5 * (net.apply(mu) + mu)
        np.testing.assert_allclose(rectify_prototype(net, mu), oracle, atol=1e-12)


def test_rectify_dim_mismatch():
    with pytest.raises(ArgumentError):
        rectify_prototype(PredictionNet.identity(4), np.zeros(6))


# -- refinement -------------------------------------------------------------------------


def test_refine_with_identity_net_keeps_means():
    rng = np.random.default_rng(13)
    emb = rng.normal(size=(12, 3))
    labels = np.repeat([0, 1], 6)
    gaussians, _ = fit_class_stats(emb, labels, session=0)
    refined = refine_gaussian_stats(PredictionNet.identity(3), gaussians)
    for g, r in zip(gaussians, refined, strict=True):
        np.testing.assert_array_equal(g.mean, r.mean)
        assert (r.class_id, r.session, r.count) == (g.class_id, g.session, g.count)


def test_refine_two_point_hand_case():
    emb = np.array([[0.0, 0.0], [2.0, 0.0]])
    labels = np.array([0, 0])
    gaussians, _ = fit_class_stats(emb, labels, session=1)
    net = PredictionNet.identity(2)
    net.layers[0].bias.data = np.array([1.0, 0.0])  # P(x) = x + (1, 0)

    refined = refine_gaussian_stats(net, gaussians)
    # by hand: mu = (1,0); R(mu) = (mu + P(mu))/2 = (1.5, 0)
    np.testing.assert_allclose(refined[0].mean, [1.5, 0.0], atol=1e-10)
    assert (refined[0].class_id, refined[0].session, refined[0].count) == (0, 1, 2)


def test_per_session_net_isolation():
    net_a = PredictionNet(3, SeededRng(14), depth=2)
    frozen = hash_state(net_a)
    pairs = OutlierPairs(inputs=np.random.default_rng(15).normal(size=(6, 3)), targets=np.zeros((6, 3)))
    net_b = PredictionNet(3, SeededRng(16), depth=2)
    train_prediction_net(net_b, pairs, desk_profile(prednet_epochs=20, prednet_batch_size=6), SeededRng(17))
    assert hash_state(net_a) == frozen


# -- planted-bias de-biasing (Monte Carlo) ------------------------------------------------


def test_planted_bias_debiasing_smoke():
    from mc_helpers import planted_bias_trial

    wins = sum(planted_bias_trial(seed) for seed in range(60))
    assert wins >= 0.8 * 60, f"only {wins}/60 trials improved"


def test_prediction_net_logs_its_gradient_norm_and_rejects_a_non_finite_one(monkeypatch):
    pairs = OutlierPairs(inputs=np.eye(3), targets=np.ones((3, 3)))
    log = EventLog(None)
    train_prediction_net(PredictionNet(3, SeededRng(37)), pairs, desk_profile(prednet_epochs=2), SeededRng(38), log=log, session=2)
    assert [r["epoch"] for r in log.records if r["key"] == "grad_norm"] == [0, 1]
    assert all(np.isfinite(v) and v > 0 for v in log.series("prediction_net", "grad_norm", session=2))

    def planted(inputs, targets, params, grads):
        loss = mse_gradients(inputs, targets, params, grads)
        grads[0][0, 0] = np.nan
        return loss

    monkeypatch.setattr(prototype_rectification, "mse_gradients", planted)
    with pytest.raises(NumericError, match="non-finite gradient in phase 'prediction_net', session 2, epoch 0") as info:
        train_prediction_net(PredictionNet(3, SeededRng(37)), pairs, desk_profile(prednet_epochs=2), SeededRng(38), session=2)
    assert info.value.exit_code == 5
