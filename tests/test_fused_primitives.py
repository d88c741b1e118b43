"""Fused primitives: gradient checks, equality with the composed-op oracles,
gradient routing, graph release and the graph size of one training step."""

import numpy as np
import pytest

from fscil.backbone import Encoder
from fscil.base_trainer import cross_entropy_loss
from fscil.config import toy_fscil_config
from fscil.errors import ArgumentError, UsageError
from fscil.numerics import (
    SeededRng,
    Tensor,
    _as_tensor,
    _result,
    attention,
    batch_norm,
    broadcast_to,
    grad_check,
    log_softmax,
    log_softmax_nll,
    reshape,
    softmax,
    sqrt,
    tensor_mean,
)
from fscil.stochastic_classifier import StochasticHead

D, HEADS, DK = 6, 2, 3


def _weights(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "wq": Tensor(rng.normal(size=(D, HEADS, DK)) * 0.5, requires_grad=True),
        "wk": Tensor(rng.normal(size=(D, HEADS, DK)) * 0.5, requires_grad=True),
        "wv": Tensor(rng.normal(size=(D, HEADS, DK)) * 0.5, requires_grad=True),
        "wo": Tensor(rng.normal(size=(D, D)) * 0.5, requires_grad=True),
        "pk": Tensor(rng.normal(size=(2, D)), requires_grad=True),
        "pv": Tensor(rng.normal(size=(2, D)), requires_grad=True),
    }


def _tokens(ndim, seed=1):
    shape = (4, D) if ndim == 2 else (3, 4, D)
    return np.random.default_rng(seed).normal(size=shape)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenation as a graph node; the composed attention oracle joins
    prefixes and heads with it."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                t._accumulate(g[tuple(sl)])
            offset += size

    return _result(data, tuple(tensors), backward)


def with_head(w: Tensor, index: int, t) -> Tensor:
    """The (D, H, DK) `w` with head `index`'s (D, DK) slice replaced by `t`, as a graph node."""
    return concat([w.data[:, :index], reshape(_as_tensor(t), (D, 1, DK)), w.data[:, index + 1 :]], axis=1)


def composed_attention(x, wq, wk, wv, wo, prefix_kv=None):
    """Per-head attention from the elementwise primitives (the unfused oracle);
    head h reads the (d, d_k) slices [:, h] of the (d, H, d_k) weights."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    heads = []
    for h in range(wq.shape[1]):
        q_w, k_w, v_w = wq[:, h], wk[:, h], wv[:, h]
        q, k, v = x @ q_w, x @ k_w, x @ v_w
        if prefix_kv is not None:
            k_pre, v_pre = prefix_kv[0] @ k_w, prefix_kv[1] @ v_w
            if x.ndim == 3:
                b = x.shape[0]
                k_pre = broadcast_to(reshape(k_pre, (1,) + k_pre.shape), (b,) + k_pre.shape)
                v_pre = broadcast_to(reshape(v_pre, (1,) + v_pre.shape), (b,) + v_pre.shape)
            k, v = concat([k_pre, k], axis=-2), concat([v_pre, v], axis=-2)
        heads.append(softmax((q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q_w.shape[1])), axis=-1) @ v)
    return concat(heads, axis=-1) @ wo


def composed_batch_norm(x, gamma, beta, feature_axis):
    """Train-mode batch-norm from the elementwise primitives."""
    axis = feature_axis % x.ndim
    reduce_axes = tuple(i for i in range(x.ndim) if i != axis)
    shape = tuple(x.shape[i] if i == axis else 1 for i in range(x.ndim))
    centered = x - tensor_mean(x, axis=reduce_axes, keepdims=True)
    var = tensor_mean(centered * centered, axis=reduce_axes, keepdims=True)
    return reshape(gamma, shape) * (centered / sqrt(var + 1e-5)) + reshape(beta, shape)


def _check(f, x, tol=1e-4, step=1e-5):
    report = grad_check(f, x, tol=tol, step=step)
    assert report.passed, report
    return report


# -- gradient checks -------------------------------------------------------------------


ATTENTION_CASES = [
    (ndim, with_prefix, target, index)
    for ndim in (2, 3)
    for with_prefix in (False, True)
    for target, index in [("x", None), ("wq", 0), ("wk", 1), ("wv", 0), ("wo", None)] + ([("pk", None), ("pv", None)] if with_prefix else [])
]


@pytest.mark.parametrize("ndim,with_prefix,target,index", ATTENTION_CASES)
def test_attention_passes_grad_check(ndim, with_prefix, target, index):
    """`index` names the head whose (D, DK) slice of a q/k/v weight is perturbed."""
    tokens = _tokens(ndim)
    start = tokens if target == "x" else (_weights()[target].data if index is None else _weights()[target].data[:, index])

    def f(t):
        w = _weights()
        if target == "x":
            x = t
        else:
            x = Tensor(tokens)
            if index is None:
                w[target] = t
            else:
                w[target] = with_head(w[target], index, t)
        kv = (w["pk"], w["pv"]) if with_prefix else None
        out, _ = attention(x, w["wq"], w["wk"], w["wv"], w["wo"], kv)
        return (out * out).sum()

    _check(f, Tensor(start.copy()))


def features_last_batch_norm(x, gamma, beta, running_mean, running_var, mode, feature_axis):
    """`batch_norm` of `x` whose features sit on `feature_axis`, returned in `x`'s layout.

    The node normalizes the last axis; features on axis 1 reach it through
    a `swapaxes`, which hands it a non-contiguous view (as channels-first
    data would).
    """
    if feature_axis % x.ndim == x.ndim - 1:
        return batch_norm(x, gamma, beta, running_mean, running_var, mode)
    return batch_norm(x.swapaxes(feature_axis, -1), gamma, beta, running_mean, running_var, mode).swapaxes(feature_axis, -1)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("feature_axis", [1, -1])
@pytest.mark.parametrize("target", ["x", "gamma", "beta"])
def test_batch_norm_passes_grad_check(mode, feature_axis, target):
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4, 3, 5))
    c = x0.shape[feature_axis]
    params = {"x": x0, "gamma": rng.normal(size=c), "beta": rng.normal(size=c)}
    running_mean, running_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
    weights = Tensor(rng.normal(size=x0.shape))

    def f(t):
        args = {name: Tensor(value) for name, value in params.items()}
        args[target] = t
        out = features_last_batch_norm(args["x"], args["gamma"], args["beta"], running_mean.copy(), running_var.copy(), mode, feature_axis)
        return (out * out * weights).sum()

    _check(f, Tensor(params[target].copy()))


def test_log_softmax_nll_passes_grad_check():
    rng = np.random.default_rng(3)
    labels = np.array([0, 3, 3, 1, 2])
    _check(lambda t: log_softmax_nll(t * 2.0, labels), Tensor(rng.normal(size=(5, 4))))


def _head(mu, sigma=None):
    head = StochasticHead(mu.shape[1])
    for m in mu:
        head.add_class(m)
    if sigma is not None:
        head.sigma.data = np.asarray(sigma, dtype=float)
    return head


@pytest.mark.parametrize("target,noise", [("mu", True), ("sigma", True), ("mu", False)])
def test_stochastic_weights_passes_grad_check(target, noise):
    # one class's weights `StochasticHead.weights(eps)[1]`: mu + eps (*) softplus(sigma - c), composed of generic ops
    rng = np.random.default_rng(4)
    mu0, sigma0 = rng.normal(size=(3, 5)), 4.0 + rng.normal(size=(3, 5))
    eps = rng.normal(size=(3, 5)) if noise else None
    weights = Tensor(rng.normal(size=5))

    def f(t):
        head = _head(mu0, sigma0)
        setattr(head, target, t)
        return (head.weights(eps)[1] ** 2 * weights).sum()

    _check(f, Tensor((mu0 if target == "mu" else sigma0).copy()))


@pytest.mark.parametrize("target", ["z", "mu", "sigma"])
@pytest.mark.parametrize("noise", [True, False])
@pytest.mark.parametrize("dtype, tol, step", [(np.float64, 1e-4, 1e-5), (np.float32, 5e-2, 1e-2)])
def test_head_loss_passes_grad_check(target, noise, dtype, tol, step):
    rng = np.random.default_rng(4)
    arrays = {"z": rng.normal(size=(5, 4)), "mu": rng.normal(size=(3, 4)), "sigma": 4.0 + rng.normal(size=(3, 4))}
    labels = np.array([0, 2, 2, 1, 0])

    def f(t):
        args = {name: Tensor(a, dtype=dtype) for name, a in arrays.items()}
        args[target] = t
        head = _head(arrays["mu"])
        head.mu, head.sigma = args["mu"], args["sigma"]
        return cross_entropy_loss(head, args["z"], labels, SeededRng(9), noise=noise)

    report = _check(f, Tensor(arrays[target], dtype=dtype), tol=tol, step=step)
    assert noise or target != "sigma" or report.max_rel_error == 0.0  # noise off: sigma is out of the loss


def test_float32_fused_grad_checks_at_relaxed_tolerance():
    w = _weights()
    x = Tensor(_tokens(3).astype(np.float32), dtype=np.float32)
    kv = (w["pk"], w["pv"])
    _check(lambda t: (attention(t, w["wq"], w["wk"], w["wv"], w["wo"], kv)[0] ** 2).sum(), x, tol=5e-2, step=1e-2)
    g, b = Tensor(np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.7])), Tensor(np.zeros(D))
    _check(lambda t: (batch_norm(t, g, b, np.zeros(D), np.ones(D), "train") ** 3).sum(), x, tol=5e-2, step=1e-2)
    labels = np.array([0, 1, 2, 1])
    logits = Tensor(np.random.default_rng(5).normal(size=(4, 3)).astype(np.float32), dtype=np.float32)
    _check(lambda t: log_softmax_nll(t, labels), logits, tol=5e-2, step=1e-2)
    probe = Tensor(x.data.copy(), requires_grad=True, dtype=np.float32)
    (attention(probe, w["wq"], w["wk"], w["wv"], w["wo"], kv)[0] ** 2).sum().backward()
    assert probe.grad.dtype == np.float32


@pytest.mark.parametrize("target", ["z", "w"])
@pytest.mark.parametrize("dtype, tol, step", [(np.float64, 1e-4, 1e-5), (np.float32, 5e-2, 1e-2)])
def test_cosine_logits_passes_grad_check(target, dtype, tol, step):
    # `StochasticHead.logits`, the head's cosine scores of a batch, composed of generic ops
    rng = np.random.default_rng(12)
    arrays = {"z": rng.normal(size=(4, 5)), "w": rng.normal(size=(3, 5))}
    weights = rng.normal(size=(4, 3))

    def f(t):
        args = {name: Tensor(a, dtype=dtype) for name, a in arrays.items()}
        args[target] = t
        head = _head(arrays["w"])
        head.mu = args["w"]
        return (head.logits(args["z"]) ** 2 * weights).sum()

    _check(f, Tensor(arrays[target], dtype=dtype), tol=tol, step=step)


# -- equality with the composed oracles ------------------------------------------------


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("with_prefix", [False, True])
def test_attention_matches_composed_oracle(ndim, with_prefix):
    fused_w, oracle_w = _weights(), _weights()
    x_fused, x_oracle = Tensor(_tokens(ndim), requires_grad=True), Tensor(_tokens(ndim), requires_grad=True)
    seed = np.random.default_rng(6).normal(size=x_fused.shape)

    out, maps = attention(x_fused, *(fused_w[k] for k in ("wq", "wk", "wv", "wo")), (fused_w["pk"], fused_w["pv"]) if with_prefix else None)
    expected = composed_attention(x_oracle, *(oracle_w[k] for k in ("wq", "wk", "wv", "wo")), (oracle_w["pk"], oracle_w["pv"]) if with_prefix else None)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)
    assert maps.shape == (HEADS,) + x_fused.shape[:-1] + (x_fused.shape[-2] + (2 if with_prefix else 0),)

    out.backward(seed)
    expected.backward(seed)
    np.testing.assert_allclose(x_fused.grad, x_oracle.grad, atol=1e-12)
    for key in ("wq", "wk", "wv", "wo"):
        np.testing.assert_allclose(fused_w[key].grad, oracle_w[key].grad, atol=1e-12)
    if with_prefix:
        for key in ("pk", "pv"):
            np.testing.assert_allclose(fused_w[key].grad, oracle_w[key].grad, atol=1e-12)


@pytest.mark.parametrize("feature_axis", [1, -1])
def test_batch_norm_train_matches_composed_oracle(feature_axis):
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 3, 5)) * 2.0 + 1.0
    c = x0.shape[feature_axis]
    g0, b0 = rng.normal(size=c), rng.normal(size=c)
    leaves = [[Tensor(a.copy(), requires_grad=True) for a in (x0, g0, b0)] for _ in range(2)]
    running = [(np.zeros(c), np.ones(c)) for _ in range(2)]
    seed = rng.normal(size=x0.shape)

    fused = features_last_batch_norm(*leaves[0], *running[0], "train", feature_axis)
    expected = composed_batch_norm(*leaves[1], feature_axis)
    np.testing.assert_allclose(fused.data, expected.data, atol=1e-12)
    axes = tuple(i for i in range(3) if i != feature_axis % 3)
    np.testing.assert_allclose(running[0][0], 0.1 * x0.mean(axis=axes), atol=1e-12)
    np.testing.assert_allclose(running[0][1], 0.9 + 0.1 * x0.var(axis=axes), atol=1e-12)

    fused.backward(seed)
    expected.backward(seed)
    for fused_t, oracle_t in zip(*leaves):
        np.testing.assert_allclose(fused_t.grad, oracle_t.grad, atol=1e-12)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_frozen_scale_and_shift_get_no_gradient(mode):
    rng = np.random.default_rng(10)
    x0, g0, b0 = rng.normal(size=(4, 3, 5)), rng.normal(size=5), rng.normal(size=5)
    running_var = rng.uniform(0.5, 2.0, size=5)
    seed = rng.normal(size=x0.shape)
    grads = []
    for live in (True, False):
        x, gamma, beta = Tensor(x0, requires_grad=True), Tensor(g0, requires_grad=live), Tensor(b0, requires_grad=live)
        batch_norm(x, gamma, beta, np.zeros(5), running_var.copy(), mode).backward(seed)
        assert (gamma.grad is None, beta.grad is None) == (not live, not live)
        grads.append(x.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_batch_norm_eval_calibrated_stats_are_exact_identity():
    x = np.random.default_rng(8).normal(size=(5, 3))
    out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), "eval")
    assert np.array_equal(out.data, x)


def test_log_softmax_nll_matches_one_hot_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        batch, classes = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        logits = rng.normal(size=(batch, classes)) * 5.0
        labels = rng.integers(0, classes, size=batch)
        fused_in, oracle_in = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        onehot = np.zeros((batch, classes))
        onehot[np.arange(batch), labels] = 1.0
        fused = log_softmax_nll(fused_in, labels)
        expected = -(Tensor(onehot) * log_softmax(oracle_in, axis=-1)).sum() * (1.0 / batch)
        assert abs(fused.item() - expected.item()) <= 1e-12
        fused.backward()
        expected.backward()
        np.testing.assert_allclose(fused_in.grad, oracle_in.grad, atol=1e-12)


def test_log_softmax_nll_rejects_bad_labels():
    logits = Tensor(np.zeros((2, 3)))
    for labels in (np.array([0, 3]), np.array([-1, 0]), np.array([0.0, 1.0]), np.array([0])):
        with pytest.raises(ArgumentError):
            log_softmax_nll(logits, labels)


@pytest.mark.parametrize("noise", [False, True])
def test_head_loss_matches_the_composed_graph_bitwise(noise):
    # the oracle: the head's composed `logits` graph (softplus, l2_normalize, matmul) under log_softmax_nll
    rng = np.random.default_rng(13)
    z0, mu0, sigma0 = rng.normal(size=(6, 5)), rng.normal(size=(4, 5)), 4.0 + rng.normal(size=(4, 5))
    eps = SeededRng(14).normal(size=(4, 5)) if noise else None
    labels = np.array([0, 3, 1, 1, 2, 0])
    sides = []
    for fused in (True, False):
        z, head = Tensor(z0.copy(), requires_grad=True), _head(mu0, sigma0)
        if fused:
            loss = cross_entropy_loss(head, z, labels, SeededRng(14), noise=noise)
            assert _graph_size(loss) == 3 + noise  # the node, z, mu and (with noise) sigma
        else:
            loss = log_softmax_nll(head.logits(z, eps), labels)
        loss.backward()
        sides.append([loss.data, z.grad, head.mu.grad] + ([head.sigma.grad] if noise else [head.sigma.grad is None]))
    for fused, oracle in zip(*sides):
        assert np.array_equal(fused, oracle)


def test_head_loss_rejects_mismatched_operands():
    head = _head(np.ones((3, 4)))
    rng = SeededRng(0)
    for z, labels in [
        (np.ones(4), np.array([0])),  # a single feature, not a batch
        (np.ones((2, 5)), np.array([0, 1])),  # features wider than the head
        (np.ones((2, 4)), np.array([0])),  # one label for two features
        (np.ones((2, 4)), np.array([0.0, 1.0])),  # float labels
        (np.ones((2, 4)), np.array([0, 3])),  # a label past the last class
        (np.ones((0, 4)), np.zeros(0, dtype=int)),  # an empty batch
    ]:
        with pytest.raises(ArgumentError):
            cross_entropy_loss(head, Tensor(z), labels, rng)


# -- gradient routing --------------------------------------------------------------------


def test_shared_gradient_array_is_not_mutated():
    # the outer add hands one array to both the inner add and `a`; a later
    # write into `a` must not change what `b` receives
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    seed = np.ones(2)
    ((a + b) + a).backward(seed)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    np.testing.assert_array_equal(seed, [1.0, 1.0])


# -- graph release -----------------------------------------------------------------------


def test_backward_releases_intermediate_nodes_and_keeps_leaf_gradients():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    mid = x * 2.0
    loss = (mid * mid).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 8.0 * x.data)
    assert loss.item() == 56.0
    for node in (mid, loss):
        assert node.grad is None and node._parents == ()


def test_backward_through_a_released_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    z = x * 3.0
    loss = (z * z).sum()
    loss.backward()
    with pytest.raises(UsageError):
        loss.backward()
    with pytest.raises(UsageError):  # a second loss on `z` must not stop silently at `z`
        (z * 2.0).sum().backward()


class _Unexpandable(Tensor):
    """A leaf whose parent links fail the test when read."""

    __slots__ = ()

    @property
    def _parents(self):
        raise AssertionError("backward expanded a tensor that needs no gradient")

    @_parents.setter
    def _parents(self, value):
        pass


def test_backward_never_expands_a_parent_that_needs_no_gradient():
    x = Tensor([1.0, -2.0], requires_grad=True)
    frozen = _Unexpandable([3.0, 4.0])
    (x * frozen).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 4.0])
    assert frozen.grad is None


# -- head eps stream and graph size --------------------------------------------------------


def test_head_eps_row_independent_of_class_count():
    rng = np.random.default_rng(11)
    means = rng.normal(size=(9, 5))
    small, large = StochasticHead(5), StochasticHead(5)
    for m in means[:6]:
        small.add_class(m)
    for m in means:
        large.add_class(m)
    few, many = (h.draw(SeededRng(3).child("eps", "e0", "b0")) for h in (small, large))
    assert few.shape == (6, 5) and np.array_equal(few, many[:6])


def _graph_size(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _toy_step_nodes(classes: int) -> int:
    cfg = toy_fscil_config().model
    rng = SeededRng(0)
    encoder = Encoder(cfg, rng.child("encoder")).train()
    head = StochasticHead(cfg.embed_dim)
    for m in range(classes):
        head.add_class(rng.child("mu", m).normal(size=cfg.embed_dim))
    images = rng.child("images").normal(size=(64, cfg.in_channels, cfg.image_size, cfg.image_size))
    loss = cross_entropy_loss(head, encoder.forward(Tensor(images)), np.arange(64) % classes, rng.child("eps"))
    return _graph_size(loss)


def test_toy_training_step_graph_size():
    # one (d, H, d_k) leaf per q/k/v role, one (M, d) mu and sigma leaf whatever M is,
    # one node for the head's loss, and a reshape and a product for the pool
    assert _toy_step_nodes(10) == _toy_step_nodes(74) == 60
