"""Property tests of the elementwise, activation, reduction, softmax, shape,
indexing, matmul and broadcast primitives, of the fused `batch_norm`,
`log_softmax_nll` and `attention` nodes, of the encoder's sequence pool,
and of the stochastic head's weights and loss node.

Hypothesis draws the shapes, broadcasts, axes and a value seed; each case
checks the forward value against numpy and the gradient of every input
against `grad_check`.  float64 runs at the default tolerance, float32 at
the relaxed `tol=5e-2, step=1e-2`.  The tests are derandomized with a fixed
example count, so every run checks the same cases.  A Python or numpy scalar
operand, a float array operand, a numpy exponent, and GELU keep a tensor's
dtype.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from fscil.backbone import BackboneConfig, Encoder
from fscil.numerics import (
    SeededRng,
    Tensor,
    add,
    attention,
    batch_norm,
    broadcast_to,
    div,
    exp,
    gelu,
    gelu_cdf,
    gelu_grad,
    grad_check,
    log,
    log_softmax,
    log_softmax_nll,
    matmul,
    mul,
    power,
    relu,
    reshape,
    softmax,
    softplus,
    sqrt,
    swapaxes,
    take,
    tensor_mean,
    tensor_sum,
)
from fscil.stochastic_classifier import StochasticHead, cross_entropy_loss
from test_phi_and_expit import phi_oracle

PRECISION = {np.float64: {}, np.float32: {"tol": 5e-2, "step": 1e-2}}
FORWARD_RTOL = {np.float64: 1e-12, np.float32: 1e-5}
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
dtypes = st.sampled_from([np.float64, np.float32])
seeds = st.integers(0, 2**16)
shapes = hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)


def normal(rng, shape):
    return rng.normal(size=shape)


def away_from_zero(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, size=shape)


def positive(rng, shape):
    return rng.uniform(0.5, 2.0, size=shape)


def check(f, inputs, out_shape, dtype, rng):
    """grad_check each input of the scalar sum(f(*inputs) * W), W a random fixed array."""
    w = Tensor(rng.normal(size=out_shape), dtype=dtype)
    for i in range(len(inputs)):

        def scalar(t, i=i):
            args = [Tensor(a, dtype=dtype) for a in inputs]
            args[i] = t
            return tensor_sum(mul(f(*args), w))

        report = grad_check(scalar, Tensor(inputs[i], dtype=dtype), **PRECISION[dtype])
        assert report.passed, (i, report)


BINARY = {
    "add": (add, np.add, normal),
    "mul": (mul, np.multiply, normal),
    "div": (div, np.divide, away_from_zero),
}


@PROPERTY
@given(
    name=st.sampled_from(sorted(BINARY)),
    broadcast=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
    dtype=dtypes,
    seed=seeds,
)
def test_binary_primitives_broadcast_and_pass_grad_check(name, broadcast, dtype, seed):
    op, oracle, draw_b = BINARY[name]
    rng = np.random.default_rng(seed)
    a, b = normal(rng, broadcast.input_shapes[0]), draw_b(rng, broadcast.input_shapes[1])
    out = op(Tensor(a, dtype=dtype), Tensor(b, dtype=dtype))
    assert out.shape == broadcast.result_shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, oracle(np.asarray(a, dtype), np.asarray(b, dtype)), rtol=FORWARD_RTOL[dtype])
    check(op, [a, b], broadcast.result_shape, dtype, rng)


@PROPERTY
@given(shape=shapes, exponent=st.sampled_from([-1.5, -1.0, 0.5, 2.0, 3.0]), dtype=dtypes, seed=seeds)
def test_power_passes_grad_check(shape, exponent, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, size=shape)
    out = power(Tensor(a, dtype=dtype), exponent)
    assert out.shape == shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, np.asarray(a, dtype) ** exponent, rtol=FORWARD_RTOL[dtype])
    check(lambda t: power(t, exponent), [a], shape, dtype, rng)


@st.composite
def reductions(draw):
    """(shape, axis): axis None, one (possibly negative) axis or a tuple of axes."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    axis = draw(st.none() | st.integers(-len(shape), len(shape) - 1) | hnp.valid_tuple_axes(len(shape), min_size=1))
    return shape, axis


@PROPERTY
@given(reduction=reductions(), keepdims=st.booleans(), mean=st.booleans(), dtype=dtypes, seed=seeds)
def test_sum_and_mean_over_axes_pass_grad_check(reduction, keepdims, mean, dtype, seed):
    shape, axis = reduction
    op, oracle = (tensor_mean, np.mean) if mean else (tensor_sum, np.sum)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    expected = oracle(np.asarray(a, dtype), axis=axis, keepdims=keepdims)
    out = op(Tensor(a, dtype=dtype), axis=axis, keepdims=keepdims)
    assert out.shape == expected.shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, expected, rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(lambda t: op(t, axis=axis, keepdims=keepdims), [a], expected.shape, dtype, rng)


@st.composite
def broadcasts(draw):
    """(source, target): source takes a suffix of target's axes, each either its size or 1."""
    target = draw(shapes)
    kept = draw(st.integers(0, len(target)))
    source = tuple(draw(st.sampled_from([1, side])) for side in target[len(target) - kept :])
    return source, target


@PROPERTY
@given(pair=broadcasts(), dtype=dtypes, seed=seeds)
def test_broadcast_to_passes_grad_check(pair, dtype, seed):
    source, target = pair
    rng = np.random.default_rng(seed)
    a = rng.normal(size=source)
    out = broadcast_to(Tensor(a, dtype=dtype), target)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, np.broadcast_to(np.asarray(a, dtype), target))
    check(lambda t: broadcast_to(t, target), [a], target, dtype, rng)


# name -> (primitive, numpy oracle, input draw); relu's inputs keep off its kink
UNARY = {
    "exp": (exp, np.exp, normal),
    "log": (log, np.log, positive),
    "sqrt": (sqrt, np.sqrt, positive),
    "relu": (relu, lambda a: np.maximum(a, 0.0), away_from_zero),
    "gelu": (gelu, lambda a: a * phi_oracle(a.astype(np.float64)), normal),
    "softplus": (softplus, lambda a: np.log1p(np.exp(a.astype(np.float64))), normal),
}


@PROPERTY
@given(name=st.sampled_from(sorted(UNARY)), shape=shapes, dtype=dtypes, seed=seeds)
def test_unary_primitives_match_numpy_and_pass_grad_check(name, shape, dtype, seed):
    op, oracle, draw = UNARY[name]
    rng = np.random.default_rng(seed)
    a = draw(rng, shape)
    out = op(Tensor(a, dtype=dtype))
    assert out.shape == shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, oracle(np.asarray(a, dtype)), rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(op, [a], shape, dtype, rng)


@st.composite
def shape_and_axis(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    return shape, draw(st.integers(-len(shape), len(shape) - 1))


@PROPERTY
@given(case=shape_and_axis(), log_space=st.booleans(), dtype=dtypes, seed=seeds)
def test_softmax_and_log_softmax_match_scipy_and_pass_grad_check(case, log_space, dtype, seed):
    shape, axis = case
    op, oracle = (log_softmax, special.log_softmax) if log_space else (softmax, special.softmax)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 2
    out = op(Tensor(a, dtype=dtype), axis=axis)
    assert out.shape == shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, oracle(np.asarray(a, dtype).astype(np.float64), axis=axis), rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(lambda t: op(t, axis=axis), [a], shape, dtype, rng)


@PROPERTY
@given(
    operands=hnp.mutually_broadcastable_shapes(signature=np.matmul.signature, max_dims=2, max_side=3),
    dtype=dtypes,
    seed=seeds,
)
def test_matmul_matches_numpy_over_1d_2d_and_batched_operands(operands, dtype, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=shape) for shape in operands.input_shapes)
    out = matmul(Tensor(a, dtype=dtype), Tensor(b, dtype=dtype))
    assert out.shape == operands.result_shape and out.dtype == dtype
    np.testing.assert_allclose(out.data, np.asarray(a, dtype) @ np.asarray(b, dtype), rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(matmul, [a, b], operands.result_shape, dtype, rng)


@st.composite
def basic_indexing(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    return shape, draw(hnp.basic_indices(shape, allow_newaxis=False))


@PROPERTY
@given(case=basic_indexing(), dtype=dtypes, seed=seeds)
def test_take_matches_numpy_indexing_and_passes_grad_check(case, dtype, seed):
    shape, idx = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    want = np.asarray(a, dtype)[idx]
    out = take(Tensor(a, dtype=dtype), idx)
    assert out.shape == want.shape and out.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    check(lambda t: take(t, idx), [a], want.shape, dtype, rng)


@st.composite
def shape_ops(draw):
    """(shape, name, op): a reshape to an equal-size shape or a swap of two axes."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        target = draw(st.sampled_from([(size,), (-1,), shape[::-1], (1,) + shape, (size, 1)]))
        return shape, (lambda t: reshape(t, target)), (lambda a: a.reshape(target))
    ax1, ax2 = (draw(st.integers(-len(shape), len(shape) - 1)) for _ in range(2))
    return shape, (lambda t: swapaxes(t, ax1, ax2)), (lambda a: a.swapaxes(ax1, ax2))


@PROPERTY
@given(case=shape_ops(), dtype=dtypes, seed=seeds)
def test_reshape_and_swapaxes_match_numpy_and_pass_grad_check(case, dtype, seed):
    shape, op, oracle = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    want = oracle(np.asarray(a, dtype))
    out = op(Tensor(a, dtype=dtype))
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    check(op, [a], want.shape, dtype, rng)


def batch_norm_oracle(x, gamma, beta, running_mean, running_var, train, eps, momentum):
    """Output and updated running stats of batch-norm over every axis but the last."""
    rows = x.reshape(-1, x.shape[-1]).astype(np.float64)
    if train:
        mean, var = rows.mean(axis=0), rows.var(axis=0)
        out = (x - mean) / np.sqrt(var + eps) * gamma + beta
        return out, (1 - momentum) * running_mean + momentum * mean, (1 - momentum) * running_var + momentum * var
    return (x - running_mean) / np.sqrt(np.maximum(running_var, eps)) * gamma + beta, running_mean, running_var


@PROPERTY
@given(
    lead=st.sampled_from([(2,), (3,), (2, 2), (1, 3), (3, 2)]),
    channels=st.integers(1, 3),
    train=st.booleans(),
    dtype=dtypes,
    seed=seeds,
)
def test_batch_norm_matches_its_definition_and_passes_grad_check(lead, channels, train, dtype, seed):
    # train mode needs at least two rows per feature; every lead shape has two
    rng = np.random.default_rng(seed)
    shape = lead + (channels,)
    x, gamma, beta = rng.normal(size=shape) * 2 + 1, positive(rng, channels), rng.normal(size=channels)
    stats = rng.normal(size=channels), positive(rng, channels)
    mode = "train" if train else "eval"

    def f(x, gamma, beta, running=None):
        if running is None:  # fresh stats on every grad_check call: train mode updates them in place
            running = [np.array(s, dtype=dtype) for s in stats]
        return batch_norm(x, gamma, beta, *running, mode, eps=1e-5, momentum=0.1)

    running = [np.array(s, dtype=dtype) for s in stats]
    out = f(*(Tensor(a, dtype=dtype) for a in (x, gamma, beta)), running)
    assert out.shape == shape and out.dtype == dtype
    want, *want_stats = batch_norm_oracle(*(np.asarray(a, dtype) for a in (x, gamma, beta, *stats)), train, 1e-5, 0.1)
    tol = FORWARD_RTOL[dtype] * 10
    for got, expected in zip([out.data, *running], [want, *want_stats]):
        np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)
    check(f, [x, gamma, beta], shape, dtype, rng)


@PROPERTY
@given(batch=st.integers(1, 4), classes=st.integers(1, 4), dtype=dtypes, seed=seeds)
def test_log_softmax_nll_matches_scipy_and_passes_grad_check(batch, classes, dtype, seed):
    rng = np.random.default_rng(seed)
    logits, labels = rng.normal(size=(batch, classes)) * 2, rng.integers(0, classes, size=batch)
    out = log_softmax_nll(Tensor(logits, dtype=dtype), labels)
    assert out.shape == () and out.dtype == dtype
    want = -special.log_softmax(np.asarray(logits, dtype).astype(np.float64), axis=1)[np.arange(batch), labels].mean()
    np.testing.assert_allclose(out.data, want, rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(lambda t: log_softmax_nll(t, labels), [logits], (), dtype, rng)


# name -> (the Tensor expression, the same expression on a numpy array);
# numpy keeps an array's dtype against a Python or numpy scalar, and against
# an array operand of the same dtype
SCALAR_OPS = {
    "x * 2.0": (lambda x: x * 2.0, lambda a: a * 2.0),
    "0.5 * x": (lambda x: 0.5 * x, lambda a: 0.5 * a),
    "x + 1.0": (lambda x: x + 1.0, lambda a: a + 1.0),
    "1.0 - x": (lambda x: 1.0 - x, lambda a: 1.0 - a),
    "x - 1.5": (lambda x: x - 1.5, lambda a: a - 1.5),
    "x / 2.0": (lambda x: x / 2.0, lambda a: a / 2.0),
    "3.0 / x": (lambda x: 3.0 / x, lambda a: 3.0 / a),
    "x * np.float64(0.1)": (lambda x: x * np.float64(0.1), lambda a: a * a.dtype.type(0.1)),
    "add(x, 2)": (lambda x: add(x, 2), lambda a: a + 2),
    "x * array": (lambda x: x * np.full(x.shape, 0.5, x.dtype), lambda a: a * np.full(a.shape, 0.5, a.dtype)),
    "x - array": (lambda x: x - np.full(x.shape, 2.0, x.dtype), lambda a: a - np.full(a.shape, 2.0, a.dtype)),
    "x ** np.float64(2.0)": (lambda x: x ** np.float64(2.0), lambda a: a**2.0),
}


@PROPERTY
@given(name=st.sampled_from(sorted(SCALAR_OPS)), shape=shapes, dtype=dtypes, seed=seeds)
@example(name="x * array", shape=(2, 3), dtype=np.float32, seed=0)
@example(name="x - array", shape=(3,), dtype=np.float32, seed=1)
@example(name="x ** np.float64(2.0)", shape=(2, 2), dtype=np.float32, seed=2)
def test_a_scalar_operand_keeps_the_tensor_dtype(name, shape, dtype, seed):
    op, oracle = SCALAR_OPS[name]
    a = np.asarray(away_from_zero(np.random.default_rng(seed), shape), dtype)
    out = op(Tensor(a, dtype=dtype))
    assert out.dtype == dtype and out.shape == shape
    np.testing.assert_array_equal(out.data, oracle(a))


@PROPERTY
@given(shape=shapes, dtype=dtypes, seed=seeds)
def test_gelu_keeps_the_input_dtype(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(rng.normal(size=shape) * 3, dtype)
    out = gelu(Tensor(a, dtype=dtype))
    cdf = gelu_cdf(a)
    assert out.dtype == cdf.dtype == gelu_grad(a, a, cdf).dtype == dtype
    # float64 Phi is within the scipy formula's own error (2.2e-16) of math.erfc, and gelu is a * Phi(a)
    want_cdf = phi_oracle(a.astype(np.float64))
    if dtype == np.float64:
        assert np.all(np.abs(cdf - want_cdf) <= np.finfo(np.float64).eps)
        np.testing.assert_array_equal(out.data, a * cdf)
    else:
        np.testing.assert_allclose(out.data, a * want_cdf, rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])


def attention_oracle(x, wq, wk, wv, wo, pk, pv):
    """Per-head attention on numpy arrays; head h uses the [:, h] slices."""
    xb = x if x.ndim == 3 else x[None]
    outs = []
    for h in range(wq.shape[1]):
        q, k, v = xb @ wq[:, h], xb @ wk[:, h], xb @ wv[:, h]
        if pk is not None:
            k = np.concatenate([np.broadcast_to(pk @ wk[:, h], (len(xb),) + (len(pk), k.shape[-1])), k], axis=1)
            v = np.concatenate([np.broadcast_to(pv @ wv[:, h], (len(xb),) + (len(pv), v.shape[-1])), v], axis=1)
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(wq.shape[2])
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append((e / e.sum(axis=-1, keepdims=True)) @ v)
    out = np.concatenate(outs, axis=-1) @ wo
    return out if x.ndim == 3 else out[0]


@PROPERTY
@given(
    heads=st.integers(1, 3),
    dk=st.integers(1, 3),
    batch=st.none() | st.integers(1, 3),
    n=st.integers(1, 4),
    prefix=st.none() | st.integers(0, 3),
    dtype=dtypes,
    seed=seeds,
)
def test_attention_passes_grad_check_over_shapes(heads, dk, batch, n, prefix, dtype, seed):
    """(d, H, d_k) q/k/v weights; `batch` None is a 2-d (n, d) input; `prefix`
    None is no prefix, and 0 a prefix of zero rows (an empty `PrefixSet`'s)."""
    rng = np.random.default_rng(seed)
    d = heads * dk
    x = rng.normal(size=(n, d) if batch is None else (batch, n, d))
    weights = [rng.normal(size=(d, heads, dk)) * 0.5 for _ in range(3)] + [rng.normal(size=(d, d)) * 0.5]
    kv = [] if prefix is None else [rng.normal(size=(prefix, d)) for _ in range(2)]
    inputs = [x, *weights, *kv]

    def f(x, wq, wk, wv, wo, *kv):
        return attention(x, wq, wk, wv, wo, tuple(kv) or None)[0]

    out = f(*(Tensor(a, dtype=dtype) for a in inputs))
    assert out.shape == x.shape and out.dtype == dtype
    cast = [np.asarray(a, dtype) for a in inputs] + ([None, None] if prefix is None else [])
    np.testing.assert_allclose(out.data, attention_oracle(*cast), rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(f, inputs, x.shape, dtype, rng)


@PROPERTY
@given(side=st.integers(1, 3), d=st.integers(1, 4), batch=st.none() | st.integers(1, 3), dtype=dtypes, seed=seeds)
def test_sequence_pool_passes_grad_check_over_shapes(side, d, batch, dtype, seed):
    """A side x side token grid of width d; `batch` None is a 2-d (n, d) input."""
    encoder = Encoder(BackboneConfig(image_size=side, embed_dim=d, heads=1, layers=0, patch_size=1), SeededRng(seed))
    rng = np.random.default_rng(seed)
    n = side * side
    lead = () if batch is None else (batch,)
    tokens, proj = rng.normal(size=lead + (n, d)), rng.normal(size=(n * d, d))

    def f(tokens, proj):
        encoder.pool_proj = proj
        return encoder.sequence_pool(tokens)

    out = f(Tensor(tokens, dtype=dtype), Tensor(proj, dtype=dtype))
    assert out.shape == lead + (d,) and out.dtype == dtype
    want = np.asarray(tokens, dtype).reshape(lead + (n * d,)) @ np.asarray(proj, dtype)
    np.testing.assert_allclose(out.data, want, rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
    check(f, [tokens, proj], lead + (d,), dtype, rng)


def head_loss_oracle(z, mu, sigma, eps, labels, offset=4.0, temperature=16.0):
    """The head's mean cross-entropy from its definition, one sample at a time."""
    w = mu if eps is None else mu + eps * np.log1p(np.exp(sigma - offset))
    total = 0.0
    for zb, label in zip(z, labels):
        logits = temperature * (w @ zb) / (np.linalg.norm(w, axis=1) * np.linalg.norm(zb))
        total += np.log(np.exp(logits - logits.max()).sum()) + logits.max() - logits[label]
    return total / len(labels)


@PROPERTY
@given(classes=st.integers(1, 5), dim=st.integers(1, 4), noise=st.booleans(), dtype=dtypes, seed=seeds)
def test_stochastic_weights_pass_grad_check_over_shapes(classes, dim, noise, dtype, seed):
    # the head's (M, d) weights mu + eps (*) softplus(sigma - c), composed of generic ops
    rng = np.random.default_rng(seed)
    mu, sigma = rng.normal(size=(classes, dim)), 4.0 + rng.normal(size=(classes, dim))
    eps = rng.normal(size=(classes, dim)).astype(dtype) if noise else None  # `StochasticHead.draw` draws in mu's dtype
    head = StochasticHead(dim)

    def f(m, s):
        head.mu, head.sigma = m, s
        return head.weights(eps)

    means = Tensor(mu, dtype=dtype)
    out = f(means, Tensor(sigma, dtype=dtype))
    if not noise:
        assert out is means  # the means themselves: no node, and sigma is out of the graph
        return
    assert out.shape == (classes, dim) and out.dtype == dtype
    want = mu + eps * np.log1p(np.exp(sigma - 4.0))
    np.testing.assert_allclose(out.data, want, rtol=FORWARD_RTOL[dtype] * 10, atol=FORWARD_RTOL[dtype] * 10)
    check(f, [mu, sigma], (classes, dim), dtype, rng)


@PROPERTY
@given(batch=st.integers(1, 4), classes=st.integers(1, 5), dim=st.integers(1, 4), noise=st.booleans(), dtype=dtypes, seed=seeds)
def test_head_loss_passes_grad_check_over_shapes(batch, classes, dim, noise, dtype, seed):
    rng = np.random.default_rng(seed)
    z, mu, sigma = away_from_zero(rng, (batch, dim)), away_from_zero(rng, (classes, dim)), 4.0 + rng.normal(size=(classes, dim))
    labels = rng.integers(0, classes, size=batch)

    def f(z, mu, sigma):
        head = StochasticHead(dim)
        head.mu, head.sigma = mu, sigma
        return cross_entropy_loss(head, z, labels, SeededRng(seed), noise=noise)

    out = f(*(Tensor(a, dtype=dtype) for a in (z, mu, sigma)))
    assert out.shape == () and out.dtype == dtype
    eps = SeededRng(seed).normal(size=(classes, dim)) if noise else None
    want = head_loss_oracle(z, mu, sigma, eps, labels)
    np.testing.assert_allclose(out.data, want, rtol=FORWARD_RTOL[dtype] * 100, atol=FORWARD_RTOL[dtype] * 100)
    check(f, [z, mu, sigma], (), dtype, rng)
