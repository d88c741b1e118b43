"""Kernel tests: each op against a naive independent oracle, plus grad checks."""

import hashlib

import numpy as np
import pytest
from scipy import special

from fscil.errors import ArgumentError, ContractViolation, UsageError
from fscil.numerics import (
    SeededRng,
    Tensor,
    _PhiloxKey,
    _as_tensor,
    _result,
    batch_norm,
    broadcast_to,
    conv2d,
    gelu,
    grad_check,
    log_softmax,
    no_grad,
    relu,
    softmax,
    softplus,
)
from test_fused_primitives import concat

LN2 = 0.6931471805599453


# -- softmax -------------------------------------------------------------------


def test_softmax_uniform_input():
    out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_analytic_ratio():
    out = softmax(Tensor([0.0, np.log(2.0)]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4)
        naive = np.exp(x) / np.exp(x).sum()  # oracle: direct formula
        np.testing.assert_allclose(softmax(Tensor(x), axis=0).data, naive, atol=1e-12)


def test_softmax_slices_sum_to_one_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        axis = int(rng.integers(0, len(shape)))
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3)
        sums = softmax(Tensor(x), axis=axis).data.sum(axis=axis)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_softmax_large_inputs_stay_finite():
    out = softmax(Tensor([1000.0, 999.0, -1000.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    out = log_softmax(Tensor([[1000.0, -1000.0]]), axis=1)
    assert np.all(np.isfinite(out.data))


def test_softmax_invalid_axis():
    with pytest.raises(ArgumentError):
        softmax(Tensor([1.0, 2.0]), axis=3)


# -- gelu ------------------------------------------------------------------------


def test_gelu_zero_fixed_point():
    assert gelu(Tensor([0.0])).data[0] == 0.0


def test_gelu_asymptote():
    assert abs(gelu(Tensor([100.0])).data[0] - 100.0) < 1e-9


def test_gelu_at_one_matches_erf_oracle():
    # oracle: Phi(1) = (1 + erf(1/sqrt(2)))/2 = 0.8413447460685429
    expected = 0.8413447460685429
    assert abs(special.ndtr(1.0) - expected) < 1e-12
    assert abs(gelu(Tensor([1.0])).data[0] - expected) < 1e-6


def test_gelu_monotone_for_nonnegative():
    x = np.sort(np.random.default_rng(2).uniform(0, 6, size=200))
    y = gelu(Tensor(x)).data
    assert np.all(np.diff(y) >= 0)


# -- softplus ----------------------------------------------------------------------


def test_softplus_at_zero():
    assert abs(softplus(Tensor([0.0])).data[0] - LN2) < 1e-15


def test_softplus_asymptote_and_stability():
    assert abs(softplus(Tensor([50.0])).data[0] - 50.0) < 1e-9
    low = softplus(Tensor([-745.0])).data[0]
    assert np.isfinite(low) and low > 0.0


# -- batch norm ---------------------------------------------------------------------


def _bn_params(n):
    return Tensor(np.ones(n), requires_grad=True), Tensor(np.zeros(n), requires_grad=True), np.zeros(n), np.ones(n)


def test_batch_norm_constant_column_is_zero():
    g, b, rm, rv = _bn_params(1)
    x = Tensor(np.full((4, 1), 3.7))
    out = batch_norm(x, g, b, rm, rv, "train")
    np.testing.assert_allclose(out.data, np.zeros((4, 1)), atol=1e-12)


def test_batch_norm_two_point_column():
    # oracle by hand: mean 0, biased var 1 -> +-1 / sqrt(1 + 1e-5)
    g, b, rm, rv = _bn_params(1)
    out = batch_norm(Tensor([[-1.0], [1.0]]), g, b, rm, rv, "train")
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [[-expected], [expected]], atol=1e-9)


def test_batch_norm_eval_identity():
    g, b, rm, rv = _bn_params(3)
    x = np.random.default_rng(3).normal(size=(5, 3))
    out = batch_norm(Tensor(x), g, b, rm, rv, "eval")
    np.testing.assert_allclose(out.data, x, atol=1e-9)


def test_batch_norm_train_batch_of_one_rejected():
    g, b, rm, rv = _bn_params(2)
    with pytest.raises(UsageError):
        batch_norm(Tensor([[1.0, 2.0]]), g, b, rm, rv, "train")


def test_batch_norm_train_statistics_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(8, 33))
        x = rng.normal(size=(n, 4), scale=rng.uniform(0.5, 3.0))
        g, b, rm, rv = _bn_params(4)
        out = batch_norm(Tensor(x), g, b, rm, rv, "train").data
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-9)
        var = x.var(axis=0)
        np.testing.assert_allclose(out.var(axis=0), var / (var + 1e-5), atol=1e-6)


def test_batch_norm_running_stats_update():
    g, b, rm, rv = _bn_params(1)
    x = np.array([[0.0], [2.0]])
    batch_norm(Tensor(x), g, b, rm, rv, "train")
    np.testing.assert_allclose(rm, [0.1 * 1.0], atol=1e-12)  # momentum 0.1, batch mean 1
    np.testing.assert_allclose(rv, [0.9 * 1.0 + 0.1 * 1.0], atol=1e-12)  # biased batch var 1


# -- grad_check ------------------------------------------------------------------------


def test_grad_check_squared_norm():
    x = Tensor([1.0, 2.0])
    probe = Tensor(x.data.copy(), requires_grad=True)
    (probe * probe).sum().backward()
    np.testing.assert_allclose(probe.grad, [2.0, 4.0], atol=1e-12)
    report = grad_check(lambda t: (t * t).sum(), x, tol=1e-7)
    assert report.passed


def test_grad_check_constant_function():
    report = grad_check(lambda t: Tensor(1.5) + t.sum() * 0.0, Tensor([3.0, 4.0]), tol=1e-12)
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_nondeterministic():
    state = {"calls": 0}

    def impure(t):
        state["calls"] += 1
        return t.sum() * float(state["calls"])

    with pytest.raises(UsageError):
        grad_check(impure, Tensor([1.0]))


@pytest.mark.parametrize(
    "name,fn",
    [
        ("add_mul", lambda t: ((t + 2.0) * (t - 0.5)).sum()),
        ("div", lambda t: (t / (t * t + 2.0)).sum()),
        ("matmul", lambda t: (t @ t.swapaxes(-1, -2)).sum()),
        ("exp_log", lambda t: ((t * t + 1.0).log() + (t * 0.3).exp()).sum()),
        ("sqrt_pow", lambda t: ((t * t + 1.0).sqrt() + t**3).sum()),
        ("relu", lambda t: (relu(t + 0.123) * t).sum()),
        ("gelu", lambda t: gelu(t).sum()),
        ("softplus", lambda t: (softplus(t) * t).sum()),
        ("softmax", lambda t: (softmax(t, axis=-1) * t).sum()),
        ("log_softmax", lambda t: (log_softmax(t, axis=-1) * t).sum()),
        ("reduce", lambda t: (t.mean(axis=1) * t.sum(axis=1)).sum() + t.mean() * 3.0),
        ("reshape_slice", lambda t: (t.reshape(6)[1:5] ** 2).sum()),
        ("concat", lambda t: (concat([t, t * 2.0], axis=0) ** 2).sum()),
        ("broadcast", lambda t: (broadcast_to(t.reshape(1, 2, 3), (4, 2, 3)) ** 2).sum()),
    ],
)
def test_elementwise_ops_pass_grad_check(name, fn):
    x = Tensor(np.random.default_rng(hash(name) % 2**32).normal(size=(2, 3)))
    report = grad_check(fn, x, tol=1e-4)
    assert report.passed, f"{name}: max rel error {report.max_rel_error}"


def test_stacked_patch_convs_pass_grad_check():
    # two tokenizer layers with a ReLU between: 2x2 patches of 2x2 patches
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=(2, 8, 4, 1)), rng.normal(size=(3, 1, 2, 2)) * 0.5, rng.normal(size=(2, 3, 2, 2)) * 0.5]
    for i in range(3):

        def f(t, i=i):
            x, w1, w2 = [t if j == i else Tensor(a) for j, a in enumerate(arrays)]
            return (conv2d(relu(conv2d(x, w1)), w2) ** 2).sum()

        report = grad_check(f, Tensor(arrays[i]), tol=1e-4)
        assert report.passed, (i, report)


def nchw_conv2d(x, weight, stride: int) -> Tensor:
    """The channels-first (B, C, H, W) unpadded convolution that loops over
    kernel taps in its backward, as `conv2d` computed it before im2col (the oracle)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    kh, kw = weight.data.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    data = np.einsum("bcxykl,ockl->boxy", win, weight.data, optimize=True)
    oh, ow = data.shape[2], data.shape[3]

    def backward(g):
        if weight.requires_grad:
            weight._accumulate(np.einsum("bcxykl,boxy->ockl", win, g, optimize=True))
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    contrib = np.tensordot(g, weight.data[:, :, i, j], axes=([1], [0]))
                    dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += contrib.transpose(0, 3, 1, 2)
            x._accumulate(dx)

    return _result(data, (x, weight), backward)


def channels_last(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


# (kernel = stride, wide, channels); `wide` 1 makes the patch grid one column
# wider than it is tall, so a conv that mixed up height and width would fail
CONV_CASES = [(kernel, wide, channels) for kernel in (1, 2, 4) for wide in (0, 1) for channels in (1, 3)]
GRAD_PRECISION = {np.float64: {}, np.float32: {"tol": 5e-2, "step": 1e-2}}


@pytest.mark.parametrize("kernel, wide, channels", CONV_CASES)
@pytest.mark.parametrize("target", ["x", "weight"])
def test_conv2d_passes_grad_check(kernel, wide, channels, target):
    rng = np.random.default_rng(15)
    arrays = {"x": rng.normal(size=(2, 2 * kernel, (2 + wide) * kernel, channels)), "weight": rng.normal(size=(2, channels, kernel, kernel)) * 0.5}
    weights = rng.normal(size=(2, 2, 2 + wide, 2))
    for dtype, precision in GRAD_PRECISION.items():

        def f(t, dtype=dtype):
            args = {name: Tensor(a, dtype=dtype) for name, a in arrays.items()}
            args[target] = t
            return (conv2d(args["x"], args["weight"]) ** 2 * Tensor(weights, dtype=dtype)).sum()

        report = grad_check(f, Tensor(arrays[target], dtype=dtype), **precision)
        assert report.passed, (dtype, report)


@pytest.mark.parametrize("kernel, wide, channels", CONV_CASES)
def test_conv2d_matches_the_nchw_tap_loop_oracle(kernel, wide, channels):
    rng = np.random.default_rng(16)
    x0, w0 = rng.normal(size=(3, channels, 3 * kernel, (3 + wide) * kernel)), rng.normal(size=(4, channels, kernel, kernel))
    seed = rng.normal(size=(3, 4, 3, 3 + wide))
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        x, w, g = (a.astype(dtype) for a in (x0, w0, seed))
        x_last, w_last = Tensor(channels_last(x), requires_grad=True, dtype=dtype), Tensor(w, requires_grad=True, dtype=dtype)
        x_first, w_first = Tensor(x, requires_grad=True, dtype=np.float64), Tensor(w, requires_grad=True, dtype=np.float64)  # the oracle in float64
        out, expected = conv2d(x_last, w_last), nchw_conv2d(x_first, w_first, stride=kernel)
        np.testing.assert_allclose(out.data, channels_last(expected.data), rtol=tol, atol=tol)
        out.backward(channels_last(g))
        expected.backward(g.astype(np.float64))
        assert out.dtype == x_last.grad.dtype == w_last.grad.dtype == dtype
        np.testing.assert_allclose(x_last.grad, channels_last(x_first.grad), rtol=tol, atol=tol)
        np.testing.assert_allclose(w_last.grad, w_first.grad, rtol=tol, atol=10 * tol)


@pytest.mark.parametrize("x_shape, w_shape", [((1, 4, 5, 1), (2, 1, 2, 2)), ((1, 6, 6, 1), (2, 1, 4, 4)), ((1, 4, 4, 1), (2, 1, 2, 1)), ((1, 4, 4, 2), (2, 1, 2, 2))])
def test_conv2d_rejects_a_kernel_that_does_not_tile_the_input(x_shape, w_shape):
    # a width 2 does not divide, a 4x4 kernel on a 6x6 map, a non-square kernel, a channel mismatch
    with pytest.raises(ArgumentError):
        conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (2, 3, 4, 5)])
def test_matmul_weight_gradient_matches_the_batched_sum(a_shape):
    rng = np.random.default_rng(19)
    a, w = Tensor(rng.normal(size=a_shape), requires_grad=True), Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    seed = rng.normal(size=a_shape[:-1] + (6,))
    (a @ w).backward(seed)
    batched = a.data.swapaxes(-1, -2) @ seed
    np.testing.assert_allclose(w.grad, batched.reshape(-1, 5, 6).sum(axis=0), atol=1e-12)
    np.testing.assert_allclose(a.grad, seed @ w.data.T, atol=1e-12)


def test_batch_norm_train_passes_grad_check():
    x = Tensor(np.random.default_rng(12).normal(size=(8, 3)))

    def f(t):
        g = Tensor(np.array([1.0, 2.0, 0.5]), requires_grad=False)
        b = Tensor(np.array([0.1, -0.2, 0.0]), requires_grad=False)
        out = batch_norm(t, g, b, np.zeros(3), np.ones(3), "train")
        return (out**3).sum()

    assert grad_check(f, x, tol=1e-4).passed


def test_float32_grad_check_with_relaxed_tolerance():
    x = Tensor(np.random.default_rng(13).normal(size=(2, 2)).astype(np.float32), dtype=np.float32)
    report = grad_check(lambda t: (gelu(t) * t).sum(), x, tol=5e-2, step=1e-2)
    assert report.passed


# -- tensor invariants -------------------------------------------------------------------


def test_values_length_matches_shape():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert t.data.size == 3 * 4
    (t * 1.0).backward(np.ones((3, 4)))


def test_forward_chain_stays_finite_on_finite_inputs():
    rng = np.random.default_rng(14)
    for _ in range(25):
        x = Tensor(rng.normal(size=(4, 5)) * 10.0 ** rng.integers(-3, 3))
        out = softmax(gelu(x) + softplus(x * 0.1), axis=-1).data
        assert np.all(np.isfinite(out))


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._backward is None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "op,grad",
    [
        (lambda a, x: a + x, lambda a, x: np.ones_like(x)),
        (lambda a, x: a - x, lambda a, x: -np.ones_like(x)),
        (lambda a, x: a * x, lambda a, x: a),
        (lambda a, x: a / x, lambda a, x: -a / (x * x)),
    ],
    ids=["add", "sub", "mul", "div"],
)
def test_an_ndarray_on_the_left_of_a_tensor_operator_gives_a_graph_tensor(op, grad, dtype):
    a = np.full((2, 2), 2.0, dtype)
    x0 = np.array([[1.0, -2.0], [0.5, 4.0]], dtype)
    x = Tensor(x0, requires_grad=True, dtype=dtype)
    y = op(a, x)
    assert isinstance(y, Tensor) and y.dtype == dtype and y.requires_grad
    np.testing.assert_array_equal(y.data, op(a, x0))
    y.sum().backward()
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, grad(a, x0))


# -- seeded rng ------------------------------------------------------------------------


def test_seeded_rng_reproducible():
    a = SeededRng(123).normal(size=5)
    b = SeededRng(123).normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_children_independent_of_call_order():
    r1 = SeededRng(9)
    first = r1.child("a").normal(size=3)
    r2 = SeededRng(9)
    _ = r2.child("b").normal(size=3)
    again = r2.child("a").normal(size=3)
    np.testing.assert_array_equal(first, again)


def test_seeded_rng_distinct_labels_differ():
    r = SeededRng(5)
    assert not np.array_equal(r.child("x").normal(size=4), r.child("y").normal(size=4))


@pytest.mark.parametrize("seed, path", [(0, ()), (7, ("init",)), (12345, ("session3", "eps", "e2", "b64")), (2**40 + 3, ("shuffle", "epoch9"))])
def test_seeded_rng_draws_equal_a_philox_keyed_by_the_path_digest(seed, path):
    material = ("%d/" % seed + "/".join(path)).encode()
    oracle = np.random.Generator(np.random.Philox(key=int.from_bytes(hashlib.sha256(material).digest()[:16], "big")))
    rng = SeededRng(seed).child(*path)
    np.testing.assert_array_equal(rng.normal(size=(3, 4), scale=2.0), oracle.normal(scale=2.0, size=(3, 4)))
    np.testing.assert_array_equal(rng.uniform(-1.0, 3.0, size=7), oracle.uniform(-1.0, 3.0, size=7))
    np.testing.assert_array_equal(rng.integers(0, 1000, size=9), oracle.integers(0, 1000, size=9))
    np.testing.assert_array_equal(rng.permutation(50), oracle.permutation(50))
    np.testing.assert_array_equal(rng.choice(40, size=6), oracle.choice(40, size=6, replace=False))
    np.testing.assert_array_equal(rng.choice(5, size=12, replace=True), oracle.choice(5, size=12, replace=True))
    assert rng.child("next").normal() != oracle.normal()  # a child is a new stream, not a continuation


def test_philox_key_refuses_any_request_but_two_uint64_words():
    key = _PhiloxKey(2**64 + 5)
    np.testing.assert_array_equal(key.generate_state(2, np.uint64), np.array([5, 1], dtype=np.uint64))
    for n_words, dtype in [(4, np.uint32), (2, np.uint32), (3, np.uint64)]:
        with pytest.raises(ContractViolation, match="not \\(2, uint64\\)"):
            key.generate_state(n_words, dtype)
