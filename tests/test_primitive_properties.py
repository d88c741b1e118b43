"""Property tests of the elementwise, reduction and broadcast primitives.

Hypothesis draws the shapes, broadcasts, axes and a value seed; each case
checks the forward value against numpy and the gradient of every input
against `grad_check`.  float64 runs at the default tolerance, float32 at
the relaxed `tol=5e-2, step=1e-2`.  The tests are derandomized with a fixed
example count, so every run checks the same cases.  A Python or numpy scalar
operand, and GELU, keep a tensor's dtype.
"""

import numpy as np
from scipy import special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fscil.numerics import Tensor, add, broadcast_to, div, gelu, gelu_cdf, gelu_grad, grad_check, mul, power, tensor_mean, tensor_sum

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


# name -> (the Tensor expression, the same expression on a numpy array);
# numpy keeps an array's dtype against a Python or numpy scalar
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
}


@PROPERTY
@given(name=st.sampled_from(sorted(SCALAR_OPS)), shape=shapes, dtype=dtypes, seed=seeds)
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
    # float64 stays bitwise the formula with numpy float64 constants
    want = a * (0.5 * (1.0 + special.erf(a * (1.0 / np.sqrt(np.float64(2.0))))))
    if dtype == np.float64:
        np.testing.assert_array_equal(out.data, want)
    else:
        np.testing.assert_allclose(out.data, want, rtol=FORWARD_RTOL[dtype], atol=FORWARD_RTOL[dtype])
