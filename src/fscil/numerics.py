"""Differentiable numeric kernel: reverse-mode autodiff over numpy arrays.

Graph forward passes are built from the `Tensor` operations in this module,
each `grad_check`-verified against central finite differences.  Three
closed-form gradients live elsewhere, each with its own oracle in the tests:

- `stochastic_classifier.head_loss`, the head's loss (`cross_entropy_loss`
  runs it as a graph node): `grad_check`, and the composed graph bitwise;
- `backbone.FoldedEncoder`: its forward against the composed eval forward,
  its backward (in `delta_params.session_gradients`) against `encode` +
  `cross_entropy_loss` + `backward`;
- `prototype_rectification.mse_gradients`: `grad_check`, and the composed
  prediction net bitwise.

The layers that dominate a training step are fused primitives: each is one
graph node with a hand-written backward, and each is `grad_check`-verified
in the tests.

- `batch_norm`: the last axis of a 2-d (rows, C) view, in train mode
  (closed-form backward from the two row sums sum(g) and sum(g * xn)) and
  eval mode (one scale and shift from `bn_scale_shift`); a sum whose
  gradient no parameter needs is skipped;
- `conv2d`: the patch convolution (stride = kernel side, no padding) of
  channels-last (B, H, W, C) maps; its im2col matrix is a reshape and
  transpose of the input, so the forward and each gradient are one matrix
  product;
- `attention`: all heads as one batched (B, H, n, d_k) product, with
  optional key/value prefixes projected and prepended inside the node;
- `log_softmax_nll`: log-softmax plus negative log-likelihood of integer
  labels (the composed-graph oracle of the head's loss).

`Tensor.backward` expands only parents that need a gradient (a parent that
does not is always a leaf, which the sweep would skip), and it releases the
graph as it sweeps: once a non-leaf node has passed its gradient on, its
gradient, backward closure and parent links are dropped, so only leaf
gradients survive the call.  Backpropagating through a released node again
raises `UsageError`; build a new forward pass instead.

Default precision is float64; float32 can be selected per tensor (gradient
checks at 32-bit need the relaxed tolerance, see `grad_check`).

The module needs numpy only.  GELU's Phi (`gelu_cdf`) is a table of cubics:
an input is clipped to [-8.5, 8.5] and rounded to the nearest multiple x0 of
2**-11, and Phi(x0 + h) is a cubic in the exact remainder h (|h| <= 2**-12)
whose four coefficients are gathered from a 34,817-point table (1.1 MB,
built at import in about 10 ms): Taylor's, with the quartic term folded
into the quadratic, so the truncation error is below 2.1e-17.  Each Phi(x0)
is rounded once from `math.erfc` of the lower tail, and the two end points
hold exactly 0 and 1 with zero slope (Phi(-8.5) = 9.5e-18).  The maximum
absolute error against `math.erfc` is 2.2e-16 (1.7e-16 against the exact
value), as for scipy's 0.5 * (1 + erf(x / sqrt 2)).  `expit` is the logistic
sigmoid from exp(-|x|), within 1.5 ulp of an extended-precision reference
and free of overflow.  Both keep a float32 input float32.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ArgumentError, ContractViolation, UsageError

DEFAULT_DTYPE = np.float64

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense n-d array with an optional gradient buffer and graph links."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    # an ndarray on the left of an operator defers to the reflected Tensor method
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------

    def _accumulate(self, grad: np.ndarray):
        """Keep the first gradient as is; add later ones out of place.

        A backward may hand the same array to several parents (`add` does), so
        a stored gradient is never written into.
        """
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor; seeds with ones if scalar.

        Releases every non-leaf node of the graph (see the module docstring).
        """
        if grad is None:
            if self.data.size != 1:
                raise ArgumentError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    # a parent that needs no gradient is a leaf the sweep would skip
                    if p.requires_grad and id(p) not in seen:
                        stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -_as_tensor(other, like=self))

    def __rsub__(self, other):
        return add(_as_tensor(other, like=self), -self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, like=self), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)


def _released(grad):
    raise UsageError("backward through a graph that an earlier backward() released; build the forward pass again")


def _as_tensor(x, like=None) -> Tensor:
    """`x` as a `Tensor`; a Python or numpy scalar takes the dtype of the
    `Tensor` `like` and a float ndarray keeps its own, so a float32 operand
    stays float32."""
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor) and np.ndim(x) == 0:
        return Tensor(x, dtype=like.data.dtype)
    if isinstance(x, np.ndarray) and x.dtype in (np.float32, np.float64):
        return Tensor(x, dtype=x.dtype)
    return Tensor(x)


def needs_graph(tensors) -> bool:
    """Whether an op on `tensors` would build a graph: gradients are enabled
    and one of them requires a gradient."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _result(data, parents, backward) -> Tensor:
    """Build an op result, wiring the graph only when gradients are live."""
    out = Tensor(data, dtype=data.dtype)
    if needs_graph(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- elementwise and reduction primitives ----------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, like=b), _as_tensor(b, like=a)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _result(-a.data, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, like=b), _as_tensor(b, like=a)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, like=b), _as_tensor(b, like=a)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _result(data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    if isinstance(exponent, Tensor):
        raise ArgumentError("power() supports scalar exponents only")
    exponent = float(exponent)  # a numpy float64 exponent would promote a float32 base
    data = a.data ** exponent

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * exponent * a.data ** (exponent - 1))

    return _result(data, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data)

    return _result(data, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _result(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / data)

    return _result(data, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _result(a.data * mask, (a,), backward)


# Python floats, so float32 inputs stay float32 (a numpy float64 scalar would promote them)
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Phi as a table of cubics at the grid points x0 = k * 2**-_PHI_BITS, |x0| <= 8.5.
_PHI_BITS = 11
_PHI_HALF = int(8.5 * 2**_PHI_BITS)
# 0-d arrays, because a ufunc converts a Python scalar operand on every call.  Adding
# _PHI_SHIFT to |x| < 2**(51 - _PHI_BITS) rounds x to the grid, and the sum's low
# bits count grid steps: bits(x + _PHI_SHIFT) - _PHI_START = k + _PHI_HALF.
_PHI_LO, _PHI_HI = np.array(-8.5), np.array(8.5)  # Phi(-8.5) = 9.5e-18
_PHI_SHIFT = np.array(1.5 * 2.0 ** (52 - _PHI_BITS))
_PHI_START = np.array(_PHI_SHIFT.view(np.int64) - _PHI_HALF)


def _phi_table() -> list:
    """Columns (c3, c2, c1, Phi(x0)) of Phi(x0 + h) ~ Phi(x0) + c1 h + c2 h^2 + c3 h^3.

    c1 = pdf, c2 = -x0 pdf / 2 and c3 = (x0^2 - 1) pdf / 6 are Taylor's; the
    quartic term c4 h^4, c4 = -(x0^3 - 3 x0) pdf / 24, is folded into c2 by
    Chebyshev economization over |h| <= a = 2**-(_PHI_BITS + 1): h^4 ~ a^2 h^2,
    off by at most a^4 / 4.
    """
    x0 = np.arange(-_PHI_HALF, _PHI_HALF + 1) * 2.0**-_PHI_BITS
    # the grid is symmetric, so Phi(x0) = 1 - Phi(-x0) for x0 > 0 mirrors the lower tail
    tail = np.array([0.5 * math.erfc(-v * _INV_SQRT2) for v in x0[: _PHI_HALF + 1]])
    cdf = np.concatenate([tail, 1.0 - tail[-2::-1]])
    pdf = np.exp(-0.5 * x0 * x0) * _INV_SQRT_2PI
    a2 = 4.0 ** -(_PHI_BITS + 1)
    columns = [(x0 * x0 - 1) * pdf / 6, -x0 * pdf / 2 - (x0**3 - 3 * x0) * pdf / 24 * a2, pdf, cdf]
    for col in columns:
        col[[0, -1]] = 0.0
    cdf[-1] = 1.0
    return columns


_PHI_COLUMNS = _phi_table()


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF that GELU multiplies its input by,
    evaluated in float64 from the table of cubics (see the module docstring);
    keeps the dtype of `x`."""
    if x.ndim == 0:
        return gelu_cdf(x[None])[0]
    h = np.minimum(np.maximum(x, _PHI_LO), _PHI_HI)  # a float64 0-d operand: float32 input is promoted
    t = h + _PHI_SHIFT
    buf = t - _PHI_SHIFT  # x0, the grid point
    h -= buf  # x - x0, exact
    k = t.view(np.int64)
    k -= _PHI_START
    out = _PHI_COLUMNS[0].take(k, mode="clip")  # a NaN's index is clipped; h carries the NaN
    for col in _PHI_COLUMNS[1:]:
        out *= h
        out += col.take(k, out=buf, mode="clip")
    return out.astype(x.dtype, copy=False)


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-x), from e^-|x| so that nothing
    overflows; keeps the dtype of `x`."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x < 0, e / d, 1.0 / d)


def gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * d gelu(x) / dx, given cdf = gelu_cdf(x)."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return g * (cdf + x * pdf)


def gelu(a) -> Tensor:
    """Exact erf-based GELU: x * Phi(x)."""
    a = _as_tensor(a)
    cdf = gelu_cdf(a.data)
    data = a.data * cdf

    def backward(g):
        if a.requires_grad:
            a._accumulate(gelu_grad(g, a.data, cdf))

    return _result(data, (a,), backward)


def softplus(a) -> Tensor:
    """ln(1 + e^x), stable for large |x|; strictly positive."""
    a = _as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * expit(a.data))

    return _result(data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; slices sum to 1."""
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ArgumentError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - inner))

    return _result(data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ArgumentError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _result(data, (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy() if np.ndim(g) == 0 or g.shape != a.data.shape else g)
            return
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _result(np.asarray(data), (a,), backward)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[ax] for ax in axes]))
    return tensor_sum(a, axis=axis, keepdims=keepdims) * Tensor(1.0 / n, dtype=a.data.dtype)  # a float32 mean stays float32


# -- shape primitives -------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    orig = a.data.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(orig))

    return _result(a.data.reshape(shape), (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.swapaxes(ax1, ax2))

    return _result(a.data.swapaxes(ax1, ax2), (a,), backward)


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))

    return _result(np.broadcast_to(a.data, shape).copy(), (a,), backward)


def take(a, idx) -> Tensor:
    """Basic (non-fancy) slicing with gradient scatter-back."""
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[idx] += g
            a._accumulate(buf)

    return _result(a.data[idx].copy(), (a,), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product with broadcasting on leading axes.

    1-d operands follow numpy semantics (promoted, then the length-1 axis
    dropped) by composing through reshape.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim == 1 and b.ndim == 1:
        return tensor_sum(a * b)
    if a.ndim == 1:
        out = matmul(reshape(a, (1, a.data.size)), b)
        return reshape(out, out.data.shape[:-2] + (out.data.shape[-1],))
    if b.ndim == 1:
        out = matmul(a, reshape(b, (b.data.size, 1)))
        return reshape(out, out.data.shape[:-1])
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.ndim == 2:  # a weight shared by every leading index of `a`: one GEMM over all rows
                b._accumulate(a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _result(data, (a, b), backward)


# -- structured ops ----------------------------------------------------------


def conv2d(x, weight) -> Tensor:
    """Patch convolution of channels-last (B, H, W, C) input with an (O, C, k, k)
    kernel: stride k and no padding, so the k x k windows do not overlap.

    Returns (B, H/k, W/k, O); a side that k does not divide raises
    `ArgumentError`.  The patch (im2col) matrix is a reshape and transpose
    of the input, so the forward and the kernel gradient are one matrix
    product each, and the input gradient is one product put back by the
    inverse transpose.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    b, h, w, c = x.data.shape
    out_c, in_c, k, kw = weight.data.shape
    if in_c != c:
        raise ArgumentError(f"conv2d channel mismatch: input {c}, kernel {in_c}")
    if k != kw or h % k or w % k:
        raise ArgumentError(f"conv2d kernel {k}x{kw} does not tile the {h}x{w} input")
    oh, ow = h // k, w // k
    # (B, oh, i, ow, j, C) -> (B, oh, ow, C, i, j): columns ordered (c, i, j), as the kernel flattens
    cols = x.data.reshape(b, oh, k, ow, k, c).transpose(0, 1, 3, 5, 2, 4).reshape(b * oh * ow, c * k * k)
    wmat = weight.data.reshape(out_c, -1)
    data = (cols @ wmat.T).reshape(b, oh, ow, out_c)

    def backward(g):
        g2 = g.reshape(-1, out_c)
        if weight.requires_grad:
            weight._accumulate((g2.T @ cols).reshape(weight.data.shape))
        if x.requires_grad:
            x._accumulate((g2 @ wmat).reshape(b, oh, ow, c, k, k).transpose(0, 1, 4, 2, 5, 3).reshape(b, h, w, c))

    return _result(data, (x, weight), backward)


def bn_scale_shift(gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray, eps: float = 1e-5):
    """(s, t) such that eval-mode batch-norm maps x to x * s + t:
    s = gamma / sqrt(max(running_var, eps)) and t = beta - running_mean * s."""
    s = gamma / np.sqrt(np.maximum(running_var, eps))
    return s, beta - running_mean * s


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.1,
) -> Tensor:
    """Normalize each feature (the last axis) over all other axes, as one graph node.

    `x` is viewed as a 2-d (rows, C) array.  Train mode uses biased batch
    statistics (one sum for the mean, one row-dot of the centered rows for
    the variance) with `eps` inside the square root and updates the running
    stats in place with `momentum` (new = (1-m) old + m batch).  Eval mode
    is one scale and shift x * s + t from `bn_scale_shift`, which divides by
    sqrt(max(running_var, eps)) so calibrated (0, 1) stats act as an exact
    identity.  The backward needs only sum(g) and sum(g * xn) over the rows
    (Ioffe & Szegedy 2015):
    dx = gamma * inv * (g - mean(g) - xn * mean(g * xn)) in train mode and
    g * s in eval mode, where the normalized rows xn are rebuilt only when
    gamma needs a gradient; a reduction that no gradient needs is skipped.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if mode not in ("train", "eval"):
        raise UsageError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    c = x.data.shape[-1]
    x2 = x.data.reshape(-1, c)
    rows = x2.shape[0]
    if train:
        if rows < 2:
            raise UsageError("batch_norm train mode needs at least 2 samples per feature")
        mu = x2.sum(axis=0) / rows
        xn = x2 - mu
        var = np.einsum("ij,ij->j", xn, xn) / rows
        inv = 1.0 / np.sqrt(var + eps)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
        xn *= inv
        out = xn * gamma.data
        out += beta.data
    else:
        s, t = bn_scale_shift(gamma.data, beta.data, running_mean, running_var, eps)
        out = x2 * s
        out += t

    def backward(g):
        g2 = g.reshape(-1, c)
        x_train = x.requires_grad and train
        g_sum = g2.sum(axis=0) if beta.requires_grad or x_train else None
        if gamma.requires_grad or x_train:
            normed = xn if train else (x2 - running_mean) / np.sqrt(np.maximum(running_var, eps))
            g_xn = np.einsum("ij,ij->j", g2, normed)
        if gamma.requires_grad:
            gamma._accumulate(g_xn)
        if beta.requires_grad:
            beta._accumulate(g_sum)
        if x.requires_grad:
            if train:
                gx = g2 - g_sum / rows
                gx -= xn * (g_xn / rows)
                gx *= gamma.data * inv
            else:
                gx = g2 * s
            x._accumulate(gx.reshape(x.data.shape))

    return _result(out.reshape(x.data.shape), (x, gamma, beta), backward)


def split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, m, H*dk) -> (B, H, m, dk)."""
    return a.reshape(a.shape[0], a.shape[1], heads, a.shape[2] // heads).transpose(0, 2, 1, 3)


def merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, m, dk) -> (B*m, H*dk)."""
    return a.transpose(0, 2, 1, 3).reshape(a.shape[0] * a.shape[2], a.shape[1] * a.shape[3])


def attention(x, wq, wk, wv, wo, prefix_kv=None):
    """Multi-head scaled dot-product attention as one graph node.

    `wq`, `wk` and `wv` are (d, H, d_k) projections, head h's columns at
    [:, h]; each is read as one (d, H d_k) matrix, so all heads run as one
    batched (B, H, n, d_k) product.  `wo` is the (d, d) output projection.
    `prefix_kv` = (p_K, p_V), each (L, d) with L >= 0, is projected by the
    key and value weights and prepended to every sample's keys and values;
    a prefix of another width raises `ArgumentError`.  `x` is (n, d) or
    (B, n, d).

    Returns (output shaped like `x`, attention maps as a detached
    (H, [B,] n, L + n) array whose rows sum to 1).
    """
    x, wq, wk, wv, wo = (_as_tensor(t) for t in (x, wq, wk, wv, wo))
    if x.ndim not in (2, 3):
        raise ArgumentError(f"attention expects (n, d) or (B, n, d) input, got {x.shape}")
    d, heads, dk = wq.data.shape
    width = heads * dk
    xb = x.data if x.ndim == 3 else x.data[None]
    b, n, _ = xb.shape
    xf = xb.reshape(b * n, d)

    w_q, w_k, w_v = (w.data.reshape(d, width) for w in (wq, wk, wv))
    q = split_heads((xf @ w_q).reshape(b, n, width), heads)
    k = split_heads((xf @ w_k).reshape(b, n, width), heads)
    v = split_heads((xf @ w_v).reshape(b, n, width), heads)
    parents = [x, wq, wk, wv, wo]
    n_pre = 0
    if prefix_kv is not None:
        pk, pv = _as_tensor(prefix_kv[0]), _as_tensor(prefix_kv[1])
        if pk.shape[-1] != d or pv.shape[-1] != d:
            raise ArgumentError(f"prefix widths {pk.shape[-1]}, {pv.shape[-1]} do not match the embed dim {d}")
        parents += [pk, pv]
        n_pre = pk.data.shape[0]
        k_pre = split_heads((pk.data @ w_k)[None], heads)
        v_pre = split_heads((pv.data @ w_v)[None], heads)
        k = np.concatenate([np.broadcast_to(k_pre, (b, heads, n_pre, dk)), k], axis=2)
        v = np.concatenate([np.broadcast_to(v_pre, (b, heads, n_pre, dk)), v], axis=2)
    scale = float(1.0 / np.sqrt(dk))  # a Python float keeps float32 operands float32
    scores = (q @ k.swapaxes(-1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    heads_out = merge_heads(att @ v)
    out = (heads_out @ wo.data).reshape(xb.shape)

    def backward(g):
        gf = g.reshape(b * n, d)
        if wo.requires_grad:
            wo._accumulate(heads_out.T @ gf)
        g_heads = split_heads((gf @ wo.data.T).reshape(b, n, width), heads)
        g_att = g_heads @ v.swapaxes(-1, -2)
        g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * scale
        g_k = g_scores.swapaxes(-1, -2) @ q
        g_v = att.swapaxes(-1, -2) @ g_heads
        pre_k = pre_v = None
        if n_pre:  # prefix rows are shared by the batch: their gradients sum over it
            pre_k = (pk, merge_heads(g_k[:, :, :n_pre].sum(axis=0, keepdims=True)))
            pre_v = (pv, merge_heads(g_v[:, :, :n_pre].sum(axis=0, keepdims=True)))
        g_q = merge_heads(g_scores @ k) if x.requires_grad or wq.requires_grad else None
        gx = None
        for t, w, g_tok, pre in (
            (wq, w_q, g_q, None),
            (wk, w_k, merge_heads(g_k[:, :, n_pre:]), pre_k),
            (wv, w_v, merge_heads(g_v[:, :, n_pre:]), pre_v),
        ):
            if t.requires_grad:
                gw = xf.T @ g_tok
                if pre is not None:
                    gw = gw + pre[0].data.T @ pre[1]
                t._accumulate(gw.reshape(t.data.shape))
            if pre is not None and pre[0].requires_grad:
                pre[0]._accumulate(pre[1] @ w.T)
            if x.requires_grad:
                gx = g_tok @ w.T if gx is None else gx + g_tok @ w.T
        if gx is not None:
            x._accumulate(gx.reshape(x.data.shape))

    maps = att.swapaxes(0, 1) if x.ndim == 3 else att[0]
    return _result(out if x.ndim == 3 else out[0], parents, backward), maps.copy()


def log_softmax_nll(logits, labels) -> Tensor:
    """Mean -log softmax(logits)[i, labels[i]] over a (B, M) batch, as one node.

    `labels` are integer class indices; no one-hot matrix is built.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1] or not np.issubdtype(labels.dtype, np.integer):
        raise ArgumentError(f"log_softmax_nll expects (B, M) logits and B integer labels, got {logits.shape} and {labels.shape}")
    batch, classes = logits.shape
    if batch == 0:
        raise ArgumentError("log_softmax_nll needs a non-empty batch")
    if labels.min() < 0 or labels.max() >= classes:
        raise ArgumentError(f"labels must lie in [0, {classes}), got [{labels.min()}, {labels.max()}]")
    rows = np.arange(batch)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    data = np.asarray((np.log(total[:, 0]) - shifted[rows, labels]).mean())

    def backward(g):
        if logits.requires_grad:
            grad = e / total
            grad[rows, labels] -= 1.0
            logits._accumulate(grad * (g / batch))

    return _result(data, (logits,), backward)


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """x / max(||x||, eps) along `axis` (differentiable)."""
    x = _as_tensor(x)
    norm = sqrt(tensor_sum(x * x, axis=axis, keepdims=True) + eps)
    return x / norm


def flat_views(flat: np.ndarray, shapes) -> list:
    """Consecutive slices of the 1-d `flat`, one per shape in `shapes`, reshaped to it."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


# -- verification ------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    n_checked: int
    worst_index: tuple

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(f, x: Tensor, tol: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued `f` at `x` against
    central finite differences with the given step.

    `f` must be pure and deterministic; it is evaluated twice up front and a
    mismatch raises `UsageError`.

    The default tolerance suits float64.  `f` sees a float32 `x` perturbed in
    float32, so use the relaxed `tol=5e-2` with `step=1e-2` there.
    """
    dtype = x.data.dtype
    probe = Tensor(x.data.copy(), requires_grad=True, dtype=dtype)
    out1 = f(probe)
    out2 = f(Tensor(x.data.copy(), requires_grad=True, dtype=dtype))
    if out1.data.size != 1:
        raise ArgumentError("grad_check needs a scalar-valued function")
    if not np.array_equal(out1.data, out2.data):
        raise UsageError("grad_check requires a deterministic function (two evaluations differed)")
    out1.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.copy().reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(flat.reshape(x.data.shape), dtype=dtype)).item()
        flat[i] = orig - step
        lo = f(Tensor(flat.reshape(x.data.shape), dtype=dtype)).item()
        flat[i] = orig
        numeric.reshape(-1)[i] = (hi - lo) / (2.0 * step)

    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / scale
    worst = np.unravel_index(int(rel.argmax()), rel.shape) if rel.size else ()
    return GradCheckReport(
        max_rel_error=float(rel.max()) if rel.size else 0.0,
        tol=tol,
        n_checked=int(flat.size),
        worst_index=worst,
    )


# -- seeded randomness -------------------------------------------------------


class _PhiloxKey(ISeedSequence):
    """A 128-bit key as the seed sequence Philox reads its key words from: `Philox(_PhiloxKey(k))`
    has the key, counter and buffer of `Philox(key=k)`, which also builds an unused OS-entropy `SeedSequence()`."""

    def __init__(self, key: int):
        self.words = np.array([key & 0xFFFFFFFFFFFFFFFF, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ContractViolation(f"Philox key words requested as ({n_words}, {np.dtype(dtype)}), not (2, uint64)")
        return self.words.copy()


class SeededRng:
    """Deterministic, splittable random stream (Philox counter generator).

    Identical (seed, path) pairs produce identical draw sequences on every
    platform.  `child(*labels)` derives an independent stream whose identity
    depends only on the labels, so call sites can be re-ordered safely.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = tuple(str(p) for p in _path)
        material = ("%d/" % self.seed + "/".join(self._path)).encode()
        key = int.from_bytes(hashlib.sha256(material).digest()[:16], "big")
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def child(self, *labels) -> "SeededRng":
        return SeededRng(self.seed, self._path + tuple(labels))

    def normal(self, size=None, loc=0.0, scale=1.0) -> np.ndarray:
        return self._gen.normal(loc=loc, scale=scale, size=size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n, size, replace=False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)
