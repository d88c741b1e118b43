"""`gelu_cdf` (the normal CDF Phi) and `expit` in numpy: error against `math.erfc`
and extended-precision references, special values, dtypes, and `grad_check`
of GELU and softplus, whose gradients use them."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from fscil.numerics import Tensor, expit, gelu, gelu_cdf, grad_check, softplus

EPS64 = float(np.finfo(np.float64).eps)  # 2.2e-16: the scipy formula's own maximum error against math.erfc
GRID = np.concatenate([np.linspace(-40.0, 40.0, 400_001), np.arange(-9.0, 9.0, 2.0**-11) + 2.0**-12])


def phi_oracle(x: np.ndarray) -> np.ndarray:
    """Phi from `math.erfc` of the lower tail, so each value is rounded once."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) if v <= 0 else 1.0 - 0.5 * math.erfc(v / math.sqrt(2.0)) for v in np.ravel(x)]).reshape(np.shape(x))


def test_phi_error_against_math_erfc_is_no_worse_than_the_scipy_formula():
    want = phi_oracle(GRID)
    scipy_error = np.abs(0.5 * (1.0 + special.erf(GRID / np.sqrt(2.0))) - want)
    error = np.abs(gelu_cdf(GRID) - want)
    assert error.max() <= EPS64
    assert error.max() <= scipy_error.max()
    # errors above one ulp of [0.5, 1) are no more frequent than the scipy formula's
    assert np.sum(error > 1.2e-16) <= np.sum(scipy_error > 1.2e-16)


def test_phi_stays_in_the_unit_interval_and_saturates_beyond_the_table():
    y = gelu_cdf(np.linspace(-12.0, 12.0, 100_001))
    assert y.min() == 0.0 and y.max() == 1.0
    np.testing.assert_array_equal(gelu_cdf(np.array([-8.5, -9.0, 8.5, 9.0])), [0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("lo, hi", [(-12.0, 12.0), (7.4, 7.8)])
def test_phi_never_falls_by_more_than_one_ulp_and_gelu_is_monotone(lo, hi):
    # Near Phi = 1 the cubics of neighbouring grid cells can round one ulp apart, and
    # between x = 7.5 and 7.7 the denser grid finds Phi(x + dx) one ulp below Phi(x)
    x = np.linspace(lo, hi, 100_001)
    phi = gelu_cdf(x)
    step = np.diff(phi)
    assert np.all(step >= -np.spacing(phi[:-1]))
    g = np.diff(x * phi)  # GELU falls to its minimum near x = -0.75, then rises
    low = int(np.argmin(x * phi))
    assert np.all(g[:low] <= 0) and np.all(g[low:] >= 0)


def test_expit_error_against_an_extended_precision_reference():
    x = GRID
    wide = x.astype(np.longdouble)
    want = 1 / (1 + np.exp(-wide))
    rel = np.abs((expit(x) - want) / want).astype(np.float64).max()
    assert rel <= 1.5 * EPS64
    assert np.abs(expit(x) - special.expit(x)).max() <= EPS64


@pytest.mark.parametrize("fn", [gelu_cdf, expit])
def test_special_values(fn):
    y = fn(np.array([np.inf, -np.inf, np.nan, -0.0, 0.0]))
    np.testing.assert_array_equal(y, [1.0, 0.0, np.nan, 0.5, 0.5])


@pytest.mark.parametrize("fn", [gelu_cdf, expit])
def test_no_floating_point_warning_at_large_magnitudes(fn):
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        y = fn(np.array([800.0, -800.0, 1e300, -1e300]))
    np.testing.assert_array_equal(y, [1.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("fn", [gelu_cdf, expit])
def test_float32_inputs_stay_float32(fn):
    x = np.linspace(-10.0, 10.0, 2001)
    y32 = fn(x.astype(np.float32))
    assert y32.dtype == np.float32
    np.testing.assert_allclose(y32, fn(x.astype(np.float32).astype(np.float64)), rtol=0, atol=1e-7)


def test_phi_of_a_zero_dim_array():
    assert gelu_cdf(np.array(1.0)) == phi_oracle(np.array([1.0]))[0]


@pytest.mark.parametrize("dtype, tol, step", [(np.float64, 1e-4, 1e-5), (np.float32, 5e-2, 1e-2)])
@pytest.mark.parametrize("op", [gelu, softplus], ids=["gelu", "softplus"])
def test_gelu_and_softplus_pass_grad_check_across_the_table(op, dtype, tol, step):
    # inputs across [-6, 6] fall in many cells of the Phi table; `stochastic_weights`, the
    # other user of `expit`, is grad-checked in both dtypes by the property tests
    x = np.random.default_rng(3).uniform(-6.0, 6.0, size=(4, 5))
    report = grad_check(lambda t: (op(t) * t).sum(), Tensor(x.astype(dtype), dtype=dtype), tol=tol, step=step)
    assert report.passed, report.max_rel_error
