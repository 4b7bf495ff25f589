import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_genlaguerre, eval_hermite

from gausspack import InvalidParameterError
from gausspack.special import hermite_scaled, laguerre_assoc_all, log_factorial
from reference import hermite_zero_log


def test_log_factorial_matches_math():
    for n in (0, 1, 2, 5, 20, 170):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-15)


@given(st.floats(-4.0, 4.0), st.integers(0, 25))
def test_hermite_scaled_matches_scipy(x, nmax):
    vals = hermite_scaled(nmax, x)
    for k in (0, nmax // 2, nmax):
        scale = math.exp(-0.5 * (k * math.log(2.0) + math.lgamma(k + 1)))
        assert vals[k].real == pytest.approx(eval_hermite(k, x) * scale, rel=1e-10, abs=1e-10)


def test_hermite_scaled_complex_argument():
    # The recurrence must hold verbatim for complex arguments.
    z = 0.7 + 0.4j
    vals = hermite_scaled(6, z)
    for k in range(1, 6):
        lhs = vals[k + 1]
        rhs = z * math.sqrt(2.0 / (k + 1)) * vals[k] - math.sqrt(k / (k + 1.0)) * vals[k - 1]
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_hermite_scaled_row_from_an_underflowing_start():
    # The Poisson amplitudes l^(k/2) e^(-l/2)/sqrt(k!) at l = 3000 start at
    # exp(-1500), far below the smallest double; the running exponent keeps
    # the row exact to its peak, while its first entries round to zero.
    l = 3000.0
    row = hermite_scaled(3200, math.sqrt(l / 2.0), 0.0, -l / 2.0)
    assert row[0] == 0.0
    for k in (2900, 3000, 3100):
        log_poisson = -l + k * math.log(l) - math.lgamma(k + 1)
        assert math.log(abs(row[k]) ** 2) == pytest.approx(log_poisson, abs=1e-10)


def test_hermite_scaled_refuses_a_row_beyond_the_float_range():
    # h_k(40) passes the largest double at k = 569; the row up to 568 fits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=r"h_569 "):
            hermite_scaled(600, 40.0)
        row = hermite_scaled(568, 40.0)
    assert np.all(np.isfinite(row))


@pytest.mark.parametrize("log_start", [math.nan, math.inf, -1e300])
def test_hermite_scaled_refuses_an_unresolvable_start(log_start):
    with pytest.raises(InvalidParameterError, match="log_start"):
        hermite_scaled(3, 0.5, 1.0, log_start)


@given(st.integers(0, 60))
def test_hermite_zero_log_consistent(k):
    sign, log_abs = hermite_zero_log(k)
    if k % 2 == 1:
        assert sign == 0 and log_abs == -math.inf
    else:
        j = k // 2
        expected = math.lgamma(2 * j + 1) - math.lgamma(j + 1)
        assert sign == (-1) ** j
        assert log_abs == pytest.approx(expected, rel=1e-13)


@given(
    st.integers(0, 15),
    st.integers(0, 6),
    st.floats(0.0, 20.0),
)
def test_laguerre_assoc_matches_scipy(n, m, x):
    mine = laguerre_assoc_all(n, m, x)[n]
    ref = eval_genlaguerre(n, m, x)
    assert float(mine) == pytest.approx(float(ref), rel=1e-9, abs=1e-9)


def test_laguerre_assoc_all_vectorized():
    xs = np.linspace(0.0, 9.0, 7)
    table = laguerre_assoc_all(5, 2, xs)
    assert table.shape == (6, 7)
    for n in range(6):
        np.testing.assert_allclose(table[n], eval_genlaguerre(n, 2, xs), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_factorial(-1),
        lambda: hermite_scaled(-1, 0.5),
        lambda: hermite_zero_log(-1),
        lambda: laguerre_assoc_all(-1, 0.0, 0.5),
    ],
    ids=["log_factorial", "hermite_scaled", "hermite_zero_log", "laguerre_assoc_all"],
)
def test_negative_index_is_an_invalid_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()
