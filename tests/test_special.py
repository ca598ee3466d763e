import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from locmor.special import erf, erf_inv, erfc, gamma_q, gamma_q_inv, log_gamma_q

SETTLE = settings(deadline=None, derandomize=True, max_examples=200)


def test_erf_against_scipy_grid():
    x = np.linspace(-6.0, 6.0, 241)
    ours = np.array([erf(t) for t in x])
    ref = scipy.special.erf(x)
    assert np.abs(ours - ref).max() < 1e-14


def test_erfc_tail_relative_accuracy():
    for t in (1.0, 3.0, 8.0, 15.0, 25.0):
        ref = float(scipy.special.erfc(t))
        assert abs(erfc(t) - ref) <= 1e-12 * ref


def test_erf_maclaurin_small_argument():
    # independent oracle: truncated series 2/sqrt(pi) (x - x^3/3 + x^5/10)
    for x in (1e-8, 1e-6, 1e-4, 1e-3):
        series = 2.0 / math.sqrt(math.pi) * (x - x**3 / 3.0 + x**5 / 10.0)
        assert abs(erf(x) - series) <= 1e-15


@SETTLE
@given(st.floats(min_value=-0.999999, max_value=0.999999))
def test_erf_inv_round_trip(y):
    x = erf_inv(y)
    assert abs(erf(x) - y) <= 1e-13 * max(1.0, abs(y)) + 1e-15


@SETTLE
@given(st.floats(min_value=-5.5, max_value=5.5))
def test_erf_round_trip(x):
    # rounding erf(x) to the nearest double loses x-information at rate
    # e^(x^2); the tolerance must carry that condition number
    amplification = math.sqrt(math.pi) / 2.0 * math.exp(x * x)
    tol = 1e-11 * max(1.0, abs(x)) + 4.0 * 1.1e-16 * amplification
    assert abs(erf_inv(erf(x)) - x) <= tol


def test_erf_inv_against_scipy():
    y = np.linspace(-0.9999, 0.9999, 101)
    ours = np.array([erf_inv(t) for t in y])
    ref = scipy.special.erfinv(y)
    assert np.abs(ours - ref).max() < 1e-12


def test_erf_inv_extreme_tail():
    # eps_testfail^(1/n_t) can sit extremely close to 1
    y = 1.0 - 1e-13
    ref = float(scipy.special.erfinv(y))
    assert abs(erf_inv(y) - ref) <= 1e-9 * ref


def test_gamma_q_against_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 40.5, 150.0):
        for x in (0.01, 0.5, 1.0, 5.0, 20.0, 120.0, 400.0):
            ref = float(scipy.special.gammaincc(a, x))
            ours = gamma_q(a, x)
            assert abs(ours - ref) <= 1e-12 * max(ref, 1e-300) + 1e-300


def test_log_gamma_q_is_log_of_gamma_q():
    for a in (0.5, 3.0, 40.5):
        for x in (0.0, 0.5, 5.0, 120.0):
            assert log_gamma_q(a, x) == math.log(gamma_q(a, x))
    # Q(3, 800) underflows to 0, which has no finite log
    with pytest.raises(ValueError, match="underflows"):
        log_gamma_q(3.0, 800.0)


@SETTLE
@given(st.floats(min_value=0.3, max_value=120.0),
       st.floats(min_value=1e-12, max_value=0.999))
def test_gamma_q_inv_round_trip(a, y):
    x = gamma_q_inv(a, y)
    assert x > 0.0
    back = gamma_q(a, x)
    assert abs(back - y) <= 1e-9 * y


def test_gamma_q_inv_against_scipy():
    for a in (0.5, 2.0, 18.5, 77.0):
        for y in (1e-10, 1e-6, 1e-3, 0.2, 0.8, 0.99):
            ref = float(scipy.special.gammainccinv(a, y))
            ours = gamma_q_inv(a, y)
            assert abs(ours - ref) <= 1e-9 * max(ref, 1.0)


def test_gamma_q_monotone_in_x():
    xs = np.linspace(0.1, 60.0, 200)
    vals = [gamma_q(7.5, x) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma_q(-1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_q(1.0, -1.0)
    with pytest.raises(ValueError):
        gamma_q_inv(1.0, 1.5)
    with pytest.raises(ValueError):
        erf_inv(1.0)
    with pytest.raises(ValueError):
        erf_inv(-1.0)
