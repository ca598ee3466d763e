"""Scalar special functions feeding the probabilistic estimator constants.

erf, erfc, erf_inv, gamma_q and gamma_q_inv wrap scipy.special behind
the domain checks the estimator relies on.  log_gamma_q, the log of the
normalized upper incomplete gamma function, has no scipy counterpart; it
runs in log space, so tails where Q itself underflows stay finite.
"""

import math

import scipy.special

_EPS = 1e-16
_MAX_ITER = 10 ** 6


def _log_prefactor(a, x):
    # log of x^a e^-x / Gamma(a)
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series(a, x):
    """Regularized lower incomplete gamma P(a, x) by power series.

    All terms are positive, so there is no cancellation.  Valid for
    x < a + 1 where the series converges quickly.
    """
    term = 1.0 / a
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        total += term
        if term < _EPS * total:
            break
        if n > _MAX_ITER:
            raise ArithmeticError("lower gamma series failed to converge")
    return math.exp(_log_prefactor(a, x) + math.log(total))


def _log_upper_cf(a, x):
    """log Q(a, x) by the Legendre continued fraction (modified Lentz).

    Valid for x >= a + 1; returning the log keeps deep tails exact.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return _log_prefactor(a, x) + math.log(h)
    raise ArithmeticError("upper gamma continued fraction failed to converge")


def _check_shape(a):
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"shape parameter must be positive and finite, got {a}")


def _check_gamma_args(a, x):
    _check_shape(a)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"argument must be nonnegative and finite, got {x}")


def log_gamma_q(a, x):
    """log of the normalized upper incomplete gamma function."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        p = _lower_series(a, x)
        return math.log1p(-p)
    return _log_upper_cf(a, x)


def gamma_q(a, x):
    """Normalized upper incomplete gamma function Q(a, x).

    Q(a, 0) = 1 and Q decreases monotonically to 0.
    """
    _check_gamma_args(a, x)
    return float(scipy.special.gammaincc(a, x))


def gamma_q_inv(a, y):
    """Solve gamma_q(a, x) = y for x, given y in (0, 1]."""
    _check_shape(a)
    if not (0.0 < y <= 1.0):
        raise ValueError(f"target must lie in (0, 1], got {y}")
    return float(scipy.special.gammainccinv(a, y))


def erf(x):
    """Error function."""
    if not math.isfinite(x):
        raise ValueError(f"erf expects a finite argument, got {x}")
    return float(scipy.special.erf(x))


def erfc(x):
    """Complementary error function, accurate in the upper tail."""
    if not math.isfinite(x):
        raise ValueError(f"erfc expects a finite argument, got {x}")
    return float(scipy.special.erfc(x))


def erf_inv(y):
    """Inverse error function on (-1, 1)."""
    if not (-1.0 < y < 1.0):
        raise ValueError(f"erf_inv domain is (-1, 1), got {y}")
    return float(scipy.special.erfinv(y))
