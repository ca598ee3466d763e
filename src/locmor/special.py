"""Scalar special functions feeding the probabilistic estimator constants.

erf, erfc, erf_inv, gamma_q and gamma_q_inv wrap scipy.special behind
the domain checks the estimator relies on.
"""

import math

import scipy.special


def _check_shape(a):
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"shape parameter must be positive and finite, got {a}")


def _check_gamma_args(a, x):
    _check_shape(a)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"argument must be nonnegative and finite, got {x}")


def log_gamma_q(a, x):
    """log Q(a, x).  No estimator reads it; the name stays only because
    the _SPECIAL table of bench/tracer.py looks it up (ROADMAP item 1)."""
    q = gamma_q(a, x)
    if q == 0.0:
        raise ValueError(f"Q({a}, {x}) underflows to 0; its log is -inf")
    return math.log(q)


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
