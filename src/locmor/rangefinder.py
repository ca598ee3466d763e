"""Adaptive randomized range approximation with a probabilistic a
posteriori operator-norm estimator.

The driver draws Gaussian source coefficients, pushes them through the
operator, and grows an orthonormal range basis until the norm estimate of
the residual operator, formed from a fixed batch of reused test vectors,
falls below the target tolerance.  The estimate is an upper bound for the
true residual norm with probability 1 - eps_algofail, uniformly over all
iterations.
"""

import math

import numpy as np

from .linalg import RangeBasis
from .oracle import weighted_svd, _matrix_of
from .special import erf_inv, gamma_q_inv
from .transfer import DenseOperator, ResidualOperator

# consecutive rejected draws before declaring rank exhaustion
MAX_CONSECUTIVE_REJECTS = 5
# effectivity is undefined once the true error sits at the noise floor
EFFECTIVITY_FLOOR_RTOL = 1e-13


class RngStream:
    """Reproducible standard-normal stream: Box-Muller over a
    counter-based (Philox) uniform generator.  Identical seeds give
    identical vector sequences.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._uniform = np.random.Generator(np.random.Philox(key=self.seed))
        self.draws = 0

    def standard_normal(self, n):
        """Next n standard normal variates (one call per random vector)."""
        pairs = (n + 1) // 2
        u1 = 1.0 - self._uniform.random(pairs)
        u2 = self._uniform.random(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(2.0 * np.pi * u2)
        z[1::2] = radius * np.sin(2.0 * np.pi * u2)
        self.draws += n
        return z[:n]


def c_est(n_t, eps_testfail, lambda_min):
    """Constant turning the max test-vector norm into a norm bound.

    Decreasing eps_testfail makes the constant larger (a stronger
    guarantee costs a looser bound), increasing n_t makes it smaller.
    """
    if n_t < 1:
        raise ValueError("need at least one test vector")
    if not 0.0 < eps_testfail < 1.0:
        raise ValueError("eps_testfail must lie in (0, 1)")
    if lambda_min <= 0.0:
        raise ValueError("lambda_min must be positive")
    root = eps_testfail ** (1.0 / n_t)
    return 1.0 / (math.sqrt(2.0 * lambda_min) * erf_inv(root))


def c_eff(n_t, eps_testfail, n_o, lambda_min, lambda_max):
    """Bound on the estimator's overestimation factor.

    Holds with probability at least 1 - eps_testfail for an operator of
    rank n_o; uses the extremal source-Gram eigenvalues.
    """
    if n_o < 1:
        raise ValueError("operator rank must be at least 1")
    if lambda_max < lambda_min:
        raise ValueError("lambda_max below lambda_min")
    q = gamma_q_inv(0.5 * n_o, eps_testfail / n_t)
    root = erf_inv(eps_testfail ** (1.0 / n_t))
    return math.sqrt(q * (lambda_max / lambda_min) / root ** 2)


def _draw_images(op, count, rng):
    """Images of `count` independent random draws, applied as one block.

    The columns are drawn one standard_normal call each, so the stream
    advances exactly as for `count` single applies.
    """
    n_s = op.source.dim
    block = np.column_stack([rng.standard_normal(n_s) for _ in range(count)])
    return op.apply_block(block)


def test_vector_norms(op, n_t, rng):
    """Range norms of n_t random operator images."""
    return op.range_space.norms(_draw_images(op, n_t, rng))


def norm_estimate(op, n_t, eps_testfail, rng):
    """Probabilistic upper bound for the operator norm.

    With probability at least 1 - eps_testfail the returned value is
    >= the true norm.
    """
    c = c_est(n_t, eps_testfail, op.source.lambda_min)
    norms = test_vector_norms(op, n_t, rng)
    return c * float(norms.max())


def adaptive_randomized_range(op, tol, n_t, eps_algofail, rng,
                              n_t_bound=None,
                              max_rejects=MAX_CONSECUTIVE_REJECTS):
    """Grow a range basis until the residual norm estimate is <= tol.

    Test vectors are drawn once, reused across iterations, and kept
    orthogonal to the growing basis.  At termination the projection error
    is <= tol with probability at least 1 - eps_algofail.  Exactly
    len(basis) + n_t operator evaluations are spent unless draws get
    rejected near rank exhaustion (each rejected draw still counts, and
    max_rejects consecutive rejections abort with the exhausted flag).
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if not 0.0 < eps_algofail < 1.0:
        raise ValueError("eps_algofail must lie in (0, 1)")
    n_s = op.source.dim
    if n_t_bound is None:
        n_t_bound = min(n_s, op.range_space.dim)
    eps_testfail = eps_algofail / n_t_bound
    c = c_est(n_t, eps_testfail, op.source.lambda_min)

    basis = RangeBasis(op.range_space)
    tests = _draw_images(op, n_t, rng)
    basis.evaluations = n_t

    rejects = 0
    while True:
        max_norm = float(op.range_space.norms(tests).max())
        estimate = c * max_norm
        basis.diagnostics.append({
            "n": len(basis),
            "max_test_norm": max_norm,
            "estimate": estimate,
            "evaluations": basis.evaluations,
        })
        if estimate <= tol:
            break
        if len(basis) >= n_t_bound:
            basis.exhausted = True
            break
        draw = op.apply(rng.standard_normal(n_s))
        basis.evaluations += 1
        if not basis.extend(draw):
            rejects += 1
            if rejects >= max_rejects:
                basis.exhausted = True
                break
            continue
        rejects = 0
        # tests are already orthogonal to the older columns, one sweep
        # against the full basis corrects the drift
        b = basis.matrix
        tests = tests - b @ (b.T @ op.range_space.apply_gram(tests))
    return basis


def fixed_rank_range(op, n, rng):
    """Orthonormalized images of n random draws (no error control)."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    basis = RangeBasis(op.range_space)
    if n == 0:
        return basis
    images = _draw_images(op, n, rng)
    for k in range(n):
        basis.extend(images[:, k])
    basis.evaluations = n
    return basis


def projection_error(op, basis):
    """Exact residual norm ||T - P T|| through the dense oracle."""
    matrix, source, range_space = _matrix_of(op)
    b = basis.matrix
    if b.shape[1]:
        matrix = matrix - b @ (b.T @ (range_space.apply_gram(matrix)))
    residual = DenseOperator(matrix, source, range_space)
    return weighted_svd(residual).sigma(1)


def a_priori_bound(sigmas, n, lambda_s_min, lambda_s_max, lambda_r_min,
                   lambda_r_max):
    """Expected-error bound for an n-dimensional randomized range space.

    Minimizes over all splits n = k + p with k, p >= 2; sigmas is the
    finite non-increasing singular value list of the operator (absent
    tail treated as zero).  Needs n >= 4.
    """
    if n < 4:
        raise ValueError("the bound needs n >= 4 (k, p >= 2)")
    for name, value in (("lambda_s_min", lambda_s_min),
                        ("lambda_s_max", lambda_s_max),
                        ("lambda_r_min", lambda_r_min),
                        ("lambda_r_max", lambda_r_max)):
        if value <= 0.0:
            raise ValueError(f"{name} must be positive")
    sig = np.asarray(sigmas, dtype=float)
    tail_sq = np.concatenate([np.cumsum(sig[::-1] ** 2)[::-1], [0.0]])

    def sigma_at(j):
        # 1-based; zero beyond the provided list
        return sig[j - 1] if j <= sig.size else 0.0

    best = math.inf
    for k in range(2, n - 1):
        p = n - k
        value = ((1.0 + math.sqrt(k / (p - 1.0))) * sigma_at(k + 1)
                 + (math.e * math.sqrt(n) / p)
                 * math.sqrt(tail_sq[min(k, sig.size)]))
        best = min(best, value)
    factor = math.sqrt((lambda_r_max / lambda_r_min)
                       * (lambda_s_max / lambda_s_min))
    return factor * best


def effectivity(op, basis, n_t, eps_testfail, rng):
    """Ratio of the norm estimate to the true residual norm.

    Raises once the true error is at the numerical noise floor relative
    to the operator norm.
    """
    true_error = projection_error(op, basis)
    top = weighted_svd(op).sigma(1)
    if true_error < EFFECTIVITY_FLOOR_RTOL * top:
        raise ArithmeticError(
            "effectivity undefined: residual at the noise floor")
    residual = ResidualOperator(op, basis)
    delta = norm_estimate(residual, n_t, eps_testfail, rng)
    return delta / true_error
