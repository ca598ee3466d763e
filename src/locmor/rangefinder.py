"""Adaptive randomized range approximation with a probabilistic a
posteriori operator-norm estimator.

The driver draws Gaussian source coefficients, pushes them through the
operator, and grows an orthonormal range basis until the norm estimate of
the residual operator, formed from a fixed batch of reused test vectors,
falls below the target tolerance.  The estimate is an upper bound for the
true residual norm with probability 1 - eps_algofail, uniformly over all
iterations.

Only the decision to stop reads the estimate, not the draws, so the loop
applies its draws a block at a time and still checks the estimate after
each column that joins the basis.
"""

import math

import numpy as np
from scipy.linalg import lapack

from .linalg import RangeBasis, gram_norms
from .oracle import dense_matrix, weighted_norm_of
from .special import erf_inv, gamma_q_inv

# consecutive rejected draws before declaring rank exhaustion
MAX_CONSECUTIVE_REJECTS = 5
# largest block of images the adaptive loop draws at once
MAX_BLOCK = 8
# pivots of the residual tests' Gram matrix below this times its largest
# diagonal entry are roundoff when the block size reads the residual's rank
RANK_RTOL = 1e-12


class RngStream:
    """Reproducible standard-normal stream: numpy's normals over a
    counter-based (Philox) generator keyed by the seed.  Identical seeds
    give identical vector sequences, and the rows of one (count, n) draw
    are bitwise the vectors of count successive draws of n.
    """

    def __init__(self, seed):
        self._generator = np.random.Generator(np.random.Philox(key=int(seed)))

    def standard_normal(self, size):
        """Next variates: one vector for an int size, or for (count, n)
        a block whose rows are count successive vectors of n."""
        return self._generator.standard_normal(size)


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

    The block is one stream draw whose rows are the columns, so the
    stream advances exactly as for `count` single applies.
    """
    return op.apply_block(rng.standard_normal((count, op.source.dim)).T)


def _block_size(basis, tol, limit, tests, g_tests):
    """Images the adaptive loop draws next.

    One until two estimates exist.  Then half the steps left that the
    mean log decay of the estimates predicts, log(estimate / tol) / rate
    with rate = log(first estimate / estimate) / len(basis), so that
    blocks shrink as the estimate nears tol.  At least one, and at most
    MAX_BLOCK, `limit` (the columns left below min(n_s, n_r)) and the
    numerical rank of the residual tests `tests` (Gram image `g_tests`):
    Gaussian images of a residual of rank q <= n_t span its range, and
    draws past it would count as evaluations but join nothing.
    """
    n = len(basis)
    if n == 0:
        return 1
    first = basis.diagnostics[0]["estimate"]
    last = basis.diagnostics[-1]["estimate"]
    rate = math.log(first / last) / n
    half = MAX_BLOCK if rate <= 0.0 else math.log(last / tol) / rate / 2
    count = min(int(min(half, MAX_BLOCK)), limit)
    if count > 1:
        # pivoted Cholesky of the tests' Gram matrix stops at its rank
        gram = tests.T @ g_tests
        rank = lapack.dpstrf(gram, tol=RANK_RTOL * gram.diagonal().max())[2]
        count = min(count, rank)
    return max(count, 1)


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


def adaptive_randomized_range(op, tol, n_t, eps_algofail, rng):
    """Grow a range basis until the residual norm estimate is <= tol.

    Test vectors are drawn once, reused across iterations, and kept
    orthogonal to the growing basis.  Draws are applied in blocks sized by
    _block_size, each block one stream draw, and join the basis one column
    at a time in stream order, each followed by a test update and a
    diagnostics entry.  The rest of a block joins even after the
    estimate is <= tol: the error only falls, so at termination the
    projection error is <= tol with probability at least 1 - eps_algofail.
    Exactly len(basis) + n_t operator evaluations are spent unless draws
    get rejected near rank exhaustion (each rejected draw still counts,
    and MAX_CONSECUTIVE_REJECTS consecutive rejections before tol is met
    abort with the exhausted flag).  The basis is also exhausted once it
    reaches min(source dim, range dim) columns.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if not 0.0 < eps_algofail < 1.0:
        raise ValueError("eps_algofail must lie in (0, 1)")
    n_s = op.source.dim
    n_t_bound = min(n_s, op.range_space.dim)
    eps_testfail = eps_algofail / n_t_bound
    c = c_est(n_t, eps_testfail, op.source.lambda_min)

    basis = RangeBasis(op.range_space)
    tests = _draw_images(op, n_t, rng)
    basis.evaluations = n_t

    pending = []
    met = False
    rejects = 0
    while True:
        # one Gram image of the tests serves their norms and their update
        g_tests = op.range_space.apply_gram(tests)
        max_norm = float(gram_norms(tests, g_tests).max())
        estimate = c * max_norm
        basis.diagnostics.append({
            "n": len(basis),
            "max_test_norm": max_norm,
            "estimate": estimate,
            "evaluations": basis.evaluations,
        })
        met = met or estimate <= tol
        if not pending:
            if met:
                break
            if len(basis) >= n_t_bound:
                basis.exhausted = True
                break
            count = _block_size(basis, tol, n_t_bound - len(basis), tests,
                                g_tests)
            basis.evaluations += count
            # single draws go through apply, so bench/tracer.py still sees
            # the loop's `transfer.apply` spans; the columns of a block
            # are copied contiguous, like the single images
            if count == 1:
                pending = [op.apply(rng.standard_normal(n_s))]
            else:
                pending = list(_draw_images(op, count, rng).T.copy())
        draw = pending.pop(0)
        if not basis.extend(draw):
            rejects += 1
            if rejects >= MAX_CONSECUTIVE_REJECTS:
                basis.exhausted = not met
                break
            continue
        rejects = 0
        # tests are already orthogonal to the older columns, one sweep
        # against the full basis corrects the drift
        b = basis.matrix
        tests = tests - b @ (b.T @ g_tests)
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
    """Exact residual norm ||T - P T|| of a dense operator, projected
    through its cached Gram image."""
    matrix = dense_matrix(op)
    b = basis.matrix
    if b.shape[1]:
        matrix = matrix - b @ (b.T @ op.gram_image)
    return weighted_norm_of(matrix, op.source, op.range_space)


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
