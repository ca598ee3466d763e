import math

import numpy as np
import pytest

from locmor.linalg import InnerProductSpace
from locmor.problems import build_interface_transfer
from locmor.rangefinder import (RngStream, a_priori_bound,
                                adaptive_randomized_range, c_eff, c_est,
                                effectivity, fixed_rank_range, norm_estimate,
                                projection_error)
from locmor.rangefinder import test_vector_norms as batch_image_norms
from locmor.special import erf
from locmor.transfer import DenseOperator, TransferOperator


def test_rng_stream_reproducible():
    a = RngStream(41)
    b = RngStream(41)
    other = RngStream(42)
    va = a.standard_normal(50)
    vb = b.standard_normal(50)
    assert np.array_equal(va, vb)
    assert not np.array_equal(va, other.standard_normal(50))
    assert np.array_equal(a.standard_normal(7), b.standard_normal(7))
    assert a.draws == 57
    # roughly standard normal
    big = RngStream(7).standard_normal(20000)
    assert abs(big.mean()) < 0.03
    assert abs(big.std() - 1.0) < 0.03


def test_c_est_reference_point():
    # with one test vector and failure budget erf(1/sqrt(2)), the scaled
    # quantile is exactly 1
    eps = erf(1.0 / math.sqrt(2.0))
    assert abs(c_est(1, eps, 1.0) - 1.0) < 1e-12
    # quadrupling the Gram floor halves the constant
    assert abs(c_est(1, eps, 4.0) - 0.5) < 1e-12
    # stronger guarantee (smaller eps) costs a larger constant
    assert c_est(10, 1e-6, 1.0) > c_est(10, 1e-3, 1.0)
    # more test vectors tighten it
    assert c_est(40, 1e-3, 1.0) < c_est(10, 1e-3, 1.0)
    for bad in ((0, 0.5, 1.0), (3, 0.0, 1.0), (3, 1.0, 1.0), (3, 0.5, 0.0)):
        with pytest.raises(ValueError):
            c_est(*bad)


def test_c_eff_grid_properties():
    for n_t in (5, 10, 20, 40, 80):
        for eps in (1e-2, 1e-6, 1e-10):
            for n_o in (10, 100, 1000):
                assert c_eff(n_t, eps, n_o, 1.0, 1.0) > 1.0
    # the Gram-ratio enters under the square root
    base = c_eff(10, 1e-2, 50, 1.0, 1.0)
    assert abs(c_eff(10, 1e-2, 50, 1.0, 4.0) - 2.0 * base) < 1e-10
    # more test vectors -> smaller overestimation bound
    vals = [c_eff(n_t, 1e-2, 100, 1.0, 1.0) for n_t in (5, 10, 20, 40, 80)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        c_eff(10, 1e-2, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        c_eff(10, 1e-2, 10, 2.0, 1.0)


def _identity_op(n):
    source = range_space = InnerProductSpace.euclidean(n)
    return DenseOperator(np.eye(n), source, range_space)


def test_norm_estimate_basics():
    source = range_space = InnerProductSpace.euclidean(6)
    zero = DenseOperator(np.zeros((6, 6)), source, range_space)
    assert norm_estimate(zero, 5, 1e-3, RngStream(3)) == 0.0
    op = _identity_op(6)
    d1 = norm_estimate(op, 5, 1e-3, RngStream(3))
    scaled = DenseOperator(np.eye(6) * -2.5, source, range_space)
    d2 = norm_estimate(scaled, 5, 1e-3, RngStream(3))
    assert abs(d2 - 2.5 * d1) < 1e-12 * d2


def test_norm_estimate_reliability_monte_carlo():
    # identity on R^10: the estimate must upper-bound the unit norm in
    # at least 995 of 1000 repetitions (failure budget 1e-3)
    op = _identity_op(10)
    hits = sum(norm_estimate(op, 10, 1e-3, RngStream(5000 + r)) >= 1.0
               for r in range(1000))
    assert hits >= 995


def test_test_vector_norms_shape():
    op = _identity_op(8)
    norms = batch_image_norms(op, 4, RngStream(11))
    assert norms.shape == (4,)
    assert (norms > 0).all()


def _decaying_op(n, decay=0.5):
    source = range_space = InnerProductSpace.euclidean(n)
    return DenseOperator(np.diag(decay ** np.arange(n)), source, range_space)


def test_adaptive_rank_one():
    source = range_space = InnerProductSpace.euclidean(7)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(7)
    v = rng.standard_normal(7)
    op = DenseOperator(np.outer(u, v) / np.linalg.norm(u)
                       / np.linalg.norm(v), source, range_space)
    basis = adaptive_randomized_range(op, tol=1e-8, n_t=6,
                                      eps_algofail=1e-10, rng=RngStream(23))
    assert len(basis) == 1
    assert basis.evaluations == 1 + 6
    assert basis.diagnostics[-1]["estimate"] <= 1e-8
    assert not basis.exhausted


def test_adaptive_zero_operator():
    source = range_space = InnerProductSpace.euclidean(5)
    op = DenseOperator(np.zeros((5, 5)), source, range_space)
    basis = adaptive_randomized_range(op, tol=1e-10, n_t=4,
                                      eps_algofail=1e-10, rng=RngStream(29))
    assert len(basis) == 0
    assert basis.evaluations == 4


def test_adaptive_estimates_decrease_and_count():
    op = _decaying_op(30, decay=0.6)
    basis = adaptive_randomized_range(op, tol=1e-6, n_t=8,
                                      eps_algofail=1e-12, rng=RngStream(31))
    est = [d["estimate"] for d in basis.diagnostics]
    assert all(a >= b for a, b in zip(est, est[1:]))
    assert basis.evaluations == len(basis) + 8
    assert est[-1] <= 1e-6
    assert projection_error(op, basis) <= 1e-6


def test_adaptive_exhaustion_paths():
    rng = np.random.default_rng(37)
    source = range_space = InnerProductSpace.euclidean(9)
    thin = rng.standard_normal((9, 2))
    op = DenseOperator(thin @ thin.T, source, range_space)
    # unreachable tolerance, rank 2: consecutive rejected draws abort
    basis = adaptive_randomized_range(op, tol=1e-300, n_t=3,
                                      eps_algofail=1e-10, rng=RngStream(41))
    assert basis.exhausted
    assert len(basis) == 2
    assert projection_error(op, basis) <= 1e-10 * np.linalg.norm(thin) ** 2
    # explicit n_t_bound cap
    capped = adaptive_randomized_range(op, tol=1e-300, n_t=3,
                                       eps_algofail=1e-10, rng=RngStream(43),
                                       n_t_bound=1)
    assert capped.exhausted
    assert len(capped) == 1


def test_adaptive_input_validation():
    op = _identity_op(4)
    with pytest.raises(ValueError):
        adaptive_randomized_range(op, tol=0.0, n_t=3, eps_algofail=1e-10,
                                  rng=RngStream(1))
    with pytest.raises(ValueError):
        adaptive_randomized_range(op, tol=1e-3, n_t=3, eps_algofail=0.0,
                                  rng=RngStream(1))


def test_fixed_rank_range_limits():
    op = _decaying_op(12, decay=0.3)
    empty = fixed_rank_range(op, 0, RngStream(47))
    assert len(empty) == 0
    assert abs(projection_error(op, empty) - 1.0) < 1e-12
    full = fixed_rank_range(op, 12, RngStream(47))
    assert projection_error(op, full) <= 1e-10
    assert full.evaluations == 12
    with pytest.raises(ValueError):
        fixed_rank_range(op, -1, RngStream(47))


def test_a_priori_bound_values():
    # rank-1 spectrum: every split sees a zero tail
    assert a_priori_bound([1.0, 0.0, 0.0, 0.0], 4, 1.0, 1.0, 1.0, 1.0) == 0.0
    # geometric spectrum, n = 4: only split k = p = 2, frozen by hand:
    # (1 + sqrt(2)) sigma_3 + e sqrt(4) / 2 * sqrt(sum_{j>2} 4^-j)
    sigmas = [2.0 ** -j for j in range(1, 40)]
    expected = (1.0 + math.sqrt(2.0)) * 0.125 \
        + math.e * math.sqrt(1.0 / 48.0)
    got = a_priori_bound(sigmas, 4, 1.0, 1.0, 1.0, 1.0)
    assert abs(got - expected) < 1e-12
    # Gram condition factors multiply in under the root
    worse = a_priori_bound(sigmas, 4, 1.0, 4.0, 1.0, 1.0)
    assert abs(worse - 2.0 * got) < 1e-12
    # larger n can only help (more splits available)
    assert a_priori_bound(sigmas, 8, 1.0, 1.0, 1.0, 1.0) < got
    with pytest.raises(ValueError):
        a_priori_bound(sigmas, 3, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        a_priori_bound(sigmas, 4, 0.0, 1.0, 1.0, 1.0)


def test_effectivity_basics():
    op = _decaying_op(16, decay=0.5)
    basis = fixed_rank_range(op, 4, RngStream(53))
    eta = effectivity(op, basis, 10, 1e-2, RngStream(54))
    assert eta > 0.0
    assert eta <= c_eff(10, 1e-2, 16 - 4, 1.0, 1.0) * 5.0
    # full-rank basis puts the true error at the noise floor
    full = fixed_rank_range(op, 16, RngStream(55))
    with pytest.raises(ArithmeticError):
        effectivity(op, full, 10, 1e-2, RngStream(56))


# ---------------------------------------------------------------------------
# block applies against the one-column-at-a-time reference


class _Recording:
    """Forward to an operator, recording every apply_block input and
    output."""

    def __init__(self, op):
        self.op = op
        self.source = op.source
        self.range_space = op.range_space
        self.blocks = []

    def apply(self, zeta):
        return self.op.apply(zeta)

    def apply_block(self, block):
        out = self.op.apply_block(block)
        self.blocks.append((block.copy(), out))
        return out


class _Columnwise(_Recording):
    """Reference: every block is applied one column at a time."""

    def apply_block(self, block):
        return np.column_stack([self.op.apply(block[:, k])
                                for k in range(block.shape[1])])


@pytest.fixture(scope="module")
def sparse_ops():
    """Sparse channel operators with an even (22) and an odd (21) source
    dimension; the odd one drops the last source node."""
    even = build_interface_transfer(10)
    keep = even.n_source - 1
    source = InnerProductSpace(even.source.gram[:keep, :keep])
    odd = TransferOperator(even.factorization, even.source_ids[:keep],
                           even.range_ids, source, even.range_space)
    return even, odd


def _assert_images_match_columns(recorded):
    for block, out in recorded.blocks:
        ref = np.column_stack([recorded.op.apply(block[:, k])
                               for k in range(block.shape[1])])
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def _draws(seed, n_s, count):
    rng = RngStream(seed)
    return np.column_stack([rng.standard_normal(n_s) for _ in range(count)])


@pytest.mark.parametrize("which", [0, 1])
def test_test_vector_norms_block_matches_columnwise(sparse_ops, which):
    op = sparse_ops[which]
    n_s, n_t = op.n_source, 7
    blocked, columnwise = _Recording(op), _Columnwise(op)
    rng_b, rng_c = RngStream(61), RngStream(61)
    norms_b = batch_image_norms(blocked, n_t, rng_b)
    norms_c = batch_image_norms(columnwise, n_t, rng_c)
    assert rng_b.draws == rng_c.draws == n_t * n_s
    assert np.abs(norms_b - norms_c).max() <= 1e-12 * norms_c.max()
    # one block, drawn column by column from the stream
    assert len(blocked.blocks) == 1
    assert np.array_equal(blocked.blocks[0][0], _draws(61, n_s, n_t))
    _assert_images_match_columns(blocked)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_fixed_rank_block_matches_columnwise(sparse_ops, which, n):
    op = sparse_ops[which]
    blocked, columnwise = _Recording(op), _Columnwise(op)
    rng_b, rng_c = RngStream(67), RngStream(67)
    basis_b = fixed_rank_range(blocked, n, rng_b)
    basis_c = fixed_rank_range(columnwise, n, rng_c)
    assert rng_b.draws == rng_c.draws == n * op.n_source
    assert basis_b.evaluations == basis_c.evaluations == n
    assert len(basis_b) == len(basis_c) == n
    if n == 0:
        assert blocked.blocks == []
        return
    assert len(blocked.blocks) == 1
    assert np.array_equal(blocked.blocks[0][0], _draws(67, op.n_source, n))
    _assert_images_match_columns(blocked)


@pytest.mark.parametrize("which", [0, 1])
def test_adaptive_block_matches_columnwise(sparse_ops, which):
    op = sparse_ops[which]
    n_t = 5
    blocked, columnwise = _Recording(op), _Columnwise(op)
    rng_b, rng_c = RngStream(71), RngStream(71)
    basis_b = adaptive_randomized_range(blocked, 1e-4, n_t, 1e-10, rng_b)
    basis_c = adaptive_randomized_range(columnwise, 1e-4, n_t, 1e-10, rng_c)
    assert rng_b.draws == rng_c.draws
    assert basis_b.evaluations == basis_c.evaluations == len(basis_b) + n_t
    assert len(basis_b) == len(basis_c) > 0
    est_b = [d["estimate"] for d in basis_b.diagnostics]
    est_c = [d["estimate"] for d in basis_c.diagnostics]
    assert np.allclose(est_b, est_c, rtol=1e-8, atol=0.0)
    # only the test vectors go as a block; the loop's draws stay single
    assert len(blocked.blocks) == 1
    assert np.array_equal(blocked.blocks[0][0], _draws(71, op.n_source, n_t))
    _assert_images_match_columns(blocked)
