import concurrent.futures

import numpy as np
import pytest

from locmor.linalg import InnerProductSpace
from locmor.oracle import weighted_svd
from locmor.problems import build_interface_transfer
from locmor.transfer import (DenseOperator, ResidualOperator,
                             TransferOperator, constant_kernel_basis)


@pytest.fixture(scope="module")
def small_op():
    return build_interface_transfer(h_inv=10)


def test_apply_is_linear(small_op):
    rng = np.random.default_rng(61)
    z1 = rng.standard_normal(small_op.n_source)
    z2 = rng.standard_normal(small_op.n_source)
    a = 0.37
    lhs = small_op.apply(a * z1 + z2)
    rhs = a * small_op.apply(z1) + small_op.apply(z2)
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_zero_and_constant_data(small_op):
    assert np.abs(small_op.apply(np.zeros(small_op.n_source))).max() == 0.0
    # harmonic extension of constant boundary data is the constant
    out = small_op.apply(np.ones(small_op.n_source))
    assert np.abs(out - 1.0).max() < 1e-10


def test_symmetric_data_gives_symmetric_response(small_op):
    # the channel is symmetric across its horizontal midline
    rng = np.random.default_rng(67)
    n_edge = small_op.n_source // 2
    half = rng.standard_normal(n_edge)
    sym_edge = 0.5 * (half + half[::-1])
    zeta = np.concatenate([sym_edge, sym_edge])
    out = small_op.apply(zeta)
    assert np.abs(out - out[::-1]).max() < 1e-11


def _with_kernel(base, kernel_basis, quotient_gram):
    return TransferOperator(
        base.factorization, base.source_ids, base.range_ids, base.source,
        base.range_space, kernel_basis=kernel_basis,
        quotient_gram=quotient_gram)


def test_kernel_stage_removes_constants():
    base = build_interface_transfer(h_inv=8)
    range_gram = base.range_space.gram
    eta = constant_kernel_basis(range_gram)
    op = _with_kernel(base, eta, range_gram)
    assert np.abs(op.apply(np.ones(base.n_source))).max() < 1e-10
    block = op.apply_block(np.ones((base.n_source, 2)))
    assert np.abs(block).max() < 1e-10
    # generic data: the output is quotient-orthogonal to eta
    rng = np.random.default_rng(73)
    z = rng.standard_normal(base.n_source)
    v = op.apply(z)
    assert abs(eta[:, 0] @ (range_gram @ v)) < 1e-12 * np.abs(v).max()

    with pytest.raises(ValueError, match="quotient Gram"):
        _with_kernel(base, eta, None)


def test_kernel_projection_identities():
    base = build_interface_transfer(h_inv=8)
    range_gram = base.range_space.gram
    eta = constant_kernel_basis(range_gram)
    op = _with_kernel(base, eta, range_gram)
    # the operator is the plain one followed by the quotient projection
    rng = np.random.default_rng(79)
    z = rng.standard_normal(base.n_source)
    v = op.apply(z)
    plain = base.apply(z)
    projected = plain - eta[:, 0] * (eta[:, 0] @ (range_gram @ plain))
    assert np.abs(v - projected).max() < 1e-13 * np.abs(plain).max()
    # block columns match the single applies
    block = op.apply_block(np.column_stack([z, np.ones(base.n_source)]))
    assert np.abs(block[:, 0] - v).max() < 1e-13 * np.abs(v).max()
    assert np.abs(block[:, 1]).max() < 1e-10

    with pytest.raises(ValueError, match="not orthonormal"):
        _with_kernel(base, eta * 3.0, range_gram)


def test_assemble_dense_consistency(small_op):
    dense = small_op.assemble_dense()
    assert dense.matrix.shape == (small_op.n_range, small_op.n_source)
    rng = np.random.default_rng(79)
    for _ in range(10):
        z = rng.standard_normal(small_op.n_source)
        direct = small_op.apply(z)
        assert np.abs(dense.apply(z) - direct).max() <= \
            1e-12 * max(np.abs(direct).max(), 1e-30)
    assert np.linalg.matrix_rank(dense.matrix) <= min(small_op.n_source,
                                                      small_op.n_range)


def test_assemble_dense_guard(small_op):
    with pytest.raises(ValueError):
        small_op.assemble_dense(guard=3)


def test_leading_weighted_singular_value():
    op = build_interface_transfer(h_inv=20)
    sigma1 = weighted_svd(op).sigma(1)
    assert abs(sigma1 - 2.0 ** -0.5) < 0.02 * 2.0 ** -0.5


def test_random_sup_underestimates_norm():
    # the sup over finitely many directions can only approach sigma_1
    # from below; a chance alignment needs few source dimensions
    op = build_interface_transfer(h_inv=4)
    rng = np.random.default_rng(83)
    sigma1 = weighted_svd(op).sigma(1)
    sup = 0.0
    for _ in range(200):
        z = rng.standard_normal(op.n_source)
        sup = max(sup, op.range_space.norm(op.apply(z))
                  / op.source.norm(z))
    assert 0.8 * sigma1 <= sup <= sigma1 * (1.0 + 1e-12)


def test_concurrent_apply_matches_serial(small_op):
    rng = np.random.default_rng(89)
    blocks = rng.standard_normal((small_op.n_source, 16))
    serial = [small_op.apply(blocks[:, k]) for k in range(16)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda k: small_op.apply(blocks[:, k]), range(16)))
    for s, p in zip(serial, parallel):
        assert np.array_equal(s, p)


def test_apply_block_matches_apply(small_op):
    rng = np.random.default_rng(97)
    block = rng.standard_normal((small_op.n_source, 5))
    out = small_op.apply_block(block)
    for k in range(5):
        assert np.abs(out[:, k] - small_op.apply(block[:, k])).max() < 1e-13


def test_residual_operator_projects(small_op):
    from locmor.rangefinder import RngStream, fixed_rank_range
    basis = fixed_rank_range(small_op, 3, RngStream(4))
    res = ResidualOperator(small_op, basis)
    rng = np.random.default_rng(101)
    z = rng.standard_normal(small_op.n_source)
    out = res.apply(z)
    # residual image has no component along the basis
    b = basis.matrix
    assert np.abs(b.T @ (small_op.range_space.gram @ out)).max() < 1e-10
    block = res.apply_block(np.column_stack([z, 2.0 * z]))
    assert np.abs(block[:, 0] - out).max() < 1e-11

    empty = ResidualOperator(small_op, type(basis)(small_op.range_space))
    assert np.abs(empty.apply(z) - small_op.apply(z)).max() < 1e-12


def test_operator_validation():
    source = InnerProductSpace.euclidean(4)
    range_space = InnerProductSpace.euclidean(3)
    mat = np.zeros((3, 4))
    op = DenseOperator(mat, source, range_space)
    assert np.abs(op.apply(np.ones(4))).max() == 0.0
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((4, 3)), source, range_space)

    base = build_interface_transfer(h_inv=8)
    with pytest.raises(ValueError):
        TransferOperator(base.factorization, np.zeros(base.n_source,
                                                      dtype=int),
                         base.range_ids, base.source, base.range_space)
    with pytest.raises(ValueError):
        TransferOperator(base.factorization, base.source_ids[:-1],
                         base.range_ids, base.source, base.range_space)
