import numpy as np
import pytest
import scipy.sparse as sp

import locmor.transfer
from locmor.fem import assemble_system, constrain_system
from locmor.gfem import build_gfem_problem
from locmor.linalg import InnerProductSpace, factorize
from locmor.oracle import weighted_svd
from locmor.problems import build_gfem_mesh, build_interface_transfer, \
    gfem_field
from locmor.transfer import DenseOperator, ResidualOperator, TransferOperator
from conftest import core_extension


@pytest.fixture(scope="module")
def small_op():
    return build_interface_transfer(h_inv=10)


def test_apply_is_linear(small_op):
    rng = np.random.default_rng(61)
    z1 = rng.standard_normal(small_op.source.dim)
    z2 = rng.standard_normal(small_op.source.dim)
    a = 0.37
    lhs = small_op.apply(a * z1 + z2)
    rhs = a * small_op.apply(z1) + small_op.apply(z2)
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_zero_and_constant_data(small_op):
    assert np.abs(small_op.apply(np.zeros(small_op.source.dim))).max() == 0.0
    # harmonic extension of constant boundary data is the constant
    out = small_op.apply(np.ones(small_op.source.dim))
    assert np.abs(out - 1.0).max() < 1e-10


def test_symmetric_data_gives_symmetric_response(small_op):
    # the channel is symmetric across its horizontal midline
    rng = np.random.default_rng(67)
    n_edge = small_op.source.dim // 2
    half = rng.standard_normal(n_edge)
    sym_edge = 0.5 * (half + half[::-1])
    zeta = np.concatenate([sym_edge, sym_edge])
    out = small_op.apply(zeta)
    assert np.abs(out - out[::-1]).max() < 1e-11


@pytest.fixture(scope="module")
def toy_gfem():
    pde, source = gfem_field("uniform")
    mesh = build_gfem_mesh(20)
    return mesh, pde, build_gfem_problem(mesh, pde, source)


def _interior(problem):
    return next(p for p in problem.patches if p.grid_pos == (4, 4))


def test_kernel_stage_removes_constants(toy_gfem):
    # an interior GFEM patch operator maps into the range modulo constants
    patch = _interior(toy_gfem[2])
    op = patch.problem.operator
    mass = patch.problem.core.core_l2.gram
    assert not patch.problem.touches_dirichlet
    ext = core_extension(patch)
    ones = np.ones(op.source.dim)
    assert np.abs(ext @ op.apply(ones)).max() < 1e-10
    assert np.abs(ext @ op.apply_block(np.column_stack([ones, ones]))).max() \
        < 1e-10
    # generic data: the output is core-mass-orthogonal to constants
    rng = np.random.default_rng(73)
    v = ext @ op.apply(rng.standard_normal(op.source.dim))
    assert abs(np.ones(patch.problem.range_ids.size) @ (mass @ v)) < \
        1e-12 * np.abs(v).max()


def test_kernel_projection_identities(toy_gfem):
    _, pde, problem = toy_gfem
    patch = _interior(problem)
    op = patch.problem.operator
    mass = patch.problem.core.core_l2.gram
    # the operator is the plain transfer map followed by the core-mass
    # projection off the constant
    plain_op = TransferOperator(
        factorize(constrain_system(patch.mesh,
                                   assemble_system(patch.mesh, pde))),
        patch.problem.source_ids, patch.problem.range_ids, patch.source,
        patch.problem.core.range_space)
    ext = core_extension(patch)
    rng = np.random.default_rng(79)
    z = rng.standard_normal(op.source.dim)
    v = ext @ op.apply(z)
    plain = plain_op.apply(z)
    ones = np.ones(patch.problem.range_ids.size)
    mean = (ones @ (mass @ plain)) / (ones @ (mass @ ones))
    projected = plain - mean * ones
    assert np.abs(v - projected).max() < 1e-13 * np.abs(plain).max()
    # block columns match the single applies
    block = ext @ op.apply_block(
        np.column_stack([z, np.ones(op.source.dim)]))
    assert np.abs(block[:, 0] - v).max() < 1e-13 * np.abs(v).max()
    assert np.abs(block[:, 1]).max() < 1e-10


def test_assemble_dense_consistency(small_op):
    dense = small_op.assemble_dense()
    n_range = small_op.range_space.dim
    assert dense.matrix.shape == (n_range, small_op.source.dim)
    rng = np.random.default_rng(79)
    for _ in range(10):
        z = rng.standard_normal(small_op.source.dim)
        direct = small_op.apply(z)
        assert np.abs(dense.apply(z) - direct).max() <= \
            1e-12 * max(np.abs(direct).max(), 1e-30)
    assert np.linalg.matrix_rank(dense.matrix) <= min(small_op.source.dim,
                                                      n_range)


def _solve_log(op, monkeypatch):
    """Record (columns, trans) of every solve of op's factorization."""
    log = []
    solve = op.factorization.solve

    def logged(b, trans="N"):
        log.append((b.shape[1], trans))
        return solve(b, trans=trans)

    monkeypatch.setattr(op.factorization, "solve", logged)
    return log


def _both_directions(op):
    """The dense operator from forward solves on the source columns and
    from transposed solves on the range rows."""
    forward = op.apply_block(np.eye(op.source.dim))
    rhs = np.zeros((op.n_total, op.range_ids.size))
    rhs[op.range_ids, np.arange(op.range_ids.size)] = 1.0
    transposed = op.factorization.solve(rhs, trans="T")[op.source_ids].T
    return forward, transposed


def test_assemble_dense_directions_agree(small_op, monkeypatch):
    # the channel maps 22 nodes of its two far edges onto the 11 of its
    # mid line; from the left edge alone onto every other node it maps
    # 11 nodes onto 220
    left = small_op.source_ids[:11]
    rest = np.setdiff1d(np.arange(small_op.n_total), left)
    wide = TransferOperator(small_op.factorization, left, rest,
                            InnerProductSpace.euclidean(left.size),
                            InnerProductSpace.euclidean(rest.size))
    # so one is assembled by 11 transposed, the other by 11 forward
    # solves; both directions agree to 4.8e-16 and 2.7e-16 relative
    for op, solves in ((small_op, (11, "T")), (wide, (11, "N"))):
        forward, transposed = _both_directions(op)
        scale = np.abs(forward).max()
        assert np.abs(forward - transposed).max() <= 1e-12 * scale
        log = _solve_log(op, monkeypatch)
        dense = op.assemble_dense().matrix
        assert log == [solves]
        assert dense.flags.c_contiguous
        assert np.abs(dense - forward).max() <= 1e-12 * scale
        monkeypatch.undo()


def test_assemble_dense_gives_a_dense_range_gram(small_op, toy_gfem):
    # the interface range Gram is densified, entry for entry, and its
    # spectrum and factor come out bitwise as from the sparse one
    sparse_space = small_op.range_space
    dense_space = small_op.assemble_dense().range_space
    assert sp.issparse(sparse_space.gram)
    assert type(dense_space.gram) is np.ndarray
    assert np.array_equal(dense_space.gram, sparse_space.gram.toarray())
    assert dense_space.extremal_eigenvalues() == \
        sparse_space.extremal_eigenvalues()
    assert dense_space.cholesky().tobytes() == \
        sparse_space.cholesky().tobytes()
    # GFEM's Schur trace space, dense already, is passed through
    local = _interior(toy_gfem[2]).problem
    assert local.operator.range_space is local.core.trace_space


def test_dense_operator_keeps_a_read_only_copy():
    matrix = np.arange(12.0).reshape(3, 4)
    op = DenseOperator(matrix, InnerProductSpace.euclidean(4),
                       InnerProductSpace.euclidean(3))
    matrix[0, 0] = 5.0
    assert op.matrix[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        op.matrix -= 1.0


def test_assemble_dense_guard(small_op, monkeypatch):
    monkeypatch.setattr(locmor.transfer, "DENSE_GUARD", 3)
    with pytest.raises(ValueError):
        small_op.assemble_dense()


def test_leading_weighted_singular_value():
    op = build_interface_transfer(h_inv=20)
    sigma1 = weighted_svd(op.assemble_dense()).sigma(1)
    assert abs(sigma1 - 2.0 ** -0.5) < 0.02 * 2.0 ** -0.5


def test_random_sup_underestimates_norm():
    # the sup over finitely many directions can only approach sigma_1
    # from below; a chance alignment needs few source dimensions
    op = build_interface_transfer(h_inv=4)
    rng = np.random.default_rng(83)
    sigma1 = weighted_svd(op.assemble_dense()).sigma(1)
    sup = 0.0
    for _ in range(200):
        z = rng.standard_normal(op.source.dim)
        sup = max(sup, op.range_space.norm(op.apply(z))
                  / op.source.norm(z))
    assert 0.8 * sigma1 <= sup <= sigma1 * (1.0 + 1e-12)


def test_apply_block_matches_apply(small_op):
    from locmor.rangefinder import RngStream, fixed_rank_range
    for cls in (DenseOperator, TransferOperator, ResidualOperator):
        assert cls.apply is cls.apply_block
    dense = small_op.assemble_dense()
    residual = ResidualOperator(small_op,
                                fixed_rank_range(small_op, 3, RngStream(4)))
    rng = np.random.default_rng(97)
    block = rng.standard_normal((small_op.source.dim, 5))
    for op in (small_op, dense, residual):
        out = op.apply_block(block)
        for k in range(5):
            single = op.apply(block[:, k])
            # a vector is bitwise a one-column block; wider blocks take
            # other BLAS kernels (gemm for gemv) and agree to roundoff
            assert np.array_equal(single,
                                  op.apply_block(block[:, k:k + 1])[:, 0])
            assert np.abs(out[:, k] - single).max() < 1e-13
        for wrong in (block[:-1, 0], block[:-1]):
            with pytest.raises(ValueError):
                op.apply(wrong)


def test_residual_operator_projects(small_op):
    from locmor.rangefinder import RngStream, fixed_rank_range
    basis = fixed_rank_range(small_op, 3, RngStream(4))
    res = ResidualOperator(small_op, basis)
    rng = np.random.default_rng(101)
    z = rng.standard_normal(small_op.source.dim)
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
        TransferOperator(base.factorization, np.zeros(base.source.dim,
                                                      dtype=int),
                         base.range_ids, base.source, base.range_space)
    with pytest.raises(ValueError):
        TransferOperator(base.factorization, base.source_ids[:-1],
                         base.range_ids, base.source, base.range_space)
