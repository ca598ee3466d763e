import math

import numpy as np
import pytest
import scipy.linalg

from locmor.linalg import InnerProductSpace, RangeBasis
from locmor.oracle import weighted_norm, weighted_svd
from locmor.problems import build_interface_transfer
from locmor.rangefinder import RngStream, fixed_rank_range, projection_error
from locmor.transfer import DenseOperator
from conftest import random_spd
from oracles import analytic_interface_sigma, transfer_eigenproblem


def test_identity_operator_spectrum():
    source = range_space = InnerProductSpace.euclidean(6)
    op = DenseOperator(np.eye(6), source, range_space)
    for data in (transfer_eigenproblem(op), weighted_svd(op)):
        assert np.abs(data.sigmas - 1.0).max() < 1e-12
    assert np.abs(transfer_eigenproblem(op).eigenvalues - 1.0).max() < 1e-12


def test_diagonal_operator_spectrum():
    source = range_space = InnerProductSpace.euclidean(2)
    op = DenseOperator(np.diag([3.0, 1.0]), source, range_space)
    data = transfer_eigenproblem(op)
    assert np.abs(data.eigenvalues - [9.0, 1.0]).max() < 1e-12
    assert np.abs(data.sigmas - [3.0, 1.0]).max() < 1e-12


def test_eigenproblem_postconditions():
    rng = np.random.default_rng(111)
    m_s = random_spd(rng, 7)
    m_r = random_spd(rng, 5)
    t = rng.standard_normal((5, 7))
    op = DenseOperator(t, InnerProductSpace(m_s), InnerProductSpace(m_r))
    data = transfer_eigenproblem(op)
    lam1 = data.eigenvalues[0]
    assert np.all(np.diff(data.eigenvalues) <= 0)
    for j in range(7):
        resid = (t.T @ m_r @ t @ data.coefficients[:, j]
                 - data.eigenvalues[j] * m_s @ data.coefficients[:, j])
        assert np.abs(resid).max() < 1e-9 * lam1
    gram = data.coefficients.T @ m_s @ data.coefficients
    assert np.abs(gram - np.eye(7)).max() < 1e-10
    assert np.abs(data.sigmas - np.sqrt(np.maximum(data.eigenvalues, 0.0))
                  ).max() < 1e-14


def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(113)
    for _ in range(5):
        m_s = random_spd(rng, 4)
        m_r = random_spd(rng, 6)
        t = rng.standard_normal((6, 4))
        op = DenseOperator(t, InnerProductSpace(m_s), InnerProductSpace(m_r))
        a = transfer_eigenproblem(op)
        b = weighted_svd(op)
        assert np.abs(a.sigmas - b.sigmas).max() < 1e-8 * b.sigmas[0]


def test_svd_orthonormality_properties():
    rng = np.random.default_rng(127)
    m_s = random_spd(rng, 8)
    m_r = random_spd(rng, 6)
    t = rng.standard_normal((6, 8))
    op = DenseOperator(t, InnerProductSpace(m_s), InnerProductSpace(m_r))
    data = transfer_eigenproblem(op)
    k = 6   # rank
    # left vectors are range-orthonormal where sigma > 0
    left = data.left_vectors[:, :k]
    assert np.abs(left.T @ m_r @ left - np.eye(k)).max() < 1e-8
    # raw operator images have squared norms equal to the eigenvalues
    ranged = data.range_vectors
    gram = ranged.T @ m_r @ ranged
    assert np.abs(gram - np.diag(data.eigenvalues)).max() < \
        1e-8 * data.eigenvalues[0]
    # coefficients are source-orthonormal, all N_S of them
    cg = data.coefficients.T @ m_s @ data.coefficients
    assert cg.shape == (8, 8)
    assert np.abs(cg - np.eye(8)).max() < 1e-8
    # sigmas are non-increasing and reconstruct the full-rank operator
    assert np.all(np.diff(data.sigmas) <= 0)
    rebuilt = data.left_vectors * data.sigmas @ data.coefficients.T @ m_s
    assert np.abs(rebuilt - t).max() < 1e-10 * np.abs(t).max()


def test_rank_deficiency_clamps_noise():
    rng = np.random.default_rng(131)
    source = range_space = InnerProductSpace.euclidean(5)
    thin = rng.standard_normal((5, 2))
    op = DenseOperator(thin @ thin.T @ np.eye(5), source, range_space)
    data = transfer_eigenproblem(op)
    assert (data.eigenvalues >= 0.0).all()
    assert (data.sigmas[2:] == 0.0).all()
    assert np.isfinite(data.left_vectors).all()


def test_sigma_accessor():
    source = range_space = InnerProductSpace.euclidean(3)
    data = weighted_svd(DenseOperator(np.eye(3), source, range_space))
    assert data.sigma(1) == pytest.approx(1.0)
    assert data.sigma(7) == 0.0
    with pytest.raises(ValueError):
        data.sigma(0)


def test_analytic_sigma_values():
    assert abs(analytic_interface_sigma(1, 1.0, 1.0) - 0.70710678) < 1e-8
    assert abs(analytic_interface_sigma(2, 1.0, 1.0) - 0.0609998) < 1e-6
    assert abs(analytic_interface_sigma(3, 1.0, 1.0) - 2.641e-3) < 1e-6
    assert analytic_interface_sigma(2, 1.0, 1.0) == \
        1.0 / (math.sqrt(2.0) * math.cosh(math.pi))
    # aspect ratio enters through L/W
    assert analytic_interface_sigma(4, 0.5, 2.0) == \
        analytic_interface_sigma(4, 1.0, 4.0)
    with pytest.raises(ValueError):
        analytic_interface_sigma(0, 1.0, 1.0)


def test_discrete_sigmas_converge_to_analytic():
    errors = {}
    for h_inv in (10, 20, 40):
        op = build_interface_transfer(h_inv=h_inv)
        data = weighted_svd(op.assemble_dense())
        errors[h_inv] = [
            abs(data.sigma(i) - analytic_interface_sigma(i, 1.0, 1.0))
            / analytic_interface_sigma(i, 1.0, 1.0)
            for i in range(2, 7)]
    for j in range(5):
        assert errors[20][j] < errors[10][j]
        assert errors[40][j] < errors[20][j]


def test_optimal_space_error_is_next_sigma():
    op = build_interface_transfer(h_inv=16)
    dense = op.assemble_dense()
    data = weighted_svd(dense)
    left = transfer_eigenproblem(dense).left_vectors
    for n in (1, 3, 5):
        basis = RangeBasis(op.range_space)
        basis.extend_block(left[:, :n])
        err = projection_error(dense, basis)
        assert abs(err - data.sigma(n + 1)) <= 1e-8 * data.sigma(1)


def test_operator_norm_and_rows():
    source = range_space = InnerProductSpace.euclidean(4)
    op = DenseOperator(np.diag([4.0, 2.0, 1.0, 0.5]), source, range_space)
    data = weighted_svd(op)
    assert data.sigma(1) == pytest.approx(4.0)
    assert data.sigmas[:2] == pytest.approx([4.0, 2.0])
    assert transfer_eigenproblem(op).eigenvalues[:2] == \
        pytest.approx([16.0, 4.0])


def _residual(dense, basis):
    """T - P_B T as a DenseOperator, formed as projection_error forms it."""
    b = basis.matrix
    matrix = dense.matrix - b @ (b.T @ dense.range_space.apply_gram(
        dense.matrix))
    return DenseOperator(matrix, dense.source, dense.range_space)


def _assert_sigma1_agrees(op):
    """weighted_norm against the full SVD's sigma_1; returns the latter."""
    ref = weighted_svd(op).sigma(1)
    assert abs(weighted_norm(op) - ref) <= 1e-13 * ref
    return ref


def test_projection_error_is_sigma1_of_the_residual(interface40):
    # z is 41 x 82 here: the Gram is taken on the row side
    dense = interface40.dense
    for n in range(13):
        basis = fixed_rank_range(dense, n, RngStream(100 + n))
        residual = _residual(dense, basis)
        ref = _assert_sigma1_agrees(residual)
        assert abs(projection_error(dense, basis) - ref) <= 1e-13 * ref
        # the cached Gram image leaves the residual bitwise as it was
        assert projection_error(dense, basis) == weighted_norm(residual)


def test_weighted_norm_of_a_tall_operator():
    # more range rows than source columns: the Gram on the column side
    rng = np.random.default_rng(137)
    for m, k in ((9, 4), (12, 1), (6, 5)):
        op = DenseOperator(rng.standard_normal((m, k)),
                           InnerProductSpace(random_spd(rng, k)),
                           InnerProductSpace(random_spd(rng, m)))
        _assert_sigma1_agrees(op)


def test_projection_error_on_the_full_and_the_empty_basis(interface40):
    dense, sigma1 = interface40.dense, interface40.data.sigma(1)
    full = RangeBasis(dense.range_space)
    full.extend_block(np.eye(dense.range_space.dim))
    # the residual is roundoff, and the Gram route still reads it
    assert projection_error(dense, full) <= 1e-10 * sigma1
    _assert_sigma1_agrees(_residual(dense, full))
    empty = RangeBasis(dense.range_space)
    assert abs(projection_error(dense, empty) - sigma1) <= 1e-13 * sigma1


def test_projection_error_makes_no_svd(interface40, monkeypatch):
    dense = interface40.dense
    basis = fixed_rank_range(dense, 5, RngStream(7))
    before = projection_error(dense, basis)

    def no_svd(*args, **kwargs):
        raise AssertionError("projection_error called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert projection_error(dense, basis) == before


def test_projection_error_forms_its_caches_once(monkeypatch):
    # a fresh operator on fresh spaces, so nothing is cached yet
    dense = build_interface_transfer(h_inv=10).assemble_dense()
    basis = fixed_rank_range(dense, 3, RngStream(5))
    calls = {"gram": 0, "solve": 0}
    apply_gram = dense.range_space.apply_gram
    solve_triangular = scipy.linalg.solve_triangular

    def counted_gram(v):
        calls["gram"] += 1
        return apply_gram(v)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve_triangular(*args, **kwargs)

    monkeypatch.setattr(dense.range_space, "apply_gram", counted_gram)
    monkeypatch.setattr(scipy.linalg, "solve_triangular", counted_solve)
    first = projection_error(dense, basis)
    assert projection_error(dense, basis) == first
    # G T once, and L_S^{-T} from one triangular solve
    assert calls == {"gram": 1, "solve": 1}
    assert np.array_equal(dense.gram_image,
                          dense.range_space.gram @ dense.matrix)
    whitener = dense.source.whitener()
    assert np.abs(dense.source.cholesky().T @ whitener
                  - np.eye(dense.source.dim)).max() < 1e-13
    for cached in (dense.gram_image, whitener):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 0.0


@pytest.mark.parametrize("call", [
    lambda op: weighted_svd(op),
    lambda op: projection_error(op, RangeBasis(op.range_space)),
], ids=["weighted_svd", "projection_error"])
def test_oracle_rejects_a_matrix_free_operator_in_one_line(call, interface40):
    with pytest.raises(ValueError) as info:
        call(interface40.op)
    message = str(info.value)
    assert "DenseOperator" in message and "assemble_dense()" in message
    assert "\n" not in message
