import math

import numpy as np
import pytest

from locmor.linalg import InnerProductSpace, RangeBasis
from locmor.oracle import weighted_svd
from locmor.problems import build_interface_transfer
from locmor.rangefinder import projection_error
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
