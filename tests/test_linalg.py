import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from locmor.linalg import (InnerProductSpace, NearSingularError, RangeBasis,
                           factorize, gram_extremal_eigenvalues)
from locmor.fem import (PdeSpec, assemble_system, build_rect_mesh,
                        constrain_system)
from locmor.problems import build_interface_transfer
from conftest import random_spd


def test_factorize_solves_and_rejects_singular():
    rng = np.random.default_rng(3)
    a = sp.csc_matrix(random_spd(rng, 20))
    fac = factorize(a)
    b = rng.standard_normal((20, 3))
    x = fac.solve(b)
    assert np.abs(a @ x - b).max() < 1e-10

    singular = sp.eye(5, format="csc").tolil()
    singular[2, 2] = 0.0
    with pytest.raises((NearSingularError, RuntimeError)):
        factorize(singular.tocsc())


def _channel(x, y):
    return "gamma_out" if abs(abs(x) - 1.0) <= 1e-9 else "sigma_N"


def test_factorization_fill_below_colamd():
    op = build_interface_transfer(20)
    lu = op.factorization._lu
    # the mesh build_interface_transfer factors at 1/h = 20
    mesh = build_rect_mesh((-1.0, 1.0, 0.0, 1.0), 1.0 / 20, "q1", _channel)
    matrix = sp.csc_matrix(
        constrain_system(mesh, assemble_system(mesh, PdeSpec("laplace"))))
    colamd = spla.splu(matrix, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    b = np.random.default_rng(43).standard_normal(matrix.shape[0])
    x = op.factorization.solve(b)
    assert np.abs(matrix @ x - b).max() < 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("bounds, kind, tag_fn, kappa", [
    # all-natural boundary: kappa = 0 resonates with the constant mode
    pytest.param((0.0, 1.0, 0.0, 1.0), "q1", None, 0.0, id="q1"),
    pytest.param((0.0, 1.0, 0.0, 1.0), "p1x", None, 0.0, id="p1x"),
    # the 1/h = 10 interface channel at a discrete eigenvalue: smallest
    # pivot 5.9e-14 * max|A|, where a solve of ones returns 4e13
    pytest.param((-1.0, 1.0, 0.0, 1.0), "q1", _channel, 1.5724117312772443,
                 id="interface-channel"),
])
def test_factorize_rejects_resonant_helmholtz(bounds, kind, tag_fn, kappa):
    mesh = build_rect_mesh(bounds, 0.1, kind, tag_fn)
    with pytest.raises(NearSingularError):
        factorize(constrain_system(
            mesh, assemble_system(mesh, PdeSpec("helmholtz", kappa=kappa))))


def test_gram_extremal_eigenvalues_dense_certified():
    rng = np.random.default_rng(7)
    gram = random_spd(rng, 30, cond=1e4)
    lo, hi = gram_extremal_eigenvalues(sp.csr_matrix(gram))
    ref = np.linalg.eigvalsh(gram)
    assert lo <= ref[0] + 1e-9 * abs(ref[0]) + 1e-14 * ref[-1]
    assert hi >= ref[-1] * (1 - 1e-9)
    # conservative: the certified bracket contains the true extremes
    assert lo <= ref[0] and hi >= ref[-1]


def test_inner_product_space_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        InnerProductSpace(bad)


def test_space_norms_block_matches_loop():
    rng = np.random.default_rng(13)
    gram = random_spd(rng, 10)
    space = InnerProductSpace(gram)
    block = rng.standard_normal((10, 6))
    norms = space.norms(block)
    for k in range(6):
        assert abs(norms[k] - space.norm(block[:, k])) < 1e-12


def test_cholesky_and_factor_reproduce_gram():
    rng = np.random.default_rng(17)
    gram = random_spd(rng, 8)
    space = InnerProductSpace(gram)
    l = space.cholesky()
    assert np.abs(l @ l.T - gram).max() < 1e-12
    f = space.factor()
    assert np.abs(f @ f.T - gram).max() < 1e-12


def test_factor_semidefinite():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    eig = np.concatenate([[0.0, 0.0], np.linspace(1.0, 2.0, 7)])
    gram = (q * eig) @ q.T
    gram = 0.5 * (gram + gram.T)
    space = InnerProductSpace(gram, definite=False)
    f = space.factor()
    assert f.shape == (9, 7)
    assert np.abs(f @ f.T - gram).max() < 1e-10
    with pytest.raises(np.linalg.LinAlgError):
        space.cholesky()


def _basis_orthonormality(basis):
    b = basis.matrix
    gram = b.T @ basis.space.apply_gram(b)
    return np.abs(gram - np.eye(b.shape[1])).max()


def test_range_basis_extend_and_reject():
    rng = np.random.default_rng(23)
    gram = random_spd(rng, 12)
    space = InnerProductSpace(gram)
    basis = RangeBasis(space)
    vecs = rng.standard_normal((12, 5))
    for k in range(5):
        assert basis.extend(vecs[:, k])
    assert len(basis) == 5
    assert _basis_orthonormality(basis) < 1e-12
    # a linear combination of accepted vectors must be rejected
    combo = vecs @ rng.standard_normal(5)
    assert not basis.extend(combo)
    assert not basis.extend(np.zeros(12))
    assert len(basis) == 5


def test_range_basis_extend_block_matches_sequential():
    rng = np.random.default_rng(31)
    gram = random_spd(rng, 20)
    space = InnerProductSpace(gram)
    block = rng.standard_normal((20, 7))

    blocked = RangeBasis(space)
    accepted = blocked.extend_block(block)
    assert accepted == 7
    assert _basis_orthonormality(blocked) < 1e-12
    # same span as the sequential path
    seq = RangeBasis(space)
    for k in range(7):
        seq.extend(block[:, k])
    overlap = blocked.matrix.T @ space.apply_gram(seq.matrix)
    s = np.linalg.svd(overlap, compute_uv=False)
    assert np.abs(s - 1.0).max() < 1e-10


def test_range_basis_extend_block_rank_deficient():
    rng = np.random.default_rng(37)
    space = InnerProductSpace.euclidean(15)
    thin = rng.standard_normal((15, 3))
    block = np.column_stack([thin, thin @ rng.standard_normal((3, 2))])
    basis = RangeBasis(space)
    accepted = basis.extend_block(block)
    assert accepted == 3
    assert _basis_orthonormality(basis) < 1e-12


def test_range_basis_extend_block_refuses_a_nonempty_basis():
    rng = np.random.default_rng(41)
    basis = RangeBasis(InnerProductSpace.euclidean(10))
    basis.extend(rng.standard_normal(10))
    for block in (rng.standard_normal((10, 3)), np.empty((10, 0))):
        with pytest.raises(ValueError, match="empty basis"):
            basis.extend_block(block)
    assert len(basis) == 1


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_range_basis_orthonormal_property(k, seed):
    rng = np.random.default_rng(seed)
    gram = random_spd(rng, 16)
    space = InnerProductSpace(gram)
    basis = RangeBasis(space)
    for _ in range(k):
        basis.extend(rng.standard_normal(16))
    if len(basis):
        assert _basis_orthonormality(basis) < 1e-10
