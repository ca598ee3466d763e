"""Deterministic spectral reference for dense transfer operators.

Two independent routes to the same quantities: a generalized symmetric
eigenproblem in the source Gram, and a weighted SVD through (half)
factorizations of both Grams.  The largest weighted singular value is the
operator norm; the n+1-st is the best possible error of any n-dimensional
approximation space.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import _as_2d_array

# eigenvalues below this times the top one are numerical noise
NOISE_FLOOR_RTOL = 1e-14
# negative eigenvalues beyond this are a hard error, closer to zero they
# are clamped
NEGATIVE_NOISE_TOL = 1e-12


@dataclass
class SpectralData:
    """Spectral decomposition of a transfer operator.

    sigmas are non-increasing; coefficients columns are source-Gram
    orthonormal; range_vectors are the operator images of the
    coefficients (range-Gram orthogonal with squared norms eigenvalues);
    left_vectors are range-Gram orthonormal.
    """

    eigenvalues: np.ndarray
    sigmas: np.ndarray
    coefficients: np.ndarray
    range_vectors: np.ndarray
    left_vectors: np.ndarray

    def sigma(self, i):
        """i-th singular value, 1-based, 0.0 beyond the computed range."""
        if i < 1:
            raise ValueError("singular value index is 1-based")
        if i > self.sigmas.size:
            return 0.0
        return float(self.sigmas[i - 1])


def _matrix_of(op):
    matrix = getattr(op, "matrix", None)
    if matrix is None:
        op = op.assemble_dense()
        matrix = op.matrix
    return matrix, op.source, op.range_space


def transfer_eigenproblem(op):
    """Spectrum via the generalized eigenproblem T'M_R T z = lam M_S z.

    Tail eigenvalues below NOISE_FLOOR_RTOL times the top one are
    reported as zero; negative values beyond noise raise.
    """
    matrix, source, range_space = _matrix_of(op)
    a = matrix.T @ range_space.apply_gram(matrix)
    a = 0.5 * (a + a.T)
    lam, vecs = scipy.linalg.eigh(a, _as_2d_array(source.gram))
    order = np.argsort(lam)[::-1]
    lam, vecs = lam[order], vecs[:, order]
    top = max(lam[0], 0.0)
    if (lam < -NEGATIVE_NOISE_TOL * max(top, 1.0)).any():
        raise np.linalg.LinAlgError(
            "transfer eigenproblem returned negative eigenvalues beyond "
            "noise level")
    lam = np.where(lam < NOISE_FLOOR_RTOL * top, 0.0, lam)
    sigmas = np.sqrt(lam)
    range_vectors = matrix @ vecs
    positive = sigmas > 0.0
    left = np.zeros_like(range_vectors)
    left[:, positive] = range_vectors[:, positive] / sigmas[positive]
    return SpectralData(eigenvalues=lam, sigmas=sigmas, coefficients=vecs,
                        range_vectors=range_vectors, left_vectors=left)


def weighted_svd(op):
    """Spectrum via the congruence-transformed plain SVD.

    The source Gram must be definite (Cholesky); the range Gram may be
    semidefinite, in which case its eigenvalue square root is used.
    """
    matrix, source, range_space = _matrix_of(op)
    l_s = source.cholesky()
    f_r = range_space.factor()
    # sigma( F_R^T T L_S^{-T} )
    y = f_r.T @ matrix
    z = scipy.linalg.solve_triangular(l_s, y.T, lower=True).T
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    coeffs = scipy.linalg.solve_triangular(l_s, vt.T, lower=True,
                                           trans="T")
    range_vectors = matrix @ coeffs
    positive = s > 0.0
    left = np.zeros_like(range_vectors)
    left[:, positive] = range_vectors[:, positive] / s[positive]
    return SpectralData(eigenvalues=s ** 2, sigmas=s.copy(),
                        coefficients=coeffs, range_vectors=range_vectors,
                        left_vectors=left)


def analytic_interface_sigma(i, length, width):
    """Closed-form singular values of the straight-channel Laplace
    transfer map from the two far edges to the middle line.

    The i-th value (1-based) is 1 / (sqrt(2) cosh((i-1) pi L / W)) for a
    channel of half length L and width W.
    """
    if i < 1:
        raise ValueError("index is 1-based")
    return 1.0 / (math.sqrt(2.0) * math.cosh((i - 1) * math.pi
                                             * length / width))
