"""Deterministic spectral reference for dense transfer operators.

A weighted SVD through (half) factorizations of both Grams.  The largest
weighted singular value is the operator norm; the n+1-st is the best
possible error of any n-dimensional approximation space.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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


def weighted_svd(op):
    """Spectrum via the congruence-transformed plain SVD.

    The source Gram must be definite (Cholesky); the range Gram may be
    semidefinite, in which case its eigenvalue square root is used.
    """
    matrix = op.matrix
    l_s = op.source.cholesky()
    f_r = op.range_space.factor()
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
