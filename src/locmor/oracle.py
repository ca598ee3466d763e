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
    """Weighted singular values of a transfer operator, non-increasing."""

    sigmas: np.ndarray

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
    l_s = op.source.cholesky()
    # sigma( F_R^T T L_S^{-T} ), from the full SVD: a values-only one
    # takes another LAPACK path and differs in the last bits
    y = op.range_space.factor().T @ op.matrix
    z = scipy.linalg.solve_triangular(l_s, y.T, lower=True).T
    return SpectralData(sigmas=np.linalg.svd(z, full_matrices=False)[1])
