"""Deterministic spectral reference for dense transfer operators.

A weighted SVD through the Cholesky factors of both Grams.  The largest
weighted singular value is the operator norm; the n+1-st is the best
possible error of any n-dimensional approximation space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .transfer import DenseOperator


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


def dense_matrix(op):
    """op.matrix, or a one-line error if op is not a DenseOperator."""
    if not isinstance(op, DenseOperator):
        raise ValueError("needs a DenseOperator: assemble_dense() gives one")
    return op.matrix


def _whitened(op):
    """z = L_R^T T L_S^{-T}, whose plain singular values are T's weighted
    ones; the Cholesky factors L_R and L_S need definite Grams."""
    matrix = dense_matrix(op)
    y = op.range_space.cholesky().T @ matrix
    return solve_triangular(op.source.cholesky(), y.T, lower=True).T


def weighted_svd(op):
    """Spectrum from the full SVD of z; values-only differs in last bits."""
    z = _whitened(op)
    return SpectralData(sigmas=np.linalg.svd(z, full_matrices=False)[1])


def weighted_norm(op):
    """sigma_1 alone, from the top eigenvalue of the smaller Gram of z."""
    z = _whitened(op)
    gram = z @ z.T if z.shape[0] <= z.shape[1] else z.T @ z
    return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))
