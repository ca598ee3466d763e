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
    """Spectrum from the full SVD of z; values-only differs in last bits.

    z is whitened by a triangular solve, not by the cached L_S^{-T} of
    weighted_norm: one solve per spectrum costs nothing worth saving,
    and every printed singular value stays as it was."""
    z = _whitened(op)
    return SpectralData(sigmas=np.linalg.svd(z, full_matrices=False)[1])


def weighted_norm_of(matrix, source, range_space):
    """sigma_1 of a matrix from source to range_space, from the top
    eigenvalue of the smaller Gram of z = L_R^T T L_S^{-T}, whitened by
    one product with the source's cached L_S^{-T}."""
    z = range_space.cholesky().T @ matrix @ source.whitener()
    gram = z @ z.T if z.shape[0] <= z.shape[1] else z.T @ z
    return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))


def weighted_norm(op):
    """sigma_1 alone, as weighted_norm_of the operator's matrix."""
    return weighted_norm_of(dense_matrix(op), op.source, op.range_space)
