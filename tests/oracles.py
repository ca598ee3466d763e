"""Test oracles for dense transfer operators: a generalized symmetric
eigenproblem in the source Gram, an independent route to the singular
values that `locmor.oracle.weighted_svd` computes and the one that also
gives the singular vectors, the closed-form singular values of the
straight channel problem, and a factor of a semidefinite Gram."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from locmor.linalg import _as_2d_array
from locmor.oracle import SpectralData

# eigenvalues below this times the top one are numerical noise
NOISE_FLOOR_RTOL = 1e-14
# negative eigenvalues beyond this are a hard error, closer to zero they
# are clamped
NEGATIVE_NOISE_TOL = 1e-12


@dataclass
class Eigenpairs(SpectralData):
    """Spectrum with its vectors: eigenvalues sigmas**2; coefficients
    columns are source-Gram orthonormal; range_vectors are their operator
    images (range-Gram orthogonal with squared norms eigenvalues);
    left_vectors are range-Gram orthonormal where sigma > 0, zero
    elsewhere."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    range_vectors: np.ndarray
    left_vectors: np.ndarray


def transfer_eigenproblem(op):
    """Spectrum via the generalized eigenproblem T'M_R T z = lam M_S z.

    Tail eigenvalues below NOISE_FLOOR_RTOL times the top one are
    reported as zero; negative values beyond noise raise.
    """
    matrix = op.matrix
    a = matrix.T @ op.range_space.apply_gram(matrix)
    a = 0.5 * (a + a.T)
    lam, vecs = scipy.linalg.eigh(a, _as_2d_array(op.source.gram))
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
    return Eigenpairs(sigmas=sigmas, eigenvalues=lam, coefficients=vecs,
                      range_vectors=range_vectors, left_vectors=left)


def psd_factor(gram):
    """F with gram = F F^T for a symmetric positive semidefinite Gram,
    from its eigenpairs above NOISE_FLOOR_RTOL times the top one."""
    lam, vecs = scipy.linalg.eigh(_as_2d_array(gram))
    keep = lam > NOISE_FLOOR_RTOL * max(lam[-1], 0.0)
    return vecs[:, keep] * np.sqrt(lam[keep])


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
