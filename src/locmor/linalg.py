"""Dense and sparse linear algebra kernels shared by all other modules."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Re-orthogonalization trigger: project again when one Gram-Schmidt sweep
# removed more than this fraction of the incoming norm.
REORTH_THRESHOLD = 0.1
# Relative norm below which an incoming vector counts as linearly dependent.
DROP_TOL = 1e-14
# Pivot threshold (relative to max |A|) below which a factorization is
# treated as singular.
PIVOT_RTOL = 1e-10
# Relative symmetry defect tolerated in a Gram matrix.
GRAM_SYM_TOL = 1e-12


class NearSingularError(np.linalg.LinAlgError):
    """Raised when a sparse factorization meets a (near) zero pivot."""


def _as_2d_array(m):
    if sp.issparse(m):
        return m.toarray()
    return np.asarray(m, dtype=float)


# ---------------------------------------------------------------------------
# sparse factorization


class Factorization:
    """LU factorization of a sparse matrix with reusable solves."""

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("factorize expects a square matrix")
        self.shape = matrix.shape
        maxabs = abs(matrix).max() if matrix.nnz else 0.0
        if maxabs == 0.0:
            raise NearSingularError("near-resonant or singular system: zero matrix")
        try:
            # symmetric-pattern ordering: L+U fill 2.94M vs COLAMD 5.11M (40,501 dofs)
            self._lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NearSingularError(
                f"near-resonant or singular system: {exc}") from exc
        pivots = np.abs(self._lu.U.diagonal())
        if pivots.min() <= PIVOT_RTOL * maxabs:
            raise NearSingularError(
                "near-resonant or singular system: pivot "
                f"{pivots.min():.3e} below {PIVOT_RTOL:.0e} * max|A|")

    def solve(self, b, trans="N"):
        """Solve A x = b, or A^T x = b with trans="T", for one right-hand
        side or a column block."""
        b = np.asarray(b, dtype=float)
        return self._lu.solve(b, trans=trans)


def factorize(matrix):
    return Factorization(matrix)


# ---------------------------------------------------------------------------
# extremal Gram eigenvalues


def gram_extremal_eigenvalues(gram):
    """Certified extremal eigenvalues (lo, hi) of a symmetric Gram matrix
    from one dense eigensolve, rounded outward: callers may divide by lo
    and multiply by hi."""
    lam = scipy.linalg.eigh(_as_2d_array(gram), eigvals_only=True)
    lo, hi = float(lam[0]), float(lam[-1])
    return (lo * (1.0 - 1e-9) - 1e-14 * abs(hi),
            hi * (1.0 + 1e-9) + 1e-14 * abs(hi))


# ---------------------------------------------------------------------------
# inner product spaces


def gram_norms(block, gram_block):
    """Columnwise norms of a block, given its Gram image."""
    q = np.einsum("ij,ij->j", block, gram_block)
    return np.sqrt(np.maximum(q, 0.0))


def _norm(v, gram_v):
    return float(np.sqrt(max(float(v @ gram_v), 0.0)))


class InnerProductSpace:
    """A discrete function space with a (semi)definite Gram matrix.

    The Gram matrix is stored unregularized.  For semidefinite energy
    products pass definite=False.
    """

    def __init__(self, gram, definite=True):
        if sp.issparse(gram):
            gram = sp.csr_matrix(gram)
            asym = abs(gram - gram.T).max()
            scale = abs(gram).max()
        else:
            gram = np.asarray(gram, dtype=float)
            asym = np.abs(gram - gram.T).max()
            scale = np.abs(gram).max()
        if scale == 0.0 or asym > GRAM_SYM_TOL * scale:
            raise ValueError("Gram matrix must be symmetric and nonzero")
        self.gram = gram
        self.dim = gram.shape[0]
        self.definite = definite
        self._extremes = None
        self._chol = None

    @classmethod
    def euclidean(cls, n):
        return cls(sp.identity(n, format="csr"))

    def apply_gram(self, v):
        return self.gram @ v

    def norm(self, v):
        return _norm(v, self.gram @ v)

    def norms(self, block):
        """Columnwise norms of an (dim, k) block."""
        return gram_norms(block, self.gram @ block)

    def extremal_eigenvalues(self):
        if self._extremes is None:
            self._extremes = gram_extremal_eigenvalues(self.gram)
        return self._extremes

    @property
    def lambda_min(self):
        return self.extremal_eigenvalues()[0]

    def cholesky(self):
        """Dense lower Cholesky factor.  Requires a definite Gram matrix."""
        if not self.definite:
            raise np.linalg.LinAlgError(
                "cholesky factor of a semidefinite Gram matrix")
        if self._chol is None:
            self._chol = scipy.linalg.cholesky(
                _as_2d_array(self.gram), lower=True)
        return self._chol

    def factor(self):
        """Matrix F with gram = F @ F.T (Cholesky, or eigh-based if PSD)."""
        if self.definite:
            return self.cholesky()
        lam, vecs = scipy.linalg.eigh(_as_2d_array(self.gram))
        keep = lam > 1e-14 * max(lam[-1], 0.0)
        return vecs[:, keep] * np.sqrt(lam[keep])


# ---------------------------------------------------------------------------
# Gram-Schmidt with re-iteration


class RangeBasis:
    """Ordered orthonormal set in an InnerProductSpace, grown vector by
    vector."""

    def __init__(self, space):
        self.space = space
        self._buf = np.empty((space.dim, 8))
        self._n = 0
        # filled by the rangefinder
        self.diagnostics = []
        self.evaluations = 0
        self.exhausted = False

    @classmethod
    def from_orthonormal(cls, space, columns):
        """A basis holding a copy of columns, which must already be
        orthonormal in space, with room for one more."""
        basis = cls(space)
        basis._buf = np.empty((space.dim, columns.shape[1] + 1))
        basis._buf[:, :-1] = columns
        basis._n = columns.shape[1]
        return basis

    def __len__(self):
        return self._n

    @property
    def matrix(self):
        """Current columns; a read-only view, do not mutate."""
        return self._buf[:, : self._n]

    def _append(self, w):
        if self._n == self._buf.shape[1]:
            grown = np.empty((self.space.dim, 2 * self._buf.shape[1]))
            grown[:, : self._n] = self._buf[:, : self._n]
            self._buf = grown
        self._buf[:, self._n] = w
        self._n += 1

    def extend_block(self, block):
        """Fill an empty basis with many independent columns at once via
        two-pass Cholesky QR in the space inner product.

        Falls back to sequential extends when the block is rank
        deficient.  Returns the number of accepted columns.  Raises
        ValueError on a non-empty basis.
        """
        if self._n:
            raise ValueError("extend_block needs an empty basis")
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.space.dim:
            raise ValueError("block shape does not match the space")
        if block.shape[1] == 0:
            return 0
        q = block
        ok = False
        try:
            for _ in range(2):
                gram = q.T @ self.space.apply_gram(q)
                chol = np.linalg.cholesky(gram)
                q = scipy.linalg.solve_triangular(
                    chol, q.T, lower=True).T
            check = q.T @ self.space.apply_gram(q)
            ok = np.abs(check - np.eye(q.shape[1])).max() < 1e-12
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            accepted = 0
            for k in range(block.shape[1]):
                accepted += self.extend(block[:, k])
            return accepted
        for k in range(q.shape[1]):
            self._append(q[:, k])
        return q.shape[1]

    def extend(self, v):
        """Orthonormalize v against the basis and append it.

        Returns True when accepted, False when v is numerically in the
        span already (norm fell below DROP_TOL times the incoming norm).
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.space.dim,):
            raise ValueError("vector dimension does not match the space")
        if not np.isfinite(v).all():
            raise ValueError("non-finite vector")
        # each Gram image serves both a norm and a projection
        g = self.space.apply_gram(v)
        norm0 = _norm(v, g)
        if norm0 == 0.0:
            return False
        w = v
        if self._n:
            b = self.matrix
            w = w - b @ (b.T @ g)
            g = self.space.apply_gram(w)
            norm1 = _norm(w, g)
            if norm1 < REORTH_THRESHOLD * norm0:
                w = w - b @ (b.T @ g)
                norm1 = self.space.norm(w)
        else:
            norm1 = norm0
        if norm1 <= DROP_TOL * norm0:
            return False
        self._append(w / norm1)
        return True
