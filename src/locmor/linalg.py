"""Dense and sparse linear algebra kernels shared by all other modules."""

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Re-orthogonalization trigger: project again when one Gram-Schmidt sweep
# removed more than this fraction of the incoming norm.
REORTH_THRESHOLD = 0.1
# Relative norm below which an incoming vector counts as linearly dependent.
DROP_TOL = 1e-14
# Dimension limit for the dense extremal-eigenvalue path.
DENSE_EIG_LIMIT = 2000
# Pivot threshold (relative to max |A|) below which a factorization is
# treated as singular.
PIVOT_RTOL = 1e-14
# Relative symmetry defect tolerated in a Gram matrix.
GRAM_SYM_TOL = 1e-12


class NearSingularError(np.linalg.LinAlgError):
    """Raised when a sparse factorization meets a (near) zero pivot."""


def _as_2d_array(m):
    if sp.issparse(m):
        return m.toarray()
    return np.asarray(m, dtype=float)


# ---------------------------------------------------------------------------
# dense decompositions


def dense_svd(a):
    """Economy SVD of a dense matrix.

    Returns (u, s, vt) with a = u @ diag(s) @ vt and s non-increasing.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("dense_svd expects a matrix")
    if not np.isfinite(a).all():
        raise ValueError("dense_svd: non-finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD iteration failed to converge: {exc}") from exc


def generalized_symmetric_eig(a, m):
    """Solve a x = lam * m x for symmetric a and SPD m.

    Returns (lam, vecs) with lam non-increasing and vecs m-orthonormal
    (columns).
    """
    a = _as_2d_array(a)
    m = _as_2d_array(m)
    try:
        lam, vecs = scipy.linalg.eigh(a, m)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"generalized eigensolve failed (mass matrix not SPD?): {exc}"
        ) from exc
    order = np.argsort(lam)[::-1]
    return lam[order], vecs[:, order]


# ---------------------------------------------------------------------------
# sparse factorization


class Factorization:
    """LU factorization of a sparse matrix with reusable solves.

    solve() is read-only and may be called concurrently once the
    factorization exists.
    """

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

    def solve(self, b):
        """Solve A x = b for one right-hand side or a column block."""
        b = np.asarray(b, dtype=float)
        return self._lu.solve(b)


def factorize(matrix):
    return Factorization(matrix)


# ---------------------------------------------------------------------------
# extremal Gram eigenvalues


def _certify(lo, hi):
    # conservative rounding: callers may divide by lo and multiply by hi
    lo = lo * (1.0 - 1e-9) - 1e-14 * abs(hi)
    hi = hi * (1.0 + 1e-9) + 1e-14 * abs(hi)
    return lo, hi


def _power_iteration(matvec, n, rng, tol=1e-10, maxit=20000):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(maxit):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, 0.0
        v_new = w / nw
        rho_new = float(v_new @ matvec(v_new))
        if abs(rho_new - rho) <= tol * abs(rho_new):
            resid = np.linalg.norm(matvec(v_new) - rho_new * v_new)
            return rho_new, resid
        rho, v = rho_new, v_new
    resid = np.linalg.norm(matvec(v) - rho * v)
    return rho, resid


def gram_extremal_eigenvalues(gram, kernel=None):
    """Certified extremal eigenvalues (lo, hi) of a symmetric Gram matrix.

    `kernel` is an optional euclidean-orthonormal (n, k) nullspace basis;
    when given, the minimum is taken over its orthogonal complement.
    Below DENSE_EIG_LIMIT a dense eigensolve is used; above, power
    iteration (max) and inverse iteration through a bordered sparse
    factorization (min). lo is rounded down, hi rounded up.
    """
    n = gram.shape[0]
    kdim = 0 if kernel is None else kernel.shape[1]
    if n <= DENSE_EIG_LIMIT:
        dense = _as_2d_array(gram)
        lam = scipy.linalg.eigh(dense, eigvals_only=True)
        lam_max = float(lam[-1])
        # kernel eigenvalues sit at the bottom (possibly as rounding noise)
        lam_min = float(lam[kdim])
        return _certify(lam_min, lam_max)

    gram = sp.csr_matrix(gram)
    rng = np.random.default_rng(20_240_401)
    lam_max, resid_max = _power_iteration(lambda v: gram @ v, n, rng)
    hi = lam_max + resid_max

    if kernel is None:
        fact = factorize(gram)
        solve = fact.solve
    else:
        # bordered system pins iterates to the kernel complement
        k = sp.csc_matrix(kernel)
        bordered = sp.bmat(
            [[gram, k], [k.T, None]], format="csc")
        fact = factorize(bordered)

        def solve(b):
            rhs = np.concatenate([b, np.zeros(kdim)])
            return fact.solve(rhs)[:n]

    def inv_matvec(v):
        if kernel is not None:
            v = v - kernel @ (kernel.T @ v)
        return solve(v)

    mu, resid_inv = _power_iteration(inv_matvec, n, rng)
    if mu <= 0.0:
        raise np.linalg.LinAlgError("inverse iteration failed on Gram matrix")
    lam_min = 1.0 / mu
    # residual of the inverse problem maps to a relative margin on lam_min
    lo = lam_min * (1.0 - min(0.5, resid_inv * lam_min * mu))
    return _certify(lo, hi)


# ---------------------------------------------------------------------------
# inner product spaces


class InnerProductSpace:
    """A discrete function space with a (semi)definite Gram matrix.

    The Gram matrix is stored unregularized.  For semidefinite energy
    products pass definite=False and, if known, a euclidean-orthonormal
    `kernel` basis; extremal eigenvalues are then taken over the kernel
    complement.
    """

    def __init__(self, gram, definite=True, kernel=None):
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
        self.kernel = kernel
        self._extremes = None
        self._chol = None

    @classmethod
    def euclidean(cls, n):
        return cls(sp.identity(n, format="csr"))

    def apply_gram(self, v):
        return self.gram @ v

    def inner(self, u, v):
        return float(u @ (self.gram @ v))

    def norm(self, v):
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    def norms(self, block):
        """Columnwise norms of an (dim, k) block."""
        q = np.einsum("ij,ij->j", block, self.gram @ block)
        return np.sqrt(np.maximum(q, 0.0))

    def extremal_eigenvalues(self):
        if self._extremes is None:
            self._extremes = gram_extremal_eigenvalues(
                self.gram, kernel=self.kernel)
        return self._extremes

    @property
    def lambda_min(self):
        return self.extremal_eigenvalues()[0]

    @property
    def lambda_max(self):
        return self.extremal_eigenvalues()[1]

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
    vector.  Mutation is single-writer; reads may be shared.
    """

    def __init__(self, space):
        self.space = space
        self._buf = np.empty((space.dim, 8))
        self._n = 0
        # filled by the rangefinder
        self.diagnostics = []
        self.evaluations = 0
        self.exhausted = False

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

    def coefficients(self, v):
        """Expansion coefficients (B^T M v) of the projection of v."""
        if self._n == 0:
            return np.empty(0)
        return self.matrix.T @ self.space.apply_gram(v)

    def project_out(self, v, sweeps=2):
        """Return v minus its projection onto span(basis)."""
        if self._n == 0:
            return v
        b = self.matrix
        for _ in range(sweeps):
            v = v - b @ (b.T @ self.space.apply_gram(v))
        return v

    def extend_block(self, block):
        """Append many independent columns at once via two-pass Cholesky
        QR in the space inner product.

        Falls back to sequential extends when the block is rank
        deficient.  Returns the number of accepted columns.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.space.dim:
            raise ValueError("block shape does not match the space")
        if block.shape[1] == 0:
            return 0
        if self._n:
            b = self.matrix
            block = block - b @ (b.T @ self.space.apply_gram(block))
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

    def extend(self, v, theta=REORTH_THRESHOLD, drop_tol=DROP_TOL):
        """Orthonormalize v against the basis and append it.

        Returns True when accepted, False when v is numerically in the
        span already (norm fell below drop_tol times the incoming norm).
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.space.dim,):
            raise ValueError("vector dimension does not match the space")
        if not np.isfinite(v).all():
            raise ValueError("non-finite vector")
        norm0 = self.space.norm(v)
        if norm0 == 0.0:
            return False
        w = v
        if self._n:
            b = self.matrix
            w = w - b @ (b.T @ self.space.apply_gram(w))
            norm1 = self.space.norm(w)
            if norm1 < theta * norm0:
                w = w - b @ (b.T @ self.space.apply_gram(w))
                norm1 = self.space.norm(w)
        else:
            norm1 = norm0
        if norm1 <= drop_tol * norm0:
            return False
        self._append(w / norm1)
        return True


# ---------------------------------------------------------------------------
# matrix market I/O


def save_matrix_market(path, matrix, comment=""):
    """Write a dense or sparse matrix; full 18-digit precision so the
    round trip is bit exact."""
    scipy.io.mmwrite(str(path), matrix, comment=comment, precision=17)


def load_matrix_market(path):
    """Read a Matrix Market file; sparse files come back as CSR."""
    m = scipy.io.mmread(str(path))
    if sp.issparse(m):
        return m.tocsr()
    return np.asarray(m)
