"""Discrete transfer operators: map boundary data on an oversampling
domain to the PDE-harmonic response on an interior range region, through
one reusable sparse factorization."""

import numpy as np

# refuse dense assembly above this source dimension
DENSE_GUARD = 10_000


def check_dense_guard(n_source):
    """Raise ValueError if n_source columns exceed DENSE_GUARD."""
    if n_source > DENSE_GUARD:
        raise ValueError(f"dense assembly of {n_source} columns exceeds the "
                         f"guard of {DENSE_GUARD}")


class DenseOperator:
    """Explicit matrix between two inner product spaces.

    The matrix is a read-only copy of the one given, so the Gram image
    G T, which every projection error reads, is formed once and cached.
    """

    def __init__(self, matrix, source, range_space):
        matrix = np.array(matrix, dtype=float)
        if matrix.shape != (range_space.dim, source.dim):
            raise ValueError("matrix shape does not match the spaces")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.source = source
        self.range_space = range_space
        self._gram_image = None

    @property
    def gram_image(self):
        """G T, the range Gram applied to the matrix; read-only."""
        if self._gram_image is None:
            self._gram_image = self.range_space.apply_gram(self.matrix)
            self._gram_image.setflags(write=False)
        return self._gram_image

    def apply_block(self, block):
        return self.matrix @ block

    apply = apply_block


class TransferOperator:
    """Boundary-data-to-interior-response map of an elliptic problem.

    Applying the operator scatters the source coefficients into the
    Dirichlet rows of the factorized system, solves, and restricts to the
    range indices.
    """

    def __init__(self, factorization, source_ids, range_ids, source,
                 range_space):
        self.factorization = factorization
        self.n_total = factorization.shape[0]
        source_ids = np.asarray(source_ids, dtype=np.int64)
        range_ids = np.asarray(range_ids, dtype=np.int64)
        if np.unique(source_ids).size != source_ids.size:
            raise ValueError("source index map is not injective")
        if np.unique(range_ids).size != range_ids.size:
            raise ValueError("range index map is not injective")
        if source.dim != source_ids.size or range_space.dim != range_ids.size:
            raise ValueError("space dimensions do not match the index maps")
        self.source_ids = source_ids
        self.range_ids = range_ids
        self.source = source
        self.range_space = range_space

    def apply_block(self, block):
        """Apply to one source coefficient vector, or to columns of them
        in one multi-RHS solve."""
        block = np.asarray(block, dtype=float)
        if block.shape[:1] != (self.source.dim,):
            raise ValueError("source coefficients have the wrong length")
        rhs = np.zeros((self.n_total, *block.shape[1:]))
        rhs[self.source_ids] = block
        return self.factorization.solve(rhs)[self.range_ids]

    apply = apply_block

    def assemble_dense(self):
        """Dense form from one block solve on the identity: forward over
        the source columns, or transposed over the range rows when there
        are fewer of them.  Refuses above DENSE_GUARD source dimensions.
        The range Gram of the result is dense (range_space.as_dense())."""
        check_dense_guard(self.source.dim)
        n_range = self.range_ids.size
        if n_range >= self.source.dim:
            matrix = self.apply_block(np.eye(self.source.dim))
        else:
            # row i of the operator is row range_ids[i] of the inverse,
            # read at the source columns: one solve with the transpose
            rhs = np.zeros((self.n_total, n_range))
            rhs[self.range_ids, np.arange(n_range)] = 1.0
            rows = self.factorization.solve(rhs, trans="T")
            matrix = np.ascontiguousarray(rows[self.source_ids].T)
        return DenseOperator(matrix, self.source,
                             self.range_space.as_dense())


class ResidualOperator:
    """T minus its projection onto the span of an orthonormal basis."""

    def __init__(self, op, basis):
        self.op = op
        self.basis = basis
        self.source = op.source
        self.range_space = op.range_space

    def apply_block(self, block):
        out = self.op.apply_block(block)
        b = self.basis.matrix
        if b.shape[1]:
            out = out - b @ (b.T @ (self.range_space.apply_gram(out)))
        return out

    apply = apply_block
