"""Discrete transfer operators: map boundary data on an oversampling
domain to the PDE-harmonic response on an interior range region, through
one reusable sparse factorization."""

import numpy as np

# refuse dense assembly above this source dimension
DENSE_GUARD = 10_000


class DenseOperator:
    """Explicit matrix between two inner product spaces."""

    def __init__(self, matrix, source, range_space):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (range_space.dim, source.dim):
            raise ValueError("matrix shape does not match the spaces")
        self.matrix = matrix
        self.source = source
        self.range_space = range_space

    def apply(self, zeta):
        return self.matrix @ zeta

    def apply_block(self, block):
        return self.matrix @ block


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

    @property
    def n_source(self):
        return self.source.dim

    def apply(self, zeta):
        """Apply to one source coefficient vector."""
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (self.n_source,):
            raise ValueError("source coefficient vector has wrong length")
        return self.apply_block(zeta[:, None])[:, 0]

    def apply_block(self, block):
        """Apply to source coefficient columns in one multi-RHS solve."""
        block = np.asarray(block, dtype=float)
        rhs = np.zeros((self.n_total, block.shape[1]))
        rhs[self.source_ids] = block
        return self.factorization.solve(rhs)[self.range_ids]

    def assemble_dense(self):
        """Dense form from one block solve on the identity.  Refuses
        above DENSE_GUARD source dimensions."""
        if self.n_source > DENSE_GUARD:
            raise ValueError(
                f"dense assembly of {self.n_source} columns exceeds the "
                f"guard of {DENSE_GUARD}")
        return DenseOperator(self.apply_block(np.eye(self.n_source)),
                             self.source, self.range_space)


class ResidualOperator:
    """T minus its projection onto the span of an orthonormal basis."""

    def __init__(self, op, basis):
        self.op = op
        self.basis = basis
        self.source = op.source
        self.range_space = op.range_space

    def apply(self, zeta):
        return self.apply_block(np.asarray(zeta, dtype=float)[:, None])[:, 0]

    def apply_block(self, block):
        out = self.op.apply_block(block)
        b = self.basis.matrix
        if b.shape[1]:
            out = out - b @ (b.T @ (self.range_space.apply_gram(out)))
        return out
