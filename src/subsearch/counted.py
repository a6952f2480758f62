"""Matrix primitives with a metered product counter.

Every multiplication with the registered bottleneck matrix costs exactly one
unit, regardless of how many columns the other operand has.  Everything else
(subspace evaluations, O(d*p) quasi-Newton work) is free.  All arithmetic is
float64.

A dense image product X x over a C-ordered X of two or more row blocks runs
one BLAS call per block, last block first.  A step's gradient pass Xᵀr
streams X forward, so the image pass that follows starts on the rows that
pass left in cache and ends on the first rows, where the next gradient pass
starts.  Each output entry is still one BLAS dot product over a row, so
under one BLAS thread the result is bitwise the single call's.
"""

from __future__ import annotations

import sys

import numpy as np

# bytes of X per block of a dense image product.  A block's row count is a
# multiple of 16, so every block starts on a row group of the BLAS gemv
# kernel, as in the single call (7-row blocks change the bits)
_BLOCK_BYTES = 512 * 1024


class DimensionError(ValueError):
    """Operand shapes do not line up for a product."""


class ProductCounter:
    """Monotone counter of bottleneck products: a plain int, so a state that
    holds one can be deep-copied or pickled, and a copy counts on its own."""

    def __init__(self):
        self._count = 0

    def bump(self):
        self._count += 1

    def read(self) -> int:
        return self._count


def _issparse(a) -> bool:
    """scipy.sparse.issparse without importing scipy.sparse.

    No object can be a sparse matrix before that module is loaded, so
    dense-only programs never pay for its import.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def _row_blocks(payload) -> tuple:
    """The row slices of X x's blocked traversal, last block first, or ()
    where X x is one call: a sparse or non-C-ordered payload, or one under
    two blocks.  The short tail is folded into the last block."""
    if _issparse(payload) or not payload.flags.c_contiguous:
        return ()
    n, d = payload.shape
    rows = max(16, _BLOCK_BYTES // (8 * max(d, 1)) // 16 * 16)
    starts = range(0, n - rows + 1, rows)
    if len(starts) < 2:
        return ()
    stops = [*starts[1:], n]
    return tuple(slice(a, b) for a, b in zip(starts[::-1], stops[::-1]))


def _as_payload(a):
    if _issparse(a):
        import scipy.sparse as sp
        m = sp.csr_matrix(a, dtype=np.float64)
        if not np.all(np.isfinite(m.data)):
            raise ValueError("matrix entries must be finite")
        return m
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError("payload must be 2-dimensional")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


class CountedMatrix:
    """Dense or sparse matrix whose products are metered.

    The payload is immutable after construction; only the counters change.
    A separate audit counter is kept so that correctness audits (recomputing
    tracked quantities from scratch) and trace instrumentation (gradient
    norms) do not pollute the per-iteration budget.
    """

    def __init__(self, payload):
        self.payload = _as_payload(payload)
        # a view: a CSR payload's transpose is a CSC over the same arrays
        self._transpose = self.payload.T
        self._image_blocks = _row_blocks(self.payload)
        self.counter = ProductCounter()
        self.audit_counter = ProductCounter()

    @property
    def shape(self):
        return self.payload.shape

    @property
    def is_sparse(self) -> bool:
        return _issparse(self.payload)

    def _bump(self, audit: bool):
        (self.audit_counter if audit else self.counter).bump()

    def matvec(self, x, audit: bool = False) -> np.ndarray:
        """A @ x for a vector x; one counted product (over row blocks,
        last first, for a dense C-ordered A of two or more blocks)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or self.shape[1] != x.shape[0]:
            raise DimensionError(
                f"matvec: {self.shape} @ {x.shape}")
        self._bump(audit)
        if not self._image_blocks:
            return np.asarray(self.payload @ x, dtype=np.float64)
        out = np.empty(self.shape[0])
        for rows in self._image_blocks:
            np.matmul(self.payload[rows], x, out=out[rows])
        return out

    def rmatvec(self, y, audit: bool = False) -> np.ndarray:
        """A.T @ y for a vector y; one counted product."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or self.shape[0] != y.shape[0]:
            raise DimensionError(
                f"rmatvec: {self.shape}.T @ {y.shape}")
        self._bump(audit)
        return np.asarray(self._transpose @ y, dtype=np.float64)

    def matmat(self, b, audit: bool = False) -> np.ndarray:
        """A @ B; counts 1 no matter how many columns B has."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or self.shape[1] != b.shape[0]:
            raise DimensionError(
                f"matmat: {self.shape} @ {b.shape}")
        self._bump(audit)
        return np.asarray(self.payload @ b, dtype=np.float64)

    def rmatmat(self, b, audit: bool = False) -> np.ndarray:
        """A.T @ B; counts 1."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or self.shape[0] != b.shape[0]:
            raise DimensionError(
                f"rmatmat: {self.shape}.T @ {b.shape}")
        self._bump(audit)
        return np.asarray(self._transpose @ b, dtype=np.float64)

    def dense(self) -> np.ndarray:
        """Uncounted densified copy (for oracles and audits only)."""
        if self.is_sparse:
            return self.payload.toarray()
        return self.payload.copy()

    def counter_read(self) -> int:
        return self.counter.read()
