"""Compressed sparse column (CSC) matrices, built from scratch on NumPy.

The multifrontal pipeline only needs a small, predictable set of sparse
operations (construction from triplets, symmetric permutation, triangle
extraction, matrix-vector products), so we implement them directly rather
than depending on :mod:`scipy.sparse` in the core library.  All hot loops
are vectorized with NumPy per the HPC-Python guidance: sorting-based
duplicate summation, ``np.add.reduceat`` style segment operations, and
views rather than copies wherever the layout permits.

Indices are stored as ``int64`` and values as ``float64`` unless a caller
explicitly requests another dtype (the simulated GPU path uses ``float32``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix", "CSCMatrix", "csc_from_dense"]


def _as_index_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.int64)
    if a.ndim != 1:
        raise ValueError(f"index array must be 1-D, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class COOMatrix:
    """Coordinate-format triplets; the assembly format for generators.

    Duplicate entries are permitted and are summed when converting to CSC,
    which lets finite-difference/finite-element style generators assemble
    by concatenating per-stencil contributions.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = _as_index_array(self.rows)
        cols = _as_index_array(self.cols)
        vals = np.asarray(self.vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def to_csc(self) -> "CSCMatrix":
        return CSCMatrix.from_coo(
            self.rows, self.cols, self.vals, shape=(self.n_rows, self.n_cols)
        )


class CSCMatrix:
    """A compressed sparse column matrix with sorted, duplicate-free columns.

    Attributes
    ----------
    n_rows, n_cols : int
        Matrix dimensions.
    indptr : int64 array of length ``n_cols + 1``
        Column start offsets into ``indices``/``data``.
    indices : int64 array
        Row indices, sorted within each column.
    data : float array
        Numerical values aligned with ``indices``.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_symmetric")

    def __init__(self, shape, indptr, indices, data, *, check: bool = True):
        self.n_rows, self.n_cols = int(shape[0]), int(shape[1])
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        #: ``(indptr, indices, verdict)`` of the last symmetry test, or
        #: ``None``: :meth:`full_symmetric` trusts the verdict while the
        #: matrix holds those very index arrays
        self._symmetric: "tuple | None" = None
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSCMatrix":
        """Build from triplets, summing duplicates.

        Sorts by (col, row) with a stable lexsort, then collapses runs of
        equal coordinates with a reduceat — O(nnz log nnz), no Python loop.
        """
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = np.asarray(vals, dtype=np.float64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size == 0:
            indptr = np.zeros(n_cols + 1, dtype=np.int64)
            return cls((n_rows, n_cols), indptr, rows, vals, check=False)
        order = np.lexsort((rows, cols))
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]
        # Collapse duplicates: `first` marks the first entry of each
        # distinct (col, row) coordinate in the sorted stream.
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        first[1:] |= cols[1:] != cols[:-1]
        starts = np.flatnonzero(first)
        summed = np.add.reduceat(vals, starts)
        rows = rows[starts]
        cols = cols[starts]
        counts = np.bincount(cols, minlength=n_cols)
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls((n_rows, n_cols), indptr, rows, summed, check=False)

    @classmethod
    def identity(cls, n: int, *, scale: float = 1.0) -> "CSCMatrix":
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.full(n, scale, dtype=np.float64)
        return cls((n, n), indptr, indices, data, check=False)

    def _validate(self) -> None:
        if self.indptr.shape != (self.n_cols + 1,):
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise ValueError("row index out of range")
        # sortedness within each column (vectorized: any decrease must be
        # at a column boundary)
        if self.indices.size > 1:
            decreasing = np.flatnonzero(np.diff(self.indices) <= 0) + 1
            boundaries = self.indptr[1:-1]
            if not np.all(np.isin(decreasing, boundaries)):
                raise ValueError("row indices must be strictly increasing per column")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def astype(self, dtype) -> "CSCMatrix":
        return CSCMatrix(
            self.shape, self.indptr, self.indices, self.data.astype(dtype), check=False
        )

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Views (no copies) of the row indices and values of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.n_rows, self.n_cols), dtype=self.data.dtype)
        for j in range(d.size):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            pos = np.searchsorted(self.indices[lo:hi], j)
            if pos < hi - lo and self.indices[lo + pos] == j:
                d[j] = self.data[lo + pos]
        return d

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` column-wise (vectorized scatter-add)."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        # Expand x to per-entry weights: entry (i, j) contributes
        # data * x[j] into y[i].  Column ids per entry come from indptr.
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        contrib = self.data * x[col_of_entry]
        y = np.zeros(self.n_rows, dtype=np.result_type(self.data, x))
        np.add.at(y, self.indices, contrib)
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A.T @ x`` via per-column segment sums."""
        x = np.asarray(x)
        if x.shape[0] != self.n_rows:
            raise ValueError(f"dimension mismatch: {self.shape}.T @ {x.shape}")
        prods = self.data * x[self.indices]
        out = np.zeros(self.n_cols, dtype=np.result_type(self.data, x))
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if nonempty.size:
            sums = np.add.reduceat(prods, self.indptr[nonempty])
            out[nonempty] = sums
        return out

    def symmetric_matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` where ``self`` stores only the lower triangle of a
        symmetric matrix (diagonal included)."""
        y = self.matvec(x) + self.rmatvec(x)
        d = self.diagonal()
        y[: d.size] -= d * x[: d.size]
        return y

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "CSCMatrix":
        """Explicit transpose (equivalently: CSC -> CSR reinterpretation)."""
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        return CSCMatrix.from_coo(
            col_of_entry, self.indices, self.data, (self.n_cols, self.n_rows)
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        out[self.indices, col_of_entry] = self.data
        return out

    def lower_triangle(self, *, strict: bool = False) -> "CSCMatrix":
        """Extract the lower triangle (``i > j`` if strict, else ``i >= j``)."""
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        keep = self.indices > col_of_entry if strict else self.indices >= col_of_entry
        return CSCMatrix.from_coo(
            self.indices[keep], col_of_entry[keep], self.data[keep], self.shape
        )

    def symmetrize_from_lower(self) -> "CSCMatrix":
        """The full symmetric matrix of a store that holds each
        off-diagonal pair on the lower side, the upper side or both.

        An entry is mirrored only when its mirror is not stored; of a
        pair stored on both sides each side keeps its own value.
        """
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        # (col, row) flattened; duplicate-free, as the columns are
        stored = col_of_entry * self.n_rows + self.indices
        mirror = self.indices * self.n_rows + col_of_entry
        lone = ~np.isin(mirror, stored, assume_unique=True)
        rows = np.concatenate([self.indices, col_of_entry[lone]])
        cols = np.concatenate([col_of_entry, self.indices[lone]])
        vals = np.concatenate([self.data, self.data[lone]])
        full = CSCMatrix.from_coo(rows, cols, vals, self.shape)
        full._symmetric = (full.indptr, full.indices, True)
        return full

    def full_symmetric(self) -> "CSCMatrix":
        """The store of both triangles: ``self`` where its pattern is
        symmetric, else :meth:`symmetrize_from_lower`.  A verdict this
        matrix already holds (from :meth:`is_structurally_symmetric`, or
        as the result of :meth:`symmetrize_from_lower`) is not tested
        again, so a pipeline that hands one matrix down tests it once."""
        symmetric = self.symmetry_verdict()
        if symmetric is None:
            symmetric = self.is_structurally_symmetric()
        return self if symmetric else self.symmetrize_from_lower()

    def symmetry_verdict(self) -> "bool | None":
        """The verdict on the pattern's symmetry this matrix already holds
        for its own index arrays, or ``None``: never tests."""
        memo = self._symmetric
        if memo is not None and memo[0] is self.indptr and memo[1] is self.indices:
            return memo[2]
        return None

    def permute_symmetric(self, perm: np.ndarray) -> "CSCMatrix":
        """Return ``P A P^T`` where ``perm[new] = old`` (i.e. row/col ``old``
        of A becomes row/col ``new`` of the result).

        Accepts the "new-to-old" convention used by the ordering package.
        """
        perm = _as_index_array(perm)
        if perm.size != self.n_rows or self.n_rows != self.n_cols:
            raise ValueError("symmetric permutation requires square matrix and full perm")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size, dtype=np.int64)
        col_of_entry = np.repeat(
            np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr)
        )
        return CSCMatrix.from_coo(
            inv[self.indices], inv[col_of_entry], self.data, self.shape
        )

    def is_structurally_symmetric(self) -> bool:
        """True when ``(i, j)`` is stored exactly when ``(j, i)`` is.

        The stored keys ``col * n + row`` of a valid square store are
        strictly ascending, so the pattern is symmetric iff they equal
        the sorted mirrored keys ``row * n + col`` — one sort, no
        transpose.  A store whose keys are not strictly ascending
        (unsorted or repeated rows, ``check=False``) is not symmetric:
        its transpose would come out sorted and summed.  The verdict is
        kept on the matrix for :meth:`full_symmetric`.
        """
        n = self.n_rows
        symmetric = n == self.n_cols
        if symmetric:
            col = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
            stored = col * n + self.indices
            symmetric = not np.any(stored[1:] <= stored[:-1]) and bool(
                np.array_equal(stored, np.sort(self.indices * n + col))
            )
        self._symmetric = (self.indptr, self.indices, symmetric)
        return symmetric

    def allclose(self, other: "CSCMatrix", *, rtol=1e-10, atol=1e-12) -> bool:
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    # ------------------------------------------------------------------
    # adjacency helpers for ordering / symbolic analysis
    # ------------------------------------------------------------------
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected adjacency (indptr, indices) of the symmetric pattern,
        diagonal removed.  ``self`` may store either the full matrix or
        just its lower triangle."""
        full = self.full_symmetric()
        col_of_entry = np.repeat(
            np.arange(full.n_cols, dtype=np.int64), np.diff(full.indptr)
        )
        keep = full.indices != col_of_entry
        rows = full.indices[keep]
        cols = col_of_entry[keep]
        counts = np.bincount(cols, minlength=full.n_cols)
        indptr = np.zeros(full.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.data.dtype})"
        )


def csc_from_dense(a: np.ndarray, *, tol: float = 0.0) -> CSCMatrix:
    """Convert a dense array to CSC, dropping entries with ``|a| <= tol``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    mask = np.abs(a) > tol
    rows, cols = np.nonzero(mask)
    return CSCMatrix.from_coo(rows, cols, a[rows, cols], a.shape)
