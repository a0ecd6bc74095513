"""Per-column factor patterns and column counts.

``column_patterns`` performs a structural (symbolic) Cholesky: the
below-diagonal pattern of column ``j`` of L is the union of A's
below-diagonal pattern in column ``j`` with the patterns of ``j``'s etree
children, minus ``j`` itself:

    rowpat(j) = rows(A[:, j], > j)  U  ( U_{c : parent(c)=j} rowpat(c) \\ {j} )

Since etree parents always carry larger indices than their children, a
single ascending sweep suffices, and each column's pattern is merged into
its parent exactly once, so the total work is O(nnz(L)) with the unions
done by vectorized ``np.unique`` calls.

This is the definition, one column at a time.  ``symbolic_factorize``
computes one pattern per fundamental supernode instead and does not call
this module; the test suite holds its result against these functions.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.symbolic.etree import NO_PARENT

__all__ = ["column_patterns", "column_counts"]


def column_patterns(a: CSCMatrix, parent: np.ndarray) -> list[np.ndarray]:
    """Below-diagonal row patterns of every column of the Cholesky factor.

    Parameters
    ----------
    a : CSCMatrix
        Full symmetric (or lower-stored) matrix, already permuted into its
        elimination order.
    parent : int64 array
        Elimination-tree parents for that order.

    Returns
    -------
    list of int64 arrays, ``patterns[j]`` sorted strictly-below-diagonal
    row indices of L[:, j].
    """
    n = a.n_cols
    # collect A's strictly-below-diagonal pattern per column (works for
    # both full-symmetric and lower-triangle storage: filtering rows > j
    # discards the upper part if present)
    patterns: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    pending: list[list[np.ndarray]] = [[] for _ in range(n)]
    for j in range(n):
        rows, _ = a.column(j)
        below = rows[rows > j]
        pieces = pending[j]
        pieces.append(below)
        if len(pieces) == 1:
            pat = np.array(below, dtype=np.int64)
        else:
            pat = np.unique(np.concatenate(pieces))
        patterns[j] = pat
        pending[j] = []  # release
        p = parent[j]
        if p != NO_PARENT:
            pending[p].append(pat[pat != p])
        elif pat.size:
            raise ValueError(
                f"column {j} has below-diagonal entries but no etree parent"
            )
    return patterns


def column_counts(a: CSCMatrix, parent: np.ndarray) -> np.ndarray:
    """Column counts of L, diagonal included: ``cnt[j] = |rowpat(j)| + 1``."""
    patterns = column_patterns(a, parent)
    return np.array([p.size + 1 for p in patterns], dtype=np.int64)
