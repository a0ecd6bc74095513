"""The per-column, full-symmetric reference assembly: the oracle.

Nothing under ``src/`` builds a front this way any more —
:class:`repro.multifrontal.frontal.AssemblyPlan` and
``assemble_front_planned`` are the one way into a front, on its lower
triangle only.  These three functions are what that path is checked
against, bit for bit on the lower triangle
(``test_planned_assembly_bitwise_matches_legacy``), and are tested in
their own right in ``tests/test_multifrontal.py``.  They read the
permuted lower triangle of the matrix column by column and mirror every
entry, so they are slow and obviously right.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.symbolic.symbolic import SymbolicFactor


def assemble_front(
    a_lower: CSCMatrix,
    sf: SymbolicFactor,
    s: int,
    child_updates: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Build the frontal matrix of supernode ``s``.

    Parameters
    ----------
    a_lower : CSCMatrix
        Lower triangle of the *permuted* matrix (rows >= column).
    sf : SymbolicFactor
        The symbolic structure.
    s : int
        Supernode id.
    child_updates : list of (rows, U)
        Update matrices of the children: global row indices (sorted) and
        the dense symmetric update block.

    Returns
    -------
    The assembled (k+m) x (k+m) float64 frontal matrix.
    """
    size = sf.rows[s].size
    front = np.zeros((size, size), dtype=np.float64)
    scatter_a_entries(front, a_lower, sf, s)
    # fold in the children
    for crows, cu in child_updates:
        extend_add(front, sf.rows[s], crows, cu)
    return front


def scatter_a_entries(
    front: np.ndarray, a_lower: CSCMatrix, sf: SymbolicFactor, s: int
) -> None:
    """Scatter-add the original entries of supernode ``s``'s columns into
    its (zeroed, full symmetric) ``front``, one column at a time."""
    rows = sf.rows[s]
    f_col, l_col = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
    for j in range(f_col, l_col):
        ridx, vals = a_lower.column(j)
        keep = ridx >= j
        ridx, vals = ridx[keep], vals[keep]
        pos = np.searchsorted(rows, ridx)
        if pos.size:
            if np.any(pos >= rows.size) or np.any(rows[pos] != ridx):
                raise ValueError(
                    f"supernode {s}: matrix entries outside symbolic pattern"
                )
            jj = j - f_col
            front[pos, jj] += vals
            off = ridx != j  # mirror off-diagonal entries only
            front[jj, pos[off]] += vals[off]


def extend_add(
    front: np.ndarray,
    parent_rows: np.ndarray,
    child_rows: np.ndarray,
    child_update: np.ndarray,
) -> None:
    """Scatter-add ``child_update`` into ``front`` (both full symmetric).

    ``child_rows`` must be a subset of ``parent_rows`` — guaranteed by
    the symbolic analysis (and asserted here, because a violation would
    silently corrupt the factorization).
    """
    if child_rows.size == 0:
        return
    idx = np.searchsorted(parent_rows, child_rows)
    if np.any(idx >= parent_rows.size) or np.any(parent_rows[idx] != child_rows):
        raise ValueError("extend-add: child rows not contained in parent front")
    front[np.ix_(idx, idx)] += child_update
