"""Supernodal triangular solves.

Given the factored panels (``[L1; L2]`` per supernode), solve
``L y = b`` by a forward sweep in supernode order and ``L^T x = y`` by
the reverse sweep.  Within a supernode the k x k unit work is a blocked
substitution (:func:`trsv_lower`); the cross-supernode coupling is a
dense panel gemv gathered/scattered through the front's row list.

Both sweeps run off a per-factor *sweep table* (:func:`sweep_table`):
column range, ``L1``/``L2`` views and below-diagonal row index of every
supernode, built by the first solve on a factor and kept on it, so a
solve does no slicing or width arithmetic per supernode.
"""

from __future__ import annotations

import numpy as np

from repro.multifrontal.numeric import NumericFactor
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "trsv_lower",
    "trsv_lower_t",
    "sweep_rows",
    "sweep_table",
    "forward_sweep",
    "backward_sweep",
    "solve_factored",
]


def trsv_lower(l: np.ndarray, b: np.ndarray, *, block: int = 32) -> np.ndarray:
    """Solve ``L y = b`` with L dense lower triangular (blocked forward
    substitution; O(k^2) with matrix-vector inner steps)."""
    k = l.shape[0]
    y = b.astype(np.float64, copy=True)
    for j0 in range(0, k, block):
        j1 = min(j0 + block, k)
        if j0:
            y[j0:j1] -= l[j0:j1, :j0] @ y[:j0]
        for j in range(j0, j1):
            if j > j0:
                y[j] -= l[j, j0:j] @ y[j0:j]
            y[j] /= l[j, j]
    return y


def trsv_lower_t(l: np.ndarray, b: np.ndarray, *, block: int = 32) -> np.ndarray:
    """Solve ``L^T x = b`` (blocked backward substitution)."""
    k = l.shape[0]
    x = b.astype(np.float64, copy=True)
    blocks = list(range(0, k, block))
    for j0 in reversed(blocks):
        j1 = min(j0 + block, k)
        if j1 < k:
            x[j0:j1] -= l[j1:, j0:j1].T @ x[j1:]
        for j in range(j1 - 1, j0 - 1, -1):
            if j + 1 < j1:
                x[j] -= l[j + 1:j1, j] @ x[j + 1:j1]
            x[j] /= l[j, j]
    return x


def sweep_rows(sf: SymbolicFactor, panels: list[np.ndarray]) -> list[tuple]:
    """``(first, end, L1, L2, below)`` for each of the leading
    ``len(panels)`` supernodes, ascending: its column range, the pivot
    block and the block below it as views into its panel, and the global
    rows of the latter (``L2`` and ``below`` are ``None`` for a supernode
    with nothing below)."""
    ptr = sf.super_ptr.tolist()
    table = []
    for s, panel in enumerate(panels):
        first, end = ptr[s], ptr[s + 1]
        k = end - first
        rows = sf.rows[s]
        if rows.size > k:
            table.append((first, end, panel[:k, :], panel[k:, :], rows[k:]))
        else:
            table.append((first, end, panel[:k, :], None, None))
    return table


def sweep_table(factor: NumericFactor) -> list[tuple]:
    """The :func:`sweep_rows` of every supernode of ``factor``.

    Built on first use and kept on the factor for its lifetime.  It holds
    views and integers only: no array data (cache sizes count panel
    bytes), about half a kilobyte of view objects per supernode, and it
    follows in-place edits of the panels.
    """
    if factor.sweep is None:
        factor.sweep = sweep_rows(factor.sf, factor.panels)
    return factor.sweep


def forward_sweep(table: list[tuple], y: np.ndarray) -> None:
    """``L y' = y`` in place over the supernodes of ``table``; the rows
    below them are left holding ``y_2 - L_21 y'_1``.  A one-column
    supernode is one division by its pivot, exactly what the
    substitution would do to it."""
    for first, end, l1, l2, below in table:
        if end - first == 1:
            y[first] /= l1[0, 0]
        else:
            y[first:end] = trsv_lower(l1, y[first:end])
        if l2 is not None:
            y[below] -= l2 @ y[first:end]


def backward_sweep(table: list[tuple], y: np.ndarray) -> None:
    """``L^T x = y'`` in place over the supernodes of ``table``, reading
    the rows below them as already solved."""
    for first, end, l1, l2, below in reversed(table):
        if l2 is not None:
            y[first:end] -= l2.T @ y[below]
        if end - first == 1:
            y[first] /= l1[0, 0]
        else:
            y[first:end] = trsv_lower_t(l1, y[first:end])


def solve_factored(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` using the computed factorization of ``P A P^T``.

    Applies the permutation, runs the supernodal forward and backward
    sweeps, and permutes back.  ``b`` may be a single right-hand side of
    shape ``(n,)`` or a block of shape ``(n, nrhs)`` — the paper's
    motivation for direct methods is precisely "the potential for
    reusing the factorization when solving multiple systems with the
    same coefficient matrix", and the blocked substitutions handle the
    multi-RHS case with matrix-matrix work.  A one-column block is the
    single right-hand side it holds: same sweeps, same answer.
    """
    sf = factor.sf
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != sf.n or b.ndim not in (1, 2):
        raise ValueError(
            f"rhs must have shape ({sf.n},) or ({sf.n}, nrhs), got {b.shape}"
        )
    if b.ndim == 2 and b.shape[1] == 1:
        return solve_factored(factor, b[:, 0])[:, None]
    table = sweep_table(factor)
    y = b[sf.perm].copy()          # y = P b
    forward_sweep(table, y)        # L y' = y
    backward_sweep(table, y)       # L^T x = y'

    x = np.empty_like(y)
    x[sf.perm] = y                  # x = P^T y
    return x
