"""Substitution: the accuracy reference for the triangular sweeps.

:func:`repro.multifrontal.solve.solve_factored` applies every diagonal
block of the factor through a precomputed inverse.  This is what it
replaced, kept as the yardstick its backward error is held against in
``tests/test_solve_plan.py``: a blocked forward / backward substitution
(:func:`trsv_lower` / :func:`trsv_lower_t`, one dot and one division per
column inside each ``SUBSTITUTION_BLOCK``) and the plain loop over all
supernodes that sends every pivot block through them.
"""

from __future__ import annotations

import numpy as np

from repro.dense.kernels import SUBSTITUTION_BLOCK


def trsv_lower(
    l: np.ndarray, b: np.ndarray, *, block: int = SUBSTITUTION_BLOCK
) -> np.ndarray:
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


def trsv_lower_t(
    l: np.ndarray, b: np.ndarray, *, block: int = SUBSTITUTION_BLOCK
) -> np.ndarray:
    """Solve ``L^T x = b`` (blocked backward substitution)."""
    k = l.shape[0]
    x = b.astype(np.float64, copy=True)
    for j0 in reversed(range(0, k, block)):
        j1 = min(j0 + block, k)
        if j1 < k:
            x[j0:j1] -= l[j1:, j0:j1].T @ x[j1:]
        for j in range(j1 - 1, j0 - 1, -1):
            if j + 1 < j1:
                x[j] -= l[j + 1:j1, j] @ x[j + 1:j1]
            x[j] /= l[j, j]
    return x


def solve_by_substitution(factor, b: np.ndarray) -> np.ndarray:
    """``A x = b`` through the panels of ``factor``, one supernode at a
    time, every pivot block by substitution."""
    sf = factor.sf
    y = np.asarray(b, dtype=np.float64)[sf.perm].copy()
    for s in range(sf.n_supernodes):
        f, k, rows, panel = int(sf.super_ptr[s]), sf.width(s), sf.rows[s], factor.panels[s]
        y[f:f + k] = trsv_lower(panel[:k], y[f:f + k])
        if rows.size > k:
            y[rows[k:]] -= panel[k:] @ y[f:f + k]
    for s in range(sf.n_supernodes - 1, -1, -1):
        f, k, rows, panel = int(sf.super_ptr[s]), sf.width(s), sf.rows[s], factor.panels[s]
        if rows.size > k:
            y[f:f + k] -= panel[k:].T @ y[rows[k:]]
        y[f:f + k] = trsv_lower_t(panel[:k], y[f:f + k])
    x = np.empty_like(y)
    x[sf.perm] = y
    return x
