"""Substitution: the accuracy reference for the panel solve.

:func:`repro.dense.kernels.trsm_right_lower` applies each
``SUBSTITUTION_BLOCK``-column diagonal block of ``L`` through its scaled
inverse.  This is what it replaced, kept as the yardstick its residual
and the factors it makes are held against in ``tests/test_panel_solve.py``:
a blocked forward substitution over the columns of ``X``, one ``gemv``
and one division per column inside each diagonal block.
"""

from __future__ import annotations

import numpy as np

from repro.dense.kernels import SUBSTITUTION_BLOCK, KernelCounts, trsm_flops


def trsm_right_lower(
    b: np.ndarray, l: np.ndarray, *, counts: KernelCounts | None = None
) -> np.ndarray:
    """Solve ``X L^T = B`` for X, with L lower triangular (the panel solve
    ``L2 <- L2 L1^-T`` of the F-U operation).

    Implemented as a blocked forward substitution over columns of X so the
    work stays in matrix-matrix operations (no explicit inverse, matching
    the numerical behaviour of a BLAS trsm).
    """
    b = np.asarray(b)
    l = np.asarray(l)
    k = l.shape[0]
    if l.shape != (k, k):
        raise ValueError("L must be square")
    if b.shape[1] != k:
        raise ValueError(f"shape mismatch: B {b.shape} vs L {l.shape}")
    x = b.astype(b.dtype, copy=True)
    # X L^T = B  =>  column block j of X depends on previous blocks:
    # X[:, j] = (B[:, j] - X[:, :j] @ L[j, :j].T) / L[j, j]
    nb = SUBSTITUTION_BLOCK
    for j0 in range(0, k, nb):
        j1 = min(j0 + nb, k)
        if j0:
            x[:, j0:j1] -= x[:, :j0] @ l[j0:j1, :j0].T
        # solve the small diagonal block by substitution
        ljj = l[j0:j1, j0:j1]
        for jj in range(j1 - j0):
            if jj:
                x[:, j0 + jj] -= x[:, j0:j0 + jj] @ ljj[jj, :jj]
            x[:, j0 + jj] /= ljj[jj, jj]
    if counts is not None:
        counts.add("trsm", trsm_flops(b.shape[0], k))
    return x


def batched_trsm_right_lower(x: np.ndarray, l: np.ndarray) -> np.ndarray:
    """:func:`trsm_right_lower` slice by slice over a ``(B, m, k)`` stack
    (the stand-in for the stacked replay when a factor is computed with
    substitution)."""
    return np.stack([trsm_right_lower(xi, li) for xi, li in zip(x, l)])
