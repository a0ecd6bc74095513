"""The accuracy references for the panel solve and the rank-k update.

:func:`repro.dense.kernels.trsm_right_lower` applies each
``SUBSTITUTION_BLOCK``-column diagonal block of ``L`` through its scaled
inverse.  What it replaced is kept here as the yardstick its residual
and the factors it makes are held against in ``tests/test_panel_solve.py``:
a blocked forward substitution over the columns of ``X``, one ``gemv``
and one division per column inside each diagonal block.

:func:`syrk` is the rank-k update as one product over the whole square
of ``C``, kept as the yardstick for the factors
:func:`repro.dense.kernels.syrk` makes.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.dense.kernels import (
    SUBSTITUTION_BLOCK,
    KernelCounts,
    block_inverse,
    syrk_flops,
    trsm_flops,
)


def trsm_right_lower(
    b: np.ndarray,
    l: np.ndarray,
    *,
    counts: KernelCounts | None = None,
    inverses: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``X L^T = B`` for X, with L lower triangular (the panel solve
    ``L2 <- L2 L1^-T`` of the F-U operation), or every slice of a stack.

    Implemented as a blocked forward substitution over columns of X so the
    work stays in matrix-matrix operations (no explicit inverse, matching
    the numerical behaviour of a BLAS trsm).  The solve uses no inverse;
    ``inverses`` is filled as the kernel's contract says, for the solve
    phase (:func:`repro.dense.kernels.trsm_right_lower`), and so is
    ``out``.
    """
    if out is not None:
        out[...] = trsm_right_lower(b, l, counts=counts, inverses=inverses)
        return out
    b = np.asarray(b)
    l = np.asarray(l)
    if b.ndim > 2:  # a stack: slice by slice
        x = np.empty_like(b)
        for i in np.ndindex(b.shape[:-2]):
            x[i] = trsm_right_lower(
                b[i], l[i], counts=counts,
                inverses=None if inverses is None else (inverses[0][i], inverses[1][i]),
            )
        return x
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
    if inverses is not None:
        for j0, w in zip(range(0, k, nb), chain(*inverses)):
            block_inverse(l[j0:j0 + nb, j0:j0 + nb], out=w)
    if counts is not None:
        counts.add("trsm", trsm_flops(b.shape[0], k))
    return x


def syrk(
    c: np.ndarray,
    x: np.ndarray,
    *,
    counts: KernelCounts | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric rank-k update ``C <- C - X X^T`` (in place, over the
    whole square of ``C``, or of every slice of a stack).

    The multifrontal update block U is live in its lower triangle only:
    that is all the planned assembly writes into a front and all that is
    ever consumed.  The product is still subtracted from the full square
    (one matrix product, no triangle bookkeeping); what it leaves above
    the diagonal means something only if ``C`` came in symmetric.  With
    ``out``, C is left as it is and the result goes there.
    """
    if out is not None:
        out[...] = c
        return syrk(out, x, counts=counts)
    c = np.asarray(c)
    x = np.asarray(x)
    if c.shape[-2:] != (x.shape[-2], x.shape[-2]):
        raise ValueError(f"shape mismatch: C {c.shape} vs X {x.shape}")
    c -= x @ x.mT
    if counts is not None:
        counts.add("syrk", syrk_flops(x.shape[-2], x.shape[-1]), int(np.prod(x.shape[:-2])))
    return c
