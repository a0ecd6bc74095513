"""Host dense kernels with flop accounting.

These are the Level-3 BLAS/LAPACK operations the factor-update (F-U)
operation decomposes into (paper Fig. 1):

* ``potrf`` — dense Cholesky of the k x k pivot block L1,
* ``trsm_right_lower`` — triangular solve ``X = B L^-T`` applied to the
  m x k panel L2,
* ``syrk`` — symmetric rank-k update ``C -= X X^T`` forming the m x m
  update matrix U,
* ``gemm`` — general update used inside the blocked panel algorithm.

Each kernel returns its result and the numerics run in whatever dtype the
inputs carry: the host path uses float64, the simulated-GPU path calls
the same routines through :mod:`repro.gpu.cublas` in float32.  Flop
helpers follow the paper's asymptotic counts (Section IV-B):
``N_P = k^3/3``, ``N_T = m k^2``, ``N_S = m^2 k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SUBSTITUTION_BLOCK",
    "potrf",
    "trsm_right_lower",
    "syrk",
    "gemm",
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
    "KernelCounts",
    "NotPositiveDefiniteError",
]


#: width of a diagonal block: :func:`trsm_right_lower` and its stacked
#: replay (:func:`repro.multifrontal.batched.batched_trsm_right_lower`)
#: solve each block entry by entry; the solve phase's sweeps apply each
#: one as a product with its inverse (:mod:`repro.multifrontal.solve`)
SUBSTITUTION_BLOCK = 32


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a pivot block is not positive definite."""


def potrf_flops(k: int) -> float:
    """Operation count of a k x k Cholesky (paper's asymptotic N_P)."""
    return k**3 / 3.0


def trsm_flops(m: int, k: int) -> float:
    """Operation count of an m x k right triangular solve (N_T)."""
    return float(m) * k * k


def syrk_flops(m: int, k: int) -> float:
    """Operation count of an m x m rank-k update (N_S)."""
    return float(m) * m * k


def gemm_flops(m: int, n: int, k: int) -> float:
    """Operation count of an (m x k) @ (k x n) multiply-accumulate."""
    return 2.0 * m * n * k


@dataclass
class KernelCounts:
    """Mutable accumulator of kernel invocations and flops (used by tests
    and the instrumentation layer to cross-check the performance model)."""

    calls: dict[str, int] = field(default_factory=dict)
    flops: dict[str, float] = field(default_factory=dict)

    def add(self, kernel: str, flops: float) -> None:
        self.calls[kernel] = self.calls.get(kernel, 0) + 1
        self.flops[kernel] = self.flops.get(kernel, 0.0) + flops

    def total_flops(self) -> float:
        return float(sum(self.flops.values()))


def potrf(a: np.ndarray, *, counts: KernelCounts | None = None) -> np.ndarray:
    """Cholesky factor (lower) of a symmetric positive definite block.

    Returns a new array L with ``L @ L.T == a`` (lower triangular; the
    strictly-upper part of the result is zero).  Raises
    :class:`NotPositiveDefiniteError` if ``a`` is not SPD, non-finite
    entries included.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"potrf expects a square block, got {a.shape}")
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    # an optimized LAPACK tests ``pivot <= 0``, which NaN passes: without
    # this a NaN or +Inf entry factors "successfully" into a NaN factor
    if not np.isfinite(l.diagonal()).all():
        raise NotPositiveDefiniteError("Matrix has a non-finite pivot")
    if counts is not None:
        counts.add("potrf", potrf_flops(a.shape[0]))
    return l


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


def syrk(
    c: np.ndarray, x: np.ndarray, *, counts: KernelCounts | None = None
) -> np.ndarray:
    """Symmetric rank-k update ``C <- C - X X^T`` (in place, over the
    whole square of ``C``).

    The multifrontal update block U is live in its lower triangle only:
    that is all the planned assembly writes into a front and all that is
    ever consumed.  The product is still subtracted from the full square
    (one matrix product, no triangle bookkeeping); what it leaves above
    the diagonal means something only if ``C`` came in symmetric.
    """
    c = np.asarray(c)
    x = np.asarray(x)
    if c.shape != (x.shape[0], x.shape[0]):
        raise ValueError(f"shape mismatch: C {c.shape} vs X {x.shape}")
    c -= x @ x.T
    if counts is not None:
        counts.add("syrk", syrk_flops(x.shape[0], x.shape[1]))
    return c


def gemm(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = -1.0,
    counts: KernelCounts | None = None,
) -> np.ndarray:
    """General update ``C <- C + alpha * A @ B`` (in place)."""
    c = np.asarray(c)
    if c.shape != (a.shape[0], b.shape[1]) or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"shape mismatch: C {c.shape}, A {a.shape}, B {b.shape}"
        )
    c += alpha * (a @ b)
    if counts is not None:
        counts.add("gemm", gemm_flops(a.shape[0], b.shape[1], a.shape[1]))
    return c
