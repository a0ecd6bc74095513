"""Host dense kernels with flop accounting.

These are the Level-3 BLAS/LAPACK operations the factor-update (F-U)
operation decomposes into (paper Fig. 1):

* ``potrf`` — dense Cholesky of the k x k pivot block L1,
* ``trsm_right_lower`` — triangular solve ``X = B L^-T`` applied to the
  m x k panel L2, each 32-column diagonal block of L applied through its
  inverse (:func:`block_inverse`), as GPU BLAS libraries run a trsm,
* ``syrk`` — symmetric rank-k update ``C -= X X^T`` forming the m x m
  update matrix U, on its lower triangle only from
  ``_SYRK_CUT`` rows up (see :func:`syrk`),
* ``gemm`` — general update used inside the blocked panel algorithm.

Each kernel returns its result and the numerics run in whatever dtype the
inputs carry: the host path uses float64, the simulated-GPU path calls
the same routines through :mod:`repro.gpu.cublas` in float32.  Each also
takes a stack of blocks, ``(..., n, n)``, and computes every slice as it
computes one block: numpy's stacked ``cholesky``, ``inv`` and ``matmul``
run the same LAPACK/BLAS call per slice, so a stacked call is bit for bit
its slices' calls (a stack of small fronts pays one dispatch, not one per
front).  Flop helpers follow the paper's asymptotic counts (Section
IV-B): ``N_P = k^3/3``, ``N_T = m k^2``, ``N_S = m^2 k`` — a trsm counts
``N_T`` whatever way it is computed; the block inverses are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SUBSTITUTION_BLOCK",
    "block_inverse",
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


#: width of a diagonal block: :func:`trsm_right_lower` (on one front or
#: a stack) and the solve phase's sweeps (:mod:`repro.multifrontal.solve`)
#: apply each one as a product with its :func:`block_inverse`
SUBSTITUTION_BLOCK = 32


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a pivot block is not positive definite.  ``failed``
    holds the flat indices of the slices of a stack that are not (``(0,)``
    for one block); the message is the first failing slice's own."""

    def __init__(self, message: str, failed: tuple[int, ...] = (0,)):
        super().__init__(message)
        self.failed = failed


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

    def add(self, kernel: str, flops: float, slices: int = 1) -> None:
        """Count a call of ``flops``; a stacked call counts as one call
        per slice, each with the slice's flops, added one by one."""
        for _ in range(slices):
            self.calls[kernel] = self.calls.get(kernel, 0) + 1
            self.flops[kernel] = self.flops.get(kernel, 0.0) + flops

    def total_flops(self) -> float:
        return float(sum(self.flops.values()))


def _slices(a: np.ndarray) -> int:
    """How many blocks a ``(..., rows, cols)`` stack holds."""
    return int(np.prod(a.shape[:-2]))


def potrf(a: np.ndarray, *, counts: KernelCounts | None = None) -> np.ndarray:
    """Cholesky factor (lower) of a symmetric positive definite block, or
    of every block of a ``(..., k, k)`` stack.

    Returns a new array L with ``L @ L.T == a`` (lower triangular; the
    strictly-upper part of the result is zero).  Raises
    :class:`NotPositiveDefiniteError` if ``a`` is not SPD, non-finite
    entries included; on a stack its ``failed`` names every slice that is
    not, each factored on its own to find out.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"potrf expects a square block or a stack of them, got {a.shape}")
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        why = str(exc)
    else:
        # an optimized LAPACK tests ``pivot <= 0``, which NaN passes: without
        # this a NaN or +Inf entry factors "successfully" into a NaN factor
        finite = np.isfinite(l.diagonal(0, -2, -1)).all()
        why = None if finite else "Matrix has a non-finite pivot"
    if why is not None:
        raise NotPositiveDefiniteError(why) if a.ndim == 2 else _stack_breakdown(a)
    if counts is not None:
        counts.add("potrf", potrf_flops(a.shape[-1]), _slices(a))
    return l


def _stack_breakdown(a: np.ndarray) -> NotPositiveDefiniteError:
    """The error of a stack whose Cholesky failed: every slice factored
    on its own, the failing ones named."""
    failed, why = [], ""
    for i, block in enumerate(a.reshape(-1, *a.shape[-2:])):
        try:
            potrf(block)
        except NotPositiveDefiniteError as exc:
            failed.append(i)
            why = why or str(exc)
    return NotPositiveDefiniteError(why, tuple(failed))


#: the lower triangle of a diagonal block
_LOWER = np.tri(SUBSTITUTION_BLOCK, dtype=bool)


def block_inverse(l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``inv(L)`` of a lower-triangular block of at most
    ``SUBSTITUTION_BLOCK`` columns, or of every block of a ``(..., b, b)``
    stack in one batched LAPACK call, formed as ``inv(D^-1 L) D^-1`` with
    ``D = diag(L)``.

    LAPACK inverts the unit-diagonal ``D^-1 L``, so the result is blind
    to a diagonal scaling of L's rows (the factor of ``D A D`` is
    ``D L``), as substitution is and a plain ``inv(L)`` is not.  Reads
    the lower triangle only.
    """
    b = l.shape[-1]
    d = l.diagonal(0, -2, -1).copy()
    unit = np.divide(
        l, d[..., :, None], out=np.zeros(l.shape, l.dtype), where=_LOWER[:b, :b]
    )
    return np.divide(np.linalg.inv(unit), d[..., None, :], out=out)


def trsm_right_lower(
    b: np.ndarray,
    l: np.ndarray,
    *,
    counts: KernelCounts | None = None,
    inverses: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``X L^T = B`` for X, with L lower triangular (the panel solve
    ``L2 <- L2 L1^-T`` of the F-U operation), or every slice of a
    ``(..., m, k)`` / ``(..., k, k)`` stack.

    The inverted-diagonal-block trsm GPU BLAS libraries run: L is cut
    into ``SUBSTITUTION_BLOCK``-column diagonal blocks, and column block
    j of X is ``(B_j - X_{<j} L_{j,<j}^T) W_j^T`` with ``W_j`` the
    :func:`block_inverse` of ``L_jj`` — one product per block, no step
    per column.  The inverses of all full blocks come from one batched
    call.  Only the lower triangle of L is read.

    ``inverses`` is where the ``W_j`` go, if they are wanted after the
    solve: a ``(..., k // SUBSTITUTION_BLOCK, b, b)`` array for the full
    blocks and a ``(..., 1, t, t)`` one for a tail of ``t`` columns
    (``(..., 0, 0, 0)`` without), the layout of the solve phase's buffer
    (:class:`repro.multifrontal.solve.SolvePlan`).

    ``out`` (B's shape, not overlapping B or L) receives X, bit for bit
    the X a new array would hold; without it X is a new array.
    """
    b = np.asarray(b)
    l = np.asarray(l)
    k = l.shape[-1]
    if l.shape[-2] != k:
        raise ValueError("L must be square")
    if b.shape[-1] != k:
        raise ValueError(f"shape mismatch: B {b.shape} vs L {l.shape}")
    nb = SUBSTITUTION_BLOCK
    full, tail = divmod(k, nb)
    out_full, out_tail = (None, None) if inverses is None else inverses
    w: list[np.ndarray] = []
    if full:
        # the full diagonal blocks as one (..., full, nb, nb) view: steps
        # of nb rows and nb columns in l's own strides (a pivot block of
        # the Figure-9 loop is a strided view of its front)
        *lead, s0, s1 = l.strides
        inv = block_inverse(np.lib.stride_tricks.as_strided(
            l, (*l.shape[:-2], full, nb, nb), (*lead, nb * (s0 + s1), s0, s1),
            writeable=False,
        ), out=out_full)
        w += [inv[..., j, :, :] for j in range(full)]
    if tail:
        w.append(block_inverse(
            l[..., full * nb:, full * nb:],
            out=None if out_tail is None else out_tail[..., 0, :, :],
        ))
    if k <= nb:
        x = np.matmul(b, w[0].mT, out=out)
    else:
        if out is None:
            x = b.astype(b.dtype, copy=True)
        else:
            x = out
            x[...] = b
        for j0, wj in zip(range(0, k, nb), w):
            j1 = j0 + wj.shape[-1]
            if j0:
                x[..., j0:j1] -= x[..., :j0] @ l[..., j0:j1, :j0].mT
            x[..., j0:j1] = x[..., j0:j1] @ wj.mT
    if counts is not None:
        counts.add("trsm", trsm_flops(b.shape[-2], k), _slices(b))
    return x


#: an update of at least this many rows is subtracted in row blocks of
#: its lower triangle, a smaller one as one product over the square.
#: Chosen from the cost of every update of a size class of one
#: ``lmco_s``/nd factorization (random values, warm buffers, one BLAS
#: thread, median of 21 runs, ms), by the block height of the row blocks:
#:
#:     rows      updates  square   64     128    192    256
#:     65-128       106    4.29   5.12   4.43   4.34   4.25
#:     129-192       43    4.06   4.63   5.71   3.95   3.92
#:     193-256       24    4.63   5.12   5.06   6.21   4.77
#:     257-384       13    6.85   6.48   6.17   6.08   7.88
#:     385-512        7    7.69   6.99   7.62   8.08   7.78
#:     > 512         10   41.94  38.48  35.01  34.88  38.79
#:
#: below 256 rows the blocks save nothing; above, 128-row blocks take
#: 48.8 ms where the square takes 56.5 (-14 %)
_SYRK_CUT = 256
#: rows per block of the lower-triangle update (the table above)
_SYRK_ROWS = 128


def syrk(
    c: np.ndarray,
    x: np.ndarray,
    *,
    counts: KernelCounts | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric rank-k update ``C <- C - X X^T`` (in place), on the
    lower triangle of ``C``, or of every slice of a ``(..., m, m)`` stack.
    With ``out`` (C's shape, not overlapping C or X) C is left as it is
    and ``C - X X^T`` is written into ``out`` instead, bit for bit what
    C would hold; the strictly-upper blocks the row blocks do not touch
    are zero-filled there, so every element of ``out`` is set.

    The multifrontal update block U is live in its lower triangle only:
    that is all the planned assembly writes into a front and all that is
    ever consumed.  From ``_SYRK_CUT`` rows up the product is subtracted
    in ``_SYRK_ROWS``-row blocks, ``C[i0:i1, :i1] -= X[i0:i1] X[:i1]^T``:
    no m x m temporary, and nothing above the diagonal blocks is
    touched.  A smaller update is one product over the whole square.
    Either way what sits above the diagonal afterwards means nothing.
    """
    c = np.asarray(c)
    x = np.asarray(x)
    m = x.shape[-2]
    if c.shape[-2:] != (m, m):
        raise ValueError(f"shape mismatch: C {c.shape} vs X {x.shape}")
    if out is None:
        out = c
    if m < _SYRK_CUT:
        # into ``out`` itself where it is not C: no m x m temporary
        np.subtract(c, x @ x.mT if out is c else np.matmul(x, x.mT, out=out), out=out)
    else:
        for i0 in range(0, m, _SYRK_ROWS):
            i1 = min(i0 + _SYRK_ROWS, m)
            np.subtract(
                c[..., i0:i1, :i1], x[..., i0:i1, :] @ x[..., :i1, :].mT,
                out=out[..., i0:i1, :i1],
            )
            if out is not c:
                out[..., i0:i1, i1:] = 0.0
    if counts is not None:
        counts.add("syrk", syrk_flops(m, x.shape[-1]), _slices(x))
    return out


def gemm(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    counts: KernelCounts | None = None,
) -> np.ndarray:
    """General update ``C <- C - A @ B`` (in place), on one block or
    every slice of a stack."""
    c = np.asarray(c)
    if c.shape[-2:] != (a.shape[-2], b.shape[-1]) or a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"shape mismatch: C {c.shape}, A {a.shape}, B {b.shape}"
        )
    c -= a @ b
    if counts is not None:
        counts.add(
            "gemm", gemm_flops(a.shape[-2], b.shape[-1], a.shape[-1]), _slices(c)
        )
    return c
