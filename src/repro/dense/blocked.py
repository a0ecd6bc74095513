"""Blocked right-looking panel Cholesky — the paper's Figure 9 algorithm.

Policy P4 performs the whole factor-update on the GPU.  Because CUBLAS
has no potrf, the paper factors the (m+k) x k panel [L1; L2] in blocks of
``w`` columns: a light-weight w x w potrf kernel, a wide trsm spanning the
rest of L1 *and* L2, a syrk updating the trailing part of L1, a gemm
updating the trailing part of L2, and a final syrk per step partially
updating U.  This module implements the algorithm generically over a
*kernel provider*, so the same code runs

* on the host in float64 (used by tests as the reference), and
* on the simulated GPU in float32 (:class:`repro.gpu.cublas.CublasContext`
  provides the kernels; :func:`repro.gpu.cublas.panel_kernel_sequence`
  is the call sequence the performance model prices P4 with),

on one front or on a ``(..., s, s)`` stack of same-shape fronts, every
slice computed as it would be on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.dense import kernels as hk

__all__ = [
    "KernelProvider",
    "HostKernels",
    "blocked_cholesky_panels",
    "default_panel_width",
]


class KernelProvider(Protocol):
    """The four dense kernels the blocked algorithm needs.

    Array arguments follow the host conventions; implementations may
    convert dtypes internally (the simulated GPU computes in float32).
    """

    def potrf(self, a: np.ndarray) -> np.ndarray: ...

    def trsm(
        self, b: np.ndarray, l: np.ndarray, inverses=None
    ) -> np.ndarray: ...

    def syrk(self, c: np.ndarray, x: np.ndarray) -> np.ndarray: ...

    def gemm(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray: ...


class HostKernels:
    """float64 host kernels; the reference KernelProvider."""

    def __init__(self, counts: hk.KernelCounts | None = None):
        self.counts = counts

    def potrf(self, a):
        return hk.potrf(a, counts=self.counts)

    def trsm(self, b, l, inverses=None):
        return hk.trsm_right_lower(b, l, counts=self.counts, inverses=inverses)

    def syrk(self, c, x):
        return hk.syrk(c, x, counts=self.counts)

    def gemm(self, c, a, b):
        return hk.gemm(c, a, b, counts=self.counts)


def default_panel_width(k: int) -> int:
    """Panel width heuristic: wider panels amortize the slow w x w potrf
    kernel and kernel-launch overheads on large fronts.  Matches the
    calibration used for Table V (see repro.gpu.perfmodel)."""
    return int(min(max(64, k // 48), 512))


def blocked_cholesky_panels(
    f: np.ndarray, k: int, w: int, provider: KernelProvider, inverses=None
) -> None:
    """Factor the leading k columns of the (s x s) frontal matrix ``f``, or
    of every front of an ``(..., s, s)`` stack, in panels of width ``w``,
    updating the trailing U block, in place.

    After the call, ``f[:k, :k]`` holds L1 (lower), ``f[k:, :k]`` holds
    L2, and ``f[k:, k:]`` has been updated by ``- L2 @ L2.T`` on its
    lower triangle.  Only the lower triangle of ``f`` is read, and
    ``f[:k, k:]`` is left as it was.  Follows
    Figure 9: per panel j of width w,

    1. potrf on the w x w diagonal block,
    2. trsm on the (s - j - w) x w sub-panel spanning the rest of L1 and
       all of L2,
    3. syrk on the trailing (k - j - w) block of L1,
    4. gemm updating the L2 rows against the new panel,
    5. syrk partially updating U.

    (Steps 3-5 are the split of the trailing update into the L1, L2 and U
    regions exactly as the paper draws them.)

    ``inverses`` is where the panel solves leave the inverses of L1's
    ``SUBSTITUTION_BLOCK``-column diagonal blocks, in the layout
    :func:`repro.dense.kernels.trsm_right_lower` takes for the whole
    pivot block.  It needs every panel to be whole blocks wide but the
    last (``w`` a multiple of the block).  A panel with no rows below it
    — the last of a front with ``k == s`` — runs no trsm and leaves its
    blocks' places as they were.
    """
    s = f.shape[-1]
    if f.ndim < 2 or f.shape[-2] != s:
        raise ValueError("frontal matrix must be square")
    if not 0 < k <= s:
        raise ValueError("invalid pivot-block size")
    if w <= 0:
        raise ValueError("panel width must be positive")
    nb = hk.SUBSTITUTION_BLOCK
    if inverses is not None and w % nb:
        raise ValueError("inverses need whole-block panels")
    for j in range(0, k, w):
        wj = min(w, k - j)
        # 1. factor the diagonal block; potrf returns a zero upper
        # triangle and later steps only touch rows >= rest, so zeroing
        # the blocks to its right leaves L1 strictly lower
        f[..., j:j + wj, j:j + wj] = provider.potrf(f[..., j:j + wj, j:j + wj])
        panel_l = f[..., j:j + wj, j:j + wj]
        rest = j + wj
        f[..., j:rest, rest:k] = 0.0
        if rest < s:
            # 2. one trsm spanning the remaining L1 rows and all of L2
            out = None if inverses is None else (
                inverses[0][..., j // nb:rest // nb, :, :], inverses[1]
            )
            f[..., rest:, j:j + wj] = provider.trsm(
                f[..., rest:, j:j + wj], panel_l, inverses=out
            )
            panel = f[..., rest:, j:j + wj]
            if rest < k:
                # 3. syrk: trailing L1 block
                provider.syrk(
                    f[..., rest:k, rest:k], panel[..., : k - rest, :]
                )
                # 4. gemm: L2 rows against the new panel (the block above
                # U, its mirror, is never read: F is live in its lower
                # triangle only)
                provider.gemm(
                    f[..., k:, rest:k], panel[..., k - rest:, :],
                    panel[..., : k - rest, :].mT,
                )
                # 5. syrk: partial update of U
                provider.syrk(f[..., k:, k:], panel[..., k - rest:, :])
            else:
                provider.syrk(f[..., k:, k:], panel)
