"""Simulated CUBLAS: real float32 numerics plus model-priced durations.

The paper offloads trsm/gemm/syrk to CUBLAS 2.3 in *single precision*
(the T10's double-precision throughput is 8x lower), accepting reduced
accuracy that iterative refinement later recovers.  This context
reproduces both halves of that deal:

* **numerics** — kernels execute with NumPy in ``float32`` (or ``float64``
  when the model is switched to the dp parameter set), so the factor
  really loses precision the way the paper's did.  Not every kernel is
  fp32 arithmetic, though: the matmul-based ones are (the trsm's block
  products, ``syrk`` and ``gemm``), but numpy's ``linalg`` computes
  ``potrf`` and the trsm's diagonal-block inverses in float64 and rounds
  the result to float32.  The factor therefore carries one rounding of
  an fp64 Cholesky on its diagonal blocks, more accurate than true fp32
  kernels would make it, and the solve phase, which applies a float32
  factor in float32 (:mod:`repro.multifrontal.solve`), is where a
  solve first meets u32 rounding in its own products;
* **timing** — :meth:`CublasContext.price` prices a kernel list with the
  calibrated :class:`~repro.gpu.perfmodel.PerfModel`.  A kernel call
  keeps no time: :attr:`CublasContext.busy_seconds` is owned by the
  numerics pass (:func:`repro.multifrontal.numeric.device_kernels`),
  which adds the seconds of the kernels its fronts ran once, after the
  walk, from a list kept per pattern beside the priced pass.

It also implements the :class:`~repro.dense.blocked.KernelProvider`
protocol, so the Figure-9 blocked panel algorithm runs unmodified on the
"device", on one front or on a stack of same-shape fronts.
``panel_kernel_sequence`` is the single source of truth for the kernel
call sequence of that algorithm — the numeric path is verified against
it in the tests, and the timing path prices it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense import kernels as hk
from repro.gpu.perfmodel import PerfModel

__all__ = ["CublasContext", "panel_kernel_sequence", "KernelCall"]


@dataclass(frozen=True)
class KernelCall:
    """One (kernel, dims) record; dims follow the F-U conventions."""

    kernel: str
    m: int = 0
    n: int = 0
    k: int = 0


def panel_kernel_sequence(s: int, k: int, w: int) -> list[KernelCall]:
    """The exact GPU kernel sequence of the Figure-9 blocked algorithm on
    an s x s front with a k-column pivot block and panel width w."""
    calls: list[KernelCall] = []
    for j in range(0, k, w):
        wj = min(w, k - j)
        calls.append(KernelCall("potrf", k=wj))
        rest = j + wj
        if rest < s:
            calls.append(KernelCall("trsm", m=s - rest, k=wj))
            if rest < k:
                calls.append(KernelCall("syrk", m=k - rest, k=wj))
                calls.append(KernelCall("gemm", m=s - k, n=k - rest, k=wj))
                calls.append(KernelCall("syrk", m=s - k, k=wj))
            else:
                calls.append(KernelCall("syrk", m=s - k, k=wj))
    return calls


class CublasContext:
    """Device kernel provider: fp32 numerics, priced apart.

    The kernels compute and keep no time; :meth:`price` prices a call
    list, and :attr:`busy_seconds` is the device-kernel seconds the
    numerics pass ran on this device since the node's last reset.
    """

    def __init__(self, model: PerfModel):
        self.model = model
        self.busy_seconds = 0.0

    @property
    def dtype(self):
        """Device compute dtype: float32 under 'sp' (the paper's mode)."""
        return np.float32 if self.model.precision == "sp" else np.float64

    def _as_device(self, a: np.ndarray) -> np.ndarray:
        if a.dtype != self.dtype:
            raise TypeError(
                f"device kernel received {a.dtype} array; transfer to the "
                f"device (astype {self.dtype}) first"
            )
        return a

    # -- KernelProvider protocol (numerics) ------------------------------
    def potrf(self, a: np.ndarray) -> np.ndarray:
        """Device Cholesky of a block or of every block of a stack.

        fp32 Cholesky may hit spurious non-positive pivots for
        ill-conditioned blocks; such a block is promoted to float64 like
        the real mixed-precision kernels do for the tiny w x w panel.  On
        a stack exactly the slices whose own Cholesky failed are
        promoted, so each slice comes out as it would on its own, and a
        slice that fails in float64 too is the one the error names."""
        a = self._as_device(a)
        try:
            return hk.potrf(a).astype(self.dtype, copy=False)
        except hk.NotPositiveDefiniteError as exc:
            failed = exc.failed
        blocks = a.reshape(-1, *a.shape[-2:])
        promote = np.zeros(len(blocks), dtype=bool)
        promote[list(failed)] = True
        l = np.empty_like(blocks)
        l[~promote] = hk.potrf(blocks[~promote])
        try:
            l[promote] = hk.potrf(blocks[promote].astype(np.float64))
        except hk.NotPositiveDefiniteError as exc:
            raise hk.NotPositiveDefiniteError(
                str(exc), tuple(failed[i] for i in exc.failed)
            ) from exc
        return l.reshape(a.shape)

    def trsm(self, b: np.ndarray, l: np.ndarray, inverses=None) -> np.ndarray:
        """The device panel solve; ``inverses`` receives the inverses of
        ``l``'s diagonal blocks in the device dtype
        (:func:`repro.dense.kernels.trsm_right_lower`)."""
        return hk.trsm_right_lower(
            self._as_device(b), self._as_device(l), inverses=inverses
        )

    def syrk(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        return hk.syrk(self._as_device(c), self._as_device(x))

    def gemm(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return hk.gemm(
            self._as_device(c), self._as_device(a), self._as_device(b)
        )

    def syrk_outer(self, x: np.ndarray) -> np.ndarray:
        """``W = X X^T`` — the form policy P2 ships back to the host,
        which then applies ``U -= W`` locally (Section IV-B)."""
        x = self._as_device(x)
        return x @ x.mT

    # -- pure pricing ----------------------------------------------------
    def price(self, calls: list[KernelCall]) -> float:
        """Total simulated seconds of a kernel call list, added in order
        from zero (no numerics): what :attr:`busy_seconds` gains from a
        fresh node when the numerics pass runs ``calls``."""
        total = 0.0
        for c in calls:
            total += self.model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
        return total
