"""Simulated CUBLAS: real float32 numerics plus model-priced durations.

The paper offloads trsm/gemm/syrk to CUBLAS 2.3 in *single precision*
(the T10's double-precision throughput is 8x lower), accepting reduced
accuracy that iterative refinement later recovers.  This context
reproduces both halves of that deal:

* **numerics** — kernels execute with NumPy in ``float32`` (or ``float64``
  when the model is switched to the dp parameter set), so the factor
  really loses precision the way the paper's did;
* **timing** — every kernel reports its simulated duration from the
  calibrated :class:`~repro.gpu.perfmodel.PerfModel`.

It also implements the :class:`~repro.dense.blocked.KernelProvider`
protocol, so the Figure-9 blocked panel algorithm runs unmodified on the
"device".  ``panel_kernel_sequence`` is the single source of truth for
the kernel call sequence of that algorithm — the numeric path is verified
against it in the tests, and the timing path prices it directly.
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
    """Device kernel provider: fp32 numerics + simulated durations.

    Use :meth:`last_call_seconds` (or the running :attr:`busy_seconds`)
    after each kernel for time attribution, or price call lists directly
    with :meth:`price`.
    """

    def __init__(self, model: PerfModel):
        self.model = model
        self.busy_seconds = 0.0
        self.last_call_seconds = 0.0
        self.calls: list[KernelCall] = []

    @property
    def dtype(self):
        """Device compute dtype: float32 under 'sp' (the paper's mode)."""
        return np.float32 if self.model.precision == "sp" else np.float64

    # -- internal ------------------------------------------------------
    def _charge(self, call: KernelCall) -> float:
        t = self.model.kernel_time(
            "gpu", call.kernel, m=call.m, n=call.n, k=call.k
        )
        self.busy_seconds += t
        self.last_call_seconds = t
        self.calls.append(call)
        return t

    def _as_device(self, a: np.ndarray) -> np.ndarray:
        if a.dtype != self.dtype:
            raise TypeError(
                f"device kernel received {a.dtype} array; transfer to the "
                f"device (astype {self.dtype}) first"
            )
        return a

    # -- KernelProvider protocol (numerics + charging) ------------------
    def potrf(self, a: np.ndarray) -> np.ndarray:
        a = self._as_device(a)
        self._charge(KernelCall("potrf", k=a.shape[0]))
        # fp32 Cholesky may hit spurious non-positive pivots for
        # ill-conditioned blocks; promote internally like the real
        # mixed-precision kernels do for the tiny w x w panel
        try:
            return hk.potrf(a).astype(self.dtype)
        except hk.NotPositiveDefiniteError:
            return hk.potrf(a.astype(np.float64)).astype(self.dtype)

    def trsm(self, b: np.ndarray, l: np.ndarray) -> np.ndarray:
        b = self._as_device(b)
        l = self._as_device(l)
        self._charge(KernelCall("trsm", m=b.shape[0], k=l.shape[0]))
        return hk.trsm_right_lower(b, l)

    def syrk(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        c = self._as_device(c)
        x = self._as_device(x)
        self._charge(KernelCall("syrk", m=x.shape[0], k=x.shape[1]))
        return hk.syrk(c, x)

    def gemm(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = self._as_device(c)
        self._charge(
            KernelCall("gemm", m=a.shape[0], n=b.shape[1], k=a.shape[1])
        )
        return hk.gemm(c, self._as_device(a), self._as_device(b))

    def syrk_outer(self, x: np.ndarray) -> np.ndarray:
        """``W = X X^T`` — the form policy P2 ships back to the host,
        which then applies ``U -= W`` locally (Section IV-B)."""
        x = self._as_device(x)
        self._charge(KernelCall("syrk", m=x.shape[0], k=x.shape[1]))
        return x @ x.T

    def charge(self, calls: list[KernelCall]) -> None:
        """Charge ``calls`` in order, exactly as running them would,
        without running them: a stacked leaf group is computed in one go
        and each member charges its own kernels at its own turn."""
        for call in calls:
            self._charge(call)

    # -- pure pricing ----------------------------------------------------
    def price(self, calls: list[KernelCall]) -> float:
        """Total simulated seconds of a kernel call list (no numerics,
        no charging — used by the schedule estimators)."""
        return sum(
            self.model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
            for c in calls
        )
