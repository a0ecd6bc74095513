"""A device kernel provider that records every kernel it runs.

The simulated CUBLAS kernels keep no time: the numerics pass adds the
seconds of ``numeric.device_kernels`` to ``cublas.busy_seconds`` after
its walk.  Tests that pin *which* kernels a factorization computed, and
in what order, install this context on a node's GPU and compare its
``calls`` with that list; :func:`charge_recorded` turns a recording into
a charge per kernel in the order they ran, for the reference
factorization of ``tests/test_bench_properties.py``.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cublas import CublasContext, KernelCall
from repro.gpu.device import SimulatedNode


class RecordingCublas(CublasContext):
    """A :class:`CublasContext` that appends each kernel it runs to
    :attr:`calls`, with the dimensions ``panel_kernel_sequence`` uses.  A
    call on a stack of fronts is recorded once, with the dimensions of
    one slice."""

    def __init__(self, model):
        super().__init__(model)
        self.calls: list[KernelCall] = []

    @classmethod
    def on(cls, node: SimulatedNode) -> "RecordingCublas":
        """Install a recording context on ``node``'s first GPU (the
        canonical worker's, the one the numerics pass computes on)."""
        gpu = node.gpus[0]
        gpu.cublas = cls(gpu.model)
        return gpu.cublas

    def potrf(self, a: np.ndarray) -> np.ndarray:
        self.calls.append(KernelCall("potrf", k=a.shape[-1]))
        return super().potrf(a)

    def trsm(self, b: np.ndarray, l: np.ndarray, inverses=None) -> np.ndarray:
        self.calls.append(KernelCall("trsm", m=b.shape[-2], k=l.shape[-1]))
        return super().trsm(b, l, inverses=inverses)

    def syrk(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.calls.append(KernelCall("syrk", m=x.shape[-2], k=x.shape[-1]))
        return super().syrk(c, x)

    def gemm(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.calls.append(
            KernelCall("gemm", m=a.shape[-2], n=b.shape[-1], k=a.shape[-1])
        )
        return super().gemm(c, a, b)

    def syrk_outer(self, x: np.ndarray) -> np.ndarray:
        self.calls.append(KernelCall("syrk", m=x.shape[-2], k=x.shape[-1]))
        return super().syrk_outer(x)


def charge_recorded(ctx: RecordingCublas) -> None:
    """Add the seconds of every recorded kernel onto ``busy_seconds``,
    one at a time in the order they ran: what a context that charged
    each kernel as it ran would read."""
    for c in ctx.calls:
        ctx.busy_seconds += ctx.model.kernel_time(
            "gpu", c.kernel, m=c.m, n=c.n, k=c.k
        )
