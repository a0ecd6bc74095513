"""Dense kernels used by the factor-update operation.

``kernels`` holds the host (CPU, float64) reference implementations of
potrf/trsm/syrk/gemm with exact flop accounting; ``blocked`` implements
the right-looking blocked panel Cholesky of the paper's Figure 9 (the
algorithm policy P4 runs on the GPU).
"""

from repro.dense.kernels import (
    KernelCounts,
    gemm,
    potrf,
    potrf_flops,
    syrk,
    syrk_flops,
    trsm_flops,
    trsm_right_lower,
)
from repro.dense.blocked import blocked_cholesky_panels

__all__ = [
    "potrf",
    "trsm_right_lower",
    "syrk",
    "gemm",
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "KernelCounts",
    "blocked_cholesky_panels",
]
