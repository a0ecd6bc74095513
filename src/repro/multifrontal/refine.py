"""Double-precision iterative refinement.

The paper computes the GPU kernels in single precision ("the lost
accuracy could be readily regained by one or two steps of iterative
refinement using double precision sparse matrix-vector multiplication",
Section III-B).  This module is that loop: the (mixed-precision) factor
is the preconditioner, the residual is computed against the original
float64 matrix, and a couple of corrections restore double-precision
solve accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.multifrontal.numeric import NumericFactor
from repro.multifrontal.solve import check_rhs, solve_factored

__all__ = ["RefinementResult", "iterative_refinement"]


@dataclass
class RefinementResult:
    """Solution plus the refinement trace."""

    x: np.ndarray
    iterations: int
    residual_norms: list[float]      # scaled residuals, initial first
    converged: bool

    @property
    def initial_residual(self) -> float:
        return self.residual_norms[0]

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]


def _scaled_residual(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    r = b - a.matvec(x)
    scale = float(np.abs(b).max()) + float(np.abs(x).max()) + 1e-300
    return r, float(np.abs(r).max() / scale)


def iterative_refinement(
    a: CSCMatrix,
    factor: NumericFactor,
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 5,
) -> RefinementResult:
    """Solve ``A x = b`` with the factored preconditioner plus refinement.

    Parameters
    ----------
    a : CSCMatrix
        The original full-symmetric matrix in float64.
    factor : NumericFactor
        Possibly mixed-precision factorization of ``P A P^T``.
    b : array
        Right-hand side, held to :func:`~repro.multifrontal.solve.check_rhs`.
    tol : float
        Target on the scaled residual ``||b - A x||_inf / (||b||_inf +
        ||x||_inf)``.
    max_iter : int
        Refinement-step budget (the paper needed "one or two steps").
    """
    b = check_rhs(b, factor.n)
    x = solve_factored(factor, b)
    r, rnorm = _scaled_residual(a, x, b)
    norms = [rnorm]
    it = 0
    while rnorm > tol and it < max_iter:
        dx = solve_factored(factor, r)
        x = x + dx
        r, rnorm = _scaled_residual(a, x, b)
        norms.append(rnorm)
        it += 1
        # stagnation guard: stop when refinement no longer helps
        if len(norms) >= 2 and norms[-1] > 0.5 * norms[-2]:
            break
    return RefinementResult(x=x, iterations=it, residual_norms=norms,
                            converged=rnorm <= tol)
