"""Double-precision iterative refinement, and the certificate it ends on.

The paper computes the GPU kernels in single precision ("the lost
accuracy could be readily regained by one or two steps of iterative
refinement using double precision sparse matrix-vector multiplication",
Section III-B).  This module is that loop: the (mixed-precision) factor
is the preconditioner, the residual is computed against the original
float64 matrix, and a couple of corrections restore double-precision
solve accuracy.  Every iterate is measured by Higham's normwise
backward error ``||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)``
and certified within ``max(tol, n * u64)``.  A float32 factor (the
device fronts of P4) is applied in float32 — the sweeps round the slice
of ``y`` each panel multiplies to float32 and widen the product — while
the residual and the update of ``x`` stay float64: LU-IR with the
correction solve at the factor's own precision (u_s = u_f, Carson &
Higham, SIAM J. Sci. Comput. 40, 2018).  Against an fp32 factor the
corrections contract at about ``cond(A) * u32`` a step; once that nears 1, ``x`` can
blow up and a small ``eta`` proves nothing, so such an answer is also held to
``nu * u32 < 1/2`` with the witness ``nu = ||A|| ||x|| / ||b|| <= cond(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.multifrontal.numeric import NumericFactor
from repro.multifrontal.solve import check_rhs, solve_factored

__all__ = [
    "RefinementResult", "UncertifiedSolutionError", "backward_error_bound",
    "inf_norm", "iterative_refinement", "normwise_backward_error",
]

#: unit roundoff of the float64 arithmetic the certificate is stated in
_U64 = float(np.finfo(np.float64).eps)
#: unit roundoff of the device float32 kernels, 2**-24
_U32 = float(np.finfo(np.float32).eps) / 2


@dataclass
class RefinementResult:
    """Solution plus the refinement trace; for an ``(n, r)`` block each
    field is per column (``(r,)`` arrays, a stopped column keeping its
    last value)."""

    x: np.ndarray
    iterations: int | np.ndarray
    residual_norms: list            # backward errors, initial first
    converged: bool | np.ndarray    # within backward_error_bound, witness held

    @property
    def initial_residual(self):
        return self.residual_norms[0]

    @property
    def final_residual(self):
        return self.residual_norms[-1]


class UncertifiedSolutionError(ArithmeticError):
    """No answer for ``A x = b`` meets the backward-error bound."""


def backward_error_bound(n: int, tol: float) -> float:
    """The one acceptance bound: ``eta <= max(tol, n * u64)``."""
    return max(tol, n * _U64)


def inf_norm(a: CSCMatrix) -> float:
    """``||A||_inf``, the largest absolute row sum."""
    sums = np.bincount(a.indices, weights=np.abs(a.data), minlength=a.n_rows)
    return float(sums.max(initial=0.0))


def _residual(a: CSCMatrix, a_norm: float, x: np.ndarray, b: np.ndarray):
    """``b - A x`` and the backward error of every column of ``(n, r)``
    ``x`` (the bare residual norm where the denominator is zero)."""
    r = np.empty_like(b)
    for j in range(b.shape[1]):
        r[:, j] = b[:, j] - a.matvec(x[:, j])
    eta = np.abs(r).max(axis=0, initial=0.0)
    den = a_norm * np.abs(x).max(axis=0, initial=0.0) + np.abs(b).max(axis=0, initial=0.0)
    np.divide(eta, den, out=eta, where=den > 0.0)
    return r, eta


def normwise_backward_error(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``eta(x)`` of ``A x = b``; the largest over the columns of a block."""
    b, x = np.asarray(b, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if b.ndim == 1:
        b, x = b[:, None], x[:, None]
    return float(_residual(a, inf_norm(a), x, b)[1].max(initial=0.0))


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
        Right-hand side(s), ``(n,)`` or ``(n, r)``, held to
        :func:`~repro.multifrontal.solve.check_rhs`.
    tol : float
        The target: a column is corrected while its backward error
        exceeds ``tol`` and the last step at least halved it (one block
        solve a step; a step that raised it is counted but not kept, so
        ``x`` is the best iterate), and certified (``converged``) within
        :func:`backward_error_bound` and, if any front of ``factor`` is
        not P1 (fp32 kernels), ``nu * u32 < 1/2`` whatever ``tol`` is.
    max_iter : int
        Refinement-step budget (the paper needed "one or two steps").
    """
    b = check_rhs(b, factor.n)
    x = solve_factored(factor, b)
    one = b.ndim == 1
    bb, xx = (b[:, None], x[:, None]) if one else (b, x)
    a_norm = inf_norm(a)
    r, eta = _residual(a, a_norm, xx, bb)
    norms = [eta.copy()]
    iterations = np.zeros(eta.size, dtype=np.int64)
    live = eta > tol
    for _ in range(max_iter):
        cols = np.flatnonzero(live)
        if not cols.size:
            break
        trial = xx[:, cols] + solve_factored(factor, r[:, cols])
        r_trial, step = _residual(a, a_norm, trial, bb[:, cols])
        iterations[cols] += 1
        # a step that raised eta is refused: every step kept so far at
        # least halved it, so x stays the best iterate
        kept = ~(step > eta[cols])
        xx[:, cols[kept]], r[:, cols[kept]] = trial[:, kept], r_trial[:, kept]
        # stagnation guard: stop a column once refinement no longer helps
        live[cols] = (step > tol) & (step <= 0.5 * eta[cols])
        eta[cols] = np.where(kept, step, eta[cols])
        norms.append(eta.copy())
    converged = eta <= backward_error_bound(factor.n, tol)
    # the witness nu, 0 on a zero column: read off the answer, no solve
    b_norm = np.abs(bb).max(axis=0, initial=0.0)
    ax_norm = a_norm * np.abs(xx).max(axis=0, initial=0.0)
    wild = np.divide(ax_norm, b_norm, out=np.zeros_like(eta), where=b_norm > 0.0) * _U32 >= 0.5
    if wild.any() and any(rec.policy != "P1" for rec in factor.records):
        converged &= ~wild
    if one:
        return RefinementResult(x, int(iterations[0]), [float(e[0]) for e in norms],
                                bool(converged[0]))
    return RefinementResult(x, iterations, norms, converged)
