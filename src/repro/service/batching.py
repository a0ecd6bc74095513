"""Multi-RHS aggregation of solve requests that share one factorization.

The triangular sweeps in :func:`repro.multifrontal.solve.solve_factored`
already handle a block of right-hand sides with matrix-matrix work —
the whole point of the paper's "multiple systems with the same
coefficient matrix" motivation — and
:func:`repro.multifrontal.refine.iterative_refinement` refines such a
block as one.  :class:`BatchPlan` is the bookkeeping around that: stack
the (1-D or multi-column) right-hand sides of several requests into one
``(n, nrhs)`` block, run a single block refinement, and scatter the
solution columns back to their requests with their original shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.multifrontal.solve import check_rhs

__all__ = ["BatchPlan"]


@dataclass
class BatchPlan:
    """Column layout of one aggregated solve call."""

    requests: list
    block: np.ndarray                    # (n, nrhs) stacked right-hand sides
    _cols: list[tuple[int, int, bool]]   # (lo, hi, was_1d) per request

    @classmethod
    def build(cls, requests, n: int) -> "BatchPlan":
        """Stack the requests' right-hand sides into one block."""
        if not requests:
            raise ValueError("cannot batch zero requests")
        pieces: list[np.ndarray] = []
        cols: list[tuple[int, int, bool]] = []
        at = 0
        for req in requests:
            b = check_rhs(req.b, n)
            was_1d = b.ndim == 1
            b2 = b[:, None] if was_1d else b
            pieces.append(b2)
            cols.append((at, at + b2.shape[1], was_1d))
            at += b2.shape[1]
        return cls(list(requests), np.hstack(pieces), cols)

    @property
    def nrhs(self) -> int:
        return int(self.block.shape[1])

    @property
    def columns(self) -> list[slice]:
        """The block columns of each request, in request order."""
        return [slice(lo, hi) for lo, hi, _ in self._cols]

    def scatter(self, x: np.ndarray):
        """Yield (request, solution) pairs, restoring each rhs's shape."""
        for req, (lo, hi, was_1d) in zip(self.requests, self._cols):
            xi = x[:, lo:hi]
            yield req, (xi[:, 0] if was_1d else xi)
