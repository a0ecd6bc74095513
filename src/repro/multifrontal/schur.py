"""Partial factorization / Schur complement (extension).

Eliminating only the leading columns of ``P A P^T`` and returning the
*Schur complement* of the rest is a textbook multifrontal capability
(domain decomposition, static condensation, coupling sparse interiors
to dense interface solvers).  The multifrontal method makes it almost
free: stop the postorder walk at the boundary and merge the surviving
update matrices — they *are* the Schur complement contributions.

``partial_factorize`` eliminates every supernode whose columns fall
below ``n_eliminate`` (the boundary is snapped to a supernode edge) and
returns the factored interior plus the dense Schur complement of the
remaining columns, with the same per-call policy machinery (and
simulated timing) as the full driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.frontal import get_assembly_plan
from repro.multifrontal.numeric import FURecord, ResidencyStats, _numeric_walk, price_serial
from repro.multifrontal.solve import (
    SolvePlan,
    SweepTable,
    backward_sweep,
    check_rhs,
    forward_sweep,
)
from repro.policies.base import Policy, Worker
from repro.symbolic.symbolic import SymbolicFactor

__all__ = ["PartialFactorization", "partial_factorize", "solve_with_schur"]


@dataclass
class PartialFactorization:
    """Result of a partial multifrontal factorization.

    Attributes
    ----------
    n_eliminated : int
        Columns of the permuted matrix actually eliminated (snapped down
        to a supernode boundary from the requested count).
    schur : ndarray
        Dense Schur complement ``A_22 - A_21 A_11^{-1} A_12`` of the
        remaining columns, in permuted order.
    panels : dict
        Factor panels of the eliminated supernodes (supernode id ->
        (rows x k) array), enough to resume or to solve with the
        interior block.
    stacks : dict
        The ``(B, rows, k)`` arrays the panels of the groups of the
        eliminated block are slices of, by first member (as on a
        :class:`~repro.multifrontal.numeric.NumericFactor`).
    records : list of FURecord
        Per-call instrumentation of the eliminated part.
    makespan : float
        Simulated seconds of the partial factorization.
    perm : ndarray
        The overall permutation (from the symbolic factorization).
    residency : ResidencyStats or None
        The pricing pass's transfer accounting under a resident policy
        (the downloads of the updates that cross into the Schur
        complement included), else ``None``.
    """

    n_eliminated: int
    schur: np.ndarray
    panels: dict[int, np.ndarray]
    stacks: dict[int, np.ndarray]
    records: list[FURecord]
    makespan: float
    perm: np.ndarray
    residency: ResidencyStats | None = None
    #: the solve phase's sweep table over the eliminated supernodes,
    #: built by the first :func:`solve_with_schur`
    sweep: SweepTable | None = field(default=None, repr=False, compare=False)

    @property
    def schur_order(self) -> int:
        return int(self.schur.shape[0])


def partial_factorize(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    n_eliminate: int,
    *,
    node: SimulatedNode | None = None,
) -> PartialFactorization:
    """Eliminate the leading ``<= n_eliminate`` permuted columns and
    return the Schur complement of the rest.

    The boundary snaps *down* to the nearest supernode edge so whole
    supernodes are eliminated (use ``sf.super_ptr`` to pick an exact
    boundary).  ``n_eliminate = sf.n`` reproduces the full
    factorization's update-free terminal state with an empty Schur
    complement.
    """
    if not 0 <= n_eliminate <= sf.n:
        raise ValueError("n_eliminate out of range")
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)

    # snap the boundary to a supernode edge: supernodes [0, boundary)
    # are eliminated
    boundary = int(np.searchsorted(sf.super_ptr, n_eliminate, side="right")) - 1
    n_elim_cols = int(sf.super_ptr[boundary])

    n_keep = sf.n - n_elim_cols
    schur = np.zeros((n_keep, n_keep))
    # seed with the original entries of the kept block (lower triangle):
    # where the plan puts an entry in its supernode's front says its row
    # and column
    plan = get_assembly_plan(a, sf)
    for s in range(boundary, sf.n_supernodes):
        rows = sf.rows[s]
        pos, col = np.divmod(plan.dst[s], rows.size)
        ii = rows[pos] - n_elim_cols
        jj = col + (sf.super_ptr[s] - n_elim_cols)
        schur[ii, jj] += a.data[plan.src[s]]

    # the serial driver's two passes, stopped at the boundary: price the
    # eliminated supernodes, then run the numerics walk over them
    priced = price_serial(sf, policy, node, sf.spost[sf.spost < boundary], plan)
    panels, stacks, leftover, *_ = _numeric_walk(
        a, sf, priced.bases, Worker.canonical(node), priced.order,
        priced.kernel_seconds,
    )

    # the updates nobody inside consumed reach the kept block: they *are*
    # the Schur complement contributions (folded in postorder; the kept
    # rows are contiguous, so a row's place in the block is an offset)
    for s, u in leftover.items():
        idx = sf.rows[s][sf.width(s):] - n_elim_cols
        if idx.min() < 0:
            raise AssertionError(
                "update of an eliminated supernode reaches back "
                "into the eliminated block"
            )
        schur[np.ix_(idx, idx)] += u
    # fronts and update blocks are live in their lower triangle only, and
    # so is the block up to here; the caller gets a dense symmetric
    # matrix (np.linalg.solve, eigvalsh), so mirror that triangle
    schur = np.tril(schur) + np.tril(schur, -1).T

    return PartialFactorization(
        n_eliminated=n_elim_cols,
        schur=schur,
        panels={s: panels[s] for s in priced.order},
        stacks=stacks,
        records=list(priced.records),
        makespan=priced.makespan,
        perm=sf.perm,
        residency=priced.residency,
    )


def solve_with_schur(
    pf: PartialFactorization,
    sf: SymbolicFactor,
    b: np.ndarray,
) -> np.ndarray:
    """Solve ``A x = b`` from a partial factorization: interior sweeps
    through the stored panels, a dense solve on the Schur complement for
    the interface, and the interior back-substitution — the classic
    static-condensation solve of domain decomposition.

    Equivalent to a full solve (tested against it); useful when the same
    interface system couples to something external (another subdomain, a
    dense boundary-element block).  ``b`` is one right-hand side ``(n,)``
    or a block ``(n, nrhs)``, as :func:`~repro.multifrontal.solve.solve_factored`
    takes it.
    """
    b = check_rhs(b, sf.n)
    ne = pf.n_eliminated
    if pf.sweep is None:
        boundary = int(np.searchsorted(sf.super_ptr, ne, side="right")) - 1
        pf.sweep = SolvePlan(sf, boundary).bind(pf.stacks)
    y = b[sf.perm].copy()

    # after the forward half, y[:ne] = L11^{-1} (P b)_1 and
    # y[ne:] = b_2 - L21 y_1
    forward_sweep(pf.sweep, y)
    # dense interface solve: S x_2 = y_2
    if ne < sf.n:
        y[ne:] = np.linalg.solve(pf.schur, y[ne:])
    # x_1 = L11^{-T} (y_1 - L21^T x_2)
    backward_sweep(pf.sweep, y)

    x = np.empty_like(y)
    x[sf.perm] = y
    return x
