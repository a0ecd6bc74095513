"""The per-column, full-symmetric reference assembly: the oracle.

Nothing under ``src/`` builds a front this way any more —
:class:`repro.multifrontal.frontal.AssemblyPlan` and
``assemble_front_planned`` are the one way into a front, on its lower
triangle only.  These three functions are what that path is checked
against, bit for bit on the lower triangle
(``test_planned_assembly_bitwise_matches_legacy``), and are tested in
their own right in ``tests/test_multifrontal.py``.  They read the
permuted lower triangle of the matrix column by column and mirror every
entry, so they are slow and obviously right.

:func:`reference_plan` is the plan's own index arrays built one
supernode at a time, two searches per front — the oracle for the
whole-plan position search (``tests/test_multifrontal.py``,
``TestPlanAgainstPerSupernodeBuild``).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import batch_groups
from repro.multifrontal.frontal import RUN_CUT, _permuted_lower
from repro.symbolic.symbolic import SymbolicFactor


def reference_plan(a: CSCMatrix, sf: SymbolicFactor) -> SimpleNamespace:
    """The ``src`` / ``dst`` / ``rel_row`` / ``rel_col`` / ``runs`` /
    ``groups`` of ``AssemblyPlan(a, sf)``, located per supernode: each
    front's entries searched in its own rows, each child's update rows
    in its parent's, with the same containment errors."""
    all_rows, all_cols, origin = _permuted_lower(a, sf.perm)
    bounds = np.searchsorted(all_cols, sf.super_ptr).tolist()
    n_super = sf.n_supernodes
    plan = SimpleNamespace(
        src=[None] * n_super, dst=[None] * n_super, rel_row=[None] * n_super,
        rel_col=[None] * n_super, runs=[None] * n_super, groups=[],
    )
    for s in range(n_super):
        rows = sf.rows[s]
        f_col, l_col = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
        size = rows.size
        lo, hi = bounds[s], bounds[s + 1]
        ridx = all_rows[lo:hi]
        pos = np.searchsorted(rows, ridx)
        if pos.size and (np.any(pos >= size) or np.any(rows[pos] != ridx)):
            raise ValueError(
                f"supernode {s}: matrix entries outside symbolic pattern"
            )
        plan.src[s] = origin[lo:hi]
        plan.dst[s] = pos * size + (all_cols[lo:hi] - f_col)

        p = int(sf.sparent[s])
        if p >= 0 and rows.size > l_col - f_col:
            crows = rows[l_col - f_col:]
            prows = sf.rows[p]
            idx = np.searchsorted(prows, crows)
            if np.any(idx >= prows.size) or np.any(prows[idx] != crows):
                raise ValueError(
                    "extend-add: child rows not contained in parent front"
                )
            if idx.size < RUN_CUT:
                plan.rel_row[s] = idx.reshape(-1, 1)
                plan.rel_col[s] = idx.reshape(1, -1)
            else:
                cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
                plan.runs[s] = [
                    (idx[lo:], lo, hi, int(idx[lo]), int(idx[lo]) + hi - lo)
                    for lo, hi in zip([0] + cuts, cuts + [idx.size])
                ]

    for g in batch_groups(sf):
        src = np.concatenate([plan.src[s] for s in g.sids])
        dst = np.concatenate([
            i * g.size * g.size + plan.dst[s] for i, s in enumerate(g.sids)
        ])
        plan.groups.append(dataclasses.replace(g, src=src, dst=dst))
    return plan


def assemble_front(
    a_lower: CSCMatrix,
    sf: SymbolicFactor,
    s: int,
    child_updates: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Build the frontal matrix of supernode ``s``.

    Parameters
    ----------
    a_lower : CSCMatrix
        Lower triangle of the *permuted* matrix (rows >= column).
    sf : SymbolicFactor
        The symbolic structure.
    s : int
        Supernode id.
    child_updates : list of (rows, U)
        Update matrices of the children: global row indices (sorted) and
        the dense symmetric update block.

    Returns
    -------
    The assembled (k+m) x (k+m) float64 frontal matrix.
    """
    size = sf.rows[s].size
    front = np.zeros((size, size), dtype=np.float64)
    scatter_a_entries(front, a_lower, sf, s)
    # fold in the children
    for crows, cu in child_updates:
        extend_add(front, sf.rows[s], crows, cu)
    return front


def scatter_a_entries(
    front: np.ndarray, a_lower: CSCMatrix, sf: SymbolicFactor, s: int
) -> None:
    """Scatter-add the original entries of supernode ``s``'s columns into
    its (zeroed, full symmetric) ``front``, one column at a time."""
    rows = sf.rows[s]
    f_col, l_col = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
    for j in range(f_col, l_col):
        ridx, vals = a_lower.column(j)
        keep = ridx >= j
        ridx, vals = ridx[keep], vals[keep]
        pos = np.searchsorted(rows, ridx)
        if pos.size:
            if np.any(pos >= rows.size) or np.any(rows[pos] != ridx):
                raise ValueError(
                    f"supernode {s}: matrix entries outside symbolic pattern"
                )
            jj = j - f_col
            front[pos, jj] += vals
            off = ridx != j  # mirror off-diagonal entries only
            front[jj, pos[off]] += vals[off]


def extend_add(
    front: np.ndarray,
    parent_rows: np.ndarray,
    child_rows: np.ndarray,
    child_update: np.ndarray,
) -> None:
    """Scatter-add ``child_update`` into ``front`` (both full symmetric).

    ``child_rows`` must be a subset of ``parent_rows`` — guaranteed by
    the symbolic analysis (and asserted here, because a violation would
    silently corrupt the factorization).
    """
    if child_rows.size == 0:
        return
    idx = np.searchsorted(parent_rows, child_rows)
    if np.any(idx >= parent_rows.size) or np.any(parent_rows[idx] != child_rows):
        raise ValueError("extend-add: child rows not contained in parent front")
    front[np.ix_(idx, idx)] += child_update
