"""The per-column, full-symmetric reference assembly: the oracle.

Nothing under ``src/`` builds a front this way any more —
:class:`repro.multifrontal.frontal.AssemblyPlan` and
``assemble_front_planned`` are the one way into a front, on its lower
triangle only.  These functions are what that path is checked
against, bit for bit on the lower triangle
(``test_planned_assembly_bitwise_matches_legacy``), and are tested in
their own right in ``tests/test_multifrontal.py``.  They read the
permuted lower triangle of the matrix column by column and mirror every
entry, so they are slow and obviously right.
:func:`assemble_front_in_order` builds a front item by item in the
fold's order, the exact bits the planned scatter segments, narrow-run
grids and runs must reproduce (``TestAssemblyOracle``).

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
from repro.multifrontal.frontal import _NARROW_RUN, RUN_CUT, _permuted_lower
from repro.symbolic.symbolic import SymbolicFactor


def reference_plan(a: CSCMatrix, sf: SymbolicFactor) -> SimpleNamespace:
    """The ``src`` / ``dst`` / ``place`` / ``runs`` / ``fold`` /
    ``n_kids`` / ``groups`` of ``AssemblyPlan(a, sf)``, built one
    supernode at a time: each front's entries searched in its own rows,
    each child's update rows in its parent's, with the same containment
    errors, and each front's fold cut into segments by a loop over its
    children."""
    all_rows, all_cols, origin = _permuted_lower(a, sf.perm)
    bounds = np.searchsorted(all_cols, sf.super_ptr).tolist()
    n_super = sf.n_supernodes
    index = np.int32 if sf.n * sf.n <= np.iinfo(np.int32).max else np.int64
    plan = SimpleNamespace(
        src=[None] * n_super, dst=[None] * n_super, place=[None] * n_super,
        runs=[None] * n_super, fold=[[] for _ in range(n_super)],
        n_kids=[len(kids) for kids in sf.schildren()], groups=[],
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
        plan.dst[s] = (pos * size + (all_cols[lo:hi] - f_col)).astype(index)

    # where each child's update rows sit in its parent's front
    idx_of = {}
    for s in range(n_super):
        p = int(sf.sparent[s])
        k = sf.width(s)
        if p >= 0 and sf.rows[s].size > k:
            crows = sf.rows[s][k:]
            prows = sf.rows[p]
            idx = np.searchsorted(prows, crows)
            if np.any(idx >= prows.size) or np.any(prows[idx] != crows):
                raise ValueError(
                    "extend-add: child rows not contained in parent front"
                )
            idx_of[s] = idx

    def square(c, p):
        idx = idx_of[c]
        return (idx[:, None] * sf.rows[p].size + idx[None, :]).ravel().astype(index)

    for p, kids in enumerate(sf.schildren()):
        for i, c in enumerate(kids):
            if idx_of[c].size >= RUN_CUT:
                plan.runs[c] = reference_runs(idx_of[c])
            elif i == 0:
                plan.place[c] = square(c, p)
        # A and the small children after the first, cut where a child
        # is added run by run
        parts, lo = [plan.dst[p]], 1
        for i, c in enumerate(kids[1:], 1):
            if plan.runs[c] is None:
                if parts is None:
                    parts, lo = [], i
                parts.append(square(c, p))
                continue
            if parts is not None:
                plan.fold[p].append((np.concatenate(parts), lo, i))
                parts = None
            plan.fold[p].append(i)
        if parts is not None:
            plan.fold[p].append((np.concatenate(parts), lo, len(kids) or 1))

    for g in batch_groups(sf):
        src = np.concatenate([plan.src[s] for s in g.sids])
        dst = np.concatenate([
            i * g.size * g.size + plan.dst[s] for i, s in enumerate(g.sids)
        ])
        plan.groups.append(dataclasses.replace(g, src=src, dst=dst))
    return plan


def reference_runs(idx: np.ndarray) -> list[tuple]:
    """The ``(rows, lo, hi, cols)`` steps of a child added run by run,
    one column at a time: a column joins the step before it when it
    continues that step's run, or when both are narrow runs."""
    runs = []
    for j in range(idx.size):
        if j and idx[j] == idx[j - 1] + 1:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1])
    steps = []
    for lo, hi in runs:
        narrow = hi - lo < _NARROW_RUN
        if narrow and steps and isinstance(steps[-1][3], np.ndarray):
            start = steps[-1][1]
            steps[-1] = (idx[start:, None], start, hi, idx[start:hi])
        elif narrow:
            steps.append((idx[lo:, None], lo, hi, idx[lo:hi]))
        else:
            steps.append((idx[lo:], lo, hi, slice(int(idx[lo]), int(idx[lo]) + hi - lo)))
    return steps


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


def assemble_front_in_order(
    a_lower: CSCMatrix,
    sf: SymbolicFactor,
    s: int,
    child_updates: list[tuple[int, np.ndarray]],
) -> np.ndarray:
    """The front of supernode ``s`` as its fold defines it, one item at a
    time, each child's place found by its own search: zeros, the first
    child's whole update assigned at its place, A's lower-triangle
    entries added column by column, then every other child's whole update
    added by one open-grid add, in order.  ``child_updates`` carries
    ``(child_sid, U)`` pairs (U float64 or float32, live in its lower
    triangle).  Its lower triangle is the bits — zero signs included —
    every element of a planned front must have: the same adds in the
    same order (a first child's -0.0 stays -0.0 where nothing else
    lands)."""
    rows = sf.rows[s]
    front = np.zeros((rows.size, rows.size))

    def place(c):
        idx = np.searchsorted(rows, sf.rows[c][sf.width(c):])
        return np.ix_(idx, idx)

    for c, cu in child_updates[:1]:
        front[place(c)] = cu
    f_col, l_col = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
    for j in range(f_col, l_col):
        ridx, vals = a_lower.column(j)
        keep = ridx >= j
        front[np.searchsorted(rows, ridx[keep]), j - f_col] += vals[keep]
    for c, cu in child_updates[1:]:
        front[place(c)] += cu
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
