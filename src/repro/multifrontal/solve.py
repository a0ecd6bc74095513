"""Supernodal triangular solves.

Given the factored panels (``[L1; L2]`` per supernode), solve
``L y = b`` by a forward sweep in supernode order and ``L^T x = y`` by
the reverse sweep.  Within a supernode the k x k unit work is a blocked
substitution (:func:`trsv_lower`); the cross-supernode coupling is a
dense panel gemv gathered/scattered through the front's row list.

Most supernodes are small childless leaves that share a handful of front
shapes (:func:`repro.multifrontal.batched.batch_groups`), and a Python
step each is what they cost.  So the sweeps run off a *solve plan*
(:class:`SolvePlan`, one per pattern, kept on the symbolic factor) and a
*sweep table* (:func:`sweep_table`, views of one factor's panels): every
group of leaves is one stacked substitution and one stacked panel
product, the remaining *interior* supernodes are walked one by one, and
``x`` comes out bit for bit as from the plain loop over all supernodes
(``tests/test_property_based.py::solve_per_supernode``):

* a leaf has no children, so nobody updates its own block of ``y``
  before the forward sweep reaches it, and in the backward sweep it
  writes nothing anybody else reads: its substitutions can run first
  (forward) or last (backward), stacked, slice for slice the same
  arithmetic;
* its forward product ``L2 y_k`` can be formed early too, but *applying*
  it cannot move: floating-point subtraction does not commute bit for
  bit, and an ancestor row collects updates from leaves and interior
  supernodes alike.  The products are therefore subtracted where the
  plain loop would — one ``np.subtract.at`` per *run* of consecutive
  leaves between two interior supernodes, which applies them one by one
  in supernode order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.dense.kernels import SUBSTITUTION_BLOCK
from repro.multifrontal.batched import BatchGroup, batch_groups

if TYPE_CHECKING:
    from repro.multifrontal.numeric import NumericFactor
    from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "trsv_lower",
    "trsv_lower_t",
    "SolvePlan",
    "SweepTable",
    "get_solve_plan",
    "sweep_table",
    "forward_sweep",
    "backward_sweep",
    "check_rhs",
    "solve_factored",
]


def trsv_lower(
    l: np.ndarray, b: np.ndarray, *, block: int = SUBSTITUTION_BLOCK
) -> np.ndarray:
    """Solve ``L y = b`` with L dense lower triangular (blocked forward
    substitution; O(k^2) with matrix-vector inner steps)."""
    k = l.shape[0]
    y = b.astype(np.float64, copy=True)
    for j0 in range(0, k, block):
        j1 = min(j0 + block, k)
        if j0:
            y[j0:j1] -= l[j0:j1, :j0] @ y[:j0]
        for j in range(j0, j1):
            if j > j0:
                y[j] -= l[j, j0:j] @ y[j0:j]
            y[j] /= l[j, j]
    return y


def trsv_lower_t(
    l: np.ndarray, b: np.ndarray, *, block: int = SUBSTITUTION_BLOCK
) -> np.ndarray:
    """Solve ``L^T x = b`` (blocked backward substitution)."""
    k = l.shape[0]
    x = b.astype(np.float64, copy=True)
    blocks = list(range(0, k, block))
    for j0 in reversed(blocks):
        j1 = min(j0 + block, k)
        if j1 < k:
            x[j0:j1] -= l[j1:, j0:j1].T @ x[j1:]
        for j in range(j1 - 1, j0 - 1, -1):
            if j + 1 < j1:
                x[j] -= l[j + 1:j1, j] @ x[j + 1:j1]
            x[j] /= l[j, j]
    return x


def _stacked_trsv_lower(l: np.ndarray, y: np.ndarray) -> None:
    """:func:`trsv_lower` on every slice of ``l`` ``(B, k, k)`` and ``y``
    ``(B, k, nrhs)`` at once, in place: the same dot / gemv per slice,
    issued as one stacked ``matmul`` per column."""
    for j in range(l.shape[1]):
        if j:
            y[:, j] -= (l[:, j:j + 1, :j] @ y[:, :j])[:, 0]
        y[:, j] /= l[:, j, j, None]


def _stacked_trsv_lower_t(l: np.ndarray, x: np.ndarray) -> None:
    """:func:`trsv_lower_t` on every slice at once, in place."""
    k = l.shape[1]
    for j in range(k - 1, -1, -1):
        if j + 1 < k:
            x[:, j] -= (l[:, j + 1:, j][:, None, :] @ x[:, j + 1:])[:, 0]
        x[:, j] /= l[:, j, j, None]


class SolvePlan:
    """The index half of the sweeps over the leading ``n_super``
    supernodes of a pattern: everything a solve needs that the values do
    not decide.

    ``groups`` are the stacked leaf groups lying wholly inside the
    prefix, ``own[i]`` / ``below[i]`` the ``(B, k)`` own-column and
    ``(B, m)`` below-row indices of group ``i`` (``below[i]`` is ``None``
    for fronts with nothing below their pivots), and ``spans[i]`` the
    rows its ``B * m`` forward products take in one buffer of
    ``n_products`` rows.  ``interior`` lists every other supernode of
    the prefix, ascending, as ``(sid, first, end, below)``.  ``runs`` has
    one slot per interior supernode plus one: slot ``j`` holds the
    ``(rows, positions)`` of the products of the stacked leaves numbered
    between interior supernodes ``j - 1`` and ``j`` — destination row in
    ``y`` and row in the product buffer, leaf after leaf — or ``None``
    where there are none; the last slot is for leaves past the last
    interior supernode (their rows lie outside the prefix).

    ``n_stacked`` counts the stacked leaves, ``n_steps`` the Python-level
    steps one sweep takes outside the per-group calls: interior
    supernodes plus non-empty runs.
    """

    __slots__ = (
        "groups", "own", "below", "spans", "n_products", "interior", "runs",
        "n_stacked", "n_steps",
    )

    def __init__(self, sf: SymbolicFactor, n_super: int | None = None):
        if n_super is None:
            n_super = sf.n_supernodes
        self.groups: list[BatchGroup] = [
            g for g in batch_groups(sf) if g.sids[-1] < n_super
        ]
        self.own: list[np.ndarray] = []
        self.below: list[np.ndarray | None] = []
        self.spans: list[tuple[int, int]] = []
        is_interior = np.ones(n_super, dtype=bool)
        leaf_of_product, end = [], 0
        for g in self.groups:
            idx = np.concatenate([sf.rows[s] for s in g.sids]).reshape(len(g), g.size)
            self.own.append(np.ascontiguousarray(idx[:, :g.k]))
            self.below.append(np.ascontiguousarray(idx[:, g.k:]) if g.m else None)
            self.spans.append((end, end + len(g) * g.m))
            end += len(g) * g.m
            is_interior[list(g.sids)] = False
            if g.m:
                leaf_of_product.append(np.repeat(g.sids, g.m))
        self.n_products = end

        interior = np.flatnonzero(is_interior)
        ptr = sf.super_ptr.tolist()
        self.interior: list[tuple] = []
        for s in interior.tolist():
            first, last = ptr[s], ptr[s + 1]
            rows = sf.rows[s]
            k = last - first
            self.interior.append((s, first, last, rows[k:] if rows.size > k else None))

        # product rows sorted by leaf (stable: a leaf's rows stay in row
        # order), cut where an interior supernode comes between two leaves
        self.runs: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (
            interior.size + 1
        )
        if end:
            leaf = np.concatenate(leaf_of_product)
            position = np.argsort(leaf, kind="stable")
            rows = np.concatenate(
                [b.ravel() for b in self.below if b is not None]
            )[position]
            slot = np.searchsorted(interior, leaf[position])
            cuts = (np.flatnonzero(np.diff(slot)) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [end]):
                self.runs[slot[lo]] = (rows[lo:hi], position[lo:hi])
        self.n_stacked = n_super - interior.size
        self.n_steps = interior.size + sum(r is not None for r in self.runs)

    def bind(self, panels, stacks: dict[int, np.ndarray]) -> SweepTable:
        """The values half for one factor: ``L1`` / ``L2`` of every group
        as views of its ``(B, size, k)`` stack (``stacks`` maps a group's
        first member to it) and of every interior supernode as views of
        its panel (``panels`` is indexed by supernode id)."""
        blocks = []
        for g in self.groups:
            stack = stacks[g.sids[0]]
            blocks.append((stack[:, :g.k], stack[:, g.k:] if g.m else None))
        steps = []
        for s, first, end, below in self.interior:
            panel = panels[s]
            k = end - first
            steps.append((
                first, end, panel[:k], None if below is None else panel[k:], below,
            ))
        return SweepTable(self, blocks, steps)


class SweepTable(NamedTuple):
    """A :class:`SolvePlan` bound to the panels of one factor.  Views
    and integers only — no array data of its own — and it follows
    in-place edits of the panels it was bound to."""

    plan: SolvePlan
    #: per group of the plan: ``(L1 (B, k, k), L2 (B, m, k) or None)``
    blocks: list[tuple[np.ndarray, np.ndarray | None]]
    #: per interior supernode: ``(first, end, L1, L2, below)``
    steps: list[tuple]


def get_solve_plan(sf: SymbolicFactor) -> SolvePlan:
    """The :class:`SolvePlan` of all of ``sf``, built by the first solve
    on the pattern and kept on the symbolic factor beside its assembly
    plan."""
    plan = getattr(sf, "_solve_plan", None)
    if plan is None:
        plan = sf._solve_plan = SolvePlan(sf)  # type: ignore[attr-defined]
    return plan


def sweep_table(factor: NumericFactor) -> SweepTable:
    """The :class:`SweepTable` of ``factor``, built on first use and kept
    on it for its lifetime."""
    if factor.sweep is None:
        factor.sweep = get_solve_plan(factor.sf).bind(factor.panels, factor.stacks)
    return factor.sweep


def forward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L y' = y`` in place over the supernodes of ``table``; the rows
    below them are left holding ``y_2 - L_21 y'_1``.

    The stacked leaves go first — substitution and panel product, one
    stacked call each per group — then the interior supernodes in order,
    each preceded by the products of the leaves numbered just before it.
    A one-column supernode is one division by its pivot, exactly what the
    substitution would do to it.
    """
    plan, blocks, steps = table
    cols = y if y.ndim == 2 else y[:, None]
    products = np.empty((plan.n_products, cols.shape[1]))
    for (l1, l2), own, (lo, hi) in zip(blocks, plan.own, plan.spans):
        yk = cols[own]
        _stacked_trsv_lower(l1, yk)
        cols[own] = yk
        if l2 is not None:
            np.matmul(l2, yk, out=products[lo:hi].reshape(l2.shape[:2] + (-1,)))
    if y.ndim == 1:
        products = products[:, 0]
    runs = plan.runs
    for (first, end, l1, l2, below), run in zip(steps, runs):
        if run is not None:
            np.subtract.at(y, run[0], products[run[1]])
        if end - first == 1:
            y[first] /= l1[0, 0]
        else:
            y[first:end] = trsv_lower(l1, y[first:end])
        if l2 is not None:
            y[below] -= l2 @ y[first:end]
    if runs[-1] is not None:
        np.subtract.at(y, runs[-1][0], products[runs[-1][1]])


def backward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L^T x = y'`` in place over the supernodes of ``table``, reading
    the rows below them as already solved: the interior supernodes in
    reverse, then every group of leaves as one stacked gather and
    substitution (a leaf reads finished ancestor rows only)."""
    plan, blocks, steps = table
    for first, end, l1, l2, below in reversed(steps):
        if l2 is not None:
            y[first:end] -= l2.T @ y[below]
        if end - first == 1:
            y[first] /= l1[0, 0]
        else:
            y[first:end] = trsv_lower_t(l1, y[first:end])
    cols = y if y.ndim == 2 else y[:, None]
    for (l1, l2), own, below in zip(blocks, plan.own, plan.below):
        yk = cols[own]
        if l2 is not None:
            yk -= l2.transpose(0, 2, 1) @ cols[below]
        _stacked_trsv_lower_t(l1, yk)
        cols[own] = yk


def check_rhs(b: np.ndarray, n: int) -> np.ndarray:
    """``b`` as the float64 ``(n,)`` or ``(n, nrhs)`` right-hand side the
    sweeps take; ``ValueError`` on any other shape or a non-finite
    entry (a NaN would come back as an all-NaN ``x``, silently)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs must have shape ({n},) or ({n}, nrhs), got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("rhs holds a non-finite value (NaN or infinity)")
    return b


def solve_factored(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` using the computed factorization of ``P A P^T``.

    Applies the permutation, runs the supernodal forward and backward
    sweeps, and permutes back.  ``b`` may be a single right-hand side of
    shape ``(n,)`` or a block of shape ``(n, nrhs)`` — the paper's
    motivation for direct methods is precisely "the potential for
    reusing the factorization when solving multiple systems with the
    same coefficient matrix", and the blocked substitutions handle the
    multi-RHS case with matrix-matrix work.  A one-column block is the
    single right-hand side it holds: same sweeps, same answer.
    """
    sf = factor.sf
    b = check_rhs(b, sf.n)
    if b.ndim == 2 and b.shape[1] == 1:
        return solve_factored(factor, b[:, 0])[:, None]
    table = sweep_table(factor)
    y = b[sf.perm].copy()          # y = P b
    forward_sweep(table, y)        # L y' = y
    backward_sweep(table, y)       # L^T x = y'

    x = np.empty_like(y)
    x[sf.perm] = y                  # x = P^T y
    return x
