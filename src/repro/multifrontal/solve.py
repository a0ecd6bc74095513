"""Supernodal triangular solves.

Given the factored panels (``[L1; L2]`` per supernode), solve
``L y = b`` by a forward sweep in supernode order and ``L^T x = y`` by
the reverse sweep.  Within a supernode, each ``SUBSTITUTION_BLOCK``-column
diagonal block is one product with its inverse, computed once per factor:
by the panel solve of the numerics walk where it inverted every block,
which leaves them in the factor's buffer (:meth:`SolvePlan.slots`), else
by :meth:`SolvePlan.bind`; the cross-supernode coupling is a dense panel
product gathered/scattered through the front's row list.

The sweeps run off a *solve plan* (:class:`SolvePlan`, one per pattern,
kept on the symbolic factor) and a *sweep table* (:func:`sweep_table`,
one per factor), one step per group the numerics pass computed
(:func:`repro.multifrontal.batched.front_groups`; most are a supernode
alone): one stacked product with its inverses (block by block where its
pivot block is wider than one) and one stacked panel product.  ``x``
comes out bit for bit as from the plain loop over all supernodes
(``tests/test_property_based.py::solve_per_supernode``): the groups go
in order of first member, and a group's members have no descendant at
or after it, so what the plain loop applies to a group's rows before it
reaches them comes from groups stepped before.  Subtracting a product
cannot move freely, though (floating-point subtraction does not commute
bit for bit, and a row collects products from many supernodes), so the
products bound for a group's own rows are subtracted just before its
step — its *run*, one ``np.subtract.at`` in supernode order.

Each group is applied in its panels' dtype: a float32 stack (a device
front, :class:`repro.policies.base.PolicyP4`) has float32 inverses, the
slice of ``y`` it multiplies is rounded to float32 on the way in, and the
float32 product widens as it is subtracted from or written into ``y``,
which stays float64 — the fp32-factor half of Carson & Higham's LU-IR
(:mod:`repro.multifrontal.refine`).  A factor with no float32 panel
sweeps in float64 throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.dense.kernels import SUBSTITUTION_BLOCK, block_inverse
from repro.multifrontal.batched import batch_groups, front_groups

if TYPE_CHECKING:
    from repro.multifrontal.numeric import NumericFactor
    from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "SolvePlan",
    "SweepGroup",
    "SweepTable",
    "get_solve_plan",
    "sweep_table",
    "forward_sweep",
    "backward_sweep",
    "check_rhs",
    "solve_factored",
]


class SweepGroup(NamedTuple):
    """The index half of one group's sweep step."""

    sids: tuple[int, ...]            # the members (the first keys its stack)
    own: np.ndarray                  # (B, k) own columns
    below: np.ndarray | None         # (B, m) rows below the pivots, if m
    span: slice                      # its B * m rows of the product buffer
    #: its run, the stretch of the plan's ``run_rows`` / ``run_at`` bound
    #: for its own rows, or ``None``
    run: slice | None
    inverses_at: tuple[int, int]     # where its full blocks and tails start



class SolvePlan:
    """The index half of the sweeps over the leading ``n_super``
    supernodes of a pattern: everything a solve needs that the values do
    not decide.

    ``groups`` has one :class:`SweepGroup` per group of the prefix
    (:func:`repro.multifrontal.batched.front_groups`), in order of first
    member; their products take ``n_products`` rows of one buffer.
    ``run_rows`` / ``run_at`` list every product as its destination row
    in ``y`` and its row in the buffer, run after run, each run in
    supernode order; ``trailing`` is the run of those bound for rows past
    the prefix, or ``None``.

    ``regions`` lays out the per-factor buffer of diagonal-block
    inverses, ``(size, at, count)`` per block size, ascending.  A group
    of ``B`` members of ``k`` columns has ``B`` times ``k //
    SUBSTITUTION_BLOCK`` full blocks and ``B`` tails of ``k %
    SUBSTITUTION_BLOCK`` columns, member-major, laid out as the panel
    solves take them (:meth:`slots`).  The buffer is float64; the
    inverses of a float32 panel are float32, each block in the first
    half of its float64 place.

    ``n_steps`` counts the Python-level steps one sweep takes: groups
    plus non-empty runs.
    """

    __slots__ = (
        "groups", "run_rows", "run_at", "trailing", "n_products", "regions", "n_steps",
    )

    def __init__(self, sf: SymbolicFactor, n_super: int | None = None):
        if n_super is None:
            n_super = sf.n_supernodes
        groups = front_groups(sf, batch_groups(sf), np.arange(sf.n_supernodes) < n_super)
        nb = SUBSTITUTION_BLOCK
        b, k, m = np.array(
            [(len(g), g.k, g.m) for g in groups], dtype=np.int64
        ).reshape(-1, 3).T
        # the buffer of inverses: (size, blocks) claims of each group's
        # full blocks and of its tails, stably sorted by size, so the
        # blocks of one size sit together
        size = np.column_stack((np.full_like(k, nb), k % nb)).ravel()
        count = np.column_stack((b * (k // nb), b * (k % nb > 0))).ravel()
        order = np.argsort(size, kind="stable")
        floats = (count * size * size)[order]
        at = np.empty_like(floats)
        at[order] = np.cumsum(floats) - floats
        first = np.flatnonzero(np.diff(size[order], prepend=-1))
        self.regions: list[tuple[int, int, int]] = [
            (z, a, n) for z, a, n in zip(
                size[order][first].tolist(), at[order][first].tolist(),
                np.add.reduceat(count[order], first).tolist() if first.size else [],
            ) if n
        ]

        # the members group after group: their own columns and the rows
        # below their pivots (the destinations of their products, one
        # buffer row each), each laid end to end
        members = np.array([s for g in groups for s in g.sids], dtype=np.int64)
        width = np.diff(sf.super_ptr)[members]
        own = np.repeat(sf.super_ptr[members] - (np.cumsum(width) - width), width)
        own += np.arange(own.size)
        front = np.array([r.size for r in sf.rows], dtype=np.int64)
        start = (np.cumsum(front) - front)[members] + width
        height = front[members] - width
        rows = np.repeat(start - (np.cumsum(height) - height), height)
        rows = np.concatenate(sf.rows)[rows + np.arange(rows.size)]
        # the runs: the products bound for each group's own rows (past
        # the prefix: the trailing run), in order of source supernode
        # (stable: a source's rows stay in row order)
        group_of = np.full(sf.n_supernodes, len(groups))
        group_of[members] = np.repeat(np.arange(len(groups)), b)
        super_of = np.repeat(np.arange(sf.n_supernodes), np.diff(sf.super_ptr))
        owner = group_of[super_of[rows]]
        position = np.lexsort((np.repeat(members, np.repeat(m, b)), owner))
        runs: list[slice | None] = [None] * (len(groups) + 1)
        owner, self.run_rows, self.run_at = owner[position], rows[position], position
        lo = np.flatnonzero(np.diff(owner, prepend=-1))
        for i, j, o in zip(lo.tolist(), [*lo[1:].tolist(), owner.size], owner[lo].tolist()):
            runs[o] = slice(i, j)
        self.trailing = runs[-1]
        self.n_products = rows.size
        self.groups: list[SweepGroup] = [
            SweepGroup(
                g.sids, own[o - bb * kk:o].reshape(bb, kk),
                rows[e - bb * mm:e].reshape(bb, mm) if mm else None,
                slice(e - bb * mm, e), run, (full_at, tail_at),
            )
            for g, bb, kk, mm, o, e, run, full_at, tail_at in zip(
                groups, b.tolist(), k.tolist(), m.tolist(), np.cumsum(b * k).tolist(),
                np.cumsum(b * m).tolist(), runs, at[0::2].tolist(), at[1::2].tolist(),
            )
        ]
        self.n_steps = len(groups) + sum(r is not None for r in runs)

    def new_inverses(self) -> np.ndarray:
        """An empty buffer laid out by ``regions``."""
        return np.empty(sum(size * size * n for size, _, n in self.regions))

    def slots(
        self, inverses: np.ndarray, single=frozenset()
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The views of a buffer laid out by ``regions`` that hold each
        group's diagonal-block inverses, by its first member: the pair
        ``(full, tail)`` of a ``(B, k // SUBSTITUTION_BLOCK, b, b)`` and a
        ``(B, k % SUBSTITUTION_BLOCK > 0, t, t)`` array — what the panel
        solves of the group's ``apply`` take to leave their inverses
        there (:func:`repro.dense.kernels.trsm_right_lower`).  The views
        of the groups in ``single`` (by first member), those with float32
        panels, are float32."""
        nb = SUBSTITUTION_BLOCK
        slots = {}
        for g in self.groups:
            b, k = g.own.shape
            f32 = g.sids[0] in single
            full_at, tail_at = g.inverses_at
            slots[g.sids[0]] = (
                _region(inverses, full_at, b, k // nb, nb, f32),
                _region(inverses, tail_at, b, int(k % nb > 0), k % nb, f32),
            )
        return slots

    def bind(
        self, stacks: dict[int, np.ndarray],
        inverses: np.ndarray | None = None, inverted=None, slots=None,
    ) -> SweepTable:
        """The values half for one factor: views of the group stacks
        (``stacks`` maps a group's first member to its ``(B, size, k)``
        panel stack), and the inverse of every diagonal block, in its
        panel's dtype, in one buffer laid out by ``regions``.

        The numerics pass hands over the buffer (``inverses``) its panel
        solves wrote inverses into, ``inverted`` — how many leading
        diagonal blocks of which group (by first member) they inverted —
        and the :meth:`slots` of that buffer it handed its panel solves.
        Every other diagonal block is gathered into its place and
        inverted here: one batched ``np.linalg.inv`` per size and dtype
        when no block of that size came inverted or in the other dtype,
        else one per group."""
        nb = SUBSTITUTION_BLOCK
        inverted = {} if inverted is None else inverted
        if inverses is None:
            inverses = self.new_inverses()
        if slots is None:
            slots = self.slots(inverses, {
                g.sids[0] for g in self.groups if stacks[g.sids[0]].dtype == np.float32
            })
        todo: dict[tuple[int, np.dtype], list[np.ndarray]] = {}
        steps = []
        for g in self.groups:
            stack, (full, tail) = stacks[g.sids[0]], slots[g.sids[0]]
            k = g.own.shape[1]
            # per block, every member's: the full ones, then the tail
            w = [*full.swapaxes(0, 1), *tail.swapaxes(0, 1)]
            done = inverted.get(g.sids[0], 0)
            for j, wj in enumerate(w[done:], done):
                j0, j1 = j * nb, j * nb + wj.shape[-1]
                wj[...] = stack[:, j0:j1, j0:j1]
            for region in (full[:, done:], tail[:, max(done - full.shape[1], 0):]):
                if region.size:
                    todo.setdefault((region.shape[-1], region.dtype), []).append(region)
            l2 = stack[:, k:] if g.below is not None else None
            # one block wide: nothing left of the diagonal block
            steps.append((None, l2, w[0]) if k <= nb else (
                stack[:, :k], l2,
                [(j * nb, j * nb + wj.shape[-1], wj) for j, wj in enumerate(w)],
            ))

        regions = {size: (at, n) for size, at, n in self.regions}
        for (size, dtype), views in todo.items():
            at, n = regions[size]
            if sum(v.shape[0] * v.shape[1] for v in views) == n:
                views = [_region(inverses, at, 1, n, size, dtype == np.float32)]
            for w in views:
                block_inverse(w, out=w)
        return SweepTable(self, steps, inverses)


def _region(
    inverses: np.ndarray, at: int, members: int, blocks: int, size: int,
    single: bool = False,
) -> np.ndarray:
    """``members * blocks`` inverses of ``size`` columns from float ``at``
    on, as a ``(members, blocks, size, size)`` array; with ``single``,
    float32 ones, each in the first half of its place."""
    region = inverses[at:at + members * blocks * size * size]
    if single:
        region = region.reshape(members * blocks, size * size).view(np.float32)[:, :size * size]
    return region.reshape(members, blocks, size, size)


class SweepTable(NamedTuple):
    """A :class:`SolvePlan` bound to one factor: views of its panel
    stacks, and the inverses of their diagonal blocks, in each panel's
    dtype, in a buffer of its own — which does not follow in-place edits
    of a panel: whoever edits one resets ``factor.sweep`` to ``None``."""

    plan: SolvePlan
    #: per group of the plan: ``(L1, L2, W)`` — ``L2`` the ``(B, m, k)``
    #: stack below the pivots or ``None``; ``L1`` ``None`` and ``W`` the
    #: ``(B, k, k)`` inverses where ``k`` is one block wide, else ``L1``
    #: the ``(B, k, k)`` pivot stack and ``W`` one ``(j0, j1, W_j)`` per
    #: block, ``W_j`` ``(B, j1 - j0, j1 - j0)``
    steps: list[tuple]
    #: every inverse, laid out by ``plan.regions``
    inverses: np.ndarray


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
        factor.sweep = get_solve_plan(factor.sf).bind(factor.stacks)
    return factor.sweep


def forward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L y' = y`` in place over the supernodes of ``table``; the rows
    below them are left holding ``y_2 - L_21 y'_1``.

    One step per group, in order: its run of products, then its diagonal
    products and its panel product, each one stacked call on the ``(B,
    k, nrhs)`` gather of its own rows (one column where ``y`` is a
    vector: a 1-D gather is the fast one)."""
    plan, steps, _ = table
    one = y.ndim == 1
    if not (one or y.flags.c_contiguous):
        raise ValueError("a block of right-hand sides must be C-contiguous")
    nrhs = 1 if one else y.shape[1]
    products = np.empty((plan.n_products, nrhs))
    # the runs subtract one element after the other from ``y`` as its flat
    # vector (so a row named twice takes both, in order), and gather from
    # the buffer as its flat vector: the fast 1-D loops, each row's nrhs
    # elements in turn
    to, at = plan.run_rows, plan.run_at
    if nrhs > 1:
        to, at = ((i[:, None] * nrhs + np.arange(nrhs)).ravel() for i in (to, at))
    flat_y, flat_products = y.reshape(-1), products.reshape(-1)

    def subtract(run: slice) -> None:
        lo, hi = run.start * nrhs, run.stop * nrhs
        np.subtract.at(flat_y, to[lo:hi], flat_products[at[lo:hi]])

    for g, (l1, l2, w) in zip(plan.groups, steps):
        if g.run is not None:
            subtract(g.run)
        yk = y[g.own][..., None] if one else y[g.own]
        if l1 is None:
            yk = w @ yk.astype(w.dtype, copy=False)
        else:  # block by block
            for j0, j1, wj in w:
                if j0:
                    yk[:, j0:j1] -= l1[:, j0:j1, :j0] @ yk[:, :j0].astype(wj.dtype, copy=False)
                yk[:, j0:j1] = wj @ yk[:, j0:j1].astype(wj.dtype, copy=False)
        y[g.own] = (yk[..., 0] if one else yk).astype(y.dtype, copy=False)
        if l2 is not None:
            products[g.span] = (l2 @ yk.astype(l2.dtype, copy=False)).reshape(-1, nrhs)
    if plan.trailing is not None:
        subtract(plan.trailing)


def backward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L^T x = y'`` in place over the supernodes of ``table``, reading
    the rows below them as already solved: one step per group, in
    reverse — its gathered panel product, then its diagonal products."""
    plan, steps, _ = table
    one = y.ndim == 1
    for g, (l1, l2, w) in zip(reversed(plan.groups), reversed(steps)):
        yk = y[g.own][..., None] if one else y[g.own]
        if l2 is not None:
            below = y[g.below][..., None] if one else y[g.below]
            yk -= (l2.mT @ below.astype(l2.dtype, copy=False)).astype(y.dtype, copy=False)
        if l1 is None:
            yk = w.mT @ yk.astype(w.dtype, copy=False)
        else:  # last block first
            k = yk.shape[1]
            for j0, j1, wj in reversed(w):
                if j1 < k:
                    yk[:, j0:j1] -= l1[:, j1:, j0:j1].mT @ yk[:, j1:].astype(wj.dtype, copy=False)
                yk[:, j0:j1] = wj.mT @ yk[:, j0:j1].astype(wj.dtype, copy=False)
        y[g.own] = (yk[..., 0] if one else yk).astype(y.dtype, copy=False)


def check_rhs(b: np.ndarray, n: int) -> np.ndarray:
    """``b`` as the float64 ``(n,)`` or ``(n, nrhs)`` right-hand side the
    sweeps take; ``ValueError`` on a dtype that is not real, checked before
    the cast (a complex ``b`` would be solved for its real part), on any other
    shape or on a non-finite entry (a NaN would come back as an all-NaN ``x``)."""
    b = np.asarray(b)
    if b.dtype.kind not in "biuf":
        raise ValueError(f"rhs must be real (bool, integer or float), got {b.dtype}")
    b = b.astype(np.float64, copy=False)
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
    same coefficient matrix", and the blocked sweeps handle the
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
