"""Supernodal triangular solves.

Given the factored panels (``[L1; L2]`` per supernode), solve
``L y = b`` by a forward sweep in supernode order and ``L^T x = y`` by
the reverse sweep.  Within a supernode, each ``SUBSTITUTION_BLOCK``-column
diagonal block is one product with its inverse, computed once per factor:
by the panel solve of the numerics walk where it inverted every block,
which leaves them in the factor's buffer (:meth:`SolvePlan.slots`), else
by :meth:`SolvePlan.bind`; the cross-supernode coupling is a dense panel
gemv gathered/scattered through the front's row list.

Each supernode, or stacked group, is applied in its panel's dtype: a
float32 panel (a device front, :class:`repro.policies.base.PolicyP4`)
has float32 inverses, the slice of ``y`` it multiplies is rounded to
float32 on the way in, and the float32 product widens as it is
subtracted from or written into ``y``, which stays float64 — the
fp32-factor half of Carson & Higham's LU-IR
(:mod:`repro.multifrontal.refine`).  A factor with no float32 panel
sweeps in float64 throughout.

Most supernodes are small childless leaves that share a handful of front
shapes (:func:`repro.multifrontal.batched.batch_groups`), and a Python
step each is what they cost.  So the sweeps run off a *solve plan*
(:class:`SolvePlan`, one per pattern, kept on the symbolic factor) and a
*sweep table* (:func:`sweep_table`, one per factor): every group of
leaves is one stacked product with its inverses and one stacked panel
product, the remaining *interior* supernodes are walked one by one, and
``x`` comes out bit for bit as from the plain loop over all supernodes
(``tests/test_property_based.py::solve_per_supernode``):

* a leaf has no children, so nobody updates its own block of ``y``
  before the forward sweep reaches it, and in the backward sweep it
  writes nothing anybody else reads: its diagonal products can run first
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

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.dense.kernels import SUBSTITUTION_BLOCK, block_inverse
from repro.multifrontal.batched import BatchGroup, batch_groups

if TYPE_CHECKING:
    from repro.multifrontal.numeric import NumericFactor
    from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "SolvePlan",
    "SweepTable",
    "get_solve_plan",
    "sweep_table",
    "forward_sweep",
    "backward_sweep",
    "check_rhs",
    "solve_factored",
]


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
    the prefix, ascending, as ``(sid, first, end, below, full_at,
    tail_at)``.  ``runs`` has one slot per interior supernode plus one:
    slot ``j`` holds the ``(rows, positions)`` of the products of the
    stacked leaves numbered between interior supernodes ``j - 1`` and
    ``j`` — destination row in ``y`` and row in the product buffer, leaf
    after leaf — or ``None`` where there are none; the last slot is for
    leaves past the last interior supernode (their rows lie outside the
    prefix).

    ``regions`` lays out the per-factor buffer of diagonal-block
    inverses, ``(size, at, count)`` per block size, ascending.  Group
    ``i``'s leaves start at float ``group_at[i]``; an interior supernode
    of ``k`` columns has ``k // SUBSTITUTION_BLOCK`` full blocks at
    ``full_at`` and a tail of ``k % SUBSTITUTION_BLOCK`` columns at
    ``tail_at``.  The buffer is float64; the inverses of a float32 panel
    are float32, each block in the first half of its float64 place.

    ``n_stacked`` counts the stacked leaves, ``n_steps`` the Python-level
    steps one sweep takes outside the per-group calls: interior
    supernodes plus non-empty runs.
    """

    __slots__ = (
        "groups", "own", "below", "spans", "n_products", "interior", "runs",
        "regions", "group_at", "n_stacked", "n_steps",
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
        # the buffer of inverses: (size, blocks) claims of each group's
        # leaves, of each interior supernode's full blocks and of its tail,
        # stably sorted by size, so the blocks of one size sit together
        nb, n_groups = SUBSTITUTION_BLOCK, len(self.groups)
        widths = np.diff(sf.super_ptr)[interior]
        size = np.concatenate(([g.k for g in self.groups], np.full(widths.size, nb), widths % nb))
        count = np.concatenate(([len(g) for g in self.groups], widths // nb, widths % nb > 0))
        size, count = size.astype(np.int64), count.astype(np.int64)
        order = np.argsort(size, kind="stable")
        floats = (count * size * size)[order]
        at = np.empty_like(floats)
        at[order] = np.cumsum(floats) - floats
        self.regions: list[tuple[int, int, int]] = [
            (z, int(at[size == z].min()), int(count[size == z].sum()))
            for z in np.unique(size[count > 0]).tolist()
        ]
        self.group_at = at[:n_groups].tolist()
        self.interior: list[tuple] = [
            (s, ptr[s], ptr[s] + k, sf.rows[s][k:] if sf.rows[s].size > k else None, f, t)
            for s, k, f, t in zip(interior.tolist(), widths.tolist(), at[n_groups:].tolist(),
                                  at[n_groups + widths.size:].tolist())
        ]

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

    def new_inverses(self) -> np.ndarray:
        """An empty buffer laid out by ``regions``."""
        return np.empty(sum(size * size * n for size, _, n in self.regions))

    def slots(
        self, inverses: np.ndarray, single=frozenset()
    ) -> dict[int, "np.ndarray | tuple"]:
        """The views of a buffer laid out by ``regions`` that hold each
        supernode's diagonal-block inverses: per group, by its first
        member, a ``(B, k, k)`` array; per interior supernode the pair
        ``(full, tail)`` of a ``(k // SUBSTITUTION_BLOCK, b, b)`` and a
        ``(k % SUBSTITUTION_BLOCK > 0, t, t)`` array — what the panel
        solves take to leave their inverses there
        (:func:`repro.dense.kernels.trsm_right_lower`).  The views of the
        supernodes in ``single`` (a group by its first member), those
        with float32 panels, are float32."""
        nb = SUBSTITUTION_BLOCK
        slots: dict[int, np.ndarray | tuple] = {
            g.sids[0]: _region(inverses, at, len(g), g.k, g.sids[0] in single)
            for g, at in zip(self.groups, self.group_at)
        }
        for s, first, end, _, full_at, tail_at in self.interior:
            k, f32 = end - first, s in single
            slots[s] = (_region(inverses, full_at, k // nb, nb, f32),
                        _region(inverses, tail_at, int(k % nb > 0), k % nb, f32))
        return slots

    def bind(
        self, panels, stacks: dict[int, np.ndarray],
        inverses: np.ndarray | None = None, inverted=None, slots=None,
    ) -> SweepTable:
        """The values half for one factor: views of the group stacks
        (``stacks`` maps a group's first member to its ``(B, size, k)``
        array) and of the interior panels (``panels`` is indexed by
        supernode id), and the inverse of every diagonal block, in its
        panel's dtype, in one buffer laid out by ``regions``.

        The numerics pass hands over the buffer (``inverses``) its panel
        solves wrote inverses into, ``inverted`` — how many leading
        diagonal blocks of which supernode they inverted (a group by its
        first member: all of its one block each) — and the :meth:`slots`
        of that buffer it handed its panel solves.  Every other diagonal
        block is gathered into its place and inverted here: one batched
        ``np.linalg.inv`` per size and dtype when no block of that size
        came inverted or in the other dtype, else one per supernode."""
        nb = SUBSTITUTION_BLOCK
        inverted = {} if inverted is None else inverted
        if inverses is None:
            inverses = self.new_inverses()
        if slots is None:
            slots = self.slots(inverses, {
                s for s, panel in chain(
                    ((g.sids[0], stacks[g.sids[0]]) for g in self.groups),
                    ((s, panels[s]) for s, *_ in self.interior),
                ) if panel.dtype == np.float32
            })
        todo: dict[tuple[int, np.dtype], list[np.ndarray]] = {}

        blocks = []
        for g in self.groups:
            stack, w = stacks[g.sids[0]], slots[g.sids[0]]
            if g.sids[0] not in inverted:
                w[...] = stack[:, :g.k]
                todo.setdefault((g.k, w.dtype), []).append(w)
            blocks.append((w, stack[:, g.k:] if g.m else None))
        steps = []
        for s, first, end, below, _, _ in self.interior:
            k = end - first
            l1, l2 = panels[s][:k], None if below is None else panels[s][k:]
            w = slots[s]
            # the blocks from ``done`` on: the full ones, then the tail
            done = inverted.get(s, 0)
            for j, wj in enumerate(list(chain(*w))[done:], done):
                wj[...] = l1[j * nb:(j + 1) * nb, j * nb:(j + 1) * nb]
            for region in (w[0][done:], w[1][max(done - len(w[0]), 0):]):
                if len(region):
                    todo.setdefault((region.shape[-1], region.dtype), []).append(region)
            # one block wide: nothing left of the diagonal block
            steps.append((first, end, None, l2, below, next(chain(*w))) if k <= nb
                         else (first, end, l1, l2, below, w))

        regions = {size: (at, n) for size, at, n in self.regions}
        for (size, dtype), views in todo.items():
            at, n = regions[size]
            if sum(map(len, views)) == n:
                views = [_region(inverses, at, n, size, dtype == np.float32)]
            for w in views:
                block_inverse(w, out=w)
        return SweepTable(self, blocks, steps, inverses)


def _region(
    inverses: np.ndarray, at: int, blocks: int, size: int, single: bool = False
) -> np.ndarray:
    """``blocks`` inverses of ``size`` columns from float ``at`` on; with
    ``single``, float32 ones, each in the first half of its place."""
    region = inverses[at:at + blocks * size * size]
    if single:
        region = region.reshape(blocks, size * size).view(np.float32)[:, :size * size]
    return region.reshape(blocks, size, size)


class SweepTable(NamedTuple):
    """A :class:`SolvePlan` bound to one factor: views of its panels, and
    the inverses of their diagonal blocks, in each panel's dtype, in a
    buffer of its own — which does not follow in-place edits of a panel:
    whoever edits one resets ``factor.sweep`` to ``None``."""

    plan: SolvePlan
    #: per group of the plan: ``(W (B, k, k), L2 (B, m, k) or None)``
    blocks: list[tuple[np.ndarray, np.ndarray | None]]
    #: per interior supernode: ``(first, end, L1, L2, below, W)``, with
    #: ``L1`` None and ``W`` ``(k, k)`` if it is one block, else ``(full, tail)``
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
        factor.sweep = get_solve_plan(factor.sf).bind(factor.panels, factor.stacks)
    return factor.sweep


def forward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L y' = y`` in place over the supernodes of ``table``; the rows
    below them are left holding ``y_2 - L_21 y'_1``.

    The stacked leaves go first — diagonal and panel product, one
    stacked call each per group — then the interior supernodes in order,
    each preceded by the products of the leaves numbered just before it.
    """
    plan, blocks, steps, _ = table
    cols = y if y.ndim == 2 else y[:, None]
    products = np.empty((plan.n_products, cols.shape[1]))
    for (w, l2), own, (lo, hi) in zip(blocks, plan.own, plan.spans):
        yk = w @ cols[own].astype(w.dtype, copy=False)
        cols[own] = yk
        if l2 is not None:
            np.matmul(l2, yk, out=products[lo:hi].reshape(l2.shape[:2] + (-1,)))
    if y.ndim == 1:
        products = products[:, 0]
    runs = plan.runs
    for (first, end, l1, l2, below, w), run in zip(steps, runs):
        if run is not None:
            np.subtract.at(y, run[0], products[run[1]])
        dt = (w if l1 is None else w[0]).dtype       # the panel's
        if l1 is None:
            y[first:end] = w @ y[first:end].astype(dt, copy=False)
        else:  # block by block (an empty product left of the first)
            yj = y[first:end]
            for j0, wj in zip(range(0, end - first, SUBSTITUTION_BLOCK), chain(*w)):
                j1 = j0 + len(wj)
                yj[j0:j1] -= l1[j0:j1, :j0] @ yj[:j0].astype(dt, copy=False)
                yj[j0:j1] = wj @ yj[j0:j1].astype(dt, copy=False)
        if l2 is not None:
            y[below] -= l2 @ y[first:end].astype(dt, copy=False)
    if runs[-1] is not None:
        np.subtract.at(y, runs[-1][0], products[runs[-1][1]])


def backward_sweep(table: SweepTable, y: np.ndarray) -> None:
    """``L^T x = y'`` in place over the supernodes of ``table``, reading
    the rows below them as already solved: the interior supernodes in
    reverse, then every group of leaves as one stacked gather and
    product (a leaf reads finished ancestor rows only)."""
    plan, blocks, steps, _ = table
    for first, end, l1, l2, below, w in reversed(steps):
        dt = (w if l1 is None else w[0]).dtype       # the panel's
        if l2 is not None:
            y[first:end] -= l2.T @ y[below].astype(dt, copy=False)
        if l1 is None:
            y[first:end] = w.T @ y[first:end].astype(dt, copy=False)
        else:  # last block first (an empty product below the last)
            yj = y[first:end]
            pairs = zip(range(0, end - first, SUBSTITUTION_BLOCK), chain(*w))
            for j0, wj in reversed(list(pairs)):
                j1 = j0 + len(wj)
                yj[j0:j1] -= l1[j1:, j0:j1].T @ yj[j1:].astype(dt, copy=False)
                yj[j0:j1] = wj.T @ yj[j0:j1].astype(dt, copy=False)
    cols = y if y.ndim == 2 else y[:, None]
    for (w, l2), own, below in zip(blocks, plan.own, plan.below):
        yk = cols[own]
        if l2 is not None:
            yk -= l2.transpose(0, 2, 1) @ cols[below].astype(w.dtype, copy=False)
        cols[own] = w.transpose(0, 2, 1) @ yk.astype(w.dtype, copy=False)


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
