"""Frontal matrix assembly and the extend-add operation.

For supernode ``s`` with row structure ``rows`` (its own ``k`` columns
followed by ``m`` below-diagonal rows), the frontal matrix F is the
``(k+m) x (k+m)`` dense matrix holding

* the original entries ``A[i, j]`` for the supernode's columns (first
  ``k`` columns of F), and
* the accumulated update matrices of all children, scattered through the
  *extend-add* operation: child row indices are located in the parent's
  row list (both sorted, so one ``searchsorted``) and the child's U is
  added at the intersection.

The assembly folds, in this order, the first child's update (assigned
onto the zero-filled front), A's entries and the other children's
updates.  A and every child below :data:`RUN_CUT` rows are *scatter
items*: each maximal stretch of consecutive scatter items past the first
child is one *segment*, one ``np.add.at`` over a flat index the plan
precomputes; a larger child is added run by run.  Every element gets
the same adds in the same order whatever form carries them.

A front, and the update block it hands to its parent, is *live in its
lower triangle only*: ``potrf`` / ``trsm`` / ``syrk`` never read above
the diagonal, so :class:`AssemblyPlan` and :func:`assemble_front_planned`
— the one way into a front — scatter the lower triangle of A and
extend-add the lower trapezoid of each child; what sits above the
diagonal of such a front is unspecified: a large front is zero-filled
below its diagonal only, and the rank-k update of a large front writes
its lower triangle only (:func:`repro.dense.kernels.syrk`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import BatchGroup, batch_groups
from repro.ordering import invert_permutation
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "RUN_CUT",
    "AssemblyPlan",
    "assemble_front_planned",
    "assemble_group",
    "get_assembly_plan",
    "assembly_bytes",
]


#: a child whose update block has at least this many rows is extend-added
#: run by run, a smaller one as part of a scatter segment (see
#: :class:`AssemblyPlan`).  Chosen from the cost of extend-adding all
#: children of a size class of ``lmco_s``/nd once, warm buffers, one BLAS
#: thread, median of 21 rounds, ms: one ``np.add.at`` of the child's whole
#: square over its int32 flat index (the plan keeps that index, ``MB``),
#: run by run, and run by run with each stretch of runs narrower than
#: ``_NARROW_RUN`` as one open grid:
#:
#:     update rows  children  runs/child    MB   scatter   runs  runs, <8 merged
#:     < 20          1 611       4.2       1.89    9.31    53.33     21.80
#:     20-39            51       5.8       0.22    0.45     2.56      1.40
#:     40-63           117       7.1       1.19    1.68     7.09      4.97
#:     64-79            29       7.8       0.59    0.68     2.09      1.70
#:     80-159          100       9.5       5.22    6.09    11.64     10.46
#:     160-319          48      12.0       8.60   10.38    12.59     11.83
#:     >= 320           26      11.8      28.11   33.32    24.23     23.52
#:
#: the scatter wins up to 320 rows, but its index grows as m^2: from 64
#: rows up it would hold 14.4 MB more for about 7 ms, so the larger
#: children keep their runs (203 of them, 93 % of the extend-add
#: elements) and the plan's index stays near the run form's size.
RUN_CUT = 64
#: a column run of a child from ``RUN_CUT`` up narrower than this is
#: added with its neighbouring narrow runs as one open grid (:func:`_runs`).
#: Every extend-add of those children of one warm ``lmco_s``/nd walk,
#: replayed, median of 25 interleaved rounds, ms, by the cut (1: runs
#: only): 1 -> 52.2, 4 -> 51.8, 8 -> 49.7, 16 -> 50.5, 32 -> 58.3,
#: 64 -> 70.0
_NARROW_RUN = 8


#: a front of at least this many rows is zero-filled on its lower
#: triangle only, in row blocks (:func:`assemble_front_planned`), a
#: smaller one whole.  Chosen from the cost of zero-filling every front
#: of a size class of ``lmco_s``/nd once in one buffer, median of 21
#: runs, ms, by the height of the row blocks:
#:
#:     front rows  fronts  whole   32     64    128    256
#:     <= 64        1 743   1.62  3.19   3.10   2.90   2.93
#:     65-128         114   0.50  0.69   0.59   0.53   0.54
#:     129-256         84   1.13  1.05   0.93   0.96   1.04
#:     257-512         25   1.17  0.97   0.82   0.84   0.98
#:     > 512           17   5.52  3.21   3.03   3.22   3.38
#:
#: Inside a warm refactorize the smaller classes gain less: over 100
#: alternating pairs, the assembly of one refactorize took 79.9 ms with
#: whole fills and 78.8 ms with these two values (63 of 100 won), and
#: 91.3 against 89.6 ms (57 of 100) from 128 rows in 64-row blocks.
_FILL_CUT = 256
#: rows per block of the lower-triangle zero-fill (the tables above)
_FILL_ROWS = 128


class AssemblyPlan:
    """Precomputed gather/scatter indices for assembling every front of
    one (canonical matrix pattern, symbolic factor) pair.

    The symbolic structure fixes, for each supernode, *which* entries of
    ``a.data`` its front reads, *where* each lands, and where each
    child's update block scatters into its parent — only the values
    change between factorizations.  The plan computes those index arrays
    once — one position search places every entry of A, one more every
    child's update rows, over the rows of all fronts tagged
    ``s * n + row``; the containment checks run on the two searches,
    out of the numeric loop — and is cached
    on the :class:`SymbolicFactor` via :func:`get_assembly_plan`, so
    repeated factorizations (refactorize, the serving layer's symbolic
    tier, benchmark repeats) neither permute the matrix nor build an
    index: they gather straight from the ``a.data`` they are handed.

    ``src`` / ``dst`` cover the lower triangle of the front only (nothing
    is mirrored above the diagonal).  Scatter destinations within one
    front are unique by construction (CSC stores each (row, col) once),
    so one add over them reproduces a per-column scatter loop (the
    oracle, ``tests/reference_assembly.py``) bit for bit on that
    triangle.

    A child's update rows sit in its parent's front at positions ``idx``
    (ascending).  Each front's fold — its first child, A, its other
    children, ascending — is cut into ``fold`` steps: a *segment*
    ``(idx, lo, hi)``, a maximal stretch of A (in the first segment
    only) and children ``lo:hi`` below :data:`RUN_CUT` rows, added by one
    ``np.add.at`` over the flat index ``idx`` (A's ``dst``, then each
    child's whole update square, row by row; int32 where ``n**2`` fits),
    or the position of a child from the cut up, added by its ``runs``:
    one ``front[idx[lo:], p:q] += U[lo:, lo:hi]`` per maximal run of
    consecutive positions — every row a contiguous segment, covering the
    lower trapezoid of U (plus the upper half of each run's own diagonal
    square, which nobody reads) — and one open-grid add per stretch of
    runs narrower than ``_NARROW_RUN`` (whose extra rows land above the
    diagonal).  The first child is assigned, not added: whole at its
    ``place`` below the cut, run by run from it.  ``np.add.at`` adds
    element after element, so every form adds the same child values to
    the same lower-triangle entries in the same order, and no cut can be
    seen in the factor.  ``dst``, ``place`` and the segments' indices
    are views of one array, built with whole-plan array operations.

    ``groups`` holds the stacked leaf groups of the tree
    (:func:`repro.multifrontal.batched.batch_groups`), each carrying its
    members' ``src`` / ``dst`` concatenated so a whole group assembles
    with one gather and one scatter (:func:`assemble_group`); every other
    front is a group of one.
    """

    __slots__ = (
        "src", "dst", "place", "runs", "fold", "n_kids", "groups",
        "_indptr", "_indices",
    )

    def __init__(self, a: CSCMatrix, sf: SymbolicFactor):
        all_rows, all_cols, origin = _permuted_lower(a, sf.perm)
        n_super = sf.n_supernodes
        n = sf.n
        #: the dtype of flat positions inside one front (or one leaf
        #: group's stack)
        index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        #: per supernode: gather indices into the canonical ``a.data``
        self.src: list[np.ndarray] = [None] * n_super  # type: ignore[list-item]
        #: per supernode: flat scatter indices into ``front.ravel()``
        self.dst: list[np.ndarray] = [None] * n_super  # type: ignore[list-item]
        #: per first child below ``RUN_CUT`` rows: the flat positions of
        #: its whole update square in its parent's front, row by row
        self.place: list[np.ndarray | None] = [None] * n_super
        #: per child from the cut up: one ``(rows, lo, hi, cols)`` per wide
        #: run or stretch of narrow runs (``front[rows, cols]`` is where
        #: ``U[lo:, lo:hi]`` lands)
        self.runs: list[list[tuple] | None] = [None] * n_super
        #: per supernode: what follows its first child, in fold order —
        #: a scatter segment ``(idx, lo, hi)``: A (the first segment only)
        #: and children ``lo:hi``, one flat ``idx`` — or the position of
        #: a child added run by run
        self.fold: list[list] = [None] * n_super  # type: ignore[list-item]
        self._indptr = a.indptr
        self._indices = a.indices

        # every front row tagged with its supernode, ``s * n + row``:
        # strictly ascending, so one search places any tagged row
        sizes = np.array([r.size for r in sf.rows], dtype=np.int64)
        front_ptr = np.zeros(n_super + 1, dtype=np.int64)
        np.cumsum(sizes, out=front_ptr[1:])
        front_of = np.repeat(np.arange(n_super, dtype=np.int64), sizes)
        front_rows = np.concatenate(sf.rows) if n_super else front_of
        front_key = front_of * n + front_rows

        # the front position of every entry of A: its column's supernode
        # and its row
        super_of = np.repeat(
            np.arange(n_super, dtype=np.int64), np.diff(sf.super_ptr)
        )
        entry_super = super_of[all_cols]
        at, found = _locate(front_key, entry_super * n + all_rows)
        if not found.all():
            raise ValueError(
                f"supernode {int(entry_super[~found].min())}: matrix entries "
                "outside symbolic pattern"
            )
        first_col = sf.super_ptr[:-1]
        dst = (at - front_ptr[entry_super]) * sizes[entry_super] + (
            all_cols - first_col[entry_super]
        )
        bounds = np.searchsorted(all_cols, sf.super_ptr)

        # the parent-front position of every update row of every child
        widths = np.diff(sf.super_ptr)
        sparent = np.asarray(sf.sparent, dtype=np.int64)
        update = (np.arange(front_rows.size, dtype=np.int64)
                  - front_ptr[front_of]) >= widths[front_of]
        update &= sparent[front_of] >= 0
        child = front_of[update]
        parent = sparent[child]
        child_key = parent * n + front_rows[update]
        at, found = _locate(front_key, child_key)
        if not found.all():
            raise ValueError("extend-add: child rows not contained in parent front")
        idx_all = at - front_ptr[parent]
        child_ptr = np.zeros(n_super + 1, dtype=np.int64)
        np.cumsum(np.bincount(child, minlength=n_super), out=child_ptr[1:])

        # the fold of every front as items — its first child, A, its other
        # children, ascending — each a stretch of one flat index array:
        # A's entries, a small child's whole update square, nothing for a
        # child added run by run
        ids = np.arange(n_super, dtype=np.int64)
        kid = ids[sparent >= 0]
        owner = sparent[kid]
        first = np.full(n_super, n_super, dtype=np.int64)
        np.minimum.at(first, owner, kid)
        n_kids = np.bincount(owner, minlength=n_super)
        #: per supernode: how many children its fold expects
        self.n_kids: list[int] = n_kids.tolist()
        m = np.diff(child_ptr)
        # rank in the fold: first child 0, A 1, any other child 2 + its id
        rank = np.concatenate((np.where(first[owner] == kid, 0, 2 + kid), np.ones_like(ids)))
        owners = np.concatenate((owner, ids))
        order = np.lexsort((rank, owners))
        owners, rank = owners[order], rank[order]
        item = np.concatenate((kid, ids))[order]    # the child, or A's front
        is_a = rank == 1
        small = ~is_a & (m[item] < RUN_CUT)
        big = ~is_a & ~small
        per_front = np.diff(bounds)
        length = np.where(is_a, per_front[item], np.where(small, m[item] ** 2, 0))
        item_at = np.cumsum(length) - length
        # laid end to end in fold order: A's entries, in their column
        # order, and each small child's whole update square, row by row —
        # the outer sum of its rows' and columns' positions, all children
        # with m update rows at once, in the index dtype (a position is
        # below n**2)
        flat = np.empty(int(length.sum()), dtype=index)
        flat[np.repeat(item_at[is_a] - bounds[:-1], per_front)
             + np.arange(dst.size)] = dst
        for mc in np.flatnonzero(np.bincount(m[item[small]])).tolist():
            its = np.flatnonzero(small & (m[item] == mc))
            c = item[its]
            idx = idx_all[child_ptr[c, None] + np.arange(mc)].astype(index)
            square = (idx * sizes[sparent[c], None].astype(index))[:, :, None] + idx[:, None, :]
            for at, sq in zip(item_at[its].tolist(), square.reshape(c.size, -1)):
                flat[at:at + sq.size] = sq

        # a child's position among its parent's children
        pos = np.arange(order.size) - np.repeat(
            np.cumsum(n_kids + 1) - n_kids - 1, n_kids + 1
        ) - (rank > 1)
        # scatter segments: maximal stretches of A and small children past
        # the first, each starting at A or after a child added run by run
        in_seg = is_a | (small & (rank > 1))
        start = is_a | (in_seg & np.concatenate(([False], big[:-1])))
        seg = np.cumsum(start) - 1
        seg_end = np.zeros(int(start.sum()), dtype=np.int64)
        np.maximum.at(seg_end, seg[in_seg], (item_at + length)[in_seg])
        seg_kids = np.bincount(seg[in_seg & ~is_a], minlength=seg_end.size)
        seg_lo = np.where(is_a, 1, pos)[start]
        segments = [
            (flat[at:end], lo, hi) for at, end, lo, hi in zip(
                item_at[start].tolist(), seg_end.tolist(), seg_lo.tolist(),
                (seg_lo + seg_kids).tolist(),
            )
        ]

        # ``dst``, ``place`` and the segments are views of ``flat``, which
        # holds nothing else; ``src`` and the runs' positions are copies, so
        # neither ``origin`` nor ``idx_all`` stays pinned by a view (views
        # of those raised the peak RSS of a warm lmco_s loop by ~4 MB)
        for s, lo, hi, at in zip(ids.tolist(), bounds[:-1].tolist(),
                                 bounds[1:].tolist(), item_at[is_a].tolist()):
            self.src[s] = origin[lo:hi].copy()
            self.dst[s] = flat[at:at + hi - lo]
            self.fold[s] = []
        lead = small & (rank == 0)
        for c, lo, hi in zip(item[lead].tolist(), item_at[lead].tolist(),
                             (item_at + length)[lead].tolist()):
            self.place[c] = flat[lo:hi]
        self.n_kids = n_kids.tolist()
        steps = start | (big & (rank > 1))
        for s, st, sg, p in zip(
            owners[steps].tolist(), start[steps].tolist(), seg[steps].tolist(),
            pos[steps].tolist(),
        ):
            self.fold[s].append(segments[sg] if st else p)

        # the children added run by run: each maximal run of consecutive
        # positions ``idx[lo:hi] == arange(p, q)``, a wide one as a slice,
        # a stretch of consecutive narrow ones as one open grid
        for c in item[big].tolist():
            self.runs[c] = _runs(idx_all[child_ptr[c]:child_ptr[c + 1]].copy())

        #: stackable leaf groups with their concatenated gather/scatter;
        #: the members' own ``src`` become views into the group's
        self.groups: list[BatchGroup] = []
        for g in batch_groups(sf):
            src = np.concatenate([self.src[s] for s in g.sids])
            dst = np.concatenate([
                i * g.size * g.size + self.dst[s] for i, s in enumerate(g.sids)
            ])
            ends = np.cumsum([self.src[s].size for s in g.sids]).tolist()
            for s, lo, hi in zip(g.sids, [0] + ends, ends):
                self.src[s] = src[lo:hi]
            self.groups.append(dataclasses.replace(g, src=src, dst=dst))

    def matches(self, a: CSCMatrix) -> bool:
        """True when ``a`` has the canonical pattern this plan was built
        for (``refactorize(values)`` keeps the very arrays, so identity
        answers first)."""
        indptr, indices = a.indptr, a.indices
        if indptr is self._indptr and indices is self._indices:
            return True
        return np.array_equal(indptr, self._indptr) and np.array_equal(
            indices, self._indices
        )


def _permuted_lower(
    a: CSCMatrix, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lower triangle of ``P A P^T``, column by column: the row and
    the column of each entry and the index into ``a.data`` its value
    comes from.

    ``a`` may store both triangles, either one, or a mixture: every entry
    is folded below the diagonal of the permuted matrix — (max, min) of
    its coordinates, the symmetric pattern the symbolic analysis built
    the tree from — so no permutation can leave half of a one-triangle
    store above the diagonal, unread.  One sort of one key per entry:
    the folded coordinate, column first, then one bit for the side of the
    diagonal the entry came from, so of a pair stored on both sides the
    below-diagonal entry sorts first and gives the value.

    A key names one (row, col) of ``P A P^T``; two equal keys are a
    coordinate ``a`` stores twice, which no valid CSC matrix does.  So
    the keys are distinct, and any sort gives the one order a stable
    sort would (at half its cost).
    """
    n = a.n_cols
    position = invert_permutation(perm)
    r = position[a.indices]
    c = position[np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))]
    key = (np.minimum(r, c) * n + np.maximum(r, c)) * 2 + (r < c)
    origin = np.argsort(key)
    key = key[origin]
    if np.any(key[1:] == key[:-1]):
        raise ValueError(
            "matrix stores a (row, col) more than once: its values cannot "
            "be mapped onto the fronts"
        )
    pair = key >> 1
    first = np.ones(pair.size, dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    cols, rows = np.divmod(pair[first], n)
    return rows, cols, origin[first]


def _locate(keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of every ``probe`` value in the strictly ascending
    ``keys``, and whether it is there at all."""
    at = np.searchsorted(keys, probe)
    return at, keys[np.minimum(at, keys.size - 1)] == probe


def _runs(idx: np.ndarray) -> list[tuple]:
    """The extend-add of a child whose update rows sit at the ascending
    positions ``idx`` of its parent's front, as ``(rows, lo, hi, cols)``
    steps: ``front[rows, cols]`` is where ``U[lo:, lo:hi]`` lands.  A run
    of ``_NARROW_RUN`` consecutive positions or more is one step with a
    slice of columns; each stretch of consecutive narrower runs is one
    open-grid step over the stretch's rows."""
    cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
    steps: list[tuple] = []
    narrow = None      # where the current stretch of narrow runs began
    for lo, hi in zip([0] + cuts, cuts + [idx.size]):
        if hi - lo < _NARROW_RUN:
            narrow = lo if narrow is None else narrow
            continue
        if narrow is not None:
            steps.append((idx[narrow:, None], narrow, lo, idx[narrow:lo]))
            narrow = None
        p = int(idx[lo])
        steps.append((idx[lo:], lo, hi, slice(p, p + hi - lo)))
    if narrow is not None:
        steps.append((idx[narrow:, None], narrow, idx.size, idx[narrow:]))
    return steps


def get_assembly_plan(a: CSCMatrix, sf: SymbolicFactor) -> AssemblyPlan:
    """Cached :class:`AssemblyPlan` for ``(a, sf)``.

    The plan is stashed on the symbolic factor; a reuse with a different
    canonical pattern (checked with an O(nnz) array compare when the
    arrays are not the very same objects, far cheaper than a rebuild)
    rebuilds and re-caches.
    """
    plan = getattr(sf, "_assembly_plan", None)
    if plan is None or not plan.matches(a):
        plan = AssemblyPlan(a, sf)
        sf._assembly_plan = plan  # type: ignore[attr-defined]
    return plan


def assemble_group(
    plan: AssemblyPlan, a_data: np.ndarray, g: BatchGroup,
    child_updates: list[tuple[int, np.ndarray]], workspace: np.ndarray | None = None,
) -> np.ndarray:
    """The ``(len(g), size, size)`` stack of the fronts of group ``g``
    (slice ``i`` is ``g.sids[i]``'s), the one way the numerics pass
    assembles: a group of one is its front (:func:`assemble_front_planned`),
    a stacked leaf group (no children) one gather and one scatter of A onto
    zeros.  With ``workspace`` the stack is a view of its head."""
    if len(g) == 1:
        return assemble_front_planned(
            plan, a_data, g.size, g.sids[0], child_updates, workspace
        )[None]
    n = len(g) * g.size * g.size
    stack = np.empty(n) if workspace is None else workspace[:n]
    stack.fill(0.0)
    np.add.at(stack, g.dst, a_data[g.src])
    return stack.reshape(len(g), g.size, g.size)


def assemble_front_planned(
    plan: AssemblyPlan,
    a_data: np.ndarray,
    size: int,
    s: int,
    child_updates: list[tuple[int, np.ndarray]],
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble the front of supernode ``s`` on its lower triangle.

    ``a_data`` is the ``data`` of the canonical (unpermuted) matrix the
    plan was built for, or of any matrix with that pattern;
    ``child_updates`` carries ``(child_sid, U)`` pairs, each U live in
    its lower triangle, in float64 or, from a device front, float32; the
    child's position in this front comes from the plan, which also fixes
    their order: they must be this front's children, ascending (a
    different count is refused).  The lower triangle of the result is
    bitwise identical to the item-by-item fold of
    ``tests/reference_assembly.py`` (and equal to its per-column
    assembly): same scatter destinations, same fold order; above the
    diagonal it is unspecified.

    With ``workspace`` (a flat float64 buffer of at least ``size * size``
    elements) the front is a view of its head and lives until the next
    call with the same buffer; without, it is a new zero array.  Of a
    view only the lower triangle is zero-filled from ``_FILL_CUT`` rows
    up (in ``_FILL_ROWS``-row blocks, so the upper half of each diagonal
    block too): above it the view keeps whatever the buffer held, which
    for a buffer made by ``np.zeros`` is only what earlier fronts left.
    """
    if workspace is None:
        front = np.zeros((size, size), dtype=np.float64)
    else:
        front = workspace[: size * size].reshape(size, size)
        if size < _FILL_CUT:
            front.fill(0.0)
        else:
            for i0 in range(0, size, _FILL_ROWS):
                front[i0:i0 + _FILL_ROWS, :i0 + _FILL_ROWS] = 0.0
    if len(child_updates) != plan.n_kids[s]:
        raise ValueError(
            f"supernode {s}: the plan folds {plan.n_kids[s]} child updates, "
            f"got {len(child_updates)}"
        )
    # the first child's update is placed by assignment, before A: onto
    # zeros ``c + a`` is ``a + c`` bit for bit (Liu's in-place assembly
    # of one child, SIAM Review 34(1), 1992), where adding it onto the
    # zeros would turn a -0.0 of it into +0.0
    for c, cu in child_updates[:1]:
        _extend_add(plan, front, c, cu, onto_zeros=True)
    parts = [a_data[plan.src[s]]]
    for step in plan.fold[s]:
        if type(step) is int:
            _extend_add(plan, front, *child_updates[step])
            continue
        idx, lo, hi = step
        parts += [cu.ravel() for _, cu in child_updates[lo:hi]]
        _scatter(front, idx, parts)
        parts = []
    return front


def _scatter(front: np.ndarray, idx: np.ndarray, parts: list[np.ndarray]) -> None:
    """One scatter segment: add the values of ``parts`` (A's entries, then
    whole child updates, row by row), laid end to end, at the flat
    positions ``idx`` of ``front``, one element after the other — a
    position two parts share gets their adds in the parts' order."""
    values = parts[0] if len(parts) == 1 else np.concatenate(parts, dtype=np.float64)
    np.add.at(front.reshape(-1), idx, values)


def _extend_add(
    plan: AssemblyPlan, front: np.ndarray, c: int, cu: np.ndarray,
    onto_zeros: bool = False,
) -> None:
    """Add child ``c``'s update ``cu`` at its place in its parent's
    ``front`` run by run — or, where that place holds zeros (the first
    child), assign it.  A device front's ``cu`` is float32: it widens
    inside the add, exactly, so ``c + u`` has the bits of
    ``c + float64(u)``."""
    runs = plan.runs[c]
    if runs is None:
        front.reshape(-1)[plan.place[c]] = cu.ravel()
    elif onto_zeros:
        for rows, lo, hi, cols in runs:
            front[rows, cols] = cu[lo:, lo:hi]
    else:
        for rows, lo, hi, cols in runs:
            front[rows, cols] += cu[lo:, lo:hi]


def assembly_bytes(
    front_size: int, child_sizes: list[int], word: int = 8
) -> float:
    """Memory traffic of assembling one front: zero-fill of the front
    plus read-modify-write of each child's update block.  Used to charge
    host time for the (memory-bound) assembly phase."""
    traffic = front_size * front_size * word
    for c in child_sizes:
        traffic += 2 * c * c * word  # stream child in, scatter into front
    return float(traffic)
