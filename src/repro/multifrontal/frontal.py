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
    "get_assembly_plan",
    "assembly_bytes",
]


#: a child whose update block has at least this many rows is extend-added
#: run by run, a smaller one by one open-grid fancy add (see
#: :class:`AssemblyPlan`).  Chosen from the cost of extend-adding all
#: children of a size class of ``lmco_s``/nd once, warm buffers, ms:
#:
#:     update rows  children  runs/child  gather    runs
#:     < 20          1 611       4.2        7.6     22.6
#:     20-39            51       5.8        0.46     1.06
#:     40-63           117       7.1        2.2      3.4
#:     64-79            29       7.8        0.96     0.99
#:     80-159          100       9.5        9.5      5.4
#:     160-319          48      12.0       15.3      5.3
#:     >= 320           26      11.8       53.1     18.6
#:
#: gather everywhere 89 ms; gather below 64 and runs from there up 40 ms
#: (203 children, 93 % of the extend-add elements).
RUN_CUT = 64


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
    so a single fancy-indexed add reproduces a per-column scatter loop
    (the oracle, ``tests/reference_assembly.py``) bit for bit on that
    triangle.

    A child's update rows sit in its parent's front at positions ``idx``
    (ascending).  Below :data:`RUN_CUT` rows the plan keeps ``idx`` as
    the open-grid pair ``rel_row`` / ``rel_col`` and the extend-add is
    one fancy add of the whole square; from the cut up it keeps ``runs``,
    the maximal stretches of consecutive positions, and the extend-add is
    one ``front[idx[lo:], p:q] += U[lo:, lo:hi]`` per run — every row a
    contiguous segment, covering the lower trapezoid of U (plus the upper
    half of each run's own diagonal square, which nobody reads).  Both
    forms add the same child values to the same lower-triangle entries in
    the same child order, so which side of the cut a child falls on
    cannot be seen in the factor.

    ``groups`` holds the stackable leaf groups of the tree
    (:func:`repro.multifrontal.batched.batch_groups`), each carrying its
    members' ``src`` / ``dst`` concatenated so a whole group assembles
    with one gather and one scatter.
    """

    __slots__ = (
        "src", "dst", "rel_row", "rel_col", "runs", "groups",
        "_indptr", "_indices",
    )

    def __init__(self, a: CSCMatrix, sf: SymbolicFactor):
        all_rows, all_cols, origin = _permuted_lower(a, sf.perm)
        n_super = sf.n_supernodes
        n = sf.n
        #: per supernode: gather indices into the canonical ``a.data``
        self.src: list[np.ndarray] = [None] * n_super  # type: ignore[list-item]
        #: per supernode: flat scatter indices into ``front.ravel()``
        self.dst: list[np.ndarray] = [None] * n_super  # type: ignore[list-item]
        #: per supernode with fewer than ``RUN_CUT`` update rows: those
        #: rows located in the *parent* front, stored as the open-grid
        #: pair ``np.ix_`` would build
        self.rel_row: list[np.ndarray | None] = [None] * n_super
        self.rel_col: list[np.ndarray | None] = [None] * n_super
        #: per supernode from the cut up: one ``(idx[lo:], lo, hi, p, q)``
        #: per maximal run ``idx[lo:hi] == arange(p, q)``
        self.runs: list[list[tuple] | None] = [None] * n_super
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
        bounds = np.searchsorted(all_cols, sf.super_ptr).tolist()

        # the parent-front position of every update row of every child
        widths = np.diff(sf.super_ptr)
        update = (np.arange(front_rows.size, dtype=np.int64)
                  - front_ptr[front_of]) >= widths[front_of]
        update &= sf.sparent[front_of] >= 0
        child = front_of[update]
        parent = sf.sparent[child]
        child_key = parent * n + front_rows[update]
        at, found = _locate(front_key, child_key)
        if not found.all():
            raise ValueError("extend-add: child rows not contained in parent front")
        idx_all = at - front_ptr[parent]
        child_ptr = np.zeros(n_super + 1, dtype=np.int64)
        np.cumsum(np.bincount(child, minlength=n_super), out=child_ptr[1:])
        cbounds = child_ptr.tolist()

        # each supernode keeps arrays of its own, as the per-supernode
        # build made: views pinning the plan-wide ``dst`` and ``idx_all``
        # hold the same bytes, yet raised the peak RSS of a warm lmco_s
        # refactorize loop by ~4 MB
        for s in range(n_super):
            lo, hi = bounds[s], bounds[s + 1]
            self.src[s] = origin[lo:hi]
            self.dst[s] = dst[lo:hi].copy()
            c0, c1 = cbounds[s], cbounds[s + 1]
            if c1 == c0:
                continue
            idx = idx_all[c0:c1].copy()
            if idx.size < RUN_CUT:
                self.rel_row[s] = idx.reshape(-1, 1)
                self.rel_col[s] = idx.reshape(1, -1)
            else:
                cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
                self.runs[s] = [
                    (idx[lo:], lo, hi, int(idx[lo]), int(idx[lo]) + hi - lo)
                    for lo, hi in zip([0] + cuts, cuts + [idx.size])
                ]

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
    child's position in this front comes from the plan.  The lower triangle of the result is bitwise identical to
    the per-column reference's (``tests/reference_assembly.py``): same
    unique scatter destinations, same child fold-in order; above the
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
    # the first child's update is placed by assignment, before A: onto
    # zeros ``c + a`` is ``a + c`` bit for bit (Liu's in-place assembly
    # of one child, SIAM Review 34(1), 1992)
    for c, cu in child_updates[:1]:
        _extend_add(plan, front, c, cu, onto_zeros=True)
    front.ravel()[plan.dst[s]] += a_data[plan.src[s]]
    for c, cu in child_updates[1:]:
        _extend_add(plan, front, c, cu)
    return front


def _extend_add(
    plan: AssemblyPlan, front: np.ndarray, c: int, cu: np.ndarray,
    onto_zeros: bool = False,
) -> None:
    """Add child ``c``'s update ``cu`` at its place in its parent's
    ``front`` — or, where that place holds zeros, assign it.  A device
    front's ``cu`` is float32: it widens inside the add, exactly, so
    ``c + u`` has the bits of ``c + float64(u)``."""
    runs = plan.runs[c]
    if runs is None:
        at = plan.rel_row[c], plan.rel_col[c]
        front[at] = cu if onto_zeros else front[at] + cu
    else:
        for rows, lo, hi, p, q in runs:
            if onto_zeros:
                front[rows, p:q] = cu[lo:, lo:hi]
            else:
                front[rows, p:q] += cu[lo:, lo:hi]


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
