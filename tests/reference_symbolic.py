"""The column-at-a-time symbolic factorization: the oracle.

Nothing under ``src/`` works per column any more —
:func:`repro.symbolic.symbolic_factorize` computes one pattern per
fundamental supernode and finds the partition from the matrix alone
(:func:`repro.symbolic.supernodes.skeleton_supernodes`).  These three
functions are the definition that result is held against in
``tests/test_symbolic_structure.py``.

``column_patterns`` performs a structural (symbolic) Cholesky: the
below-diagonal pattern of column ``j`` of L is the union of A's
below-diagonal pattern in column ``j`` with the patterns of ``j``'s etree
children, minus ``j`` itself:

    rowpat(j) = rows(A[:, j], > j)  U  ( U_{c : parent(c)=j} rowpat(c) \\ {j} )

Since etree parents always carry larger indices than their children, a
single ascending sweep suffices, and each column's pattern is merged into
its parent exactly once, so the total work is O(nnz(L)) with the unions
done by vectorized ``np.unique`` calls.

``fundamental_supernodes`` is the Liu/Ng/Peyton criterion on etree
parents and column counts: column ``j`` extends the supernode of ``j-1``
iff ``parent(j-1) == j``, ``cnt(j-1) == cnt(j) + 1`` and ``j`` has no
other child.

``reference_amalgamate`` is relaxed amalgamation as it read and wrote
numpy scalars one supernode at a time (``_amalgamation_sweep``, kept
verbatim), before :func:`repro.symbolic.amalgamate` moved its sweep to
Python lists; ``reference_lower_pattern`` is the ``(max, min)`` fold
that builds the strictly-lower pattern from any store, the definition
the symmetric store's ``r > c`` shortcut is held against.

``reference_postorder`` is the forest postorder as it read the parent
array one numpy scalar at a time, before
:func:`repro.symbolic.etree.postorder` moved to Python lists; the
supernodal tree helpers in ``tests/test_symbolic_etree.py`` are held
against it too.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.supernodes import AmalgamationParams, supernode_parents


def column_patterns(a: CSCMatrix, parent: np.ndarray) -> list[np.ndarray]:
    """Below-diagonal row patterns of every column of the Cholesky factor.

    Parameters
    ----------
    a : CSCMatrix
        Full symmetric (or lower-stored) matrix, already permuted into its
        elimination order.
    parent : int64 array
        Elimination-tree parents for that order.

    Returns
    -------
    list of int64 arrays, ``patterns[j]`` sorted strictly-below-diagonal
    row indices of L[:, j].
    """
    n = a.n_cols
    # collect A's strictly-below-diagonal pattern per column (works for
    # both full-symmetric and lower-triangle storage: filtering rows > j
    # discards the upper part if present)
    patterns: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    pending: list[list[np.ndarray]] = [[] for _ in range(n)]
    for j in range(n):
        rows, _ = a.column(j)
        below = rows[rows > j]
        pieces = pending[j]
        pieces.append(below)
        if len(pieces) == 1:
            pat = np.array(below, dtype=np.int64)
        else:
            pat = np.unique(np.concatenate(pieces))
        patterns[j] = pat
        pending[j] = []  # release
        p = parent[j]
        if p != NO_PARENT:
            pending[p].append(pat[pat != p])
        elif pat.size:
            raise ValueError(
                f"column {j} has below-diagonal entries but no etree parent"
            )
    return patterns


def column_counts(a: CSCMatrix, parent: np.ndarray) -> np.ndarray:
    """Column counts of L, diagonal included: ``cnt[j] = |rowpat(j)| + 1``."""
    patterns = column_patterns(a, parent)
    return np.array([p.size + 1 for p in patterns], dtype=np.int64)


def fundamental_supernodes(parent: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Partition columns into fundamental supernodes.

    Parameters
    ----------
    parent : int64 array
        Elimination-tree parents (postordered labeling, parents > children).
    counts : int64 array
        Column counts of L including the diagonal.

    Returns
    -------
    ``super_ptr`` : int64 array of length ``n_super + 1`` — supernode ``s``
    spans columns ``super_ptr[s] : super_ptr[s+1]``.
    """
    n = parent.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    n_children = np.zeros(n, dtype=np.int64)
    for j in range(n):
        p = parent[j]
        if p != NO_PARENT:
            n_children[p] += 1
    starts = [0]
    for j in range(1, n):
        extends = (
            parent[j - 1] == j
            and counts[j - 1] == counts[j] + 1
            and n_children[j] == 1
        )
        if not extends:
            starts.append(j)
    starts.append(n)
    return np.asarray(starts, dtype=np.int64)


def reference_postorder(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(post, first_child, next_sibling)`` of a forest: children in
    increasing order, roots in increasing order; ``ValueError`` when the
    parent array has a cycle."""
    n = parent.size
    first_child = np.full(n, NO_PARENT, dtype=np.int64)
    next_sibling = np.full(n, NO_PARENT, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        p = parent[j]
        if p != NO_PARENT:
            next_sibling[j] = first_child[p]
            first_child[p] = j
    post = np.empty(n, dtype=np.int64)
    t = 0
    for root in range(n):
        if parent[root] != NO_PARENT:
            continue
        # iterative DFS emitting nodes on the way back up
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                post[t] = node
                t += 1
                continue
            stack.append((node, True))
            c = int(first_child[node])
            kids = []
            while c != NO_PARENT:
                kids.append(c)
                c = int(next_sibling[c])
            for c in reversed(kids):
                stack.append((c, False))
    if t != n:
        raise ValueError("parent array does not describe a forest")
    return post, first_child, next_sibling


def reference_lower_pattern(r: np.ndarray, c: np.ndarray, n: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the strictly-lower pattern of the symmetric
    matrix with stored entries ``(r, c)``, whatever triangles are
    stored: every off-diagonal entry folded to ``(max, min)``, then
    de-duplicated."""
    off = r != c
    keys = np.unique(np.maximum(r, c)[off] * n + np.minimum(r, c)[off])
    return np.divmod(keys, n)


def _amalgamation_sweep(
    super_ptr: np.ndarray,
    parent: np.ndarray,
    front_rows: np.ndarray,
    params: AmalgamationParams,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One greedy bottom-up merging sweep over a contiguous partition.

    ``front_rows`` carries the (possibly amalgamated) row count of each
    supernode's front, so later sweeps budget against the true merged
    size rather than the first column's count.  Returns the new
    ``super_ptr``, the carried-forward row counts, and whether any merge
    happened.
    """
    n = parent.size
    n_super = super_ptr.size - 1
    sparent = supernode_parents(super_ptr, parent)

    # union-find over supernodes that were merged into their successor
    merged_into = np.arange(n_super, dtype=np.int64)

    def find(s: int) -> int:
        while merged_into[s] != s:
            merged_into[s] = merged_into[merged_into[s]]
            s = merged_into[s]
        return s

    # current (start, width, front row count) per representative
    start = super_ptr[:-1].astype(np.int64).copy()
    width = np.diff(super_ptr).astype(np.int64)
    first_count = front_rows.astype(np.int64).copy()
    merged_any = False

    for s in range(n_super - 1):
        rep = find(s)
        p = sparent[s]
        if p == NO_PARENT:
            continue
        prep = find(int(p))
        if prep == rep:
            continue
        # contiguity: parent must start right after this supernode ends
        if start[prep] != start[rep] + width[rep]:
            continue
        w_child, w_parent = int(width[rep]), int(width[prep])
        w_new = w_child + w_parent
        if w_new > params.max_width and w_child > params.small_child:
            continue
        # zero cost: merged front keeps the child's row span; the parent's
        # columns gain rows the child had but they lack.
        rows_child = int(first_count[rep])          # rows in child front
        rows_parent = int(first_count[prep])
        # stored triangle sizes (column j of a supernode of R rows and W
        # cols stores R - j entries): total = sum_{j<W} (R - j)
        def tri(rows: int, w: int) -> int:
            return rows * w - w * (w - 1) // 2

        merged_rows = max(rows_child, rows_parent + w_child)
        stored = tri(merged_rows, w_new)
        useful = tri(rows_child, w_child) + tri(rows_parent, w_parent)
        zeros = stored - useful
        if w_child > params.small_child and zeros > params.max_zeros_fraction * stored:
            continue
        if zeros > 4 * params.max_zeros_fraction * stored:
            # even tiny children shouldn't blow the budget completely
            continue
        if params.max_zeros is not None and zeros > params.max_zeros:
            continue
        # merge child rep into parent rep
        merged_into[rep] = prep
        start[prep] = start[rep]
        width[prep] = w_new
        first_count[prep] = merged_rows
        sparent[s] = NO_PARENT  # consumed
        merged_any = True

    reps = sorted({find(s) for s in range(n_super)}, key=lambda s: int(start[s]))
    new_ptr = np.empty(len(reps) + 1, dtype=np.int64)
    new_rows = np.empty(len(reps), dtype=np.int64)
    for i, s in enumerate(reps):
        new_ptr[i] = start[s]
        new_rows[i] = first_count[s]
    new_ptr[-1] = n
    if not np.all(np.diff(new_ptr) > 0):
        raise AssertionError("amalgamation produced a non-contiguous partition")
    return new_ptr, new_rows, merged_any


def reference_amalgamate(
    super_ptr: np.ndarray,
    parent: np.ndarray,
    counts: np.ndarray,
    params: AmalgamationParams,
) -> np.ndarray:
    """``params.passes`` sweeps of ``_amalgamation_sweep``, stopping once
    one merges nothing."""
    if params.max_width <= 0:
        return super_ptr
    front_rows = counts[super_ptr[:-1]]
    ptr = super_ptr
    for _ in range(params.passes):
        ptr, front_rows, merged_any = _amalgamation_sweep(
            ptr, parent, front_rows, params
        )
        if not merged_any:
            break
    return ptr
