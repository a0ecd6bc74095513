"""Fundamental supernode detection and relaxed amalgamation.

A *fundamental supernode* is a maximal run of consecutive columns
``f..l`` whose factor columns share one nonzero pattern (each column's
pattern is the previous one minus its own row).  The detection criterion
(Liu/Ng/Peyton) needs only etree parents and column counts: column ``j``
extends the supernode of ``j-1`` iff

    parent(j-1) == j  and  cnt(j-1) == cnt(j) + 1
    and j-1 is the only child of j that reaches it this way
    (equivalently: j has exactly one etree child among columns of the
    current run's frontier — we use the standard first-child test).

The analysis runs :func:`skeleton_supernodes`, which replaces the count
comparison by the row-subtree leaf test on A's own entries and so finds
the partition before any factor pattern exists; the count-based
definition itself lives beside the tests that hold the result against
it (``tests/reference_symbolic.py``).

*Relaxed amalgamation* then merges small child supernodes into their
parents even when patterns differ slightly, trading a bounded number of
explicit zeros for larger dense blocks.  This matters doubly here: WSMP
amalgamates, and the m x k distribution of factor-update calls — the very
thing the paper's hybrid policies are trained on — depends on it (see the
ablation bench ``test_ablation_amalgamation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.etree import NO_PARENT

__all__ = [
    "AmalgamationParams",
    "AMALGAMATION_PRESETS",
    "amalgamation_preset",
    "amalgamate",
]


def skeleton_supernodes(
    parent: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The fundamental supernode partition from the matrix alone.

    The Liu/Ng/Peyton partition without column counts: column ``j``
    extends the supernode of ``j-1`` iff ``parent[j-1] == j``, ``j`` has
    no other child, and ``j`` is not a leaf of any row subtree — i.e.
    every entry ``(i, j)`` of A below the diagonal already has an entry
    of row ``i`` among the descendants of ``j``, so column ``j`` of L
    adds nothing to column ``j-1``'s pattern.

    Parameters
    ----------
    parent : int64 array
        Elimination-tree parents in a postordered labelling.
    rows, cols : int64 arrays
        The strictly-lower entries of the matrix, sorted by row and then
        by column.
    """
    n = parent.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    n_children = np.bincount(parent[parent != NO_PARENT], minlength=n)
    # in a postordered tree the descendants of j are first_desc[j]..j
    first = list(range(n))
    for j, p in enumerate(parent.tolist()):
        if p != NO_PARENT and first[j] < first[p]:
            first[p] = first[j]
    first_desc = np.array(first, dtype=np.int64)
    # j is a leaf of row subtree i when the entry before (i, j) in row i
    # (column -1 if there is none) is no descendant of j
    prev = np.empty_like(cols)
    prev[:1] = -1
    prev[1:] = np.where(rows[1:] == rows[:-1], cols[:-1], -1)
    row_leaf = np.zeros(n, dtype=bool)
    row_leaf[cols[first_desc[cols] > prev]] = True
    starts = np.ones(n, dtype=bool)
    starts[1:] = (
        (parent[:-1] != np.arange(1, n)) | (n_children[1:] != 1) | row_leaf[1:]
    )
    return np.append(np.flatnonzero(starts), n)


@dataclass(frozen=True)
class AmalgamationParams:
    """Controls relaxed supernode amalgamation.

    Attributes
    ----------
    max_zeros_fraction : float
        A child may merge into its parent only if explicit zeros would make
        up at most this fraction of the merged supernode's stored triangle.
    max_width : int
        Upper bound on the merged supernode's column count; 0 disables
        amalgamation entirely.
    small_child : int
        Children at most this wide are always considered for merging
        (typical multifrontal codes aggressively fold tiny supernodes).
    max_zeros : int or None
        Absolute cap on the explicit zeros any single merge may add, on
        top of the relative budget; ``None`` (the default) applies no
        absolute cap.
    passes : int
        Number of greedy bottom-up sweeps.  One sweep (the default) only
        merges supernodes that were adjacent in the *fundamental*
        partition; later sweeps see the merged partition, so chains of
        small supernodes keep folding until the budgets stop them.
    """

    max_zeros_fraction: float = 0.15
    max_width: int = 256
    small_child: int = 16
    max_zeros: int | None = None
    passes: int = 1

    @classmethod
    def off(cls) -> "AmalgamationParams":
        """The paper-faithful fundamental-supernode tree (no merging)."""
        return cls(max_width=0)

    @classmethod
    def aggressive(cls) -> "AmalgamationParams":
        """Trade noticeably more explicit-zero fill for far fewer, fatter
        fronts (fewer per-front dispatches; normwise-equivalent factor)."""
        return cls(
            max_zeros_fraction=0.35, max_width=512, small_child=48, passes=3
        )


#: named presets accepted by CLI flags and the verification lattice
AMALGAMATION_PRESETS = ("default", "off", "aggressive")


def amalgamation_preset(name: str) -> AmalgamationParams:
    """Resolve a preset name to parameters (``default | off | aggressive``)."""
    if name == "default":
        return AmalgamationParams()
    if name == "off":
        return AmalgamationParams.off()
    if name == "aggressive":
        return AmalgamationParams.aggressive()
    raise ValueError(
        f"unknown amalgamation preset {name!r} "
        f"(expected one of {', '.join(AMALGAMATION_PRESETS)})"
    )


def supernode_parents(super_ptr: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Supernodal tree: parent supernode of ``s`` is the supernode holding
    the etree parent of the last column of ``s``."""
    super_of = np.repeat(
        np.arange(super_ptr.size - 1, dtype=np.int64), np.diff(super_ptr)
    )
    p = parent[super_ptr[1:] - 1]
    return np.where(p == NO_PARENT, NO_PARENT, super_of[p])


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
    happened.  The sweep reads and writes one supernode at a time, so
    its state is Python lists: list indexing is several times cheaper
    than numpy scalar indexing.
    """
    n = parent.size
    n_super = super_ptr.size - 1
    sparent = supernode_parents(super_ptr, parent).tolist()

    # union-find over supernodes that were merged into their successor
    merged_into = list(range(n_super))

    def find(s: int) -> int:
        while merged_into[s] != s:
            merged_into[s] = merged_into[merged_into[s]]
            s = merged_into[s]
        return s

    # current (start, width, front row count) per representative
    start = super_ptr[:-1].tolist()
    width = np.diff(super_ptr).tolist()
    first_count = front_rows.tolist()
    small_child, max_width = params.small_child, params.max_width
    fraction, max_zeros = params.max_zeros_fraction, params.max_zeros
    merged_any = False

    for s in range(n_super - 1):
        p = sparent[s]
        if p == NO_PARENT:
            continue
        rep = find(s)
        prep = find(p)
        if prep == rep:
            continue
        # contiguity: parent must start right after this supernode ends
        w_child, w_parent = width[rep], width[prep]
        if start[prep] != start[rep] + w_child:
            continue
        w_new = w_child + w_parent
        if w_new > max_width and w_child > small_child:
            continue
        # zero cost: merged front keeps the child's row span; the parent's
        # columns gain rows the child had but they lack.  A supernode of
        # R rows and W columns stores sum_{j<W} (R - j) entries.
        rows_child, rows_parent = first_count[rep], first_count[prep]
        merged_rows = max(rows_child, rows_parent + w_child)
        stored = merged_rows * w_new - w_new * (w_new - 1) // 2
        useful = (rows_child * w_child - w_child * (w_child - 1) // 2
                  + rows_parent * w_parent - w_parent * (w_parent - 1) // 2)
        zeros = stored - useful
        if w_child > small_child and zeros > fraction * stored:
            continue
        if zeros > 4 * fraction * stored:
            # even tiny children shouldn't blow the budget completely
            continue
        if max_zeros is not None and zeros > max_zeros:
            continue
        # merge child rep into parent rep
        merged_into[rep] = prep
        start[prep] = start[rep]
        width[prep] = w_new
        first_count[prep] = merged_rows
        merged_any = True

    # a representative is a supernode nothing merged away
    reps = sorted((s for s in range(n_super) if merged_into[s] == s),
                  key=start.__getitem__)
    new_ptr = np.array([start[s] for s in reps] + [n], dtype=np.int64)
    new_rows = np.array([first_count[s] for s in reps], dtype=np.int64)
    if not np.all(np.diff(new_ptr) > 0):
        raise AssertionError("amalgamation produced a non-contiguous partition")
    return new_ptr, new_rows, merged_any


def amalgamate(
    super_ptr: np.ndarray,
    parent: np.ndarray,
    counts: np.ndarray,
    params: AmalgamationParams = AmalgamationParams(),
) -> np.ndarray:
    """Relaxed amalgamation of a fundamental-supernode partition.

    Greedy bottom-up sweeps: a supernode is merged into its parent when
    the parent directly follows it in column order (so the merged node
    stays a contiguous column range) and the explicit-zero budget holds.
    ``params.passes`` sweeps run (stopping early once a sweep merges
    nothing); each later sweep sees the merged partition, so chains of
    small supernodes keep folding.  Returns a new ``super_ptr``.
    """
    if params.max_width <= 0:
        return super_ptr
    if params.passes < 1:
        raise ValueError("AmalgamationParams.passes must be >= 1")
    # count of the first column of a fundamental supernode = rows in front
    front_rows = counts[super_ptr[:-1]]
    ptr = super_ptr
    for _ in range(params.passes):
        ptr, front_rows, merged_any = _amalgamation_sweep(
            ptr, parent, front_rows, params
        )
        if not merged_any:
            break
    return ptr
