"""Full symbolic factorization: the :class:`SymbolicFactor` object.

``symbolic_factorize`` runs the complete analysis pipeline:

1. fill-reducing ordering (delegated to :mod:`repro.ordering`),
2. elimination tree of the permuted matrix (one pass of Liu's algorithm),
   relabelled by its postorder (the overall permutation is composed so
   columns of a supernode are consecutive),
3. fundamental supernode detection from A's entries alone,
4. one factor pattern per fundamental supernode, bottom-up; column counts
   follow arithmetically and feed relaxed amalgamation,
5. per-supernode row structure, the supernodal tree, and the (m, k) and
   flop statistics of every factor-update call — the quantities the
   paper's Figures 2/5/6 are drawn from and the features the auto-tuner
   consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.ordering import compute_ordering, invert_permutation
from repro.symbolic.etree import (
    NO_PARENT,
    EliminationTree,
    liu_parents,
    postorder,
    postordered,
)
from repro.symbolic.supernodes import (
    AmalgamationParams,
    amalgamate,
    skeleton_supernodes,
    supernode_parents,
)

__all__ = ["SymbolicFactor", "symbolic_factorize"]


def factor_update_flops(m: int, k: int) -> tuple[float, float, float]:
    """Asymptotic operation counts of one factor-update call, following
    the paper's Section IV-B: ``N_P = k^3/3`` (potrf), ``N_T = m k^2``
    (trsm), ``N_S = m^2 k`` (syrk)."""
    return (k**3 / 3.0, float(m) * k * k, float(m) * m * k)


@dataclass
class SymbolicFactor:
    """Everything the numeric phase needs, plus analysis metadata.

    Attributes
    ----------
    n : int
        Matrix order.
    perm : int64 array
        Overall new-to-old permutation (ordering composed with etree
        postorder); the numeric phase factors ``P A P^T``.
    super_ptr : int64 array, length n_super + 1
        Supernode ``s`` owns (permuted) columns ``super_ptr[s]:super_ptr[s+1]``.
    rows : list of int64 arrays
        ``rows[s]`` — sorted global row indices of supernode ``s``'s front,
        *including* its own ``k`` columns first; length ``k + m``.
    sparent : int64 array
        Supernodal elimination tree (-1 for roots).
    spost : int64 array
        Postorder of the supernodal tree (valid numeric schedule).
    etree : EliminationTree
        Column elimination tree of the permuted matrix.
    nnz_factor : int
        Stored entries of L (supernodal lower triangles, fill included).
    """

    n: int
    perm: np.ndarray
    super_ptr: np.ndarray
    rows: list[np.ndarray]
    sparent: np.ndarray
    spost: np.ndarray
    etree: EliminationTree
    nnz_factor: int
    ordering: str = "nd"
    amalgamation: AmalgamationParams = field(default_factory=AmalgamationParams)

    # ------------------------------------------------------------------
    @property
    def n_supernodes(self) -> int:
        return int(self.super_ptr.size - 1)

    def width(self, s: int) -> int:
        """k — number of pivot columns of supernode ``s``."""
        return int(self.super_ptr[s + 1] - self.super_ptr[s])

    def update_size(self, s: int) -> int:
        """m — rows below the pivot block (size of the update matrix)."""
        return int(self.rows[s].size - self.width(s))

    def mk_pairs(self) -> np.ndarray:
        """(n_super, 2) array of the (m, k) dimensions of every F-U call."""
        k = np.diff(self.super_ptr)
        size = np.array([r.size for r in self.rows], dtype=np.int64)
        return np.column_stack((size - k, k))

    def schildren(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.n_supernodes)]
        for s, p in enumerate(self.sparent.tolist()):
            if p != NO_PARENT:
                kids[p].append(s)
        return kids

    def total_flops(self) -> float:
        """Total factor-update flops (the paper's 'number of operations')."""
        total = 0.0
        for m, k in self.mk_pairs():
            total += sum(factor_update_flops(int(m), int(k)))
        return total

    def factor_nnz_by_column(self) -> np.ndarray:
        """Stored entries of L per column (supernodal storage, fill incl.)."""
        out = np.zeros(self.n, dtype=np.int64)
        for s in range(self.n_supernodes):
            f = int(self.super_ptr[s])
            k = self.width(s)
            rows = self.rows[s].size
            for j in range(k):
                out[f + j] = rows - j
        return out

    def validate(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        assert self.super_ptr[0] == 0 and self.super_ptr[-1] == self.n
        assert np.all(np.diff(self.super_ptr) > 0)
        for s in range(self.n_supernodes):
            f, l = int(self.super_ptr[s]), int(self.super_ptr[s + 1])
            rows = self.rows[s]
            k = l - f
            assert rows.size >= k
            assert np.array_equal(rows[:k], np.arange(f, l)), (
                f"supernode {s}: leading rows must equal its own columns"
            )
            assert np.all(np.diff(rows) > 0), f"supernode {s}: rows unsorted"
            if rows.size > k:
                assert rows[k] >= l
            # extend-add closure: update rows must exist in the parent front
            p = int(self.sparent[s])
            if p != NO_PARENT:
                missing = np.setdiff1d(rows[k:], self.rows[p], assume_unique=True)
                assert missing.size == 0, (
                    f"supernode {s}: update rows {missing[:5]} not in parent front"
                )
            else:
                assert rows.size == k, "root supernode must have empty update"


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` as one plain sort and an adjacent compare.

    numpy 2.x answers ``np.unique`` on integers from a hash table and
    sorts afterwards; on the 279 174 lower-pattern keys of ``lmco_s``
    that is ~15x dearer than this, for the same array.
    """
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def lower_pattern(r: np.ndarray, c: np.ndarray, n: int,
                  symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """The strictly-lower pattern of the symmetric matrix whose stored
    entries are ``(r, c)``, as ``(rows, cols)`` ordered by row, then
    column.

    Taking ``(max, min)`` of every off-diagonal entry makes it symmetric
    whatever triangle(s) the store holds, at the price of one key per
    stored entry and a de-duplication.  A store known to be
    ``symmetric`` holds every pair from both sides, so its entries with
    ``r > c`` are each pair once: half the keys, and nothing to
    de-duplicate.
    """
    if symmetric:
        below = r > c
        keys = np.sort(r[below] * n + c[below])
    else:
        off = r != c
        keys = _sorted_unique(np.maximum(r, c)[off] * n + np.minimum(r, c)[off])
    return np.divmod(keys, n)


def _supernode_patterns(
    super_ptr: np.ndarray, sparent: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Below-the-block row pattern of every fundamental supernode.

    All columns of a fundamental supernode ``f..l-1`` share one pattern
    past ``l``, namely column ``l-1``'s, so one union per supernode
    replaces one per column:

        pattern(s) = rows >= l of A[:, f:l]  U  rows >= l of pattern(c)
                     for every child supernode c

    The unions run one tree level at a time, leaves first (a supernode's
    level is one more than its highest child's), so every child pattern
    exists before it is needed.  The supernodes of one level are
    independent: their unions are one sort of ``s * n + row`` keys, and
    what each passes up — the suffix of its pattern past its parent's
    last column — is one mask over those keys, rekeyed to the parent and
    queued for the parent's level.  ``rows, cols`` are the strictly-lower
    entries of the postordered matrix.  Returns ``(flat, lo, hi)``:
    pattern(s) is ``flat[lo[s]:hi[s]]``, ascending.
    """
    n_super = super_ptr.size - 1
    n = int(super_ptr[-1])
    ends = super_ptr[1:]
    super_of = np.repeat(np.arange(n_super, dtype=np.int64), np.diff(super_ptr))
    entry_super = super_of[cols]
    below = rows >= ends[entry_super]
    entry_super = entry_super[below]

    # children carry smaller ids than parents: one ascending pass levels
    # the tree
    height = [0] * n_super
    for s, p in enumerate(sparent.tolist()):
        if p != NO_PARENT and height[p] <= height[s]:
            height[p] = height[s] + 1
    height = np.array(height, dtype=np.int64)
    n_levels = int(height.max()) + 1 if n_super else 0
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(height, minlength=n_levels), out=level_ptr[1:])
    # each level's supernodes, ascending, and A's keys, grouped by level
    # in any order within: every union sorts
    by_level = np.argsort(height, kind="stable")
    entry_level = height[entry_super]
    a_keys = (entry_super * n + rows[below])[np.argsort(entry_level, kind="stable")]
    a_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_level, minlength=n_levels), out=a_ptr[1:])
    # a pattern passes up its rows past its parent's last column
    up_from = np.where(sparent == NO_PARENT, n, ends[sparent])
    level_ptr, a_ptr = level_ptr.tolist(), a_ptr.tolist()
    parents, height_list = sparent.tolist(), height.tolist()

    # queued[h]: key arrays passed up to level h's supernodes
    queued: list[list[np.ndarray]] = [[] for _ in range(n_levels)]
    flat: list[np.ndarray] = []
    lo = np.empty(n_super, dtype=np.int64)
    hi = np.empty(n_super, dtype=np.int64)
    offset = 0
    for h in range(n_levels):
        keys = _sorted_unique(
            np.concatenate([a_keys[a_ptr[h]:a_ptr[h + 1]], *queued[h]])
        )
        queued[h] = []  # release
        first, last = level_ptr[h], level_ptr[h + 1]
        if last - first == 1:
            # a level of one supernode — every level of a path-like tree
            s = int(by_level[first])
            pat = keys - s * n
            lo[s], hi[s] = offset, offset + pat.size
            p = parents[s]
            if p != NO_PARENT:
                up = pat[np.searchsorted(pat, ends[p]):]
                queued[height_list[p]].append(up + p * n)
        else:
            own = by_level[first:last]
            owner = keys // n
            pat = keys - owner * n
            start = np.searchsorted(owner, own)
            lo[own] = offset + start
            hi[own] = offset + np.append(start[1:], keys.size)
            up = pat >= up_from[owner]
            parent = sparent[owner[up]]
            up_keys = parent * n + pat[up]
            # one queue per parent level
            to = height[parent]
            order = np.argsort(to, kind="stable")
            to, up_keys = to[order], up_keys[order]
            cuts = np.flatnonzero(np.diff(to)) + 1
            if to.size:
                for level, chunk in zip(to[np.append(0, cuts)].tolist(),
                                        np.split(up_keys, cuts)):
                    queued[level].append(chunk)
        flat.append(pat)
        offset += pat.size
    flat_rows = np.concatenate(flat) if flat else np.empty(0, dtype=np.int64)
    return flat_rows, lo, hi


def symbolic_factorize(
    a: CSCMatrix,
    *,
    ordering: str = "nd",
    amalgamation: AmalgamationParams | None = None,
    perm: np.ndarray | None = None,
) -> SymbolicFactor:
    """Run the full symbolic analysis of SPD matrix ``a``.

    Parameters
    ----------
    a : CSCMatrix
        Full symmetric or lower-triangle-stored SPD matrix.
    ordering : str
        Fill-reducing ordering name (see :mod:`repro.ordering`); ignored
        when ``perm`` is given.
    amalgamation : AmalgamationParams, optional
        Relaxation parameters; default merges aggressively enough to match
        typical multifrontal codes.  ``AmalgamationParams(max_width=0)``
        disables amalgamation.
    perm : array, optional
        Externally supplied new-to-old permutation (it will still be
        composed with an etree postorder).
    """
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    n = a.n_rows
    params = amalgamation if amalgamation is not None else AmalgamationParams()

    if perm is None:
        base_perm = np.asarray(compute_ordering(a, ordering), dtype=np.int64)
    else:
        base_perm = np.asarray(perm, dtype=np.int64)
        if (
            base_perm.shape != (n,)
            or (n and (base_perm.min() < 0 or base_perm.max() >= n))
            or not np.all(np.bincount(base_perm, minlength=n) == 1)
        ):
            raise ValueError("perm is not a permutation of 0..n-1")

    position = invert_permutation(base_perm)
    r = position[a.indices]
    c = position[np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))]
    rows, cols = lower_pattern(r, c, n, a.symmetry_verdict() is True)

    # row i of the strict lower triangle is column i of the strict upper
    # one: exactly the entries Liu's algorithm reads
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    parent = liu_parents(n, row_ptr.tolist(), cols.tolist())

    # postorder the etree and fold the postorder into the permutation so
    # that supernodes come out as contiguous column ranges; ancestors keep
    # following descendants, so lower entries stay lower
    tree, post = postordered(parent)
    full_perm = base_perm[post]
    new_label = invert_permutation(post)
    # a bijection keeps the keys distinct: a sort, nothing to de-duplicate
    rows, cols = np.divmod(np.sort(new_label[rows] * n + new_label[cols]), n)

    fund_ptr = skeleton_supernodes(tree.parent, rows, cols)
    flat, lo, hi = _supernode_patterns(
        fund_ptr, supernode_parents(fund_ptr, tree.parent), rows, cols
    )
    # column j of fundamental supernode f..l-1 holds j..l-1 and the pattern
    pattern_sizes = hi - lo
    counts = np.repeat(
        pattern_sizes + fund_ptr[1:], np.diff(fund_ptr)
    ) - np.arange(n, dtype=np.int64)

    super_ptr = amalgamate(fund_ptr, tree.parent, counts, params)

    # per-supernode row structure: own columns, then the pattern of the
    # last column, which contains what every earlier column of the
    # (possibly amalgamated) supernode has past its end
    last_fund = np.searchsorted(fund_ptr, super_ptr[1:]) - 1
    widths = np.diff(super_ptr)
    sizes = widths + pattern_sizes[last_fund]
    nnz_factor = int(np.sum(sizes * widths - widths * (widths - 1) // 2))
    # every front's rows in one buffer, each front a slice of it: entry
    # i of front s is column super_ptr[s] + i while i < width, then its
    # pattern's entry i - width, both gathered from [0..n-1, flat]
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    front = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    i = np.arange(bounds[-1], dtype=np.int64) - bounds[front]
    buffer = np.concatenate((np.arange(n, dtype=np.int64), flat))[np.where(
        i < widths[front], super_ptr[front] + i,
        (n + lo[last_fund] - widths)[front] + i,
    )]
    bounds = bounds.tolist()
    rows_of = [buffer[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    sparent = supernode_parents(super_ptr, tree.parent)
    # supernode ids increase with column number, so ascending id order is
    # already a valid postorder-compatible schedule; keep an explicit
    # postorder for schedulers that want subtree locality
    spost = postorder(sparent)[0]

    return SymbolicFactor(
        n=n,
        perm=full_perm,
        super_ptr=super_ptr,
        rows=rows_of,
        sparent=sparent,
        spost=spost,
        etree=tree,
        nnz_factor=nnz_factor,
        ordering=ordering if perm is None else "custom",
        amalgamation=params,
    )

