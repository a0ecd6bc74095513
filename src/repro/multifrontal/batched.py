"""Groups of fronts: the unit the numerics pass computes and the solve
phase sweeps.  Every front is a member of one group, ``B`` same-shape
fronts stacked into one ``(B, size, size)`` array and run through one
``Policy.apply``, whose dense kernels take the whole stack in one call.

The elimination tree is a few large fronts plus a long tail of tiny ones
where per-front Python/BLAS dispatch, not arithmetic, is the bill, so
leaf supernodes (no children, so no extend-add inputs) whose fronts
share one ``(rows, k)`` shape are grouped (:func:`batch_groups`) — the
idea A64FX-class sparse Cholesky codes use for small fronts: one call per
kernel for the whole stack, not a second implementation.  Every other
front is a group of one, a ``(1, size, size)`` view (:func:`front_groups`).

Nothing here computes: the kernels take a stack and compute every slice
as they compute one front (numpy's stacked ``cholesky``/``inv``/``matmul``
run the same LAPACK/BLAS call per slice), so each slice of a group is
bit-identical to its member's own ``apply``.  Grouping is a pure dispatch
optimisation of the numerics pass and the sweeps: the virtual clock
prices every front on its own and never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "STACK_CUTOFF",
    "STACK_CHUNK",
    "BatchGroup",
    "batch_groups",
    "breakdown_error",
    "front_groups",
]

#: leaf fronts with at most this many rows are stacked (measured on the
#: benchmark patterns, see docs/architecture.md)
STACK_CUTOFF = 32
#: most members one stacked call factors: keeps the live stack near
#: 1 MB at the cutoff (128 * 32 * 32 doubles)
STACK_CHUNK = 128


@dataclass(frozen=True, eq=False)
class BatchGroup:
    """Supernodes sharing a front shape, computed as one stack.

    ``sids`` is ascending, so stacking order — and therefore the stacked
    numerics — is deterministic for a given symbolic factor.  ``src`` /
    ``dst`` are a stacked leaf group's assembly-plan indices concatenated:
    gather positions in the canonical ``a.data`` and flat scatter
    positions in the ``(len(sids), size, size)`` stack (set by the
    assembly plan; ``None`` on a group of one).
    """

    size: int                # front rows (k + m)
    k: int                   # pivot columns
    sids: tuple[int, ...]
    src: np.ndarray | None = field(default=None, repr=False)
    dst: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.size - self.k

    def __len__(self) -> int:
        return len(self.sids)


def batch_groups(sf: SymbolicFactor) -> list[BatchGroup]:
    """Group the leaf supernodes of ``sf`` with at most ``STACK_CUTOFF``
    front rows by front shape, at least two and at most ``STACK_CHUNK``
    to a group.

    Deterministic: members ascend by supernode id within a group, groups
    are ordered by ``(size, k)``, and a shape with more than
    ``STACK_CHUNK`` members splits into near-equal consecutive runs.

    Computed once per symbolic factor and kept on it: the assembly plan,
    the numerics pass and the solve plan all index one list, so a leaf is
    stacked in the factorization exactly when it is stacked in the
    solve.
    """
    groups = getattr(sf, "_batch_groups", None)
    if groups is None:
        groups = sf._batch_groups = _batch_groups(sf)  # type: ignore[attr-defined]
    return groups


def _batch_groups(sf: SymbolicFactor) -> list[BatchGroup]:
    sparent = np.asarray(sf.sparent)
    n_kids = np.bincount(sparent[sparent >= 0], minlength=sf.n_supernodes)
    m, widths = sf.mk_pairs().T
    sizes = m + widths
    leaves = np.flatnonzero((n_kids == 0) & (sizes <= STACK_CUTOFF))
    leaves = leaves[np.lexsort((leaves, widths[leaves], sizes[leaves]))]
    shape_change = np.flatnonzero(
        (np.diff(sizes[leaves]) != 0) | (np.diff(widths[leaves]) != 0)
    )
    groups = []
    for run in np.split(leaves, shape_change + 1):
        if run.size < 2:
            continue
        size, k = int(sizes[run[0]]), int(widths[run[0]])
        for part in np.array_split(run, -(-run.size // STACK_CHUNK)):
            groups.append(BatchGroup(size, k, tuple(part.tolist())))
    return groups


def breakdown_error(
    sf: SymbolicFactor, s: int, exc: Exception
) -> NotPositiveDefiniteError:
    """The one message a non-SPD pivot block raises, stacked or not."""
    f_col = int(sf.super_ptr[s])
    return NotPositiveDefiniteError(
        f"matrix is not positive definite: Cholesky broke down in "
        f"supernode {s} (permuted columns {f_col}..{f_col + sf.width(s) - 1}, "
        f"original column ~{int(sf.perm[f_col])}): {exc}"
    )


def front_groups(
    sf: SymbolicFactor, groups: list[BatchGroup], inside: np.ndarray
) -> list[BatchGroup]:
    """Every supernode where the mask ``inside`` holds, in one group: each
    of ``groups`` lying wholly inside, a group of one for every other,
    ordered by first member.  A group's members have no descendant at or
    after its first member (leaves have none), so each group comes after
    every descendant of its members and before every ancestor."""
    grouped = np.zeros(sf.n_supernodes, dtype=bool)
    kept = []
    for g in groups:
        if inside[list(g.sids)].all():
            kept.append(g)
            grouped[list(g.sids)] = True
    ptr = sf.super_ptr.tolist()
    kept += [
        BatchGroup(sf.rows[s].size, ptr[s + 1] - ptr[s], (s,))
        for s in np.flatnonzero(inside & ~grouped).tolist()
    ]
    return sorted(kept, key=lambda g: g.sids[0])
