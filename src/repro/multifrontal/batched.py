"""Stacked execution of small same-shape leaf fronts.

The elimination tree is a few large fronts plus a long tail of tiny
ones where per-front Python/BLAS dispatch, not arithmetic, is the bill.
Leaf supernodes (no children, so no extend-add inputs) whose fronts
share one ``(rows, k)`` shape are stacked into a single 3-D array,
assembled by one gather and one scatter, and factored with *one*
sequence of stacked numpy calls — the same idea A64FX-class sparse
Cholesky codes use for small fronts.

Bitwise safety: numpy's stacked ``cholesky``/``inv``/``matmul`` gufuncs
run the identical LAPACK/BLAS kernel per slice, and the stacked
triangular solve below replays :func:`repro.dense.kernels.trsm_right_lower`
block for block with batched inverses and stacked matmuls, so every
slice of the stacked result is bit-identical to ``PolicyP1.apply`` on
the individually assembled front.
Stacking is a pure dispatch optimisation of the numerics pass: the
virtual clock prices every front on its own and never sees it.

Two kinds of group are stacked: every member resolved to the host
``P1`` (float64), or every member resolved to one ``PolicyP4`` whose
Figure-9 panel covers the whole pivot block.  One panel is exactly
potrf, trsm, syrk, so the same stacked sequence in the device dtype
(float32 under the paper's ``sp`` model) — cast in once, the panels
widened out once, the updates left in the device dtype as
``PolicyP4.apply`` leaves them — is bit-identical per slice to
``PolicyP4.apply``.  Any other group
runs front by front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.kernels import (
    SUBSTITUTION_BLOCK,
    NotPositiveDefiniteError,
    block_inverse,
    potrf,
)
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "STACK_CUTOFF",
    "STACK_CHUNK",
    "BatchGroup",
    "batch_groups",
    "breakdown_error",
    "batched_trsm_right_lower",
    "batched_factor_update",
    "factor_batch_group",
]

#: leaf fronts with at most this many rows are stacked (measured on the
#: benchmark patterns, see docs/architecture.md)
STACK_CUTOFF = 32
#: most members one stacked call factors: keeps the live stack near
#: 1 MB at the cutoff (128 * 32 * 32 doubles)
STACK_CHUNK = 128


@dataclass(frozen=True, eq=False)
class BatchGroup:
    """One stacked call: leaf supernodes sharing a front shape.

    ``sids`` is ascending, so stacking order — and therefore the stacked
    numerics — is deterministic for a given symbolic factor.  ``src`` /
    ``dst`` are the members' assembly-plan indices concatenated: gather
    positions in the canonical ``a.data`` and flat scatter positions in
    the ``(len(sids), size, size)`` stack (set by the assembly plan).
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


def batched_trsm_right_lower(
    x: np.ndarray, l: np.ndarray, inverses: np.ndarray | None = None
) -> np.ndarray:
    """Stacked ``X L^T = B`` solve: per-slice replay of
    :func:`repro.dense.kernels.trsm_right_lower`.

    ``x`` is ``(B, m, k)``, ``l`` is ``(B, k, k)`` lower triangular.  Each
    diagonal block is inverted across the stack by one batched
    :func:`repro.dense.kernels.block_inverse` and applied by one stacked
    product, after the same stacked off-block update, so each slice is
    bit-identical to the 2-D kernel.  A ``(B, k, k)`` ``inverses``
    receives the inverses of pivot blocks that are one diagonal block
    (``k <= SUBSTITUTION_BLOCK``: every stacked leaf).
    """
    k = l.shape[-1]
    x = x.copy()
    nb = SUBSTITUTION_BLOCK
    for j0 in range(0, k, nb):
        j1 = min(j0 + nb, k)
        if j0:
            x[:, :, j0:j1] -= x[:, :, :j0] @ l[:, j0:j1, :j0].transpose(0, 2, 1)
        w = block_inverse(l[:, j0:j1, j0:j1], out=inverses)
        x[:, :, j0:j1] = x[:, :, j0:j1] @ w.transpose(0, 2, 1)
    return x


def _batched_potrf(
    blocks: np.ndarray, sf: SymbolicFactor, sids: tuple[int, ...]
) -> np.ndarray:
    """Stacked Cholesky; on breakdown (a non-finite pivot included, as in
    :func:`repro.dense.kernels.potrf`), re-runs slices individually so
    the error names the first offending supernode like the per-front
    path."""
    try:
        l = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        l = None
    if l is None or not np.isfinite(l.diagonal(axis1=1, axis2=2)).all():
        for i, s in enumerate(sids):
            try:
                potrf(blocks[i])
            except NotPositiveDefiniteError as exc:
                raise breakdown_error(sf, s, exc) from exc
        raise AssertionError("stacked Cholesky failed with no failing slice")
    return l


def batched_factor_update(
    fronts: np.ndarray,
    k: int,
    sf: SymbolicFactor,
    sids: tuple[int, ...],
    inverses: np.ndarray | None = None,
) -> None:
    """In-place stacked factor-update of ``(B, n, n)`` fronts, in their
    own dtype.

    Mirrors ``PolicyP1.apply`` exactly (and a one-panel
    ``PolicyP4.apply``, whose kernels are the same three): potrf of the
    pivot block, panel solve, rank-k update of the trailing block — each
    as one stacked call over the batch dimension.  ``inverses`` goes to
    the panel solve (:func:`batched_trsm_right_lower`).
    """
    l1 = _batched_potrf(fronts[:, :k, :k], sf, sids)
    fronts[:, :k, :k] = l1
    if fronts.shape[1] > k:
        l2 = batched_trsm_right_lower(fronts[:, k:, :k], l1, inverses)
        fronts[:, k:, :k] = l2
        fronts[:, k:, k:] -= l2 @ l2.transpose(0, 2, 1)


def factor_batch_group(
    sf: SymbolicFactor,
    a_data: np.ndarray,
    g: BatchGroup,
    dtype=np.float64,
    inverses: np.ndarray | None = None,
) -> tuple[np.ndarray, "np.ndarray | list[None]"]:
    """Assemble the leaf fronts of ``g`` into one stack (one gather from
    ``a_data``, one scatter), factor them with one stacked call sequence
    in ``dtype`` (the stack is cast to it once) and return the float64
    ``(B, size, k)`` panels (widened, exactly, from ``dtype``) and the
    ``(B, m, m)`` updates in ``dtype``, which the parent's extend-add
    widens inside its add (a ``None`` per member when the fronts have no
    rows below their pivots); entry ``i`` of both belongs to
    ``g.sids[i]``.  ``inverses``
    receives the pivot blocks' inverses (:func:`batched_trsm_right_lower`).

    No kernel provider is involved and no time is kept: the device
    seconds of the members' kernels are in the numerics pass's one list
    (:func:`repro.multifrontal.numeric.device_kernels`), each at its
    member's turn, as if the member had run on its own.
    """
    stack = np.zeros((len(g), g.size, g.size), dtype=np.float64)
    # ``+=`` as the per-front assembly does it (-0.0 lands as +0.0)
    stack.reshape(-1)[g.dst] += a_data[g.src]
    stack = stack.astype(dtype, copy=False)
    batched_factor_update(stack, g.k, sf, g.sids, inverses)
    return (
        stack[:, :, :g.k].astype(np.float64),
        stack[:, g.k:, g.k:].copy() if g.m > 0 else [None] * len(g),
    )
