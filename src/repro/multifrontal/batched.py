"""Batched execution of small same-shape leaf fronts.

Profiles show that after the AssemblyPlan removed scatter overhead, the
remaining hot path of the warm factorize is per-front Python/BLAS
dispatch across thousands of tiny supernodes.  Leaf supernodes (no
children, so no extend-add inputs) whose fronts share one ``(rows, k)``
shape can be stacked into a single 3-D array and factored with *one*
sequence of stacked numpy calls — the same idea A64FX-class sparse
Cholesky codes use for front batching.

Bitwise safety: numpy's stacked ``cholesky``/``matmul`` gufuncs run the
identical LAPACK/BLAS kernel per slice, and the batched triangular solve
below replays :func:`repro.dense.kernels.trsm_right_lower` block for
block with batched matmuls, so every slice of the stacked result is
bit-identical to the per-front host P1 path.  That is asserted by the
``batched-vs-unbatched`` pairs of the verification lattice — batching is
a pure dispatch optimisation, never a numerics change.

Only groups whose resolved policy is the host ``P1`` path are batched;
anything routed to the (float32) device stays on the per-front path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError, potrf
from repro.multifrontal.frontal import AssemblyPlan, assemble_front_planned
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "BatchParams",
    "BatchGroup",
    "batch_groups",
    "resolve_batchable_groups",
    "batched_trsm_right_lower",
    "batched_factor_update",
    "factor_batch_group",
]


@dataclass(frozen=True)
class BatchParams:
    """Controls batched small-front execution.

    Attributes
    ----------
    front_cutoff : int
        Leaf fronts with at most this many rows are candidates for
        batching; 0 (the default) disables batching entirely.
    min_batch : int
        Minimum number of same-shape fronts to form a batch (a batch of
        one is just the per-front path with extra bookkeeping).
    """

    front_cutoff: int = 0
    min_batch: int = 2

    def __post_init__(self) -> None:
        if self.front_cutoff < 0:
            raise ValueError("BatchParams.front_cutoff must be >= 0")
        if self.min_batch < 2:
            raise ValueError("BatchParams.min_batch must be >= 2")

    @property
    def enabled(self) -> bool:
        return self.front_cutoff > 0


@dataclass(frozen=True)
class BatchGroup:
    """One batch: leaf supernodes sharing a front shape.

    ``sids`` is ascending, so stacking order — and therefore the batched
    numerics — is deterministic for a given symbolic factor.
    """

    size: int                # front rows (k + m)
    k: int                   # pivot columns
    sids: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.size - self.k

    def __len__(self) -> int:
        return len(self.sids)


def batch_groups(sf: SymbolicFactor, params: BatchParams) -> list[BatchGroup]:
    """Group batchable leaf supernodes of ``sf`` by front shape.

    Deterministic: members ascend by supernode id within a group and
    groups are ordered by ``(size, k)``.
    """
    if not params.enabled:
        return []
    n_super = sf.n_supernodes
    has_child = np.zeros(n_super, dtype=bool)
    for s in range(n_super):
        p = int(sf.sparent[s])
        if p >= 0:
            has_child[p] = True
    by_shape: dict[tuple[int, int], list[int]] = {}
    for s in range(n_super):
        if has_child[s]:
            continue
        size = int(sf.rows[s].size)
        if size > params.front_cutoff:
            continue
        by_shape.setdefault((size, sf.width(s)), []).append(s)
    return [
        BatchGroup(size=size, k=k, sids=tuple(sids))
        for (size, k), sids in sorted(by_shape.items())
        if len(sids) >= params.min_batch
    ]


def resolve_batchable_groups(
    sf: SymbolicFactor,
    policy,
    params: BatchParams | None,
    worker,
) -> tuple[list[BatchGroup], dict[int, BatchGroup]]:
    """Batch groups whose policy resolves to the host P1 path.

    Groups routed anywhere else (a device policy would change numerics
    and precision) stay on the per-front path.  Returns the kept groups
    and a supernode-id -> group map.
    """
    if params is None or not params.enabled:
        return [], {}
    groups = []
    batch_of: dict[int, BatchGroup] = {}
    for g in batch_groups(sf, params):
        base = (
            policy.resolve(g.m, g.k, worker)
            if hasattr(policy, "resolve")
            else policy
        )
        if base.name != "P1":
            continue
        groups.append(g)
        for sid in g.sids:
            batch_of[sid] = g
    return groups, batch_of


def batched_trsm_right_lower(x: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Stacked ``X L^T = B`` solve: per-slice replay of
    :func:`repro.dense.kernels.trsm_right_lower`.

    ``x`` is ``(B, m, k)``, ``l`` is ``(B, k, k)`` lower triangular.  The
    blocked forward substitution is reproduced step for step with batched
    matmuls so each slice is bit-identical to the 2-D kernel.
    """
    k = l.shape[-1]
    x = x.copy()
    nb = 32
    for j0 in range(0, k, nb):
        j1 = min(j0 + nb, k)
        if j0:
            x[:, :, j0:j1] -= x[:, :, :j0] @ l[:, j0:j1, :j0].transpose(0, 2, 1)
        ljj = l[:, j0:j1, j0:j1]
        for jj in range(j1 - j0):
            if jj:
                x[:, :, j0 + jj] -= (
                    x[:, :, j0:j0 + jj] @ ljj[:, jj, :jj, None]
                )[:, :, 0]
            x[:, :, j0 + jj] /= ljj[:, jj, jj, None]
    return x


def _batched_potrf(blocks: np.ndarray, sids: tuple[int, ...]) -> np.ndarray:
    """Stacked Cholesky; on breakdown, re-runs slices individually so the
    error names the offending supernode like the per-front path does."""
    try:
        return np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        for i, s in enumerate(sids):
            try:
                potrf(blocks[i])
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"batched pivot block of supernode {s} is not positive "
                    f"definite: {exc}"
                ) from exc
        raise  # pragma: no cover - stacked failure with no failing slice


def batched_factor_update(fronts: np.ndarray, k: int,
                          sids: tuple[int, ...]) -> None:
    """In-place stacked host P1 factor-update of ``(B, n, n)`` fronts.

    Mirrors ``PolicyP1.apply`` exactly: potrf of the pivot block, panel
    solve, rank-k update of the trailing block — each as one stacked
    call over the batch dimension.
    """
    l1 = _batched_potrf(fronts[:, :k, :k], sids)
    fronts[:, :k, :k] = l1
    if fronts.shape[1] > k:
        l2 = batched_trsm_right_lower(fronts[:, k:, :k], l1)
        fronts[:, k:, :k] = l2
        fronts[:, k:, k:] -= l2 @ l2.transpose(0, 2, 1)


def factor_batch_group(
    plan: AssemblyPlan, a_data: np.ndarray, g: BatchGroup
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """Assemble the leaf fronts of ``g`` into one stack, factor them with
    one stacked call sequence, and hand back ``sid -> (panel, update)``
    (``update`` is ``None`` for a front with no rows below its pivots).

    The one place the stacked numerics run: the serial driver and every
    scheduled backend call it, so they cannot drift apart.
    """
    stack = np.empty((len(g), g.size, g.size), dtype=np.float64)
    for i, sid in enumerate(g.sids):
        stack[i] = assemble_front_planned(plan, a_data, g.size, sid, [])
    batched_factor_update(stack, g.k, g.sids)
    return {
        sid: (
            stack[i, :, :g.k].copy(),
            stack[i, g.k:, g.k:].copy() if g.m > 0 else None,
        )
        for i, sid in enumerate(g.sids)
    }
