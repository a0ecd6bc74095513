"""Device-resident multifrontal factorization (the §VI-C copy optimization).

The paper's multi-GPU runs discovered that "a few copy optimizations
could be made for policy P4.  With the copy optimized version, P4 was
the better policy for even moderately sized frontal matrices."  The
mechanism this module implements is the natural one: when consecutive
supernodes along a tree path both run on the GPU, the child's update
matrix never leaves the device — the extend-add happens *on the GPU*
(at device-memory bandwidth, ~102 GB/s, not PCIe's ~1.4 GB/s), and only
the factored panel comes home.

Pipeline:

1. **placement pass** — a chooser (defaults to device-vs-host by total
   flops; any callable ``(m, k) -> bool`` works, e.g. a trained
   classifier thresholded on P4) assigns each supernode to the device
   or the host *before* the walk, because a child's transfer needs
   depend on its parent's placement;
2. **walk** — per supernode:

   * device-placed: H2D only of the original A entries and of any
     host-resident child updates; device-side extend-add; the blocked
     panel factorization (Figure 9); D2H of the factored panel; the
     update matrix *stays resident* (and stays float32);
   * host-placed: D2H of any device-resident child updates first, then
     the host path (P1);

3. **memory accounting** — resident updates live in the device pool;
   when capacity would be exceeded the largest resident update is
   spilled (D2H + eviction), so the driver degrades gracefully instead
   of failing, addressing the Section IV-B memory-limitation caveat.

Numerics are faithful: device-resident data is float32 end to end, so
update matrices accumulated across several generations of GPU
supernodes carry compounded single-precision error — iterative
refinement still recovers full accuracy, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dense.blocked import blocked_cholesky_panels, default_panel_width
from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.cublas import panel_kernel_sequence
from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.frontal import extend_add, scatter_a_entries
from repro.multifrontal.numeric import FURecord, NumericFactor
from repro.policies.base import PolicyP1, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

__all__ = [
    "ResidencyStats",
    "flops_placement",
    "factorize_resident",
    "replay_resident",
]


class _ShapeOnly:
    """Stand-in for an update matrix in timing-only replays: carries the
    size/dtype bookkeeping the residency logic needs, no storage."""

    __slots__ = ("size", "itemsize")

    def __init__(self, m: int, itemsize: int):
        self.size = m * m
        self.itemsize = itemsize

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    def astype(self, dtype) -> "_ShapeOnly":
        m = int(round(self.size ** 0.5))
        return _ShapeOnly(m, np.dtype(dtype).itemsize)


@dataclass
class ResidencyStats:
    """Transfer and residency accounting of one device-resident run."""

    n_device_supernodes: int = 0
    n_host_supernodes: int = 0
    resident_reuse_bytes: float = 0.0    # update bytes that never crossed PCIe
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    n_spills: int = 0
    peak_resident_bytes: int = 0


def flops_placement(threshold: float = 2e6) -> Callable[[int, int], bool]:
    """Default placement: device when the call's total flops exceed
    ``threshold`` (the paper's observation that copy-optimized P4 wins
    "for even moderately sized frontal matrices")."""

    def choose(m: int, k: int) -> bool:
        return sum(factor_update_flops(m, k)) >= threshold

    return choose


def factorize_resident(
    a: CSCMatrix,
    sf: SymbolicFactor,
    *,
    node: SimulatedNode | None = None,
    place_on_device: Callable[[int, int], bool] | None = None,
    numerics: bool = True,
) -> tuple[NumericFactor, ResidencyStats]:
    """Factor with device-resident update matrices.

    Returns the :class:`NumericFactor` (same contract as
    :func:`factorize_numeric`) plus the residency statistics.  With
    ``numerics=False`` (or via :func:`replay_resident`) only the timing
    walk runs — same task graphs, no floating point — enabling
    paper-scale synthetic workloads where no matrix exists.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    if not node.gpus:
        raise ValueError("device-resident factorization needs a GPU")
    model = node.model
    gpu = node.gpus[0]
    worker = Worker.canonical(node)
    word = model.gpu_word
    capacity = gpu.spec.memory_bytes

    chooser = place_on_device if place_on_device is not None else flops_placement()
    n_super = sf.n_supernodes
    on_device = np.zeros(n_super, dtype=bool)
    for s in range(n_super):
        m, k = sf.update_size(s), sf.width(s)
        on_device[s] = bool(chooser(m, k))

    if numerics:
        a_perm = a.permute_symmetric(sf.perm)
        a_lower = a_perm.lower_triangle()
    else:
        a_lower = a.lower_triangle() if a is not None else None
    kids = sf.schildren()
    p1 = PolicyP1()

    panels: list[np.ndarray | None] = [None] * n_super
    # update value + where it lives: ("host", fp64) or ("dev", fp32)
    updates: dict[int, tuple[np.ndarray, np.ndarray, str]] = {}
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    stats = ResidencyStats()
    resident_bytes = 0
    assembly_seconds = 0.0

    def transfer_task(g, name, engine, nbytes, deps):
        return g.add(name, engine, model.transfer_time(nbytes, pinned=True),
                     deps, "copy")

    for s in sf.spost:
        s = int(s)
        rows = sf.rows[s]
        k = sf.width(s)
        m = rows.size - k
        size = rows.size
        child_ids = kids[s]
        deps = tuple(final_task[c] for c in child_ids if c in final_task)
        g = TaskGraph()

        child_data = [updates.pop(c) for c in child_ids if c in updates]
        for crows, cu, loc in child_data:
            if loc == "dev":
                resident_bytes -= cu.nbytes

        if on_device[s]:
            stats.n_device_supernodes += 1
            # --- assemble on the device ---------------------------------
            if numerics:
                front32 = np.zeros((size, size), dtype=np.float32)
                scatter_a_entries(front32, a_lower, sf, s)
            a_bytes = (
                _a_entry_bytes(a_lower, sf, s, word)
                if a_lower is not None
                else 2.0 * size * word  # structural estimate
            )
            last = transfer_task(g, "h2d:A", gpu.h2d_engine, a_bytes, deps)
            stats.h2d_bytes += a_bytes
            dev_asm_bytes = 2.0 * size * size * word
            for crows, cu, loc in child_data:
                if loc == "host":
                    nbytes = cu.size * word
                    last = transfer_task(
                        g, "h2d:child", gpu.h2d_engine, nbytes, (last,)
                    )
                    stats.h2d_bytes += nbytes
                    if numerics:
                        extend_add(front32, rows, crows, cu.astype(np.float32))
                else:
                    stats.resident_reuse_bytes += cu.nbytes
                    if numerics:
                        extend_add(front32, rows, crows, cu)
                dev_asm_bytes += 2.0 * cu.size * word
            # device-side extend-add at device memory bandwidth
            t_asm = dev_asm_bytes / (gpu.spec.device_bandwidth_gbs * 1e9)
            asm = g.add("dev-assemble", gpu.compute_engine, t_asm, (last,), "assemble")
            assembly_seconds += t_asm
            # --- factor on the device (Figure 9) -------------------------
            w = default_panel_width(k)
            if numerics:
                blocked_cholesky_panels(front32, k, w, gpu.cublas)
            prev = asm
            for c in panel_kernel_sequence(size, k, w):
                prev = g.add(
                    f"gpu:{c.kernel}", gpu.compute_engine,
                    model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k),
                    (prev,), c.kernel,
                )
            # panel comes home; the update stays
            panel_bytes = (k * k + m * k) * word
            t_panel = transfer_task(g, "d2h:L", gpu.d2h_engine, panel_bytes, (prev,))
            stats.d2h_bytes += panel_bytes
            final = g.add("done", worker.cpu_engine, 0.0, (t_panel,), "other")

            panels[s] = front32[:, :k].astype(np.float64) if numerics else None
            if m > 0:
                u32 = (
                    front32[k:, k:].copy() if numerics else _ShapeOnly(m, 4)
                )
                # spill if the resident set would overflow device memory
                while resident_bytes + u32.nbytes > capacity and updates:
                    victim = max(
                        (c for c in updates if updates[c][2] == "dev"),
                        key=lambda c: updates[c][1].nbytes,
                        default=None,
                    )
                    if victim is None:
                        break
                    vr, vu, _ = updates[victim]
                    nbytes = vu.size * word
                    final = transfer_task(
                        g, "d2h:spill", gpu.d2h_engine, nbytes, (final,)
                    )
                    stats.d2h_bytes += nbytes
                    stats.n_spills += 1
                    updates[victim] = (vr, vu.astype(np.float64), "host")
                    resident_bytes -= vu.nbytes
                updates[s] = (rows[k:], u32, "dev")
                resident_bytes += u32.nbytes
                stats.peak_resident_bytes = max(
                    stats.peak_resident_bytes, resident_bytes
                )
            schedule_graph(g, engines=node.engines)
            final_task[s] = final
            comp = g.total_by_category()
        else:
            stats.n_host_supernodes += 1
            # --- bring device children home, assemble and factor on host
            if numerics:
                front = np.zeros((size, size), dtype=np.float64)
                scatter_a_entries(front, a_lower, sf, s)
            last_deps = list(deps)
            host_asm_bytes = size * size * 8.0
            for crows, cu, loc in child_data:
                if loc == "dev":
                    nbytes = cu.size * word
                    t = transfer_task(
                        g, "d2h:child", gpu.d2h_engine, nbytes, deps
                    )
                    stats.d2h_bytes += nbytes
                    last_deps.append(t)
                    if numerics:
                        extend_add(front, rows, crows, cu.astype(np.float64))
                else:
                    if numerics:
                        extend_add(front, rows, crows, cu)
                host_asm_bytes += 2.0 * cu.size * 8.0
            t_asm = model.host_memory_time(host_asm_bytes)
            asm = g.add(
                "assemble", worker.cpu_engine, t_asm, tuple(last_deps), "assemble"
            )
            assembly_seconds += t_asm
            plan = p1.plan(m, k, worker, model, g, deps=(asm,))
            if numerics:
                p1.apply(front, k, worker)
            schedule_graph(g, engines=node.engines)
            final_task[s] = plan.final
            panels[s] = front[:, :k].copy() if numerics else None
            if m > 0:
                updates[s] = (
                    rows[k:],
                    front[k:, k:].copy() if numerics else _ShapeOnly(m, 8),
                    "host",
                )
            comp = g.total_by_category()

        records.append(
            FURecord(
                sid=s, m=m, k=k,
                policy="P4r" if on_device[s] else "P1",
                start=min(t.start for t in g.tasks),
                end=max(t.end for t in g.tasks),
                components=comp,
                flops=factor_update_flops(m, k),
            )
        )

    if updates:
        raise AssertionError("unconsumed update matrices")
    nf = NumericFactor(
        sf=sf,
        panels=[p for p in panels],  # type: ignore[misc]
        records=records,
        makespan=node.now,
        node=node,
        peak_update_bytes=stats.peak_resident_bytes,
        assembly_seconds=assembly_seconds,
    )
    return nf, stats


def _a_entry_bytes(a_lower: CSCMatrix, sf: SymbolicFactor, s: int, word: int) -> float:
    f_col, l_col = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
    nnz = int(a_lower.indptr[l_col] - a_lower.indptr[f_col])
    return float(nnz) * word * 2.0  # values + indices


def replay_resident(
    sf: SymbolicFactor,
    *,
    node: SimulatedNode | None = None,
    place_on_device: Callable[[int, int], bool] | None = None,
) -> tuple[NumericFactor, ResidencyStats]:
    """Timing-only device-resident walk (no matrix, no floating point).

    Same scheduling as :func:`factorize_resident`; the returned
    "factor" carries records and makespan but no panels.
    """
    return factorize_resident(
        None,  # type: ignore[arg-type]
        sf,
        node=node,
        place_on_device=place_on_device,
        numerics=False,
    )
