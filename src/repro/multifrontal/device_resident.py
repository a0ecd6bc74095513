"""Device-resident multifrontal factorization (the §VI-C copy optimization).

The paper's multi-GPU runs discovered that "a few copy optimizations
could be made for policy P4.  With the copy optimized version, P4 was
the better policy for even moderately sized frontal matrices."  The
mechanism this module implements is the natural one: when consecutive
supernodes along a tree path both run on the GPU, the child's update
matrix never leaves the device — the extend-add happens *on the GPU*
(at device-memory bandwidth, ~102 GB/s, not PCIe's ~1.4 GB/s), and only
the factored panel comes home.

That is a statement about transfers, so it lives on the virtual clock.
Pipeline (the two-pass shape of every other driver):

1. **placement pass** — a chooser (defaults to device-vs-host by total
   flops; any callable ``(m, k) -> bool`` works, e.g. a trained
   classifier thresholded on P4) assigns each supernode to the device
   or the host *before* the walk, because a child's transfer needs
   depend on its parent's placement;
2. **pricing walk** (:func:`price_resident`) — per supernode, in
   postorder, with an update matrix reduced to its size and where it
   lives:

   * device-placed: H2D only of the original A entries and of any
     host-resident child updates; device-side extend-add; the blocked
     panel factorization (Figure 9); D2H of the factored panel; the
     update matrix *stays resident*;
   * host-placed: D2H of any device-resident child updates first, then
     the host path (P1);
   * memory accounting: resident updates live in the device pool; when
     capacity would be exceeded the largest resident update is spilled
     (D2H + eviction), so the driver degrades gracefully instead of
     failing, addressing the Section IV-B memory-limitation caveat;

3. **numerics** — the shared pass
   (:func:`repro.multifrontal.numeric.postorder_numeric_factor`) under
   the walk's :class:`~repro.multifrontal.numeric.PricedPass`, i.e. the
   placement: ``PolicyP4`` on device-placed supernodes, the host
   fallback elsewhere.

Numerics are those of every other driver: fp32 kernels, fp64 host
assembly.  A device-placed front is assembled on the host in float64 and
factored in float32, its update handed to the parent in float32 and
widened inside the parent's add (exactly ``PolicyP4.apply``; an all-device placement
is bit-identical to ``factorize_numeric(..., PolicyP4())``).  Update
matrices handed down several generations of GPU supernodes still carry
compounded single-precision error (``residual_norm`` 8.4e-8 on the 8^3
grid Laplacian with 11 device supernodes, where summing the updates in
float32 on the device as well gave 1.49e-7) — iterative refinement
recovers full accuracy, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dense.blocked import default_panel_width
from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.cublas import panel_kernel_sequence
from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.frontal import AssemblyPlan, get_assembly_plan
from repro.multifrontal.numeric import (
    FURecord,
    NumericFactor,
    PricedPass,
    postorder_numeric_factor,
)
from repro.policies.base import Policy, PolicyP4, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

__all__ = [
    "ResidencyStats",
    "flops_placement",
    "factorize_resident",
    "price_resident",
]


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


def price_resident(
    sf: SymbolicFactor,
    node: SimulatedNode,
    place_on_device: Callable[[int, int], bool] | None = None,
    plan: AssemblyPlan | None = None,
) -> tuple[PricedPass, ResidencyStats]:
    """Charge a device-resident factorization to ``node``'s virtual clock.

    The placement pass and the postorder pricing walk of the module
    docstring; no floating-point work.  ``plan`` says how many entries
    of A each front uploads (without one — a paper-scale workload, where
    no matrix exists — a front is charged one entry per row).

    Returns the pass — per-call records (``P4r`` / ``P1``), the policy the
    numerics pass runs each supernode under, the total assembly time —
    and the residency statistics.
    """
    if not node.gpus:
        raise ValueError("device-resident factorization needs a GPU")
    model = node.model
    gpu = node.gpus[0]
    worker = Worker.canonical(node)
    word = model.gpu_word
    capacity = gpu.spec.memory_bytes

    chooser = place_on_device if place_on_device is not None else flops_placement()
    host, device = Policy.fallback, PolicyP4()
    bases = [
        device if chooser(sf.update_size(s), sf.width(s)) else host
        for s in range(sf.n_supernodes)
    ]

    kids = sf.schildren()
    #: live update matrices: entries (m * m), and whether it is resident
    #: on the device (``word`` bytes an entry there) or sits on the host
    updates: dict[int, tuple[int, bool]] = {}
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    stats = ResidencyStats()
    resident_bytes = 0
    assembly_seconds = 0.0

    def transfer_task(g, name, engine, nbytes, deps):
        return g.add(name, engine, model.transfer_time(nbytes, pinned=True),
                     deps, "copy")

    for s in sf.spost.tolist():
        size = sf.rows[s].size
        k = sf.width(s)
        m = size - k
        deps = tuple(final_task[c] for c in kids[s] if c in final_task)
        g = TaskGraph()

        children = [updates.pop(c) for c in kids[s] if c in updates]
        resident_bytes -= sum(n * word for n, resident in children if resident)

        on_device = bases[s] is device
        if on_device:
            stats.n_device_supernodes += 1
            # --- assemble on the device ---------------------------------
            n_entries = plan.src[s].size if plan is not None else size
            a_bytes = 2.0 * n_entries * word  # values + indices
            last = transfer_task(g, "h2d:A", gpu.h2d_engine, a_bytes, deps)
            stats.h2d_bytes += a_bytes
            dev_asm_bytes = 2.0 * size * size * word
            for n, resident in children:
                if resident:
                    stats.resident_reuse_bytes += n * word
                else:
                    last = transfer_task(
                        g, "h2d:child", gpu.h2d_engine, n * word, (last,)
                    )
                    stats.h2d_bytes += n * word
                dev_asm_bytes += 2.0 * n * word
            # device-side extend-add at device memory bandwidth
            t_asm = dev_asm_bytes / (gpu.spec.device_bandwidth_gbs * 1e9)
            asm = g.add("dev-assemble", gpu.compute_engine, t_asm, (last,), "assemble")
            # --- factor on the device (Figure 9) -------------------------
            prev = asm
            for c in panel_kernel_sequence(size, k, default_panel_width(k)):
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

            if m > 0:
                # spill if the resident set would overflow device memory
                while resident_bytes + m * m * word > capacity:
                    victim = max(
                        (c for c, (_, resident) in updates.items() if resident),
                        key=lambda c: updates[c][0],
                        default=None,
                    )
                    if victim is None:
                        break
                    nbytes = updates[victim][0] * word
                    final = transfer_task(
                        g, "d2h:spill", gpu.d2h_engine, nbytes, (final,)
                    )
                    stats.d2h_bytes += nbytes
                    stats.n_spills += 1
                    updates[victim] = (updates[victim][0], False)
                    resident_bytes -= nbytes
                resident_bytes += m * m * word
                stats.peak_resident_bytes = max(
                    stats.peak_resident_bytes, resident_bytes
                )
        else:
            stats.n_host_supernodes += 1
            # --- bring device children home, assemble and factor on host
            last_deps = list(deps)
            host_asm_bytes = size * size * 8.0
            for n, resident in children:
                if resident:
                    last_deps.append(transfer_task(
                        g, "d2h:child", gpu.d2h_engine, n * word, deps
                    ))
                    stats.d2h_bytes += n * word
                host_asm_bytes += 2.0 * n * 8.0
            t_asm = model.host_memory_time(host_asm_bytes)
            asm = g.add(
                "assemble", worker.cpu_engine, t_asm, tuple(last_deps), "assemble"
            )
            final = host.plan(m, k, worker, model, g, deps=(asm,)).final

        assembly_seconds += t_asm
        if m > 0:
            updates[s] = (m * m, on_device)
        schedule_graph(g, engines=node.engines)
        final_task[s] = final
        records.append(
            FURecord(
                sid=s, m=m, k=k,
                policy="P4r" if on_device else host.name,
                start=min(t.start for t in g.tasks),
                end=max(t.end for t in g.tasks),
                components=g.total_by_category(),
                flops=factor_update_flops(m, k),
            )
        )

    if updates:
        raise AssertionError("unconsumed update matrices")
    return PricedPass.of(
        sf, records, bases, worker, sf.spost, node.now, assembly_seconds
    ), stats


def factorize_resident(
    a: CSCMatrix,
    sf: SymbolicFactor,
    *,
    node: SimulatedNode | None = None,
    place_on_device: Callable[[int, int], bool] | None = None,
) -> tuple[NumericFactor, ResidencyStats]:
    """Factor with device-resident update matrices.

    Returns the :class:`NumericFactor` (same contract as
    :func:`factorize_numeric`) plus the residency statistics: the
    pricing walk, then the shared numerics pass under its placement.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    priced, stats = price_resident(
        sf, node, place_on_device, get_assembly_plan(a, sf)
    )
    return postorder_numeric_factor(a, sf, priced, node), stats
