"""The per-front ``TaskGraph`` serial pricing walks: the oracles.

:func:`repro.multifrontal.numeric.price_serial` prices a front whose
plan is one chain of host steps in closed form, from its shape's steps
compiled once per pass, and schedules every other front as a
``TaskGraph``.  :func:`reference_price_serial` is the walk it replaced:
one ``TaskGraph`` holding each front's assembly task and its resolved
policy's ``plan``, one ``schedule_graph`` call per front, no kept pass.

``price_serial`` also prices a resident placement
(:func:`repro.policies.flops_placement`, the Section VI-C copy
optimization) inline.  :func:`reference_price_resident` is the second
walk that did it before: its own placement pass (device where
``place_on_device(m, k)``, else host ``P1``), its own transfer tasks and
one ``TaskGraph`` per front, host fronts included.

``tests/test_pricing_oracle.py`` holds each equal to ``price_serial``
bit for bit: every record, the makespan, the assembly seconds, every
engine timeline, the node's clock, every GPU pool, the pass kept on the
symbolic factor and every ``ResidencyStats`` field.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dense.blocked import default_panel_width
from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.cublas import panel_kernel_sequence
from repro.gpu.device import SimulatedNode
from repro.multifrontal.frontal import AssemblyPlan, assembly_bytes
from repro.multifrontal.numeric import FURecord, PricedPass, ResidencyStats
from repro.policies.base import Policy, PolicyP4, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops


def reference_price_serial(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    spost: "np.ndarray | None" = None,
) -> PricedPass:
    """The serial pricing pass over ``spost`` (default ``sf.spost``) on
    ``node``'s canonical worker, one ``TaskGraph`` per front."""
    worker = Worker.canonical(node)
    order = np.asarray(sf.spost if spost is None else spost)
    model = node.model
    kids = sf.schildren()
    final_task: dict[int, object] = {}
    records: list[FURecord] = []
    bases: list[Policy] = [policy] * sf.n_supernodes
    assembly_seconds = 0.0
    for s in order.tolist():
        size = sf.rows[s].size
        k = sf.width(s)
        m = size - k
        t_asm = model.host_memory_time(
            assembly_bytes(size, [sf.update_size(c) for c in kids[s]])
        )
        g = TaskGraph()
        deps = tuple(final_task[c] for c in kids[s] if c in final_task)
        asm_task = g.add(f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble")
        assembly_seconds += t_asm

        base = bases[s] = policy.resolve(m, k, worker)
        plan = base.plan(m, k, worker, model, g, deps=(asm_task,))
        schedule_graph(g, engines=node.engines)
        final_task[s] = plan.final
        records.append(
            FURecord(
                sid=s, m=m, k=k, policy=base.name,
                start=min(t.start for t in g.tasks), end=plan.final.end,
                components=g.total_by_category(),
                flops=factor_update_flops(m, k),
            )
        )
    return PricedPass.of(
        sf, records, bases, worker, order, node.now, assembly_seconds
    )


def reference_price_resident(
    sf: SymbolicFactor,
    node: SimulatedNode,
    place_on_device: Callable[[int, int], bool],
    plan: AssemblyPlan | None = None,
) -> tuple[PricedPass, ResidencyStats]:
    """Charge a device-resident factorization to ``node``'s virtual clock.

    A placement pass, then a postorder pricing walk: a device-placed
    front uploads A's entries and its host-resident children, extend-adds
    on the device, runs the Figure-9 kernels, downloads its panel and
    keeps its update resident (the largest resident update spilled while
    the device is full); a host-placed front downloads its resident
    children first.  No floating-point work.  ``plan`` says how many entries
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

    host, device = Policy.fallback, PolicyP4()
    bases = [
        device if place_on_device(sf.update_size(s), sf.width(s)) else host
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
