"""The per-front ``TaskGraph`` serial pricing walk: the oracle.

:func:`repro.multifrontal.numeric.price_serial` prices a front whose
plan is one chain of host steps in closed form, from its shape's steps
compiled once per pass, and schedules every other front as a
``TaskGraph``.  :func:`reference_price_serial` is the walk it replaced:
one ``TaskGraph`` holding each front's assembly task and its resolved
policy's ``plan``, one ``schedule_graph`` call per front, no kept pass.
``tests/test_pricing_oracle.py`` holds the two equal bit for bit: every
record, the makespan, the assembly seconds, every engine timeline, the
node's clock, every GPU pool and the pass kept on the symbolic factor.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.device import SimulatedNode
from repro.multifrontal.frontal import assembly_bytes
from repro.multifrontal.numeric import FURecord, PricedPass
from repro.policies.base import Policy, Worker
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
