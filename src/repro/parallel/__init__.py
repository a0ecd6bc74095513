"""Task-parallel factorization over multiple workers.

The paper's Section VI-C runs WSMP's task-parallel formulation with 2
CPU threads and 2 GPUs (one host thread per GPU) and a 4-thread CPU-only
comparison.  This subpackage reproduces that with a static critical-path
list scheduler over the supernodal elimination tree: each supernode's
factor-update is one task, dependencies follow the tree, and large
fronts near the root can be gang-scheduled across all workers (the
multifrontal analog of switching to parallel BLAS at the top of the
tree).

How a scheduled pass runs is one frozen executor value:
:class:`Static` (the paper-faithful critical-path list scheduler),
:class:`Dynamic` (the event-driven runtime of :mod:`repro.runtime` —
work stealing, memory-aware admission, dispatch-time policy selection,
fault injection) or :class:`Cluster` (the same loop with its tasks
pinned to a fleet, :mod:`repro.cluster`).  :func:`parallel_schedule`
is the one scheduled pricer: it runs the executor and hands back the
:class:`~repro.multifrontal.numeric.PricedPass` the one numerics pass
takes (:func:`~repro.multifrontal.numeric.postorder_numeric_factor` on
the pool's node), so every executor produces the serial walk's factor
bit for bit::

    priced = parallel_schedule(sf, policy, pool, Dynamic(memory_budget=b))
    factor = postorder_numeric_factor(a, sf, priced, pool.node)

A timing-only run (a schedule, no numerics) is the executor's own
``run``: ``Static(gang_threshold=g).run(sf, policy, pool)``,
``Dynamic(budget, faults).run(sf, policy, pool)`` or
``Cluster(spec, owner).run(sf, policy)``, each a
:class:`~repro.runtime.RuntimeResult`.  Every scheduler prices its
tasks through the one :class:`TaskPricer` (:mod:`repro.parallel.pricing`).
"""

from repro.parallel.pricing import TaskPricer
from repro.parallel.scheduler import (
    Cluster,
    Dynamic,
    Executor,
    ScheduledTask,
    Static,
    parallel_schedule,
)
from repro.parallel.workers import WorkerPool, make_worker_pool

__all__ = [
    "WorkerPool",
    "make_worker_pool",
    "ScheduledTask",
    "Static",
    "Dynamic",
    "Cluster",
    "Executor",
    "parallel_schedule",
    "TaskPricer",
]
