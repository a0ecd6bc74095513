"""Task-parallel factorization over multiple workers.

The paper's Section VI-C runs WSMP's task-parallel formulation with 2
CPU threads and 2 GPUs (one host thread per GPU) and a 4-thread CPU-only
comparison.  This subpackage reproduces that with a static critical-path
list scheduler over the supernodal elimination tree: each supernode's
factor-update is one task, dependencies follow the tree, and large
fronts near the root can be gang-scheduled across all workers (the
multifrontal analog of switching to parallel BLAS at the top of the
tree).

The static list scheduler is the paper-faithful reproduction path and
the default (``parallel_factorize(..., backend="static")``).  The
event-driven runtime in :mod:`repro.runtime` plugs in behind the same
entry point as ``backend="dynamic"`` — work stealing, memory-aware
admission, dispatch-time policy selection, fault injection — and
produces bit-identical factors: a scheduler only prices
(:func:`parallel_schedule`), and the numerics pass runs on the pool's
node whatever the placement.  Both price their tasks through the
one :class:`TaskPricer` (:mod:`repro.parallel.pricing`).
"""

from repro.parallel.pricing import TaskPricer
from repro.parallel.scheduler import (
    ParallelResult,
    ScheduledTask,
    list_schedule,
    parallel_factorize,
    parallel_schedule,
)
from repro.parallel.workers import WorkerPool, make_worker_pool

__all__ = [
    "WorkerPool",
    "make_worker_pool",
    "list_schedule",
    "ScheduledTask",
    "ParallelResult",
    "parallel_factorize",
    "parallel_schedule",
    "TaskPricer",
]
