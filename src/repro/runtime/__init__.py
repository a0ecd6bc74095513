"""Asynchronous event-driven task runtime for the supernodal DAG.

The dynamic counterpart of :mod:`repro.parallel`'s static list
scheduler, inspired by asynchronous task-based sparse Cholesky solvers
(fan-both / StarPU-style runtimes): tasks are bound to workers at run
time, not schedule time.

* :mod:`repro.runtime.events` — the event heap (which keeps the
  simulated time) and the per-worker priority deques;
* :mod:`repro.runtime.engine` — the discrete-event loop, the only one
  in the code base: tasks migrating with work stealing (steal-half from
  the back, priority = upward rank) or pinned to an owner map with
  cross-owner updates travelling as messages, memory-aware admission
  (update-stack + device high-water vs. a byte budget), and
  dispatch-time policy selection;
* :mod:`repro.runtime.faults` — injectable GPU kernel failures and
  transfer stalls with retry-once-then-degrade-to-P1 semantics.

Use it through ``parallel_schedule(..., Dynamic(...))`` (the
:class:`repro.parallel.Dynamic` executor, which also takes the memory
budget and the faults) followed by the one numerics pass, or through
:class:`~repro.multifrontal.solver.SparseCholeskySolver`'s
``backend="dynamic"``.  A timing-only run is the executor's own ``run``:
``Dynamic(...).run(sf, policy, pool)`` migrates the tasks over one
node's workers, ``Cluster(spec, owner).run(sf, policy)`` pins them to a
fleet (:mod:`repro.cluster`), and ``Static(...).run(sf, policy, pool)``
is the static list scheduler.  Every schedule, static ones included,
comes back as one frozen :class:`RuntimeResult`.
"""

from repro.runtime.engine import (
    DynamicRuntime,
    RuntimeResult,
    RuntimeStats,
    schedule_peak_update_bytes,
)
from repro.runtime.events import EventQueue, ReadyDeque
from repro.runtime.faults import FaultInjector, FaultStats

__all__ = [
    "DynamicRuntime",
    "RuntimeResult",
    "RuntimeStats",
    "schedule_peak_update_bytes",
    "EventQueue",
    "ReadyDeque",
    "FaultInjector",
    "FaultStats",
]
