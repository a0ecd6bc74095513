"""Critical-path list scheduling of the supernodal task DAG.

Static list scheduling with the standard "upward rank" priority: a
task's rank is its own duration plus the maximum rank of its parents
(here the tree has a single parent per task, so rank = distance to the
root in seconds).  Repeatedly take the highest-rank ready task and place
it on the worker where it can start earliest.

Large fronts near the root serialize the whole machine if bound to one
worker, so tasks whose flop count exceeds ``gang_threshold`` are
*gang-scheduled*: they wait for every worker and run at
``duration / (1 + (p - 1) * gang_efficiency)`` — the multifrontal analog
of WSMP switching to parallel dense kernels at the top of the
elimination tree.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.numeric import (
    FURecord,
    NumericFactor,
    PricedFronts,
    postorder_numeric_factor,
    price_once_per_pattern,
)
from repro.parallel.pricing import TaskPricer
from repro.parallel.workers import WorkerPool
from repro.policies.base import Policy, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

__all__ = [
    "ScheduledTask",
    "ParallelResult",
    "list_schedule",
    "parallel_factorize",
    "parallel_schedule",
    "scheduled_fronts",
]


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one supernode's work."""

    sid: int
    worker: int              # -1 when gang-scheduled on all workers
    start: float
    end: float
    policy: str
    gang: bool = False

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class ParallelResult:
    """Outcome of a parallel (or serial) scheduled factorization."""

    makespan: float
    schedule: list[ScheduledTask]
    factor: NumericFactor | None = None
    worker_busy: list[float] = field(default_factory=list)
    #: populated by ``backend="dynamic"``: the full RuntimeResult
    #: (steal/admission/fault counters, spans, degraded task set)
    runtime: object | None = None
    #: populated by :func:`parallel_schedule`: what the numerics pass on
    #: the pool's node takes from this schedule (:func:`scheduled_fronts`)
    fronts: PricedFronts | None = field(default=None, repr=False)

    @property
    def task_dispatches(self) -> int:
        """Work dispatches the schedule issued: one per front."""
        return len(self.schedule)

    @property
    def degraded_sids(self) -> frozenset:
        """The tasks the dynamic runtime degraded to P1 after injected
        GPU failures (always empty for the static backend)."""
        return getattr(self.runtime, "degraded_sids", frozenset())

    @property
    def degraded(self) -> bool:
        """True when any task was degraded (:attr:`degraded_sids`)."""
        return bool(self.degraded_sids)

    def speedup_vs(self, serial_seconds: float) -> float:
        return serial_seconds / self.makespan if self.makespan > 0 else float("inf")

    def utilization(self) -> float:
        if not self.worker_busy or self.makespan <= 0:
            return 0.0
        return float(np.mean(self.worker_busy) / self.makespan)


def list_schedule(
    sf: SymbolicFactor,
    policy: Policy,
    pool: WorkerPool,
    *,
    gang_threshold: float = 5e7,
    gang_efficiency: float = 0.8,
) -> ParallelResult:
    """Compute the parallel schedule (no numerics).

    Returns start/end per supernode and the makespan.  With a single
    worker this degenerates to the serial postorder sum.
    """
    n_super = sf.n_supernodes
    p = pool.n_workers
    pricer = TaskPricer(sf, policy, pool.node.model, pool.workers)
    asm = pricer.assembly_times()
    # upward rank: seconds from this task to the root, inclusive
    rank = pricer.upward_ranks()

    flops = np.array(
        [sum(factor_update_flops(sf.update_size(s), sf.width(s)))
         for s in range(n_super)]
    )
    kids = sf.schildren()
    n_pending = np.array([len(kids[s]) for s in range(n_super)])
    # max-heap on upward rank (negated for heapq)
    import heapq

    finish = np.zeros(n_super)
    worker_free = [0.0] * p
    worker_busy = [0.0] * p
    schedule: list[ScheduledTask] = []
    done = 0
    ready = [(-float(rank[s]), s) for s in range(n_super) if n_pending[s] == 0]
    heapq.heapify(ready)
    while ready:
        # highest-rank ready task first
        _, s = heapq.heappop(ready)
        deps_done = max((finish[c] for c in kids[s]), default=0.0)
        gang = p > 1 and flops[s] >= gang_threshold
        if gang:
            # the whole pool runs it: priced on the pool's best shape
            fu, base = pricer.fu_time(s, pricer.best_worker)[:2]
            start = max(deps_done, max(worker_free))
            speed = 1.0 + (p - 1) * gang_efficiency
            end = start + (fu + asm[s]) / speed
            for w in range(p):
                worker_free[w] = end
                worker_busy[w] += (end - start)
            schedule.append(ScheduledTask(s, -1, start, end, base.name, True))
        else:
            # earliest-start placement, priced on the worker it lands on
            # (a worker that owns no GPU runs a device policy as host P1)
            best_w = min(
                range(p), key=lambda w: (max(worker_free[w], deps_done), w)
            )
            fu, base = pricer.fu_time(s, pool.workers[best_w])[:2]
            dur = fu + asm[s]
            start = max(worker_free[best_w], deps_done)
            end = start + dur
            worker_free[best_w] = end
            worker_busy[best_w] += dur
            schedule.append(ScheduledTask(s, best_w, start, end, base.name, False))
        finish[s] = end
        done += 1
        parent = int(sf.sparent[s])
        if parent >= 0:
            n_pending[parent] -= 1
            if n_pending[parent] == 0:
                heapq.heappush(ready, (-float(rank[parent]), parent))
    if done != n_super:
        raise AssertionError("scheduler failed to place every supernode")
    makespan = float(finish.max()) if n_super else 0.0
    schedule.sort(key=lambda t: t.start)
    return ParallelResult(makespan, schedule, None, worker_busy)


def parallel_schedule(
    sf: SymbolicFactor,
    policy: Policy,
    pool: WorkerPool,
    *,
    gang_threshold: float = 5e7,
    gang_efficiency: float = 0.8,
    backend: str = "static",
    memory_budget: int | None = None,
    faults=None,
) -> ParallelResult:
    """The pricing pass of :func:`parallel_factorize`: a factor-less
    :class:`ParallelResult` from the ``backend`` scheduler.

    ``backend="static"`` (default) uses the paper-faithful critical-path
    list scheduler; ``backend="dynamic"`` uses the event-driven runtime
    of :mod:`repro.runtime` (work stealing, memory-aware admission via
    ``memory_budget``, dispatch-time policy selection, optional fault
    injection via ``faults``).

    The pass, and what the numerics pass takes from it (``fronts``:
    records, resolved policies, device-kernel seconds), is a function of
    the pattern on a fresh node without faults or a budget, so it is
    paid once per pattern
    (:func:`repro.multifrontal.numeric.price_once_per_pattern`): a warm
    call gets the schedule, the runtime counters, the worker busy times,
    ``fronts`` and the end state of every GPU pool back without running
    it.
    """
    if backend == "static":
        if memory_budget is not None or faults is not None:
            raise ValueError(
                "memory_budget/faults require backend='dynamic' "
                "(the static scheduler binds tasks up front)"
            )
        how: tuple | None = ("static", gang_threshold, gang_efficiency)

        def price() -> ParallelResult:
            return list_schedule(
                sf, policy, pool,
                gang_threshold=gang_threshold, gang_efficiency=gang_efficiency,
            )
    elif backend == "dynamic":
        from repro.runtime.engine import dynamic_schedule

        how = ("dynamic",) if memory_budget is None and faults is None else None

        def price() -> ParallelResult:
            runtime = dynamic_schedule(
                sf, policy, pool, memory_budget=memory_budget, faults=faults,
            )
            return ParallelResult(
                runtime.makespan, list(runtime.schedule),
                worker_busy=list(runtime.worker_busy), runtime=runtime,
            )
    else:
        raise ValueError(f"unknown backend {backend!r} (static | dynamic)")

    def price_fronts() -> ParallelResult:
        result = price()
        result.fronts = scheduled_fronts(
            sf, policy, pool.node, result.schedule, result.degraded_sids
        )
        return result

    return price_once_per_pattern(
        sf, policy, pool.node, pool.workers, how, price_fronts, _fresh_copy
    )


def parallel_factorize(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    pool: WorkerPool,
    **how,
) -> ParallelResult:
    """Schedule *and* numerically factor: :func:`parallel_schedule`
    (``how`` is its keywords), then the numerics pass on the pool's node
    under its ``fronts`` (:func:`scheduled_fronts`), so the factor is
    bit-identical to the serial walk's whatever worker a task was placed
    on.
    """
    result = parallel_schedule(sf, policy, pool, **how)
    result.factor = postorder_numeric_factor(
        a, sf, result.fronts, pool.node, makespan=result.makespan
    )
    return result


def _fresh_copy(result: ParallelResult) -> ParallelResult:
    """A copy of a factor-less ``result`` sharing nothing a caller could
    mutate with it: its containers are copied, what they hold (schedule
    entries, spans, ``fronts``) is frozen and shared."""
    runtime = result.runtime
    if runtime is not None:
        runtime = copy.copy(runtime)
        runtime.schedule = list(runtime.schedule)
        runtime.worker_busy = list(runtime.worker_busy)
        runtime.stats = copy.copy(runtime.stats)
        runtime.spans = list(runtime.spans)
        runtime.messages = list(runtime.messages)
        runtime.nic_busy = list(runtime.nic_busy)
    return ParallelResult(
        result.makespan, list(result.schedule), None,
        list(result.worker_busy), runtime, result.fronts,
    )


def scheduled_fronts(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    schedule: list[ScheduledTask],
    degraded_sids: frozenset = frozenset(),
) -> PricedFronts:
    """What the numerics pass on ``node`` takes from an already-timed
    ``schedule`` (static, dynamic or cluster): supernode *s* is computed
    under ``policy.resolve(m, k, Worker.canonical(node))`` whatever
    worker the schedule placed it on — the serial walk's rule — and
    tasks in ``degraded_sids`` run the host fallback, exactly as their
    simulated execution did.  Records carry the schedule's times and
    policy names (those of the placed worker).
    """
    worker = Worker.canonical(node)
    by_sid = {t.sid: t for t in schedule}
    bases: list[Policy] = [policy] * sf.n_supernodes
    records: list[FURecord] = []
    for s in sf.spost.tolist():
        k = sf.width(s)
        m = sf.update_size(s)
        bases[s] = (
            policy.fallback if s in degraded_sids
            else policy.resolve(m, k, worker)
        )
        t = by_sid[s]
        records.append(
            FURecord(
                sid=s, m=m, k=k, policy=t.policy, start=t.start, end=t.end,
                components={}, flops=factor_update_flops(m, k),
            )
        )
    return PricedFronts.of(sf, records, bases, worker, sf.spost)
