"""The executors of the supernodal task DAG: :class:`Static`,
:class:`Dynamic` and :class:`Cluster`, whose ``run`` computes a schedule
(no numerics), and :func:`parallel_schedule`, the scheduled pricing pass.

:class:`Static` is critical-path list scheduling with the standard
"upward rank" priority: a task's rank is its own duration plus the
maximum rank of its parents (here the tree has a single parent per
task, so rank = distance to the root in seconds).  Repeatedly take the
highest-rank ready task and place it on the worker where it can start
earliest.

Large fronts near the root serialize the whole machine if bound to one
worker, so tasks whose flop count exceeds ``gang_threshold`` are
*gang-scheduled*: they wait for every worker and run at
``duration / (1 + (p - 1) * GANG_EFFICIENCY)`` — the multifrontal analog
of WSMP switching to parallel dense kernels at the top of the
elimination tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.multifrontal.numeric import (
    FURecord,
    PricedPass,
    price_once_per_pattern,
)
from repro.parallel.pricing import TaskPricer
from repro.parallel.workers import WorkerPool
from repro.policies.base import Policy, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

if TYPE_CHECKING:
    from repro.cluster.topology import ClusterSpec
    from repro.runtime.engine import RuntimeResult
    from repro.runtime.faults import FaultInjector

__all__ = [
    "Cluster",
    "Dynamic",
    "Executor",
    "ScheduledTask",
    "Static",
    "parallel_schedule",
]

#: a gang task runs ``1 + (p - 1) * GANG_EFFICIENCY`` times faster on
#: ``p`` workers than on one
GANG_EFFICIENCY = 0.8


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one supernode's work."""

    sid: int
    worker: int              # -1 when gang-scheduled on all workers
    start: float
    end: float
    policy: str
    gang: bool = False
    #: bytes per word of the update it hands its parent
    #: (:meth:`repro.policies.base.Policy.update_word` of the policy it ran)
    update_word: int = 8

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Static:
    """The paper-faithful critical-path list scheduler: tasks bound to
    workers up front, tasks of at least ``gang_threshold`` flops
    gang-scheduled on every worker."""

    gang_threshold: float = 5e7

    def run(
        self, sf: SymbolicFactor, policy: Policy, pool: WorkerPool
    ) -> "RuntimeResult":
        """Compute the parallel schedule (no numerics).

        Returns start/end per supernode and the makespan, as a
        :class:`~repro.runtime.RuntimeResult` with zero counters and no
        spans.  With a single worker this degenerates to the serial
        postorder sum.
        """
        from repro.runtime.engine import RuntimeResult, RuntimeStats

        n_super = sf.n_supernodes
        p = pool.n_workers
        model = pool.node.model
        pricer = TaskPricer(sf, policy, model, pool.workers)
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
            gang = p > 1 and flops[s] >= self.gang_threshold
            if gang:
                # the whole pool runs it: priced on the pool's best shape
                fu, base = pricer.fu_time(s, pricer.best_worker)[:2]
                start = max(deps_done, max(worker_free))
                speed = 1.0 + (p - 1) * GANG_EFFICIENCY
                end = start + (fu + asm[s]) / speed
                for w in range(p):
                    worker_free[w] = end
                    worker_busy[w] += (end - start)
                schedule.append(ScheduledTask(
                    s, -1, start, end, base.name, True, base.update_word(model)
                ))
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
                schedule.append(ScheduledTask(
                    s, best_w, start, end, base.name, False, base.update_word(model)
                ))
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
        return RuntimeResult(
            makespan, tuple(schedule), tuple(worker_busy), RuntimeStats()
        )


@dataclass(frozen=True)
class Dynamic:
    """The event-driven runtime of :mod:`repro.runtime` on the pool's
    workers, tasks migrating between them: work stealing, memory-aware
    admission under ``memory_budget`` (bytes; ``None``: no admission
    control), dispatch-time policy selection and injected GPU
    ``faults`` (a :class:`repro.runtime.FaultInjector`)."""

    memory_budget: int | None = None
    faults: "FaultInjector | None" = None

    def run(
        self, sf: SymbolicFactor, policy: Policy, pool: WorkerPool
    ) -> "RuntimeResult":
        """Run the event loop over ``pool``'s workers (no numerics); the
        initial frontier is seeded on the first worker, the others
        steal."""
        from repro.runtime.engine import DynamicRuntime

        return DynamicRuntime(
            sf, policy, pool.workers, pool.node.model,
            memory_budget=self.memory_budget, faults=self.faults,
        ).run()


@dataclass(frozen=True)
class Cluster:
    """The same event loop with its tasks pinned to the ranks of a
    fleet (:mod:`repro.cluster`): ``owner`` maps every supernode to a
    rank (default: :func:`repro.cluster.map_subtrees_to_ranks`).  With
    no ``spec`` the fleet is two ranks of the pool node's shape: its
    perf model and, when it has a GPU, one GPU per rank like its first
    (same spec, same pool kinds)."""

    spec: "ClusterSpec | None" = None
    owner: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.owner is not None:
            object.__setattr__(
                self, "owner", tuple(np.asarray(self.owner).tolist())
            )

    def run(
        self, sf: SymbolicFactor, policy: Policy, pool: WorkerPool | None = None
    ) -> "RuntimeResult":
        """Run the fleet (no numerics): one node per rank of the spec
        (:meth:`~repro.cluster.ClusterSpec.build_nodes`), every task on
        its owner, and a child's update crossing the
        :class:`~repro.cluster.Interconnect` when its parent lives on
        another rank.  ``pool`` is read only to default the spec; with a
        spec every rank's GPU is a default Tesla T10."""
        from repro.cluster.interconnect import Interconnect
        from repro.cluster.mapping import map_subtrees_to_ranks
        from repro.cluster.topology import ClusterSpec
        from repro.runtime.engine import DynamicRuntime

        spec, gpu = self.spec, None
        if spec is None:
            if pool is None:
                raise ValueError(
                    "a Cluster without a spec takes its fleet's shape "
                    "from the pool's node: pass the pool"
                )
            node = pool.node
            gpu = node.gpus[0] if node.gpus else None
            spec = ClusterSpec(
                n_ranks=2, gpus_per_rank=int(gpu is not None), model=node.model
            )
        owner = np.asarray(
            map_subtrees_to_ranks(sf, spec.n_ranks) if self.owner is None
            else self.owner,
            dtype=np.int64,
        )
        if owner.shape != (sf.n_supernodes,):
            raise ValueError("owner must assign every supernode")
        if owner.size and (owner.min() < 0 or owner.max() >= spec.n_ranks):
            raise ValueError("owner contains invalid rank ids")
        workers = [
            spec.node_worker(r, node)
            for r, node in enumerate(spec.build_nodes(gpu))
        ]
        return DynamicRuntime(
            sf, policy, workers, spec.model, owner=owner,
            interconnect=Interconnect(spec.n_ranks, spec.interconnect),
        ).run()


#: how a scheduled pricing pass runs
Executor = Union[Static, Dynamic, Cluster]


def parallel_schedule(
    sf: SymbolicFactor,
    policy: Policy,
    pool: WorkerPool,
    executor: Executor,
) -> PricedPass:
    """The scheduled pricing pass: run ``executor`` over ``pool`` (no
    numerics), then take what the numerics pass on the pool's node
    needs from its schedule.  Supernode *s* is computed under
    ``policy.resolve(m, k, Worker.canonical(pool.node))`` whatever
    worker the schedule placed it on — the serial walk's rule — and
    tasks in the runtime's ``degraded_sids`` run the host fallback,
    exactly as their simulated execution did.  Records carry the
    schedule's times and policy names (those of the placed worker).

    The pass is a function of the pattern on a fresh node without
    faults or a memory budget, so it is paid once per pattern
    (:func:`repro.multifrontal.numeric.price_once_per_pattern`, keyed by
    the executor value): a warm call gets the pass — schedule, runtime
    counters, records, resolved policies, kernel seconds — and the end
    state of every GPU pool back without running the executor.
    """
    pure = not isinstance(executor, Dynamic) or executor == Dynamic()

    def price() -> PricedPass:
        runtime = executor.run(sf, policy, pool)
        worker = Worker.canonical(pool.node)
        by_sid = {t.sid: t for t in runtime.schedule}
        bases: list[Policy] = [policy] * sf.n_supernodes
        records: list[FURecord] = []
        for s in sf.spost.tolist():
            k = sf.width(s)
            m = sf.update_size(s)
            bases[s] = (
                policy.fallback if s in runtime.degraded_sids
                else policy.resolve(m, k, worker)
            )
            t = by_sid[s]
            records.append(
                FURecord(
                    sid=s, m=m, k=k, policy=t.policy, start=t.start, end=t.end,
                    components={}, flops=factor_update_flops(m, k),
                )
            )
        return PricedPass.of(
            sf, records, bases, worker, sf.spost, runtime.makespan,
            runtime=runtime,
        )

    return price_once_per_pattern(
        sf, policy, pool.node, pool.workers, executor if pure else None, price
    )
