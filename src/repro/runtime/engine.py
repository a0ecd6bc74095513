"""The event-driven executor of the supernodal task DAG.

Where the :class:`repro.parallel.Static` list scheduler binds every
task to a worker up front, this loop decides *at run time*.  It is the
one event loop of the code base; what differs between its uses is the
task-to-worker mapping it is handed, not the loop:

* **migrating tasks** (no ``owner``; :class:`repro.parallel.Dynamic`,
  one node)
  — per-worker ready deques + work stealing: the frontier is seeded on
  one worker, a parent becomes ready on the worker that finished its
  last child, each worker pops its highest-upward-rank ready task, and
  an idle worker steals half of the busiest deque from the back
  (low-priority end), so critical-path work stays local and the steal
  amortizes over several tasks;
* **pinned tasks** (an ``owner`` vector and an interconnect;
  :class:`repro.parallel.Cluster`, a fleet of nodes) — every task
  runs on its owner, nothing is stolen, and a tree edge whose child and
  parent have different owners carries the child's update block across
  the interconnect as a message: the sender moves on immediately
  (fan-both, no global barrier) and the parent's dependency is
  satisfied at message *arrival*, not at the child's completion;
* **memory-aware admission** — before a front starts, the runtime
  projects the live update-stack (Liu's accounting from
  :mod:`repro.symbolic.stack`) plus the device high-water mark (the
  grow-only :class:`~repro.gpu.allocator.HighWaterMarkPool` of each
  simulated GPU) and refuses to start the front when the projection
  exceeds the budget — the task is deferred, not dropped.  A started
  front's update is charged at the word of the policy it resolved to (a
  device front's stays in the device word,
  :meth:`~repro.policies.base.Policy.update_word`) and
  freed by what it was charged; a front not yet started is projected at
  the host word, which no policy exceeds, so admission never reserves
  too little.  If deferral
  ever gridlocks the machine (nothing running, no event pending,
  nothing admissible), the single best task is force-admitted so
  completion is guaranteed;
* **dispatch-time policy selection** — the placement policy (P1..P4 via
  a hybrid selector) is resolved for the worker that actually picks the
  task up, at the moment it starts (``Policy.resolve``, the one rule):
  a CPU-only worker, or a GPU worker whose device the front's working
  set does not fit, transparently runs P1 — counted, never raised;
* **fault tolerance** — injected GPU kernel failures are retried once
  on the same policy, then degraded to host-only P1
  (:mod:`repro.runtime.faults`); transfer stalls add latency.  A faulty
  run *completes*, flagged ``degraded``, rather than raising.

The engine is a deterministic discrete-event simulation on a virtual
clock (:mod:`repro.runtime.events`): identical inputs produce identical
schedules, steal sequences, message orders, and fault outcomes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.gpu.clock import Span
from repro.parallel.pricing import TaskPricer
from repro.parallel.scheduler import ScheduledTask
from repro.policies.base import Policy, Worker
from repro.runtime.events import EventQueue, ReadyDeque
from repro.runtime.faults import FaultInjector
from repro.symbolic.stack import update_bytes
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "RuntimeStats",
    "RuntimeResult",
    "DynamicRuntime",
    "schedule_peak_update_bytes",
]


@dataclass(frozen=True)
class RuntimeStats:
    """Counters the event loop accumulated; exported via ``metrics()``."""

    steals: int = 0                 # steal transactions (thief-side)
    stolen_tasks: int = 0           # tasks that changed owner
    admission_deferrals: int = 0    # times a ready task was skipped for memory
    forced_admissions: int = 0      # budget overridden to avoid gridlock
    cpu_fallbacks: int = 0          # GPU policy resolved on a CPU-only worker
    device_fallbacks: int = 0       # front larger than device memory
    kernel_retries: int = 0         # failed device attempts that were retried
    degraded_tasks: int = 0         # tasks that ended on P1 after two failures
    transfer_stalls: int = 0
    peak_stack_bytes: int = 0       # update-stack high-water (Liu accounting)
    device_high_water: int = 0      # max device-pool capacity seen
    peak_admitted_bytes: int = 0    # max of (stack + device) the admission saw


@dataclass(frozen=True)
class RuntimeResult:
    """Outcome of one scheduling run: schedule + spans + counters, plus
    the communication ledger when the tasks were pinned to a fleet
    (``owner`` is ``None`` and the ledger empty on a migrating run).
    The static list scheduler returns one too, with zero counters and
    no spans.  Frozen all the way down (tuples, a read-only ``owner``),
    so a pass kept per pattern hands it out as it is."""

    makespan: float
    schedule: tuple[ScheduledTask, ...]  # .worker = worker / node index
    worker_busy: tuple[float, ...]
    stats: RuntimeStats
    spans: tuple[Span, ...] = ()
    degraded_sids: frozenset = frozenset()
    memory_budget: int | None = None
    owner: np.ndarray | None = None
    messages: tuple = ()
    nic_busy: tuple[float, ...] = ()
    comm_bytes: float = 0.0
    comm_seconds: float = 0.0

    @property
    def task_dispatches(self) -> int:
        """Work dispatches the schedule issued: one per front."""
        return len(self.schedule)

    def speedup_vs(self, serial_seconds: float) -> float:
        return serial_seconds / self.makespan if self.makespan > 0 else float("inf")

    @property
    def degraded(self) -> bool:
        """True when any task fell back to P1 after injected failures."""
        return bool(self.degraded_sids)

    @property
    def comm_messages(self) -> int:
        return len(self.messages)

    def utilization(self) -> float:
        if not self.worker_busy or self.makespan <= 0:
            return 0.0
        return float(np.mean(self.worker_busy) / self.makespan)

    def metrics(self):
        """Counters + duration histogram + spans as a
        :class:`repro.service.metrics.ServiceMetrics` (same export
        surface as the serving layer: ``report()``, ``chrome_trace()``).
        """
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics()
        s = self.stats
        for name, value in (
            ("tasks", len(self.schedule)),
            ("steals", s.steals),
            ("stolen_tasks", s.stolen_tasks),
            ("admission_deferrals", s.admission_deferrals),
            ("forced_admissions", s.forced_admissions),
            ("cpu_fallbacks", s.cpu_fallbacks),
            ("device_fallbacks", s.device_fallbacks),
            ("kernel_retries", s.kernel_retries),
            ("degraded_tasks", s.degraded_tasks),
            ("transfer_stalls", s.transfer_stalls),
            ("comm_messages", self.comm_messages),
        ):
            if value:
                m.incr(name, value)
        m.gauge("peak_stack_bytes", float(s.peak_stack_bytes))
        m.gauge("device_high_water", float(s.device_high_water))
        m.gauge("peak_admitted_bytes", float(s.peak_admitted_bytes))
        if self.owner is not None:
            m.gauge("comm_bytes", float(self.comm_bytes))
            m.gauge("comm_seconds", float(self.comm_seconds))
        for t in self.schedule:
            m.observe("task", t.elapsed)
        for w, busy in enumerate(self.worker_busy):
            m.gauge(f"worker{w}_busy_seconds", busy)
        for w, busy in enumerate(self.nic_busy):
            m.gauge(f"worker{w}_nic_seconds", busy)
        for span in self.spans:
            m.span(span.name, span.category, span.engine, span.start, span.end)
        return m

    def validate(self, sf) -> list[str]:
        """Verify this schedule against the symbolic tree's invariants.

        Delegates to :mod:`repro.verify.invariants`: every supernode ran
        exactly once, no parent started before its children finished,
        and the execution order conserves the update stack (each
        extend-add produced once and consumed exactly once).  Returns
        the list of violations (empty = valid).
        """
        from repro.verify.invariants import (
            check_schedule_precedence,
            check_update_conservation,
        )

        order = [t.sid for t in sorted(self.schedule, key=lambda t: t.end)]
        return (
            check_schedule_precedence(sf, self.schedule)
            + check_update_conservation(sf, order)
        )

    def chrome_trace(self) -> dict:
        """One merged Chrome trace; a fleet's lanes group node-major
        (``node0.cpu``, ``node0.gpu``, ``node0.nic``, ``node1.cpu``...)."""
        from repro.gpu.trace import tasks_to_chrome_trace

        return tasks_to_chrome_trace(self.spans)


def schedule_peak_update_bytes(
    sf: SymbolicFactor, schedule: list[ScheduledTask]
) -> int:
    """Peak live update-stack bytes of an already-timed schedule.

    Uses the runtime's (conservative) dispatch-time accounting: a task's
    children are freed when it *starts* (assembly consumes them) and its
    own update is charged from its start, so concurrent tasks' future
    outputs count as live.  A task is charged at the word of the policy
    it ran (``t.update_word``).  On a serial host schedule this coincides with
    :func:`repro.symbolic.stack.estimate_peak_update_bytes`; on a
    parallel one it prices what the machine must actually hold.
    """
    kids = sf.schildren()
    order = sorted(schedule, key=lambda t: (t.start, t.end, t.sid))
    charged: dict[int, int] = {}
    live = 0
    peak = 0
    for t in order:
        for c in kids[t.sid]:
            live -= charged.pop(c)
        charged[t.sid] = sf.update_size(t.sid) ** 2 * t.update_word
        live += charged[t.sid]
        peak = max(peak, live)
    return peak


@dataclass
class _Running:
    sid: int
    start: float
    end: float
    policy: str
    update_word: int
    device_bytes: int
    degraded: bool


class DynamicRuntime:
    """One event-driven execution of ``sf``'s task DAG over ``workers``.

    With no ``owner`` tasks migrate (seeded on one worker, stolen by the
    idle ones); with an ``owner`` vector — one worker index per
    supernode — and the ``interconnect`` the workers talk through, tasks
    are pinned and cross-owner updates travel as messages.

    Build it, call :meth:`run`, read the :class:`RuntimeResult`.  The
    class exists (rather than a closure) so tests can poke at the
    intermediate state; the ``run`` of the :class:`repro.parallel.Dynamic`
    and :class:`repro.parallel.Cluster` executors builds and runs it.
    """

    def __init__(
        self,
        sf: SymbolicFactor,
        policy: Policy,
        workers: list[Worker],
        model,
        *,
        owner: np.ndarray | None = None,
        interconnect=None,
        memory_budget: int | None = None,
        faults: FaultInjector | None = None,
    ):
        if (owner is None) != (interconnect is None):
            raise ValueError(
                "pinned tasks need an interconnect and migrating tasks "
                "none: pass owner and interconnect together"
            )
        self.sf = sf
        self.policy = policy
        self.workers = workers
        self.owner = owner
        self.interconnect = interconnect
        self.memory_budget = memory_budget
        self.faults = faults
        #: the run's :class:`RuntimeStats`, by field name
        self._counts: Counter[str] = Counter()

        self._kids = sf.schildren()
        self._gpu_workers = [w for w in workers if w.has_gpu]
        self._model = model
        self._pricer = TaskPricer(sf, policy, model, workers)
        self._asm = self._pricer.assembly_times()
        self._rank = self._pricer.upward_ranks()

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def _device_high_water(self) -> int:
        return max(
            (getattr(w.gpu.device_pool, "capacity", 0) for w in self._gpu_workers),
            default=0,
        )

    def _freed_bytes(self, s: int) -> int:
        """What the children of ready task ``s`` were charged."""
        return sum(self._charged[c] for c in self._kids[s])

    def _projected(self, s: int) -> int:
        stack = self._live - self._freed_bytes(s) + update_bytes(self.sf, s)
        return stack + self._device_high_water()

    def _admissible(self, s: int) -> bool:
        if self.memory_budget is None:
            return True
        return self._projected(s) <= self.memory_budget

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self) -> RuntimeResult:
        sf = self.sf
        n = sf.n_supernodes
        p = len(self.workers)
        self._events = EventQueue()
        self._deques = [ReadyDeque() for _ in range(p)]
        self._running: dict[int, _Running] = {}
        self._n_pending = np.array([len(self._kids[s]) for s in range(n)])
        self._live = 0
        #: update bytes each started task was charged, by supernode
        self._charged: dict[int, int] = {}
        self._schedule: list[ScheduledTask] = []
        self._spans: list[Span] = []
        self._busy = [0.0] * p
        self._degraded: set[int] = set()
        self._done = 0

        # migrating: all initially-ready tasks are seeded onto the first
        # worker and the others bootstrap by stealing, exactly like a
        # work-stealing runtime whose root task spawns the frontier;
        # pinned: each starts on its owner
        for s in range(n):
            if self._n_pending[s] == 0:
                self._push_ready(s, 0)

        while self._done < n:
            progress = True
            while progress:
                progress = False
                for w in range(p):
                    if w not in self._running and self._try_dispatch(w):
                        progress = True
            # messages can be in flight with every worker idle: only
            # "nothing running and no event pending" is gridlock
            if not self._running and not self._events:
                self._force_admit()
            handler, args = self._events.pop().payload
            handler(*args)

        if any(len(d) for d in self._deques):
            raise AssertionError("runtime finished with tasks still queued")
        makespan = max((t.end for t in self._schedule), default=0.0)
        self._schedule.sort(key=lambda t: (t.start, t.sid))
        owner = None
        if self.owner is not None:
            owner = np.array(self.owner)
            owner.flags.writeable = False
        net = self.interconnect
        ledger = {} if net is None else dict(
            messages=tuple(net.messages), nic_busy=tuple(net.nic_busy()),
            comm_bytes=net.comm_bytes, comm_seconds=net.comm_seconds,
        )
        return RuntimeResult(
            makespan=makespan,
            schedule=tuple(self._schedule),
            worker_busy=tuple(self._busy),
            stats=RuntimeStats(**self._counts),
            spans=tuple(self._spans),
            degraded_sids=frozenset(self._degraded),
            memory_budget=self.memory_budget,
            owner=owner,
            **ledger,
        )

    # -- dispatch ----------------------------------------------------------
    def _push_ready(self, s: int, w: int) -> None:
        """Queue ready task ``s``: on its owner when tasks are pinned,
        else on ``w`` (the worker that made it ready)."""
        if self.owner is not None:
            w = int(self.owner[s])
        self._deques[w].push(float(self._rank[s]), s, s)

    def _try_dispatch(self, w: int) -> bool:
        own = self._deques[w]
        if not own and (self.owner is not None or not self._steal_into(w)):
            return False
        for s in own:
            if self._admissible(s):
                own.remove(s)
                self._start(w, s)
                return True
            self._counts["admission_deferrals"] += 1
        return False

    def _steal_into(self, w: int) -> bool:
        """Steal half of the busiest other deque (from the back)."""
        victims = [
            v for v in range(len(self.workers))
            if v != w and len(self._deques[v]) > 0
        ]
        if not victims:
            return False
        victim = max(victims, key=lambda v: (len(self._deques[v]), -v))
        loot = self._deques[victim].steal_back(
            (len(self._deques[victim]) + 1) // 2
        )
        for s in loot:
            self._deques[w].push(float(self._rank[s]), s, s)
        self._counts["steals"] += 1
        self._counts["stolen_tasks"] += len(loot)
        return True

    def _force_admit(self) -> None:
        """Nothing running, nothing in flight and nothing admissible: the
        budget cannot be honored by waiting, so admit the ready task with
        the *smallest* memory projection — the least possible overshoot —
        counted so the caller can see the budget was infeasible."""
        best_w, best_s = -1, -1
        best_key: tuple[int, float, int] | None = None
        for w, dq in enumerate(self._deques):
            for s in dq.peek_all():
                key = (self._projected(s), -float(self._rank[s]), s)
                if best_key is None or key < best_key:
                    best_w, best_s, best_key = w, s, key
        if best_s < 0:
            raise AssertionError("runtime gridlock with no ready tasks")
        self._deques[best_w].remove(best_s)
        self._counts["forced_admissions"] += 1
        self._start(best_w, best_s)

    def _start(self, w: int, s: int) -> None:
        t0 = self._events.now
        worker = self.workers[w]
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        pricer = self._pricer
        fu, base, device_bytes, offload = pricer.fu_time(s, worker)
        if offload and not base.needs_gpu:
            if worker.has_gpu:
                # the selected device policy's working set does not fit
                self._counts["device_fallbacks"] += 1
            elif pricer.fu_time(s, pricer.best_worker)[1].needs_gpu:
                # dispatch-time selection picked the host path only because
                # this worker owns no GPU; a GPU worker would have offloaded
                self._counts["cpu_fallbacks"] += 1

        alloc_cost = 0.0
        stall = 0.0
        wasted = 0.0
        degraded = False
        if base.needs_gpu:
            # resolution asked the pool first, so this is never refused
            # (and is made, 0 bytes or not, for every device call)
            alloc_cost = worker.gpu.device_pool.request(device_bytes)
            if self.faults is not None:
                stall = self.faults.transfer_stall(s)
                if stall > 0.0:
                    self._counts["transfer_stalls"] += 1
                if self.faults.kernel_fails(s, 0):
                    wasted += self.faults.failure_point * fu
                    self._counts["kernel_retries"] += 1
                    if self.faults.kernel_fails(s, 1):
                        # second failure: degrade to host-only execution
                        wasted += self.faults.failure_point * fu
                        base = self.policy.fallback
                        fu = pricer.seconds(base, m, k)
                        degraded = True
                        self._counts["degraded_tasks"] += 1

        duration = float(self._asm[s]) + fu + alloc_cost + stall + wasted
        # Liu accounting, charged conservatively at dispatch: children are
        # consumed by the assembly, our own update is budgeted up front,
        # in the word of the policy it runs
        self._live -= self._freed_bytes(s)
        word = base.update_word(self._model)
        self._charged[s] = m * m * word
        self._live += self._charged[s]
        high_water = self._device_high_water()
        counts = self._counts
        for name, value in (
            ("peak_stack_bytes", self._live),
            ("device_high_water", high_water),
            ("peak_admitted_bytes", self._live + high_water),
        ):
            counts[name] = max(counts[name], value)
        run = _Running(
            s, t0, t0 + duration, base.name, word, device_bytes, degraded
        )
        self._running[w] = run
        self._events.push(run.end, (self._complete, (w,)))

    # -- completion --------------------------------------------------------
    def _complete(self, w: int) -> None:
        run = self._running.pop(w)
        worker = self.workers[w]
        s = run.sid
        if run.device_bytes and worker.has_gpu:
            worker.gpu.device_pool.release(run.device_bytes)
        self._schedule.append(
            ScheduledTask(
                s, w, run.start, run.end, run.policy, False, run.update_word
            )
        )
        self._add_span(
            f"s{s}:{run.policy}", worker.cpu_engine, run.start, run.end, "fu"
        )
        if run.device_bytes and self.interconnect is not None:
            # a fleet trace shows each node's device lane next to its host
            self._add_span(
                f"s{s}:{run.policy}", self._lane(w, "gpu"),
                run.start + float(self._asm[s]), run.end, "fu",
            )
        self._busy[w] += run.end - run.start
        if run.degraded:
            self._degraded.add(s)
        self._done += 1

        parent = int(self.sf.sparent[s])
        if parent < 0:
            return
        m = self.sf.update_size(s)
        # locality: a migrating parent becomes ready on the worker that
        # finished its last child; a pinned one on its owner
        dst = w if self.owner is None else int(self.owner[parent])
        if dst == w or m == 0:
            # local edge (or nothing to ship): the parent's dependency is
            # satisfied by completion itself
            self._satisfy(parent, dst)
        else:
            msg = self.interconnect.send_update(w, dst, s, m, ready=run.end)
            self._events.push(msg.arrival, (self._satisfy, (parent, dst)))
            self._add_span(
                f"send:s{s}->n{dst}", self._lane(w, "nic"),
                msg.send_start, msg.send_end, "comm",
            )

    def _satisfy(self, parent: int, w: int) -> None:
        self._n_pending[parent] -= 1
        if self._n_pending[parent] == 0:
            self._push_ready(parent, w)

    def _lane(self, w: int, kind: str) -> str:
        """Trace lane of fleet node ``w``'s GPU or NIC: its host lane's
        namespace (``node3.cpu`` -> ``node3.gpu``)."""
        return f"{self.workers[w].cpu_engine.rsplit('.', 1)[0]}.{kind}"

    def _add_span(
        self, name: str, engine: str, start: float, end: float, category: str
    ) -> None:
        self._spans.append(Span(name, engine, start, end, category))
