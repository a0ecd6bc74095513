"""Event-driven cluster execution: fan-both over a simulated fleet.

This is the cluster-level extension of the :mod:`repro.runtime` event
engine.  Each rank is a full :class:`~repro.gpu.device.SimulatedNode`
(its own engines and allocators) running its owned subtrees in
upward-rank priority order; when a child supernode's parent lives on
another node, the child's update block crosses the
:class:`~repro.cluster.interconnect.Interconnect` asynchronously — the
sender moves on immediately (fan-both style, no global barrier) and the
parent's dependency count is satisfied at message *arrival*.  One
:class:`~repro.runtime.events.EventQueue` merges every node's timeline;
its seq tiebreak plus the interconnect's send-order seq keep the whole
fleet bit-for-bit deterministic.

Numerics are schedule-independent, exactly as for the static and
dynamic backends: :func:`cluster_factorize` runs the timing simulation
for the makespan, then runs the one numerics pass via
:func:`repro.parallel.scheduler.scheduled_numeric_factor` — so the
factor (and its fingerprint) is bit-identical to ``backend="serial"``
at every node count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.interconnect import Interconnect, Message, update_message_bytes
from repro.cluster.mapping import map_subtrees_to_ranks
from repro.cluster.topology import ClusterSpec
from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.clock import SimTask
from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.numeric import NumericFactor
from repro.parallel.scheduler import ScheduledTask, scheduled_numeric_factor
from repro.policies.base import Policy, Worker
from repro.runtime.engine import TaskPricer
from repro.runtime.events import EventQueue, ReadyDeque
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "ClusterRunResult",
    "ClusterRuntime",
    "cluster_replay",
    "cluster_factorize",
    "validate_owner",
]


def validate_owner(
    sf: SymbolicFactor, spec: ClusterSpec, owner: np.ndarray | None
) -> np.ndarray:
    """Default or validate a supernode-to-node assignment."""
    if owner is None:
        owner = map_subtrees_to_ranks(sf, spec.n_ranks)
    owner = np.asarray(owner, dtype=np.int64)
    if owner.shape != (sf.n_supernodes,):
        raise ValueError("owner must assign every supernode")
    if owner.size and (owner.min() < 0 or owner.max() >= spec.n_ranks):
        raise ValueError("owner contains invalid rank ids")
    return owner


@dataclass
class ClusterRunResult:
    """Outcome of one cluster run: merged schedule, comm accounting."""

    makespan: float
    owner: np.ndarray
    schedule: list[ScheduledTask]        # .worker = owning node index
    node_busy: list[float]
    nic_busy: list[float]
    comm_bytes: float
    comm_messages: int
    comm_seconds: float
    messages: list[Message] = field(default_factory=list)
    spans: list[SimTask] = field(default_factory=list)
    nodes: list[SimulatedNode] = field(default_factory=list)
    factor: NumericFactor | None = None

    @property
    def worker_busy(self) -> list[float]:
        """Alias so cluster results satisfy the ParallelResult surface."""
        return self.node_busy

    @property
    def degraded(self) -> bool:
        """Node-level failures are handled by the fleet router
        (:mod:`repro.cluster.fleet`), not inside a single run."""
        return False

    def speedup_vs(self, serial_seconds: float) -> float:
        return serial_seconds / self.makespan if self.makespan > 0 else float("inf")

    def utilization(self) -> float:
        if not self.node_busy or self.makespan <= 0:
            return 0.0
        return float(np.mean(self.node_busy) / self.makespan)

    def cross_edges(self, sf: SymbolicFactor) -> int:
        """Tree edges whose child and parent live on different nodes."""
        return sum(
            1
            for s in range(sf.n_supernodes)
            if sf.sparent[s] != NO_PARENT
            and self.owner[sf.sparent[s]] != self.owner[s]
        )

    def metrics(self):
        """Fleet counters + spans as a
        :class:`repro.service.metrics.ServiceMetrics` (same export
        surface as the runtime and the serving layer)."""
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics()
        for name, value in (
            ("tasks", len(self.schedule)),
            ("comm_messages", self.comm_messages),
        ):
            if value:
                m.incr(name, value)
        m.gauge("comm_bytes", float(self.comm_bytes))
        m.gauge("comm_seconds", float(self.comm_seconds))
        for r, busy in enumerate(self.node_busy):
            m.gauge(f"node{r}_busy_seconds", busy)
        for r, busy in enumerate(self.nic_busy):
            m.gauge(f"node{r}_nic_seconds", busy)
        for t in self.schedule:
            m.observe("task", t.elapsed)
        for span in self.spans:
            m.span(span.name, span.category, span.engine, span.start, span.end)
        return m

    def validate(self, sf: SymbolicFactor) -> list[str]:
        """Schedule precedence + update conservation, as for the
        dynamic runtime (see :meth:`RuntimeResult.validate`)."""
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
        """One merged Chrome trace; lanes group node-major
        (``node0.cpu``, ``node0.gpu``, ``node0.nic``, ``node1.cpu``...)."""
        from repro.gpu.trace import tasks_to_chrome_trace

        return tasks_to_chrome_trace(self.spans)


@dataclass
class _Running:
    sid: int
    start: float
    end: float
    policy: str
    device_bytes: int


class ClusterRuntime:
    """One deterministic cluster execution of ``sf``'s task DAG.

    Build it, call :meth:`run`, read the :class:`ClusterRunResult`.
    """

    def __init__(
        self,
        sf: SymbolicFactor,
        policy: Policy,
        spec: ClusterSpec,
        *,
        owner: np.ndarray | None = None,
    ):
        self.sf = sf
        self.policy = policy
        self.spec = spec
        self.owner = validate_owner(sf, spec, owner)
        self.nodes = spec.build_nodes()
        self.workers: list[Worker] = [
            spec.node_worker(r, node) for r, node in enumerate(self.nodes)
        ]
        self._kids = sf.schildren()
        has_gpu = spec.gpus_per_rank > 0
        self._pricer = TaskPricer(
            sf, policy, spec.model,
            gpu_worker=self.workers[0] if has_gpu else None,
            cpu_worker=Worker(cpu_engine="cpu0", gpu=None),
        )
        self._asm = self._pricer.assembly_times()
        self._rank = self._pricer.upward_ranks(has_gpu)

    def run(self) -> ClusterRunResult:
        sf = self.sf
        n = sf.n_supernodes
        p = self.spec.n_ranks
        self._events = EventQueue()
        self._net = Interconnect(p, self.spec.interconnect)
        self._deques = [ReadyDeque() for _ in range(p)]
        self._running: dict[int, _Running] = {}
        self._n_pending = np.array(
            [len(self._kids[s]) for s in range(n)], dtype=np.int64
        )
        self._schedule: list[ScheduledTask] = []
        self._spans: list[SimTask] = []
        self._busy = [0.0] * p
        self._done = 0

        for s in range(n):
            if self._n_pending[s] == 0:
                self._deques[int(self.owner[s])].push(float(self._rank[s]), s, s)

        while self._done < n:
            for r in range(p):
                if r not in self._running and self._deques[r]:
                    self._start(r, self._deques[r].pop_front())
            if not self._events:
                raise AssertionError("cluster gridlock: no events pending")
            ev = self._events.pop()
            kind = ev.payload[0]
            if kind == "done":
                self._complete(ev.payload[1])
            else:
                self._deliver(ev.payload[1])

        if any(len(d) for d in self._deques):
            raise AssertionError("cluster finished with tasks still queued")
        makespan = max((t.end for t in self._schedule), default=0.0)
        self._schedule.sort(key=lambda t: (t.start, t.sid))
        return ClusterRunResult(
            makespan=makespan,
            owner=self.owner,
            schedule=self._schedule,
            node_busy=self._busy,
            nic_busy=self._net.nic_busy(),
            comm_bytes=self._net.comm_bytes,
            comm_messages=self._net.comm_messages,
            comm_seconds=self._net.comm_seconds,
            messages=list(self._net.messages),
            spans=self._spans,
            nodes=self.nodes,
        )

    # -- dispatch ----------------------------------------------------------
    def _start(self, r: int, s: int) -> None:
        t0 = self._events.clock.now
        worker = self.workers[r]
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        fu, name = self._pricer.fu_time(s, worker.has_gpu)
        alloc_cost = 0.0
        device_bytes = 0
        if name != "P1" and worker.has_gpu:
            demand = self._pricer.device_demand(name, m, k)
            try:
                alloc_cost = worker.gpu.device_pool.request(demand)
                device_bytes = demand
            except DeviceMemoryError:
                # front larger than the device: host path, as everywhere
                fu, name = self._pricer.p1_time(s), "P1"
        duration = float(self._asm[s]) + fu + alloc_cost
        run = _Running(s, t0, t0 + duration, name, device_bytes)
        self._running[r] = run
        self._events.push(run.end, ("done", r))

    # -- completion --------------------------------------------------------
    def _complete(self, r: int) -> None:
        run = self._running.pop(r)
        worker = self.workers[r]
        s = run.sid
        if run.device_bytes and worker.has_gpu:
            worker.gpu.device_pool.release(run.device_bytes)
        self._schedule.append(
            ScheduledTask(s, r, run.start, run.end, run.policy, False)
        )
        self._add_span(
            f"s{s}:{run.policy}", worker.cpu_engine, run.start, run.end, "fu"
        )
        if run.device_bytes:
            self._add_span(
                f"s{s}:{run.policy}", f"node{r}.gpu",
                run.start + float(self._asm[s]), run.end, "fu",
            )
        self._busy[r] += run.end - run.start
        self._done += 1

        p = int(self.sf.sparent[s])
        if p == NO_PARENT:
            return
        m = self.sf.update_size(s)
        dst = int(self.owner[p])
        if dst == r or m == 0:
            # local edge (or nothing to ship): the parent's dependency is
            # satisfied by completion itself
            self._satisfy(p)
        else:
            msg = self._net.send(
                r, dst, s, update_message_bytes(m), ready=run.end
            )
            self._events.push(msg.arrival, ("arrive", msg))
            self._add_span(
                f"send:s{s}->n{dst}", f"node{r}.nic",
                msg.send_start, msg.send_end, "comm",
            )

    def _deliver(self, msg: Message) -> None:
        self._satisfy(int(self.sf.sparent[msg.sid]))

    def _satisfy(self, parent: int) -> None:
        self._n_pending[parent] -= 1
        if self._n_pending[parent] == 0:
            self._deques[int(self.owner[parent])].push(
                float(self._rank[parent]), parent, parent
            )

    def _add_span(
        self, name: str, engine: str, start: float, end: float, category: str
    ) -> None:
        span = SimTask(name, engine, end - start, (), category)
        span.start = start
        span.end = end
        self._spans.append(span)


def cluster_replay(
    sf: SymbolicFactor,
    policy: Policy,
    spec: ClusterSpec,
    *,
    owner: np.ndarray | None = None,
) -> ClusterRunResult:
    """Timing-only cluster run (works on synthetic workloads too)."""
    return ClusterRuntime(sf, policy, spec, owner=owner).run()


def cluster_factorize(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    spec: ClusterSpec,
    *,
    owner: np.ndarray | None = None,
) -> ClusterRunResult:
    """Cluster-schedule *and* numerically factor.

    Times come from the fleet event loop; panels are computed in
    canonical postorder against one representative worker of the fleet's
    node shape, so the factor is bit-identical to ``backend="serial"``
    regardless of ``spec.n_ranks``.
    """
    result = cluster_replay(sf, policy, spec, owner=owner)
    numeric_node = SimulatedNode(
        model=spec.model, n_cpus=1, n_gpus=spec.gpus_per_rank
    )
    numeric_worker = Worker(
        cpu_engine=numeric_node.cpus[0].engine,
        gpu=numeric_node.gpus[0] if numeric_node.gpus else None,
    )
    result.factor = scheduled_numeric_factor(
        a, sf, policy, numeric_worker, numeric_node, result.schedule,
        makespan=result.makespan,
    )
    return result
