"""Deterministic discrete-event scheduling of kernel/copy tasks.

The simulation model is intentionally minimal: a set of *engines* (a CPU
core, a GPU compute queue, the H2D and D2H DMA engines) each execute at
most one task at a time, in submission order, subject to explicit
dependencies.  This is exactly the semantics of CUDA streams pinned to
queues and is enough to express every overlap the paper exploits
(copy/compute overlap, CPU potrf concurrent with H2D transfers, D2H of
the solved panel under the syrk).

``schedule_graph`` computes start/end times for every task:

    start(t) = max(release, engine_free_at, max_{d in deps} end(d))

Tasks must be submitted in an order consistent with their dependencies
(policies build graphs topologically, so this holds by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SimTask",
    "Span",
    "TaskGraph",
    "EngineTimeline",
    "engine_counters",
    "schedule_graph",
]


@dataclass
class SimTask:
    """One unit of simulated work bound to an engine.

    Attributes
    ----------
    name : str
        Human-readable label (``"syrk"``, ``"h2d:L2"``); also used by the
        instrumentation layer to attribute time to components.
    engine : str
        Engine identifier; tasks on the same engine serialize.
    duration : float
        Simulated seconds.
    deps : tuple of SimTask
        Tasks that must finish before this one starts.
    category : str
        Coarse component bucket for reporting: ``potrf | trsm | syrk |
        gemm | copy | assemble | other``.
    """

    name: str
    engine: str
    duration: float
    deps: tuple = ()
    category: str = "other"
    start: float = field(default=-1.0, compare=False)
    end: float = field(default=-1.0, compare=False)

    @property
    def scheduled(self) -> bool:
        return self.end >= 0.0


@dataclass(frozen=True)
class Span:
    """A finished piece of simulated work on an engine, as a run hands it
    out: the fields of a scheduled :class:`SimTask`, frozen, so a copy of
    the list that holds it shares nothing a caller can change."""

    name: str
    engine: str
    start: float
    end: float
    category: str = "other"
    #: a span is always scheduled (what the trace exporter checks)
    scheduled = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EngineTimeline:
    """Per-engine availability and busy-time accounting."""

    name: str
    free_at: float = 0.0
    busy: float = 0.0
    n_tasks: int = 0

    def utilization(self, horizon: float) -> float:
        return self.busy / horizon if horizon > 0 else 0.0


class TaskGraph:
    """An appendable DAG of :class:`SimTask` with convenience constructors."""

    def __init__(self):
        self.tasks: list[SimTask] = []

    def add(
        self,
        name: str,
        engine: str,
        duration: float,
        deps: tuple | list = (),
        category: str = "other",
    ) -> SimTask:
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        task = SimTask(name, engine, float(duration), tuple(deps), category)
        self.tasks.append(task)
        return task

    def extend(self, other: "TaskGraph") -> None:
        self.tasks.extend(other.tasks)

    def total_by_category(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for t in self.tasks:
            out[t.category] = out.get(t.category, 0.0) + t.duration
        return out

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class ScheduleResult:
    """Outcome of scheduling a task graph."""

    makespan: float
    engines: dict[str, EngineTimeline]
    tasks: list[SimTask]
    start_time: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.makespan - self.start_time

    def time_by_category(self) -> dict[str, float]:
        """Busy time per category (not wall time — overlapped work counts
        fully, matching how the paper reports per-component costs)."""
        out: dict[str, float] = {}
        for t in self.tasks:
            out[t.category] = out.get(t.category, 0.0) + t.duration
        return out


def schedule_graph(
    graph: TaskGraph,
    *,
    start_time: float = 0.0,
    engines: dict[str, EngineTimeline] | None = None,
) -> ScheduleResult:
    """Assign start/end times to every task in ``graph``.

    Parameters
    ----------
    graph : TaskGraph
        Tasks in an order consistent with their dependencies.
    start_time : float
        Simulated release time of the whole graph.
    engines : dict, optional
        Pre-existing engine timelines to continue from (lets successive
        F-U calls share engine state so cross-call pipelining is modeled);
        new engines are created on first use.

    Returns
    -------
    ScheduleResult with per-task times filled in.
    """
    eng = engines if engines is not None else {}
    makespan = start_time
    for task in graph.tasks:
        for d in task.deps:
            if not d.scheduled:
                raise ValueError(
                    f"task {task.name!r} submitted before its dependency {d.name!r}"
                )
        timeline = eng.setdefault(task.engine, EngineTimeline(task.engine))
        ready = start_time
        for d in task.deps:
            ready = max(ready, d.end)
        task.start = max(ready, timeline.free_at)
        task.end = task.start + task.duration
        timeline.free_at = task.end
        timeline.busy += task.duration
        timeline.n_tasks += 1
        makespan = max(makespan, task.end)
    return ScheduleResult(makespan, eng, list(graph.tasks), start_time)


def engine_counters(
    engines: dict[str, EngineTimeline], prefix: str = "engine"
) -> dict[str, float | int]:
    """Flatten per-engine timelines into deterministic named counters.

    Everything here is derived from the virtual clock — simulated busy
    seconds, task counts, final availability — so the values are
    bit-stable across runs and machines.  The benchmark harness
    (:mod:`repro.bench`) records them as regression-gated counters.
    """
    out: dict[str, float | int] = {}
    for name in sorted(engines):
        t = engines[name]
        out[f"{prefix}.{name}.busy_seconds"] = float(t.busy)
        out[f"{prefix}.{name}.tasks"] = int(t.n_tasks)
        out[f"{prefix}.{name}.free_at"] = float(t.free_at)
    return out


def critical_path(result: ScheduleResult) -> list[SimTask]:
    """Recover one critical path (latest-finishing chain) for diagnostics."""
    if not result.tasks:
        return []
    current = max(result.tasks, key=lambda t: t.end)
    path = [current]
    while True:
        # the predecessor that pinned our start: a dep or the engine's
        # previous task ending exactly at our start
        blockers = [d for d in current.deps if d.end == current.start]
        if not blockers:
            same_engine = [
                t
                for t in result.tasks
                if t is not current and t.engine == current.engine and t.end == current.start
            ]
            blockers = same_engine
        if not blockers:
            break
        current = blockers[0]
        path.append(current)
    path.reverse()
    return path
