"""Chrome-trace export of simulated schedules.

Any scheduled task set (from a factorization's node, a
:class:`~repro.gpu.clock.ScheduleResult`, or a list of
:class:`~repro.gpu.clock.SimTask` or :class:`~repro.gpu.clock.Span`) can
be dumped in the Chrome Trace Event Format and inspected in
``chrome://tracing`` / Perfetto — engines
become rows, tasks become slices colored by category, and overlap
(copy under compute, CPU under GPU) is visible at a glance.  Invaluable
when debugging why a policy's critical path is what it is.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.gpu.clock import SimTask, Span

__all__ = ["tasks_to_chrome_trace", "write_chrome_trace"]

#: stable thread ids per engine kind so related engines group together
_ENGINE_ORDER = ("cpu", "gpu", "nic")

#: cluster engines are namespaced ``node{i}.cpu`` / ``rank{i}.nic``; the
#: merged multi-node trace groups lanes node-major (all of node0, then
#: all of node1, ...), kind-ordered within each node
_NODE_PREFIX = re.compile(r"^(?:node|rank)(\d+)$")

_CATEGORY_COLOR = {
    "potrf": "thread_state_running",
    "trsm": "thread_state_runnable",
    "syrk": "thread_state_iowait",
    "gemm": "thread_state_unknown",
    "copy": "grey",
    "assemble": "yellow",
    "alloc": "black",
    "comm": "olive",
}


def _engine_rank(engine: str) -> int:
    """Position of the engine's kind in :data:`_ENGINE_ORDER`.

    Kinds match on any dot-separated component (``"cpu0"``,
    ``"gpu1.h2d"``, ``"rank0.nic"``); unknown kinds sort after all
    known ones.
    """
    for i, kind in enumerate(_ENGINE_ORDER):
        if any(part.startswith(kind) for part in engine.split(".")):
            return i
    return len(_ENGINE_ORDER)


def _engine_sort_key(engine: str) -> tuple[int, int, str]:
    """Row-ordering key: ``(node index, kind rank, name)``.

    Engines with a ``node{i}``/``rank{i}`` first component group
    node-major; un-namespaced engines keep node index -1 so single-node
    traces sort exactly as before.
    """
    head, _, rest = engine.partition(".")
    m = _NODE_PREFIX.match(head)
    if m:
        return (int(m.group(1)), _engine_rank(rest or head), engine)
    return (-1, _engine_rank(engine), engine)


def tasks_to_chrome_trace(
    tasks: Iterable[SimTask | Span], *, time_unit: float = 1e6
) -> dict:
    """Convert scheduled tasks to a Chrome Trace Event Format dict.

    ``time_unit`` scales simulated seconds into trace microseconds
    (default: 1 simulated second = 1 trace second).  Engine rows are
    grouped node-major when engines carry a ``node{i}.``/``rank{i}.``
    namespace (all of node0's lanes, then node1's, ...), then by kind in
    :data:`_ENGINE_ORDER` (all CPUs, then GPUs, then NICs),
    alphabetically within a kind, regardless of which engine's task
    happens to appear first in the stream.
    """
    tasks = list(tasks)
    for t in tasks:
        if not t.scheduled:
            raise ValueError(f"task {t.name!r} is not scheduled yet")
    engines = {
        name: tid
        for tid, name in enumerate(
            sorted({t.engine for t in tasks}, key=_engine_sort_key)
        )
    }
    events = []
    for t in tasks:
        tid = engines[t.engine]
        event = {
            "name": t.name,
            "cat": t.category,
            "ph": "X",
            "ts": t.start * time_unit,
            "dur": max(t.duration * time_unit, 0.01),
            "pid": 0,
            "tid": tid,
        }
        color = _CATEGORY_COLOR.get(t.category)
        if color:
            event["cname"] = color
        events.append(event)
    # thread name metadata so rows are labeled by engine
    for engine, tid in sorted(engines.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": engine},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tasks: Iterable[SimTask | Span], **kwargs) -> None:
    """Write a ``chrome://tracing``-loadable JSON file."""
    with open(path, "w") as fh:
        json.dump(tasks_to_chrome_trace(tasks, **kwargs), fh)
