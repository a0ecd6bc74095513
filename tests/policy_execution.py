"""Plan, schedule and apply one factor-update call in one go.

Under ``src/`` the clock and the numerics of a call are separate passes
(a pricing pass plans and schedules; ``postorder_numeric_factor`` is the
one caller of :meth:`Policy.apply`).  The policy tests, and the oracle
serial driver of ``tests/test_bench_properties.py``, want both for a
single front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.device import SimulatedNode
from repro.policies.base import FUPlan, Policy, Worker


@dataclass
class FUExecution:
    """Result of executing one F-U call under a policy."""

    #: views of what ``apply`` returned, in the dtype it computed them in
    l1: np.ndarray
    l2: np.ndarray
    u: np.ndarray
    plan: FUPlan
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


def execute(
    policy: Policy,
    front: np.ndarray,
    k: int,
    worker: Worker,
    node: SimulatedNode,
    deps: tuple = (),
) -> FUExecution:
    if policy.needs_gpu and not worker.has_gpu:
        raise ValueError(f"policy {policy.name} requires a GPU worker")
    m = front.shape[0] - k
    graph = TaskGraph()
    plan = policy.plan(m, k, worker, node.model, graph, deps)
    schedule_graph(graph, engines=node.engines)
    panel, u = policy.apply(front, k, worker)
    start = min(t.start for t in graph.tasks)
    return FUExecution(panel[:k], panel[k:], u, plan, start, plan.final.end)
