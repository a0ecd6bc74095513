"""Worker pools for the parallel runs.

A worker is a host CPU engine optionally paired with one GPU (the
paper's design point: "our approach uses the same number of threads as
the number of available GPUs").  ``make_worker_pool(n_cpus, n_gpus)``
builds the standard configurations:

* ``make_worker_pool(4, 0)`` — the 4-thread CPU run of Table VII,
* ``make_worker_pool(1, 1)`` — the single-GPU hybrid runs,
* ``make_worker_pool(2, 2)`` — the 2-thread/2-GPU run (last column).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import SimulatedNode
from repro.gpu.perfmodel import PerfModel
from repro.policies.base import Worker

__all__ = ["WorkerPool", "make_worker_pool"]


@dataclass
class WorkerPool:
    """The node plus its worker lanes."""

    node: SimulatedNode
    workers: list[Worker]

    @classmethod
    def over(cls, node: SimulatedNode) -> "WorkerPool":
        """One worker per host CPU of ``node``, the first ``n_gpus`` of
        them owning a GPU each (one host thread per GPU)."""
        gpus = node.gpus + [None] * (len(node.cpus) - len(node.gpus))
        return cls(node, [Worker(c.engine, g) for c, g in zip(node.cpus, gpus)])

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def n_gpus(self) -> int:
        return sum(1 for w in self.workers if w.has_gpu)

    def gpu_worker(self) -> Worker | None:
        """A canonical GPU-capable worker (used to run the numerics of
        device policies; which physical GPU is numerically irrelevant)."""
        for w in self.workers:
            if w.has_gpu:
                return w
        return None


def make_worker_pool(
    n_cpus: int,
    n_gpus: int,
    *,
    model: PerfModel | None = None,
) -> WorkerPool:
    """Build a pool of ``n_cpus`` workers, the first ``n_gpus`` of which
    own a GPU each.  Requires ``n_gpus <= n_cpus`` (a GPU is always
    driven by a dedicated host thread)."""
    if n_gpus > n_cpus:
        raise ValueError("each GPU needs its own host thread (n_gpus <= n_cpus)")
    kwargs = {} if model is None else {"model": model}
    return WorkerPool.over(SimulatedNode(n_cpus=n_cpus, n_gpus=n_gpus, **kwargs))
