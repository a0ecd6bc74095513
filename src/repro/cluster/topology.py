"""Cluster topology: node shape, network parameters, per-node resources.

A fleet is ``n_ranks`` homogeneous nodes, each one host thread plus at
most one GPU (the paper's one-thread-per-GPU design point), joined by a
full-crossbar interconnect priced per message as
``latency + bytes / bandwidth`` and serialized on the sender's NIC.

:class:`ClusterSpec` is the description the :class:`repro.parallel.Cluster`
executor takes: its ``run`` hands the spec's rank workers to the
event-driven executor.  The ``backend="cluster"`` mode of
:class:`repro.multifrontal.SparseCholeskySolver` prices on a two-rank
spec of the solver node's shape, each rank's GPU like the node's first
(:meth:`ClusterSpec.build_nodes`), and computes the factor on the
solver's own node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.allocator import HighWaterMarkPool
from repro.gpu.device import SimulatedGpu, SimulatedNode
from repro.gpu.perfmodel import PerfModel, tesla_t10_model
from repro.policies.base import Worker

__all__ = ["InterconnectParams", "ClusterSpec"]


@dataclass(frozen=True)
class InterconnectParams:
    """Network model (defaults ~ DDR InfiniBand of the paper's era)."""

    latency: float = 5e-6          # per-message seconds
    bandwidth: float = 1.5e9       # bytes/s per NIC

    def time(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ranks.  Frozen: a spec is part of the
    :class:`~repro.parallel.Cluster` executor value that keys a kept
    pricing pass, so another fleet is another spec
    (``dataclasses.replace``)."""

    n_ranks: int = 2
    gpus_per_rank: int = 1         # 0 or 1 (one host thread per GPU)
    model: PerfModel = field(default_factory=tesla_t10_model)
    interconnect: InterconnectParams = field(default_factory=InterconnectParams)

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        if self.gpus_per_rank not in (0, 1):
            raise ValueError("a rank drives at most one GPU (paper design point)")

    def build_nodes(
        self, like: SimulatedGpu | None = None
    ) -> list[SimulatedNode]:
        """One :class:`SimulatedNode` per rank — each owns its own
        engines, allocators, and (by extension) virtual timeline.  A
        rank's GPU is a default Tesla T10, or one of ``like``'s spec and
        pool kinds."""
        pooling = like is None or isinstance(like.device_pool, HighWaterMarkPool)
        nodes = [
            SimulatedNode(
                model=self.model, n_cpus=1, n_gpus=self.gpus_per_rank,
                pinned_pooling=pooling,
            )
            for _ in range(self.n_ranks)
        ]
        if like is not None:
            for node in nodes:
                node.gpus = [
                    SimulatedGpu(self.model, g.gpu_id, like.spec,
                                 pinned_pooling=pooling)
                    for g in node.gpus
                ]
        return nodes

    def node_worker(self, rank: int, node: SimulatedNode) -> Worker:
        """Rank ``rank``'s worker lane, with a fleet-namespaced engine
        name (``node{rank}.cpu``) so merged traces lane-sort node-major."""
        gpu = node.gpus[0] if node.gpus else None
        return Worker(cpu_engine=f"node{rank}.cpu", gpu=gpu)
