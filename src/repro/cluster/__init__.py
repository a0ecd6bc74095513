"""Cluster extension — the paper's stated future work.

The conclusions announce: "We are currently investigating the
feasibility of using the distributed-memory parallel version of WSMP to
develop a cluster version of the solver."  This subpackage builds that
system on top of the same simulation substrate:

* **topology** (:mod:`topology`) — a :class:`ClusterSpec` of homogeneous
  ranks, each one MPI-style node: a host CPU core with (optionally) one
  GPU, matching the paper's one-thread-per-GPU design point, owning its
  own engines and allocators;
* a **subtree-to-rank mapping** (:mod:`mapping`) in the spirit of the
  classical subtree-to-subcube assignment: the supernodal tree is split
  by subtree flops so every rank owns a balanced set of subtrees, and
  the top separators run on the rank that owns the heaviest branch;
* an **interconnect model** (:mod:`interconnect`): when a child
  supernode and its parent live on different ranks, the child's update
  matrix crosses the network (latency + bytes/bandwidth, serialized on
  the sender's NIC), delivered with a send-order seq tiebreak for
  determinism;
* **fleet execution** — fan-both on the one event-driven executor
  (:mod:`repro.runtime.engine`) with its tasks pinned to their owners:
  per-node ready deques driven by one merged
  :class:`~repro.runtime.events.EventQueue`; ancestors above the
  separator layer receive asynchronous update contributions at message
  arrival.  The :class:`repro.parallel.Cluster` executor runs it:
  ``Cluster(spec, owner).run(sf, policy)`` prices a whole factorization
  on a :class:`ClusterSpec` and reports makespan, per-node utilization,
  and communication volume — the quantities a cluster-scaling study
  needs — and :func:`repro.parallel.parallel_schedule` hands the same
  run to the one numerics pass, whose factor is bit-identical to
  ``backend="serial"`` at any node count;
* a **sharded serving fleet** (:mod:`fleet`) — pattern-affinity request
  routing across node-local :class:`~repro.service.SolverService`
  shards with replica failover under injected node faults.
"""

from repro.cluster.fleet import ShardedSolverService, ShardRouter
from repro.cluster.interconnect import (
    Interconnect,
    Message,
    update_message_bytes,
)
from repro.cluster.mapping import map_subtrees_to_ranks, subtree_flops
from repro.cluster.topology import ClusterSpec, InterconnectParams

__all__ = [
    "ClusterSpec",
    "InterconnectParams",
    "Interconnect",
    "Message",
    "ShardRouter",
    "ShardedSolverService",
    "map_subtrees_to_ranks",
    "subtree_flops",
    "update_message_bytes",
]
