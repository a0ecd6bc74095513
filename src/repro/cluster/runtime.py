"""Cluster execution: fan-both over a simulated fleet.

A fleet run is the event-driven executor of :mod:`repro.runtime.engine`
with its tasks *pinned*: each rank is a full
:class:`~repro.gpu.device.SimulatedNode` (its own engines and
allocators) running the subtrees it owns in upward-rank priority order,
and when a child supernode's parent lives on another node the child's
update block crosses the :class:`~repro.cluster.interconnect.Interconnect`
asynchronously — the sender moves on immediately (fan-both style, no
global barrier) and the parent's dependency count is satisfied at
message *arrival*.  What this module adds on top of the loop is the
fleet itself: the supernode-to-rank map, the rank workers and the
interconnect they talk through.

A fleet run only prices: it decides where and when each front runs,
never what is computed.  ``parallel_schedule(sf, policy, pool,
Cluster(spec))`` (:class:`repro.parallel.Cluster`) hands the fleet's
schedule to the one numerics pass
(:func:`repro.multifrontal.numeric.postorder_numeric_factor`) on the
pool's node, so the factor (and its fingerprint) is bit-identical to the
serial walk's on that node at every rank count.
``SparseCholeskySolver(backend="cluster")`` does exactly that on a
two-rank fleet of the solver node's shape.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.interconnect import Interconnect
from repro.cluster.mapping import map_subtrees_to_ranks
from repro.cluster.topology import ClusterSpec
from repro.gpu.device import SimulatedNode
from repro.policies.base import Policy
from repro.runtime.engine import DynamicRuntime, RuntimeResult
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "ClusterRunResult",
    "cluster_replay",
    "run_fleet",
    "validate_owner",
]

#: a fleet run's result is the executor's, communication ledger filled in
ClusterRunResult = RuntimeResult


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


def cluster_replay(
    sf: SymbolicFactor,
    policy: Policy,
    spec: ClusterSpec,
    *,
    owner: np.ndarray | None = None,
) -> RuntimeResult:
    """Timing-only cluster run (works on synthetic workloads too)."""
    return run_fleet(sf, policy, spec, spec.build_nodes(), owner)


def run_fleet(
    sf: SymbolicFactor,
    policy: Policy,
    spec: ClusterSpec,
    nodes: list[SimulatedNode],
    owner=None,
) -> RuntimeResult:
    """The event loop with ``sf``'s tasks pinned to ``spec``'s ranks,
    one of ``nodes`` each (:meth:`ClusterSpec.build_nodes`)."""
    owner = validate_owner(sf, spec, owner)
    workers = [spec.node_worker(r, node) for r, node in enumerate(nodes)]
    return DynamicRuntime(
        sf, policy, workers, spec.model, owner=owner,
        interconnect=Interconnect(spec.n_ranks, spec.interconnect),
    ).run()
