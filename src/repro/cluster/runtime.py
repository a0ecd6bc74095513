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
never what is computed.  :func:`cluster_factorize` runs the timing
simulation for the makespan, then the one numerics pass
(:func:`repro.multifrontal.numeric.postorder_numeric_factor`, under
:func:`repro.parallel.scheduler.scheduled_fronts`) on one node of the
fleet's shape, so the factor (and its fingerprint) is
bit-identical to the serial walk's on that node at every rank count.
``SparseCholeskySolver(backend="cluster")`` prices through
:func:`cluster_replay` and runs the same numerics pass on the solver's
own node.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.interconnect import Interconnect
from repro.cluster.mapping import map_subtrees_to_ranks
from repro.cluster.topology import ClusterSpec
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.numeric import postorder_numeric_factor
from repro.parallel.scheduler import scheduled_fronts
from repro.policies.base import Policy
from repro.runtime.engine import DynamicRuntime, RuntimeResult
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "ClusterRunResult",
    "cluster_replay",
    "cluster_factorize",
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
    owner = validate_owner(sf, spec, owner)
    workers = [
        spec.node_worker(r, node) for r, node in enumerate(spec.build_nodes())
    ]
    return DynamicRuntime(
        sf, policy, workers, spec.model, owner=owner,
        interconnect=Interconnect(spec.n_ranks, spec.interconnect),
    ).run()


def cluster_factorize(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    spec: ClusterSpec,
    *,
    owner: np.ndarray | None = None,
) -> RuntimeResult:
    """Cluster-schedule *and* numerically factor.

    Times come from the fleet event loop; panels are computed in
    canonical postorder on one node of the fleet's shape
    (:meth:`ClusterSpec.build_nodes`), so the factor is bit-identical to
    the serial walk's on that node regardless of ``spec.n_ranks``.
    """
    result = cluster_replay(sf, policy, spec, owner=owner)
    node = spec.build_nodes()[0]
    result.factor = postorder_numeric_factor(
        a, sf, scheduled_fronts(sf, policy, node, result.schedule), node,
        makespan=result.makespan,
    )
    return result
