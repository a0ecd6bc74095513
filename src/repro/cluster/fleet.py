"""Sharded serving fleet: pattern-affinity routing with replica failover.

The single-node :class:`~repro.service.SolverService` becomes a fleet:
``n_nodes`` node-local shards, each with its own workers and its own
:class:`~repro.service.cache.FactorizationCache`.  Requests route by the
*pattern* component of the matrix key — every matrix with the same
sparsity structure lands on the same shard, so its symbolic/numeric
cache entries concentrate where they will be reused (cache-shard
affinity).

Routing is rendezvous (highest-random-weight) hashing over
``blake2b(pattern | node)``: deterministic, uniform, and minimally
disruptive — when a node leaves the healthy set, only the keys it owned
move, each to its next-ranked replica.  Node availability reuses
:class:`repro.runtime.faults.FaultInjector` with *node ids as sids*: a
node in ``fail_sids`` is down from the start; rate-driven faults take
nodes down deterministically per probe.  A request whose affinity
primary is unavailable fails over to the next replica and its outcome
is flagged ``degraded`` — the factor is cached on the replica shard,
never under the failed primary's key space.

Fleet-level :class:`~repro.service.metrics.ServiceMetrics` aggregate
per-node request counts and busy seconds, routing decisions, failovers,
and modeled interconnect bytes (request/response shipping priced by
:class:`~repro.cluster.topology.InterconnectParams`).

With a ``tiering`` config the fleet also shares factors across shards:
every shard's cache chains onto one fleet-wide *shared* object tier (an
eviction on shard A can be promoted by shard B), and on a local
numeric miss the router probes peer shards' private tiers.  A hit there is fetched over the
interconnect only when the modeled transfer is cheaper than
refactorizing locally (``interconnect.time(nbytes) <
produce_seconds``) — the same cost-model discipline the paper applies
to its P1–P4 policy selection.
"""

from __future__ import annotations

import hashlib
import threading

from repro.cluster.topology import InterconnectParams
from repro.service.cache import TierConfig
from repro.service.keys import matrix_key
from repro.service.metrics import ServiceMetrics
from repro.service.service import SolveOutcome, SolverService

__all__ = ["ShardRouter", "ShardedSolverService"]


class ShardRouter:
    """Deterministic pattern-affinity router over a fixed fleet.

    Rendezvous hashing: each ``(key, node)`` pair gets a 64-bit score
    from BLAKE2b; a key's nodes are ranked by descending score.  The
    healthy set is the only mutable state, guarded by a small lock that
    is never held across any solve or factorization work.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self._down: set[int] = set()
        self._lock = threading.Lock()

    @staticmethod
    def score(key: str, node: int) -> int:
        digest = hashlib.blake2b(
            f"{key}|node{node}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def ranking(self, key: str) -> list[int]:
        """All nodes, health-blind, by descending rendezvous score."""
        return sorted(
            range(self.n_nodes),
            key=lambda node: (-self.score(key, node), node),
        )

    def primary(self, key: str) -> int:
        """The node that owns ``key`` when the whole fleet is healthy."""
        return self.ranking(key)[0]

    def replicas(self, key: str) -> list[int]:
        """Healthy nodes in failover order for ``key``."""
        with self._lock:
            down = set(self._down)
        return [node for node in self.ranking(key) if node not in down]

    def route(self, key: str) -> int:
        """The healthy node serving ``key``; raises when none remain."""
        healthy = self.replicas(key)
        if not healthy:
            raise RuntimeError("no healthy nodes left in the fleet")
        return healthy[0]

    def mark_down(self, node: int) -> None:
        with self._lock:
            self._down.add(node)

    def mark_up(self, node: int) -> None:
        with self._lock:
            self._down.discard(node)

    def healthy_nodes(self) -> list[int]:
        with self._lock:
            down = set(self._down)
        return [node for node in range(self.n_nodes) if node not in down]


class ShardedSolverService:
    """A fleet of node-local :class:`SolverService` shards.

    Parameters
    ----------
    n_nodes : int
        Fleet size (one shard, one cache, per node).
    policy, ordering :
        Forwarded to every shard (:class:`~repro.service.SolverService`).
    n_workers_per_node, max_cache_bytes :
        Per-shard worker threads and cache budget.
    node_faults : FaultInjector, optional
        Node availability source; node ids play the role of sids.  Each
        routing probe of a node consumes one attempt, so rate-driven
        faults are deterministic in request order.
    interconnect : InterconnectParams, optional
        Prices the request/response bytes a routed solve ships (and a
        peer-fetched factor's transfer when tiering is on).
    metrics : ServiceMetrics, optional
        Fleet-level metrics sink (per-node counters, failovers, bytes).
    tiering : TierConfig, optional
        Build every shard's cache over storage tiers whose object tier
        is one *shared* :class:`~repro.service.tiers.StorageTier`
        spanning the fleet.
        ``max_cache_bytes`` is ignored in favour of
        ``tiering.ram_bytes``.
    peer_fetch : {"cost-model", "always", "off"}
        Cross-shard factor sharing on a local numeric miss (requires
        ``tiering``).  ``cost-model`` fetches a peer's factor over the
        interconnect only when the modeled transfer beats the factor's
        own (simulated) production time; ``always`` fetches
        unconditionally; ``off`` disables peer probing.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        *,
        policy="P1",
        ordering: str = "amd",
        n_workers_per_node: int = 1,
        max_cache_bytes: int = 64 << 20,
        node_faults=None,
        interconnect: InterconnectParams | None = None,
        metrics: ServiceMetrics | None = None,
        tiering: TierConfig | None = None,
        peer_fetch: str = "cost-model",
    ):
        if peer_fetch not in ("cost-model", "always", "off"):
            raise ValueError(
                "peer_fetch must be 'cost-model', 'always' or 'off', "
                f"got {peer_fetch!r}"
            )
        self.router = ShardRouter(n_nodes)
        self.node_faults = node_faults
        self.interconnect = (
            interconnect if interconnect is not None else InterconnectParams()
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # peer probing requires tiering: an untiered fleet refactorizes
        self.peer_fetch = peer_fetch if tiering is not None else "off"
        self.shared_tier = (
            tiering.build_shared_tier() if tiering is not None else None
        )
        self.shards = [
            SolverService(
                n_workers=n_workers_per_node,
                policy=policy,
                ordering=ordering,
                max_cache_bytes=max_cache_bytes,
                cache=(
                    tiering.build(shared=self.shared_tier)
                    if tiering is not None
                    else None
                ),
            )
            for _ in range(n_nodes)
        ]
        self._probe_lock = threading.Lock()
        self._probes = [0] * n_nodes

    @property
    def n_nodes(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def primary_for(self, a) -> int:
        """The shard that owns ``a``'s pattern when fully healthy."""
        key, _ = matrix_key(a)
        return self.router.primary(key.pattern)

    def _node_available(self, node: int) -> bool:
        """Probe one node's health; each probe consumes one fault attempt
        so rate-driven injectors stay deterministic in request order."""
        if self.node_faults is None:
            return True
        with self._probe_lock:
            attempt = self._probes[node]
            self._probes[node] += 1
        return not self.node_faults.kernel_fails(node, attempt)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def solve(self, a, b, **kwargs) -> SolveOutcome:
        """Route ``A x = b`` to its affinity shard, failing over past
        unavailable nodes; a failed-over outcome is flagged degraded."""
        key, canonical = matrix_key(a)
        pattern = key.pattern
        ranking = self.router.ranking(pattern)
        primary = ranking[0]
        self.metrics.incr("requests")
        for node in ranking:
            if node not in self.router.healthy_nodes():
                continue
            if not self._node_available(node):
                self.router.mark_down(node)
                self.metrics.incr("nodes_marked_down")
                continue
            self._maybe_peer_fetch(node, a, policy=kwargs.get("policy"))
            outcome = self.shards[node].solve(a, b, **kwargs)
            if node != primary:
                outcome.degraded = True
                self.metrics.incr("failovers")
            self.metrics.incr("routed")
            self.metrics.incr(f"node{node}.requests")
            self._account_transfer(node, canonical, b, outcome)
            self._refresh_busy(node)
            return outcome
        raise RuntimeError("no healthy nodes left in the fleet")

    def _maybe_peer_fetch(self, node: int, a, *, policy=None) -> None:
        """On a local numeric miss, probe peer shards and import their
        factor when the modeled interconnect transfer beats a local
        refactorization (``peer_fetch="always"`` skips the cost test).

        Only peers' *private* tiers matter here: a factor already in
        the fleet's shared object tier is visible to ``node``'s own
        cache chain and will be promoted by its normal lookup path.
        """
        if self.peer_fetch == "off":
            return
        shard = self.shards[node]
        cache = shard.cache
        _, num_key = shard.keys_for(a, policy=policy)
        if cache.has_numeric(num_key):
            return
        for peer in self.router.healthy_nodes():
            if peer == node:
                continue
            entry = self.shards[peer].cache.peek_numeric_entry(num_key)
            if entry is None:
                continue
            fetch_seconds = self.interconnect.time(entry.nbytes)
            if (
                self.peer_fetch != "always"
                and fetch_seconds >= entry.produce_seconds
            ):
                self.metrics.incr("peer_fetch_declined")
                return
            cache.put_numeric(num_key, entry.payload, nbytes=entry.nbytes)
            self.metrics.incr("peer_fetches")
            self.metrics.incr("peer_fetch_bytes", int(entry.nbytes))
            self.metrics.incr(f"node{node}.peer_fetches")
            self.metrics.observe("peer_fetch", fetch_seconds)
            return

    def _account_transfer(self, node: int, canonical, b, outcome) -> None:
        """Modeled interconnect cost of shipping the request and reply."""
        request_bytes = (
            canonical.data.nbytes
            + canonical.indices.nbytes
            + canonical.indptr.nbytes
            + b.nbytes
        )
        reply_bytes = outcome.x.nbytes
        nbytes = int(request_bytes + reply_bytes)
        self.metrics.incr("interconnect_bytes", nbytes)
        self.metrics.incr(f"node{node}.interconnect_bytes", nbytes)
        self.metrics.observe("interconnect", self.interconnect.time(nbytes))

    def _refresh_busy(self, node: int) -> None:
        """Per-node busy seconds: total worker time across pipeline
        stages of that shard, exported as a fleet gauge."""
        busy = 0.0
        for stage in ("analyze", "factorize", "solve"):
            hist = self.shards[node].metrics.histogram(stage)
            if hist is not None:
                busy += hist.total
        self.metrics.gauge(f"node{node}_busy_seconds", busy)

    # ------------------------------------------------------------------
    # lifecycle / reporting
    # ------------------------------------------------------------------
    def shutdown(self, *, wait: bool = True) -> None:
        for shard in self.shards:
            shard.shutdown(wait=wait)

    def __enter__(self) -> "ShardedSolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def health(self) -> dict:
        """Cheap fleet liveness: per-shard health plus up/down rollup.

        ``status`` is ``ok`` with the whole fleet routable, ``degraded``
        with at least one node down but a healthy replica left, and
        ``down`` when no node can take traffic.  Aggregates reuse the
        per-shard :meth:`SolverService.health` gauges, so the fleet
        answer stays O(nodes) with no factorization-path locks taken.
        """
        healthy = set(self.router.healthy_nodes())
        nodes = []
        queue_depth = 0
        cache_bytes = 0
        cache_max_bytes = 0
        utilization = 0.0
        for i, shard in enumerate(self.shards):
            h = shard.health()
            h["node"] = i
            h["up"] = i in healthy and h["accepting"]
            nodes.append(h)
            if h["up"]:
                queue_depth += h["queue_depth"]
                cache_bytes += h["cache_bytes"]
                cache_max_bytes += h["cache_max_bytes"]
                utilization = max(utilization, h["cache_utilization"])
        n_up = sum(1 for h in nodes if h["up"])
        if n_up == 0:
            status = "down"
        elif n_up < len(nodes):
            status = "degraded"
        else:
            status = "ok"
        out = {
            "status": status,
            "accepting": n_up > 0,
            "nodes_up": n_up,
            "nodes_total": len(nodes),
            "queue_depth": queue_depth,
            "cache_bytes": cache_bytes,
            "cache_max_bytes": cache_max_bytes,
            "cache_utilization": utilization,
            "nodes": nodes,
        }
        if self.shared_tier is not None:
            out["shared_tier"] = self._shared_tier_info()
        return out

    def _shared_tier_info(self) -> dict:
        """Occupancy + movement counters of the fleet-wide object tier,
        mirrored into fleet gauges so they ride ``/v1/metrics``."""
        t = self.shared_tier
        info = {"name": t.name, **t.snapshot()}
        self.metrics.gauge_tiers({"shared": info})
        return info

    def report(self) -> dict:
        """Fleet metrics plus every shard's own report."""
        out = {
            "fleet": self.metrics.report(),
            "healthy_nodes": self.router.healthy_nodes(),
            "nodes": [shard.report() for shard in self.shards],
        }
        if self.shared_tier is not None:
            out["shared_tier"] = self._shared_tier_info()
        return out
