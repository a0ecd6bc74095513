"""Composable invariant checkers for the factorization pipeline.

Each checker inspects one structural promise of the system and returns a
list of human-readable violations (empty = invariant holds), so they
compose into suites, the fuzz driver, and the shrinker's predicates
without raising mid-run.  The checkers are deliberately *independent* of
the code they check: update-stack conservation, for instance, re-derives
the produced/consumed ledger from the symbolic tree rather than trusting
the numeric driver's own accounting.

Checkers
--------
* :func:`check_symbolic_structure` — supernode partition, postorder
  validity, and the extend-add containment (every child's update rows
  appear in its parent's front).
* :func:`check_update_conservation` — every update matrix produced by a
  schedule is consumed exactly once, by the producer's parent, after it
  was produced; nothing is left on the stack at the end.
* :func:`check_amalgamated_structure` — every amalgamation preset's
  coarser tree still satisfies extend-add containment and update-stack
  conservation, and each amalgamated supernode boundary coincides with
  a fundamental-supernode boundary (amalgamation only merges, it never
  splits or shifts columns).
* :func:`check_schedule_precedence` — a timed (possibly parallel)
  schedule runs every supernode exactly once and never starts a parent
  before its children finished.
* :func:`check_allocator_state` — after a run, every device pool has
  released what it held, and the grow-only capacity matches its own
  high-water statistics.
* :func:`check_cache_key_purity` — same cache key implies same factor
  bytes: factoring the same matrix twice under one config fingerprints
  equal, and the key derivation is deterministic.
* :func:`check_factor_residual` — the factor actually factors the
  matrix (randomized ``L L^T v`` vs ``P A P^T v`` probe); this is the
  oracle that catches an injected kernel bug that every configuration
  shares.
* :func:`check_degraded_still_solves` — under total injected GPU kernel
  failure the dynamic backend degrades to P1 but still produces a
  factor that solves to double-precision backward error.
* :func:`check_fleet_failover` — with the affinity-primary node of a
  sharded fleet taken down by injected faults, the router fails over to
  a replica, the outcome is flagged degraded, the factor is never
  cached on the dead primary, and the answer still solves.
* :func:`check_tier_coherence` — a factor that round-trips through the
  storage hierarchy (spilled and promoted back) or crosses the fleet
  interconnect (peer-fetched) carries the same BLAKE2b
  ``factor_fingerprint`` as a fresh local refactorization, and
  timed-out / degraded requests never populate any tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.policies.base import Policy
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "ExplodingPolicy",
    "InvariantReport",
    "check_symbolic_structure",
    "check_update_conservation",
    "check_amalgamated_structure",
    "check_schedule_precedence",
    "check_allocator_state",
    "check_cache_key_purity",
    "check_factor_residual",
    "check_degraded_still_solves",
    "check_fleet_failover",
    "check_tier_coherence",
    "run_invariants",
]


@dataclass
class InvariantReport:
    """Outcome of one named invariant check."""

    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        msg = f"[{status}] {self.name}"
        for v in self.violations:
            msg += f"\n    {v}"
        return msg


class ExplodingPolicy(Policy):
    """A device policy that fails at plan time: the one way the service
    tests and :func:`check_tier_coherence` reach the host fallback."""

    name = "boom"

    def plan(self, m, k, worker, model, graph, deps=()):
        raise RuntimeError("injected device failure")


def _report(name: str, violations: list[str]) -> InvariantReport:
    return InvariantReport(name=name, ok=not violations, violations=violations)


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------
def check_symbolic_structure(sf: SymbolicFactor) -> list[str]:
    """Supernode partition, postorder and extend-add containment."""
    violations: list[str] = []
    try:
        sf.validate()
    except AssertionError as exc:
        violations.append(f"SymbolicFactor.validate failed: {exc}")
        return violations

    n_super = sf.n_supernodes
    if sorted(int(s) for s in sf.spost) != list(range(n_super)):
        violations.append("spost is not a permutation of the supernodes")
    pos = {int(s): i for i, s in enumerate(sf.spost)}
    for s in range(n_super):
        p = int(sf.sparent[s])
        if p == NO_PARENT:
            continue
        if not 0 <= p < n_super:
            violations.append(f"supernode {s}: parent {p} out of range")
            continue
        if pos.get(p, -1) <= pos.get(s, -1):
            violations.append(
                f"spost visits parent {p} before its child {s}"
            )
        k = sf.width(s)
        update_rows = sf.rows[s][k:]
        missing = update_rows[~np.isin(update_rows, sf.rows[p])]
        if missing.size:
            violations.append(
                f"extend-add containment: rows {missing[:5].tolist()} of "
                f"supernode {s}'s update are absent from parent {p}'s front"
            )
        if update_rows.size and int(update_rows[0]) >= int(sf.super_ptr[p + 1]):
            violations.append(
                f"supernode {s}: first update row {int(update_rows[0])} is "
                f"past its parent {p}'s columns — wrong parent link"
            )
    return violations


def check_update_conservation(
    sf: SymbolicFactor, order: np.ndarray | list[int] | None = None
) -> list[str]:
    """Every extend-add produced exactly once and consumed exactly once."""
    violations: list[str] = []
    schedule = sf.spost if order is None else np.asarray(order, dtype=np.int64)
    if sorted(int(s) for s in schedule) != list(range(sf.n_supernodes)):
        return ["schedule is not a permutation of the supernodes"]
    kids = sf.schildren()
    produced: set[int] = set()
    consumed: set[int] = set()
    for s in schedule:
        s = int(s)
        for c in kids[s]:
            if c not in produced:
                violations.append(
                    f"supernode {s} assembles child {c} before it was factored"
                )
            elif c in consumed:
                violations.append(f"child {c} consumed twice")
            consumed.add(c)
        produced.add(s)
    leftovers = {
        s for s in produced - consumed if int(sf.sparent[s]) != NO_PARENT
    }
    if leftovers:
        violations.append(
            f"unconsumed update matrices at end of schedule: "
            f"{sorted(leftovers)[:8]}"
        )
    return violations


def check_amalgamated_structure(
    a: CSCMatrix, *, ordering: str = "amd"
) -> list[str]:
    """Amalgamated supernode trees keep the structural promises.

    Symbolically factors ``a`` under every amalgamation preset and
    checks, for each resulting tree, that extend-add containment and
    update-stack conservation still hold (under both schedule
    flavours).  Additionally the coarser partitions must *refine into*
    the fundamental one: every amalgamated supernode boundary is also a
    fundamental-supernode boundary, and amalgamation never increases
    the supernode count.
    """
    from repro.symbolic.stack import stack_minimizing_postorder
    from repro.symbolic.supernodes import (
        AMALGAMATION_PRESETS,
        amalgamation_preset,
    )
    from repro.symbolic.symbolic import symbolic_factorize

    violations: list[str] = []
    full = a.full_symmetric()
    factors = {
        preset: symbolic_factorize(
            full, ordering=ordering,
            amalgamation=amalgamation_preset(preset),
        )
        for preset in AMALGAMATION_PRESETS
    }
    fundamental = {int(p) for p in factors["off"].super_ptr}
    for preset, sf in factors.items():
        tag = f"amalgamation={preset}"
        violations += [f"{tag}: {v}" for v in check_symbolic_structure(sf)]
        violations += [
            f"{tag}/post: {v}" for v in check_update_conservation(sf)
        ]
        violations += [
            f"{tag}/liu: {v}"
            for v in check_update_conservation(
                sf, stack_minimizing_postorder(sf)
            )
        ]
        if preset == "off":
            continue
        stray = [int(p) for p in sf.super_ptr if int(p) not in fundamental]
        if stray:
            violations.append(
                f"{tag}: supernode boundaries {stray[:5]} do not coincide "
                "with fundamental-supernode boundaries — amalgamation "
                "split or shifted columns instead of merging"
            )
        if sf.n_supernodes > factors["off"].n_supernodes:
            violations.append(
                f"{tag}: {sf.n_supernodes} supernodes exceeds the "
                f"fundamental count {factors['off'].n_supernodes}"
            )
    return violations


def check_schedule_precedence(sf: SymbolicFactor, schedule) -> list[str]:
    """Timed-schedule sanity: each sid once, parents after children.

    ``schedule`` is a list of objects with ``sid``, ``start`` and ``end``
    attributes (:class:`repro.parallel.scheduler.ScheduledTask`).
    """
    violations: list[str] = []
    seen: dict[int, object] = {}
    for t in schedule:
        if t.sid in seen:
            violations.append(f"supernode {t.sid} scheduled twice")
        seen[t.sid] = t
        if t.end < t.start:
            violations.append(
                f"supernode {t.sid}: end {t.end} precedes start {t.start}"
            )
    missing = set(range(sf.n_supernodes)) - set(seen)
    if missing:
        violations.append(f"unscheduled supernodes: {sorted(missing)[:8]}")
        return violations
    for s in range(sf.n_supernodes):
        p = int(sf.sparent[s])
        if p == NO_PARENT:
            continue
        if seen[p].start < seen[s].end - 1e-12:
            violations.append(
                f"parent {p} starts at {seen[p].start} before child {s} "
                f"ends at {seen[s].end}"
            )
    return violations


def check_allocator_state(node) -> list[str]:
    """Post-run pool consistency on every simulated GPU of ``node``."""
    violations: list[str] = []
    for g, gpu in enumerate(getattr(node, "gpus", [])):
        for pool_name in ("device_pool", "pinned_pool"):
            pool = getattr(gpu, pool_name, None)
            if pool is None:
                continue
            in_use = getattr(pool, "in_use", 0)
            capacity = getattr(pool, "capacity", 0)
            stats = getattr(pool, "stats", None)
            if in_use < 0:
                violations.append(
                    f"gpu{g}.{pool_name}: negative in_use {in_use}"
                )
            if in_use > capacity:
                violations.append(
                    f"gpu{g}.{pool_name}: in_use {in_use} exceeds "
                    f"capacity {capacity}"
                )
            if stats is not None and capacity > stats.high_water:
                violations.append(
                    f"gpu{g}.{pool_name}: capacity {capacity} above its own "
                    f"high-water statistic {stats.high_water}"
                )
    return violations


# ----------------------------------------------------------------------
# behavioural invariants (these run factorizations)
# ----------------------------------------------------------------------
def check_cache_key_purity(a: CSCMatrix, config=None) -> list[str]:
    """Same key => same factor bytes, and key derivation is pure."""
    from repro.service.keys import matrix_key
    from repro.verify.lattice import VerifyConfig, factor_fingerprint

    violations: list[str] = []
    key1, _ = matrix_key(a)
    key2, _ = matrix_key(a.copy())
    if key1 != key2:
        violations.append("matrix_key is not deterministic on equal content")
    config = config if config is not None else VerifyConfig()
    prints = []
    for _ in range(2):
        solver = config.build_solver(a)
        solver.analyze().factorize()
        prints.append(factor_fingerprint(solver.factor))
    if prints[0] != prints[1]:
        violations.append(
            f"cache-key purity: two factorizations under {config.label} "
            "produced different factor bytes for one values key"
        )
    return violations


def check_factor_residual(
    a: CSCMatrix, config=None, *, tol: float | None = None
) -> list[str]:
    """The factor reproduces ``P A P^T`` to a policy-appropriate tolerance."""
    from repro.verify.lattice import VerifyConfig

    config = config if config is not None else VerifyConfig()
    if tol is None:
        tol = 1e-8 if config.policy.upper() == "P1" or config.precision == "dp" else 5e-3
    solver = config.build_solver(a)
    solver.analyze().factorize()
    res = solver.factor.residual_norm(solver.a)
    if res > tol:
        return [
            f"factor residual {res:.3e} exceeds {tol:.3e} under {config.label}"
        ]
    return []


def check_degraded_still_solves(
    a: CSCMatrix, *, tol: float = 1e-9
) -> list[str]:
    """Total injected GPU failure must degrade — not break — the solve."""
    from repro.gpu.device import SimulatedNode
    from repro.multifrontal.numeric import postorder_numeric_factor
    from repro.multifrontal.refine import iterative_refinement
    from repro.parallel import Dynamic, WorkerPool, parallel_schedule
    from repro.policies.base import make_policy
    from repro.runtime.faults import FaultInjector
    from repro.symbolic import symbolic_factorize

    violations: list[str] = []
    a = a.full_symmetric()
    sf = symbolic_factorize(a, ordering="amd")
    node = SimulatedNode(n_cpus=2, n_gpus=1)
    priced = parallel_schedule(
        sf, make_policy("P4"), WorkerPool.over(node),
        Dynamic(faults=FaultInjector(kernel_failure_rate=1.0)),
    )
    factor = postorder_numeric_factor(a, sf, priced, node)
    runtime = priced.runtime
    had_gpu_work = any(sf.update_size(s) > 0 for s in range(sf.n_supernodes))
    if had_gpu_work and not runtime.degraded_sids:
        # the policy may legitimately place every call on the CPU for
        # tiny fronts; only flag when device work was actually planned
        if any(t.policy != "P1" for t in runtime.schedule):
            violations.append(
                "total kernel-failure injection produced no degraded tasks"
            )
    b = np.ones(a.n_rows)
    eta = iterative_refinement(a, factor, b, max_iter=10).final_residual
    if eta > tol:
        violations.append(
            f"degraded run failed to solve: backward error {eta:.3e} "
            f"exceeds {tol:.3e}"
        )
    return violations


def check_fleet_failover(a: CSCMatrix, *, tol: float = 1e-9) -> list[str]:
    """A dead affinity primary must fail over — degraded, never cached
    under the healthy key space — and the replica's answer must solve."""
    from repro.cluster.fleet import ShardedSolverService
    from repro.runtime.faults import FaultInjector
    from repro.service.keys import canonicalize
    from repro.multifrontal.refine import normwise_backward_error

    violations: list[str] = []
    # a probe fleet (no faults) tells us which node owns this pattern
    with ShardedSolverService(2, policy="P1") as probe:
        primary = probe.primary_for(a)
    fleet = ShardedSolverService(
        2,
        policy="P1",
        node_faults=FaultInjector(fail_sids=frozenset({primary})),
    )
    try:
        b = np.ones(a.n_rows)
        outcome = fleet.solve(a, b)
        if not outcome.degraded:
            violations.append(
                "failed-over solve was not flagged degraded "
                f"(primary node {primary} was down)"
            )
        if fleet.metrics.counter("failovers") < 1:
            violations.append("fleet metrics recorded no failover")
        if len(fleet.shards[primary].cache) != 0:
            violations.append(
                f"factor was cached on the dead primary node {primary} — "
                "failover leaked into the healthy key space"
            )
        eta = normwise_backward_error(canonicalize(a), outcome.x, b)
        if eta > tol:
            violations.append(
                f"failed-over solve inaccurate: backward error {eta:.3e} "
                f"exceeds {tol:.3e}"
            )
    finally:
        fleet.shutdown()
    return violations


def check_tier_coherence(a: CSCMatrix) -> list[str]:
    """The storage hierarchy must never change factor bytes or keep
    bytes it was told not to keep.

    Three promises, checked independently of the cache's own counters:

    * **spill/promote identity** — a factor pushed out of RAM into a
      lower tier and read back has the same BLAKE2b
      ``factor_fingerprint`` as a fresh local refactorization;
    * **peer-fetch identity** — a factor pulled over the fleet
      interconnect from a peer shard fingerprints identically too;
    * **failure isolation** — a timed-out request leaves every tier
      empty, and a degraded run (an :class:`ExplodingPolicy` request)
      never publishes a numeric factor to *any* tier, not just RAM.
    """
    from repro.cluster.fleet import ShardedSolverService
    from repro.service.cache import TierConfig
    from repro.service.service import SolverService
    from repro.service.tiers import TierSpec
    from repro.verify.lattice import factor_fingerprint

    violations: list[str] = []
    b = np.ones(a.n_rows)

    class _Filler:
        """Synthetic payload used to force evictions."""

    def _tiering() -> TierConfig:
        return TierConfig(
            ram_bytes=1 << 20,
            disk=TierSpec("disk", 256 << 20, 5e8, 5e-3),
            object_store=None,
        )

    # reference fingerprint: a fresh factorization, no tier movement
    with SolverService(n_workers=1, policy="P1") as ref_svc:
        ref_svc.solve(a, b)
        _, num_key = ref_svc.keys_for(a)
        reference = factor_fingerprint(ref_svc.cache.peek_numeric(num_key))

    # 1. spill → promote round trip preserves the factor bytes
    with SolverService(
        n_workers=1, policy="P1", cache=_tiering().build()
    ) as svc:
        svc.solve(a, b)
        filler_bytes = svc.cache.max_bytes // 2 + 1
        for i in range(2):  # evict everything resident in RAM
            svc.cache.put_numeric(f"__filler{i}", _Filler(),
                                  nbytes=filler_bytes)
        if ("numeric", num_key) in svc.cache.keys():
            violations.append("factor survived a forced RAM eviction")
        promoted = svc.cache.get_numeric(num_key)
        if promoted is None:
            violations.append("factor lost in the spill/promote round trip")
        elif factor_fingerprint(promoted) != reference:
            violations.append(
                "promoted factor fingerprint differs from a fresh "
                "refactorization — a tier changed factor bytes"
            )
        for problem in svc.cache.check_conservation():
            violations.append(f"byte ledger after round trip: {problem}")

    # 2. a peer-fetched factor fingerprints like a local one
    with ShardedSolverService(
        2, policy="P1", tiering=_tiering(), peer_fetch="always"
    ) as fleet:
        target = fleet.primary_for(a)
        other = 1 - target
        fleet.shards[other].solve(a, b)
        fleet.solve(a, b)
        if fleet.metrics.counter("peer_fetches") < 1:
            violations.append(
                "peer-fetch did not trigger with the factor resident "
                "only on the non-primary shard"
            )
        else:
            _, fleet_key = fleet.shards[target].keys_for(a)
            fetched = fleet.shards[target].cache.peek_numeric(fleet_key)
            if fetched is None:
                violations.append("peer-fetched factor not found on target")
            elif factor_fingerprint(fetched) != reference:
                violations.append(
                    "peer-fetched factor fingerprint differs from a "
                    "fresh refactorization"
                )

    # 3a. a timed-out request leaves every tier empty
    with SolverService(
        n_workers=1, policy="P1", cache=_tiering().build()
    ) as svc:
        req = svc.submit(a, b, timeout=-1.0)
        try:
            req.result(timeout=60)
        except TimeoutError:
            pass
        else:
            violations.append("expired request did not raise TimeoutError")
        if svc.cache.total_entries() != 0:
            violations.append(
                "timed-out request populated the tiered cache: "
                f"{svc.cache.total_entries()} entries across tiers"
            )

    # 3b. a degraded run publishes no numeric factor to any tier
    with SolverService(
        n_workers=1, policy=ExplodingPolicy(), cache=_tiering().build()
    ) as svc:
        outcome = svc.solve(a, b)
        if not outcome.degraded:
            violations.append("failed device run was not flagged degraded")
        numeric_keys = [k for k in svc.cache.keys() if k[0] == "numeric"]
        for name in svc.cache.tiers[1:]:
            numeric_keys += [
                k for k in svc.cache.tier(name).keys() if k[0] == "numeric"
            ]
        if numeric_keys:
            violations.append(
                "degraded run published a numeric factor to a tier: "
                f"{numeric_keys}"
            )
    return violations


# ----------------------------------------------------------------------
# suite entry point
# ----------------------------------------------------------------------
def run_invariants(
    a: CSCMatrix, *, include_behavioural: bool = True
) -> list[InvariantReport]:
    """Run the applicable invariant checkers on one matrix."""
    from repro.symbolic.stack import stack_minimizing_postorder
    from repro.symbolic.symbolic import symbolic_factorize
    from repro.verify.lattice import VerifyConfig

    full = a.full_symmetric()
    sf = symbolic_factorize(full, ordering="amd")
    reports = [
        _report("symbolic-structure", check_symbolic_structure(sf)),
        _report("update-conservation/post", check_update_conservation(sf)),
        _report(
            "update-conservation/liu",
            check_update_conservation(sf, stack_minimizing_postorder(sf)),
        ),
        _report("amalgamated-structure", check_amalgamated_structure(full)),
    ]
    if include_behavioural:
        config = VerifyConfig()
        solver = config.build_solver(full)
        solver.analyze().factorize()
        reports.append(
            _report("allocator-state", check_allocator_state(solver.node))
        )
        reports.append(
            _report("cache-key-purity", check_cache_key_purity(full, config))
        )
        reports.append(
            _report("factor-residual", check_factor_residual(full, config))
        )
        reports.append(
            _report("degraded-still-solves", check_degraded_still_solves(full))
        )
        reports.append(
            _report("fleet-failover", check_fleet_failover(full))
        )
        reports.append(
            _report("tier-coherence", check_tier_coherence(full))
        )
    return reports
