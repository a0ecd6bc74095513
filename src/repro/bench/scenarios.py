"""The benchmark scenario registry.

A scenario is one reproducible measurement: a ``prepare`` step that
warms the shared :class:`~repro.bench.workloads.SuiteCache` (symbolic
analysis, paper workloads, the trained classifier, the assembly plan)
and a ``run`` step whose outputs are reduced to the two counter classes
of :mod:`repro.bench.results`.

Scenario ``run`` functions must be deterministic: the runner executes
them N times and *errors* if any deterministic counter differs between
repeats.  Nothing in this package may read the wall clock (the lint
gate pins that: ``repro.bench`` is in the RPL010/RPL011 deterministic
scope).

Covered surface (the ISSUE-5 matrix): numeric-scale factorization
(serial P1/P4 and the serial/static/dynamic backend triple),
paper-scale replays under the P1 / P4 / baseline-hybrid (P_BH) /
model-hybrid (P_MH) policies, ``SolverService`` cache throughput, and
solve + iterative refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.workloads import SuiteCache

__all__ = [
    "Measurement",
    "Scenario",
    "all_scenarios",
    "get_scenarios",
    "scenario_names",
]

#: numeric-scale matrix the factorize scenarios run (smallest Table-II
#: analog: full numerics in ~0.5 s, large enough that per-front Python
#: overhead is visible)
FACTOR_MATRIX = "lmco_s"
#: paper-scale workload the replay scenarios price
PAPER_WORKLOAD = "audikw_1"


@dataclass
class Measurement:
    """What one scenario run boils down to."""

    deterministic: dict[str, object]
    numeric: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    run: Callable[[SuiteCache], Measurement]
    prepare: Callable[[SuiteCache], None]
    tags: tuple[str, ...] = ()


_REGISTRY: dict[str, Scenario] = {}


def _register(scn: Scenario) -> Scenario:
    if scn.name in _REGISTRY:
        raise ValueError(f"duplicate scenario {scn.name!r}")
    _REGISTRY[scn.name] = scn
    return scn


def all_scenarios() -> list[Scenario]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def get_scenarios(names: list[str] | None) -> list[Scenario]:
    if not names:
        return all_scenarios()
    missing = [n for n in names if n not in _REGISTRY]
    if missing:
        raise KeyError(
            f"unknown scenario(s) {', '.join(missing)}; "
            f"known: {', '.join(scenario_names())}"
        )
    return [_REGISTRY[n] for n in names]


# ----------------------------------------------------------------------
# counter extraction helpers
# ----------------------------------------------------------------------
def _policy_count_counters(records) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in records:
        counts[r.policy] = counts.get(r.policy, 0) + 1
    return {
        f"policy_calls.{name}": counts[name] for name in sorted(counts)
    }


def _node_counters(node) -> dict[str, object]:
    from repro.gpu.clock import engine_counters

    out: dict[str, object] = {}
    out.update(engine_counters(node.engines))
    for g in node.gpus:
        out.update(g.device_pool.stats.as_counters(f"gpu{g.gpu_id}.device_pool"))
        out.update(g.pinned_pool.stats.as_counters(f"gpu{g.gpu_id}.pinned_pool"))
    return out


def _factor_measurement(nf, sf) -> Measurement:
    from repro.verify.lattice import factor_fingerprint

    det: dict[str, object] = {
        "simulated_seconds": float(nf.makespan),
        "assembly_seconds": float(nf.assembly_seconds),
        "total_flops": float(sum(r.total_flops for r in nf.records)),
        "fu_calls": len(nf.records),
        "n": int(sf.n),
        "nnz_factor": int(sf.nnz_factor),
        "n_supernodes": int(sf.n_supernodes),
        "peak_update_bytes": int(nf.peak_update_bytes),
    }
    det.update(_policy_count_counters(nf.records))
    det.update(_node_counters(nf.node))
    return Measurement(det, {"factor_fingerprint": factor_fingerprint(nf)})


# ----------------------------------------------------------------------
# numeric-scale factorization scenarios
# ----------------------------------------------------------------------
def _factorize(suite: SuiteCache, policy_name: str):
    from repro.gpu import SimulatedNode
    from repro.multifrontal import factorize_numeric

    node = SimulatedNode(model=suite.model, n_cpus=1, n_gpus=1)
    return factorize_numeric(
        suite.matrix(FACTOR_MATRIX),
        suite.symbolic(FACTOR_MATRIX),
        suite.policy(policy_name),
        node=node,
    )


def _make_factorize_scenario(policy_name: str) -> Scenario:
    def prepare(suite: SuiteCache) -> None:
        # warm the matrix, the symbolic factorization and the cached
        # assembly plan so the timed repeats measure steady state
        _factorize(suite, policy_name)

    def run(suite: SuiteCache) -> Measurement:
        nf = _factorize(suite, policy_name)
        return _factor_measurement(nf, suite.symbolic(FACTOR_MATRIX))

    return Scenario(
        name=f"factorize-serial-{policy_name.lower()}",
        description=(
            f"serial numeric multifrontal factorization of {FACTOR_MATRIX} "
            f"under policy {policy_name} (1 CPU + 1 simulated GPU)"
        ),
        run=run,
        prepare=prepare,
        tags=("deterministic", "factorize"),
    )


_register(_make_factorize_scenario("P1"))
_register(_make_factorize_scenario("P4"))


# ----------------------------------------------------------------------
# backend triple: the counters the differential gate relies on
# ----------------------------------------------------------------------
def _backends_run(suite: SuiteCache) -> Measurement:
    from repro.multifrontal import SparseCholeskySolver
    from repro.verify.lattice import factor_fingerprint

    a = suite.matrix(FACTOR_MATRIX)
    sym = suite.symbolic(FACTOR_MATRIX)
    det: dict[str, object] = {}
    numeric: dict[str, object] = {}
    fingerprints = []
    for backend in ("serial", "static", "dynamic"):
        solver = SparseCholeskySolver.from_symbolic(
            a, sym, policy="P1", backend=backend
        )
        solver.factorize()
        st = solver.stats
        det[f"{backend}.simulated_seconds"] = float(st.simulated_seconds)
        det[f"{backend}.total_flops"] = float(st.total_flops)
        det[f"{backend}.fu_calls"] = len(solver.factor.records)
        fp = factor_fingerprint(solver.factor)
        fingerprints.append(fp)
        numeric[f"{backend}.factor_fingerprint"] = fp
    # cross-backend bitwise identity of the factor itself is portable
    # (it holds on every machine or the backends are broken)
    det["factors_bitwise_identical"] = bool(
        fingerprints[0] == fingerprints[1] == fingerprints[2]
    )
    return Measurement(det, numeric)


_register(Scenario(
    name="factorize-backends",
    description=(
        f"factorize {FACTOR_MATRIX} through the serial, static and "
        "dynamic backends; pins cross-backend flop totals and bitwise "
        "factor identity"
    ),
    run=_backends_run,
    prepare=lambda suite: _backends_run(suite) and None,
    tags=("deterministic", "factorize", "backends"),
))


# ----------------------------------------------------------------------
# relaxed amalgamation + stacked small fronts (the granularity unlock)
# ----------------------------------------------------------------------

def _tree_assembly_bytes(sf) -> float:
    """Vectorized :func:`repro.multifrontal.frontal.assembly_bytes` summed
    over the whole tree: each front's zero-fill plus, for every non-root
    supernode, the read-modify-write of its update block into its parent."""
    sizes = np.array([r.size for r in sf.rows], dtype=np.float64)
    widths = np.diff(sf.super_ptr).astype(np.float64)
    m = sizes - widths
    child = np.asarray(sf.sparent) >= 0
    return float((sizes ** 2).sum() * 8.0 + 2.0 * 8.0 * (m[child] ** 2).sum())


def _tree_flops(sf) -> float:
    """Vectorized sum of ``factor_update_flops`` over the tree."""
    sizes = np.array([r.size for r in sf.rows], dtype=np.float64)
    k = np.diff(sf.super_ptr).astype(np.float64)
    m = sizes - k
    return float((k ** 3 / 3.0 + m * k ** 2 + m ** 2 * k).sum())


def _amalgamated_factorize(suite: SuiteCache):
    from repro.gpu import SimulatedNode
    from repro.multifrontal import factorize_numeric

    node = SimulatedNode(model=suite.model, n_cpus=1, n_gpus=1)
    return factorize_numeric(
        suite.matrix(FACTOR_MATRIX),
        suite.symbolic(FACTOR_MATRIX, amalgamation="aggressive"),
        suite.policy("P1"),
        node=node,
    )


def _amalgamated_run(suite: SuiteCache) -> Measurement:
    from repro.verify.lattice import factor_fingerprint

    nf = _amalgamated_factorize(suite)
    sf = suite.symbolic(FACTOR_MATRIX, amalgamation="aggressive")
    sf_base = suite.symbolic(FACTOR_MATRIX)
    flops = float(sum(r.total_flops for r in nf.records))
    flops_base = _tree_flops(sf_base)
    asm = _tree_assembly_bytes(sf)
    asm_base = _tree_assembly_bytes(sf_base)
    det: dict[str, object] = {
        "simulated_seconds": float(nf.makespan),
        "assembly_seconds": float(nf.assembly_seconds),
        "total_flops": flops,
        "baseline_total_flops": flops_base,
        "fu_calls": len(nf.records),
        "n": int(sf.n),
        "amalgamated_supernodes": int(sf.n_supernodes),
        "baseline_supernodes": int(sf_base.n_supernodes),
        "amalgamated_nnz_factor": int(sf.nnz_factor),
        "baseline_nnz_factor": int(sf_base.nnz_factor),
        "amalgamated_assembly_bytes": asm,
        "baseline_assembly_bytes": asm_base,
        "batch_tasks": int(nf.batch_tasks),
        "batched_fronts": int(nf.batched_fronts),
        "task_dispatches": int(nf.task_dispatches),
        "baseline_task_dispatches": int(sf_base.n_supernodes),
        "peak_update_bytes": int(nf.peak_update_bytes),
        # relation gates: 1-valued counters pinning the speedup's
        # structural preconditions, hard-failed by ``bench --check``
        "gate.amalgamated_fewer_fronts": int(
            sf.n_supernodes < sf_base.n_supernodes
        ),
        "gate.amalgamated_less_assembly": int(asm < asm_base),
        "gate.stacking_fewer_dispatches": int(
            nf.task_dispatches < sf_base.n_supernodes
            and nf.task_dispatches < sf.n_supernodes
        ),
        # the fill the relaxation buys may cost flops, but boundedly so
        "gate.flop_overhead_bounded": int(flops <= 1.5 * flops_base),
    }
    det.update(_policy_count_counters(nf.records))
    det.update(_node_counters(nf.node))
    return Measurement(det, {"factor_fingerprint": factor_fingerprint(nf)})


_register(Scenario(
    name="factorize-amalgamated",
    description=(
        f"factorize {FACTOR_MATRIX} on the aggressively amalgamated tree "
        "(small same-shape leaf fronts run as stacked kernels, as on "
        "every tree); gates fronts/assembly/dispatch reductions vs the "
        "default tree (wall: compare to factorize-serial-p1)"
    ),
    run=_amalgamated_run,
    prepare=lambda suite: _amalgamated_run(suite) and None,
    tags=("deterministic", "factorize", "amalgamation"),
))


# ----------------------------------------------------------------------
# paper-scale policy replays (P1 / P4 / P_BH / P_MH)
# ----------------------------------------------------------------------
_REPLAY_POLICIES = {
    "p1": "P1",
    "p4": "P4",
    "bh": "baseline",   # the paper's baseline hybrid (P_BH)
    "mh": "model",      # the auto-tuned model hybrid (P_MH)
}


def _make_replay_scenario(short: str, policy_name: str) -> Scenario:
    def prepare(suite: SuiteCache) -> None:
        suite.workload(PAPER_WORKLOAD)
        suite.policy(policy_name)   # trains the classifier for "model"

    def run(suite: SuiteCache) -> Measurement:
        from repro.gpu import SimulatedNode
        from repro.multifrontal.numeric import price_serial

        node = SimulatedNode(model=suite.model, n_cpus=1, n_gpus=1)
        rep = price_serial(
            suite.workload(PAPER_WORKLOAD), suite.policy(policy_name), node
        )
        total_flops = float(sum(r.total_flops for r in rep.records))
        det: dict[str, object] = {
            "simulated_seconds": float(rep.makespan),
            "assembly_seconds": float(rep.assembly_seconds),
            "total_flops": total_flops,
            "fu_calls": len(rep.records),
            "effective_gflops": float(
                total_flops / rep.makespan / 1e9 if rep.makespan > 0 else 0.0
            ),
        }
        det.update(_policy_count_counters(rep.records))
        det.update(_node_counters(node))
        return Measurement(det)

    return Scenario(
        name=f"replay-paper-{short}",
        description=(
            f"paper-scale replay of {PAPER_WORKLOAD} under the "
            f"{policy_name} policy (timing-only walk, no numerics)"
        ),
        run=run,
        prepare=prepare,
        tags=("deterministic", "replay", "paper"),
    )


for _short in sorted(_REPLAY_POLICIES):
    _register(_make_replay_scenario(_short, _REPLAY_POLICIES[_short]))


# ----------------------------------------------------------------------
# cluster fan-both replay scaling
# ----------------------------------------------------------------------
_CLUSTER_NODE_COUNTS = (1, 2, 4)
_CLUSTER_POLICY = "P4"


def _cluster_replay_run(suite: SuiteCache) -> Measurement:
    from repro.cluster.topology import ClusterSpec
    from repro.parallel import Cluster

    sf = suite.workload(PAPER_WORKLOAD)
    policy = suite.policy(_CLUSTER_POLICY)
    det: dict[str, object] = {"n_supernodes": int(sf.n_supernodes)}
    makespans: dict[int, float] = {}
    for n in _CLUSTER_NODE_COUNTS:
        spec = ClusterSpec(n_ranks=n, gpus_per_rank=1, model=suite.model)
        res = Cluster(spec).run(sf, policy)
        makespans[n] = float(res.makespan)
        det[f"n{n}.makespan_seconds"] = float(res.makespan)
        det[f"n{n}.comm_bytes"] = float(res.comm_bytes)
        det[f"n{n}.comm_messages"] = int(res.comm_messages)
        det[f"n{n}.comm_seconds"] = float(res.comm_seconds)
        det[f"n{n}.tasks"] = len(res.schedule)
    # the scaling promise the PR pins: four nodes beat one on the
    # paper-scale tree despite paying for every cross-rank update
    det["n4_faster_than_n1"] = bool(makespans[4] < makespans[1])
    det["speedup_n4_vs_n1"] = float(
        makespans[1] / makespans[4] if makespans[4] > 0 else 0.0
    )
    return Measurement(det)


_register(Scenario(
    name="cluster-replay",
    description=(
        f"fan-both cluster replay of {PAPER_WORKLOAD} under {_CLUSTER_POLICY} "
        f"at {', '.join(str(n) for n in _CLUSTER_NODE_COUNTS)} nodes "
        "(1 GPU each); pins makespans, communication volume and the "
        "4-node-beats-1-node scaling promise"
    ),
    run=_cluster_replay_run,
    prepare=lambda suite: _cluster_replay_run(suite) and None,
    tags=("deterministic", "replay", "cluster", "paper"),
))


# ----------------------------------------------------------------------
# SolverService cache throughput
# ----------------------------------------------------------------------
_SERVICE_PATTERNS = 3
_SERVICE_REQUESTS = 24

#: service counters that are decided by the request stream and the cache
#: contents, never by thread timing (1 worker, sequential submission)
_SERVICE_COUNTER_NAMES = (
    "submitted",
    "completed",
    "numeric_factorizations",
    "requests_miss",
    "requests_symbolic",
    "requests_numeric",
    "degraded",
    "timeouts",
)


def _service_stream():
    """Repeated-pattern stream exercising all three cache tiers."""
    from repro.matrices import grid_laplacian_2d
    from repro.matrices.csc import CSCMatrix

    patterns = [
        grid_laplacian_2d(8 + 2 * p, 9 + p) for p in range(_SERVICE_PATTERNS)
    ]
    stream = []
    for i in range(_SERVICE_REQUESTS):
        base = patterns[i % _SERVICE_PATTERNS]
        v = (i // _SERVICE_PATTERNS) % 3
        stream.append(CSCMatrix(
            base.shape, base.indptr, base.indices,
            base.data * (1.0 + 0.5 * v), check=False,
        ))
    return stream


def _service_run(suite: SuiteCache) -> Measurement:
    from repro.service import SolverService

    det: dict[str, object] = {
        "requests": _SERVICE_REQUESTS,
        "patterns": _SERVICE_PATTERNS,
    }
    with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
        for a in _service_stream():
            svc.solve(a, np.ones(a.n_rows))
        rep = svc.report()
    for name in _SERVICE_COUNTER_NAMES:
        det[f"counter.{name}"] = int(rep["counters"].get(name, 0))
    cache = rep["cache"]
    for name in ("symbolic_hits", "numeric_hits", "evictions", "stored_bytes"):
        det[f"cache.{name}"] = int(cache[name])
    return Measurement(det)


_register(Scenario(
    name="service-throughput",
    description=(
        f"sequential stream of {_SERVICE_REQUESTS} requests over "
        f"{_SERVICE_PATTERNS} patterns through SolverService (1 worker); "
        "wall time prices the cache tiers, counters pin the tier decisions"
    ),
    run=_service_run,
    prepare=lambda suite: _service_run(suite) and None,
    tags=("deterministic", "service"),
))


# ----------------------------------------------------------------------
# solve + iterative refinement
# ----------------------------------------------------------------------
def _solve_run(suite: SuiteCache) -> Measurement:
    from repro.multifrontal.refine import iterative_refinement

    a = suite.matrix(FACTOR_MATRIX)
    factor = suite.factor(FACTOR_MATRIX, "P1")
    b = np.ones(a.n_rows)
    # tol=0 forces the full refinement budget so the scenario prices the
    # paper's correction loop, not just the initial triangular solve
    res = iterative_refinement(a, factor, b, tol=0.0, max_iter=2)
    det: dict[str, object] = {
        "iterations": int(res.iterations),
        "n": int(a.n_rows),
        "residual_trace_len": len(res.residual_norms),
    }
    numeric = {
        "initial_residual": float(res.initial_residual),
        "final_residual": float(res.final_residual),
    }
    return Measurement(det, numeric)


_register(Scenario(
    name="solve-refine",
    description=(
        f"triangular solves + two forced refinement steps on the cached "
        f"{FACTOR_MATRIX} P1 factor (ones right-hand side)"
    ),
    run=_solve_run,
    prepare=lambda suite: _solve_run(suite) and None,
    tags=("deterministic", "solve"),
))


# ----------------------------------------------------------------------
# API front door throughput
# ----------------------------------------------------------------------
_API_CLIENTS = 250
_API_EDGE_CAPACITY = 32
_API_DEADLINE = 8


def _api_run(suite: SuiteCache) -> Measurement:
    from repro.api.loadgen import run_load

    report = run_load(
        n_clients=_API_CLIENTS,
        n_nodes=4,
        edge_capacity=_API_EDGE_CAPACITY,
        n_deadline=_API_DEADLINE,
    )
    det: dict[str, object] = {
        "clients": _API_CLIENTS,
        "requests": report.requests,
    }
    det.update(report.counters())
    return Measurement(det)


_register(Scenario(
    name="api-throughput",
    description=(
        f"{_API_CLIENTS} clients through the in-process ASGI front door "
        "over a 4-node fleet: steady, overload (edge-queue shedding), "
        "deadline and rate-limit phases; every outcome and api.* counter "
        "is a gated invariant"
    ),
    run=_api_run,
    prepare=lambda suite: _api_run(suite) and None,
    tags=("deterministic", "api", "service"),
))


# ----------------------------------------------------------------------
# tiered factor cache
# ----------------------------------------------------------------------
_TIER_PATTERNS = 8
_TIER_PASSES = 2


def _tiering_patterns():
    """Distinct sparsity patterns of comparable factor size."""
    from repro.matrices import grid_laplacian_2d

    return [
        grid_laplacian_2d(10 + p, 11 + p) for p in range(_TIER_PATTERNS)
    ]


def _tiering_run(suite: SuiteCache) -> Measurement:
    from repro.cluster import ShardedSolverService
    from repro.service import SolverService, TierConfig, TierSpec
    from repro.service.cache import numeric_nbytes

    patterns = _tiering_patterns()
    rhs = {id(a): np.ones(a.n_rows) for a in patterns}

    # working set: every pattern's numeric factor, measured by an
    # unbounded probe service (the RAM budget is derived, not guessed)
    working_set = 0
    with SolverService(n_workers=1, policy="P1", ordering="amd") as probe:
        for a in patterns:
            probe.solve(a, rhs[id(a)])
            _, num_key = probe.keys_for(a)
            working_set += numeric_nbytes(probe.cache.peek_numeric(num_key))
    ram_budget = working_set // 4          # the acceptance-criteria ~25%

    def stream(svc):
        for _ in range(_TIER_PASSES):
            for a in patterns:             # round-robin: LRU's worst case
                svc.solve(a, rhs[id(a)])
        for a in reversed(patterns):       # re-read the warmest spills
            svc.solve(a, rhs[id(a)])
        return svc.report()

    # baseline: the RAM-only cache, where an eviction is a drop
    with SolverService(
        n_workers=1, policy="P1", ordering="amd", max_cache_bytes=ram_budget
    ) as svc:
        base = stream(svc)

    # tiered: same RAM budget, spilling down disk → object instead;
    # the disk tier holds the numeric working set but not the symbolic
    # factors riding along with it, so round-robin's coldest entries
    # cascade into the object tier while the reverse pass hits disk
    tiering = TierConfig(
        ram_bytes=ram_budget,
        disk=TierSpec("disk", max(working_set, 1), 5e8, 5e-3),
        object_store=TierSpec("object", 64 << 20, 2.5e8, 5e-2),
    )
    with SolverService(
        n_workers=1, policy="P1", ordering="amd", cache=tiering.build()
    ) as svc:
        tier = stream(svc)

    # cross-shard sharing: a factor resident only on the non-primary
    # shard is fetched over the interconnect by the affinity primary
    peer_tiering = TierConfig(ram_bytes=64 << 20)
    with ShardedSolverService(
        2, policy="P1", tiering=peer_tiering, peer_fetch="cost-model"
    ) as fleet:
        a = patterns[0]
        other = 1 - fleet.primary_for(a)
        fleet.shards[other].solve(a, rhs[id(a)])
        peer_outcome = fleet.solve(a, rhs[id(a)])
        peer = fleet.metrics.report()["counters"]

    det: dict[str, object] = {
        "patterns": _TIER_PATTERNS,
        "passes": _TIER_PASSES,
        "working_set_bytes": int(working_set),
        "ram_budget_bytes": int(ram_budget),
    }
    for label, rep in (("baseline", base), ("tiered", tier)):
        det[f"{label}.numeric_factorizations"] = int(
            rep["counters"].get("numeric_factorizations", 0)
        )
        det[f"{label}.numeric_hits"] = int(rep["cache"]["numeric_hits"])
        det[f"{label}.evictions"] = int(rep["cache"]["evictions"])
    # the acceptance gate: spilling must beat dropping outright
    det["tiered_fewer_refactorizations"] = int(
        det["tiered.numeric_factorizations"]
        < det["baseline.numeric_factorizations"]
    )
    tiers = tier["cache"]["tiers"]
    det["tier.ram.spilled_out_bytes"] = int(tiers["ram"]["spilled_out_bytes"])
    det["tier.ram.promoted_in_bytes"] = int(tiers["ram"]["promoted_in_bytes"])
    for name in ("disk", "object"):
        for stat in ("hits", "spilled_in_bytes", "promoted_out_bytes"):
            det[f"tier.{name}.{stat}"] = int(tiers[name][stat])
    det["peer.fetches"] = int(peer.get("peer_fetches", 0))
    det["peer.fetch_bytes"] = int(peer.get("peer_fetch_bytes", 0))
    det["peer.hit_numeric"] = int(peer_outcome.tier == "numeric")
    numeric = {
        "tiered.transfer_seconds": float(
            tier["cache"]["transfer_seconds"]
        ),
    }
    return Measurement(det, numeric)


_register(Scenario(
    name="cache-tiering",
    description=(
        f"{_TIER_PASSES} round-robin passes over {_TIER_PATTERNS} patterns "
        "with RAM ~25% of the measured working set: drop-on-evict baseline "
        "vs the RAM/disk/object tiered cache, plus one cost-model peer "
        "fetch across a 2-shard fleet; per-tier movement and the "
        "fewer-refactorizations win are gated counters"
    ),
    run=_tiering_run,
    prepare=lambda suite: _tiering_run(suite) and None,
    tags=("deterministic", "service", "cache"),
))
