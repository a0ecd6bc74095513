"""Cluster extension: mapping, interconnect accounting, event-driven
fan-both runtime, bitwise identity with the serial backend, and the
sharded serving fleet."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    InterconnectParams,
    ShardedSolverService,
    ShardRouter,
    map_subtrees_to_ranks,
    subtree_flops,
    update_message_bytes,
)
from repro.matrices import grid_laplacian_2d, grid_laplacian_3d
from repro.multifrontal.numeric import postorder_numeric_factor
from repro.parallel import Cluster, WorkerPool, parallel_schedule
from repro.policies import BaselineHybrid, make_policy
from repro.symbolic import symbolic_factorize
from repro.symbolic.etree import NO_PARENT
from repro.workload import geometric_nd_workload


@pytest.fixture(scope="module")
def sf():
    return symbolic_factorize(grid_laplacian_3d(8, 8, 8), ordering="nd")


def fleet_factorize(a, sf, policy, spec):
    """A fleet's pricing pass, then the one numerics pass on one node of
    the fleet's shape: (the fleet's run, the factor)."""
    node = spec.build_nodes()[0]
    priced = parallel_schedule(sf, policy, WorkerPool.over(node), Cluster(spec))
    return priced.runtime, postorder_numeric_factor(a, sf, priced, node)


@pytest.fixture(scope="module")
def wl():
    return geometric_nd_workload(24, 24, 24, leaf_cells=16)


class TestMapping:
    def test_single_rank_owns_everything(self, sf):
        owner = map_subtrees_to_ranks(sf, 1)
        assert (owner == 0).all()

    def test_every_rank_used_when_possible(self, wl):
        owner = map_subtrees_to_ranks(wl, 4)
        assert set(np.unique(owner)) == {0, 1, 2, 3}

    def test_root_on_rank_zero(self, wl):
        owner = map_subtrees_to_ranks(wl, 4)
        roots = np.flatnonzero(wl.sparent == NO_PARENT)
        assert (owner[roots] == 0).all()

    def test_subtrees_stay_local_below_split(self, wl):
        # if a node and its parent share a rank set of size one, the
        # whole subtree must be on one rank: check that cross edges are
        # few relative to tree edges
        owner = map_subtrees_to_ranks(wl, 4)
        cross = sum(
            1
            for s in range(wl.n_supernodes)
            if wl.sparent[s] != NO_PARENT and owner[wl.sparent[s]] != owner[s]
        )
        assert cross <= 16

    def test_balance(self, wl):
        owner = map_subtrees_to_ranks(wl, 2)
        w = subtree_flops(wl)
        own_flops = np.zeros(2)
        from repro.symbolic.symbolic import factor_update_flops

        for s in range(wl.n_supernodes):
            own_flops[owner[s]] += sum(
                factor_update_flops(wl.update_size(s), wl.width(s))
            )
        ratio = own_flops.max() / own_flops.min()
        assert ratio < 3.0

    def test_subtree_flops_monotone_up_the_tree(self, sf):
        t = subtree_flops(sf)
        for s in range(sf.n_supernodes):
            p = sf.sparent[s]
            if p != NO_PARENT:
                assert t[p] >= t[s]

    def test_invalid_rank_count(self, sf):
        with pytest.raises(ValueError):
            map_subtrees_to_ranks(sf, 0)


class TestInterconnect:
    def test_time_model(self):
        net = InterconnectParams(latency=1e-5, bandwidth=1e9)
        assert net.time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(0)
        with pytest.raises(ValueError):
            ClusterSpec(2, gpus_per_rank=2)


class TestSimulation:
    """What a cluster-scaling study reads off a fleet run (``Cluster.run``)."""

    def test_one_rank_matches_serial_replay(self, sf, model):
        from repro.gpu import SimulatedNode
        from repro.multifrontal.numeric import price_serial

        res = Cluster(ClusterSpec(1, 0, model=model)).run(sf, make_policy("P1"))
        rp = price_serial(
            sf, make_policy("P1"), SimulatedNode(model=model, n_cpus=1, n_gpus=0)
        )
        assert res.makespan == pytest.approx(rp.makespan, rel=1e-9)
        assert res.comm_messages == 0

    def test_two_ranks_faster_with_comm_accounted(self, wl, model):
        serial = Cluster(ClusterSpec(1, 0, model=model)).run(wl, make_policy("P1"))
        dist = Cluster(ClusterSpec(2, 0, model=model)).run(wl, make_policy("P1"))
        assert dist.makespan < serial.makespan
        assert dist.comm_messages > 0
        assert dist.comm_bytes > 0
        assert dist.comm_seconds > 0

    def test_scaling_monotone(self, wl, model):
        # hybrid ranks (one GPU each); the CPU-only fleet is
        # TestClusterRuntime.test_replay_scaling_monotone
        times = [
            Cluster(ClusterSpec(r, 1, model=model))
            .run(wl, BaselineHybrid()).makespan
            for r in (1, 2, 4)
        ]
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_gpus_accelerate_ranks(self, wl, model):
        cpu_only = Cluster(ClusterSpec(2, 0, model=model)).run(
            wl, make_policy("P1")
        )
        hybrid = Cluster(ClusterSpec(2, 1, model=model)).run(wl, BaselineHybrid())
        assert hybrid.makespan < cpu_only.makespan

    def test_slow_network_hurts(self, wl, model):
        def on(bandwidth):
            spec = ClusterSpec(
                4, 0, model=model,
                interconnect=InterconnectParams(bandwidth=bandwidth),
            )
            return Cluster(spec).run(wl, make_policy("P1"))

        fast = on(10e9)
        slow = on(5e7)
        assert slow.makespan > fast.makespan

    def test_custom_owner_accepted_and_validated(self, sf, model):
        owner = np.zeros(sf.n_supernodes, dtype=np.int64)
        spec = ClusterSpec(2, 0, model=model)
        res = Cluster(spec, owner).run(sf, make_policy("P1"))
        assert res.comm_messages == 0
        with pytest.raises(ValueError):
            Cluster(spec, np.full(sf.n_supernodes, 5)).run(sf, make_policy("P1"))

    def test_spec_is_a_value(self, model):
        """A spec keys the kept pass through its ``Cluster``: it cannot be
        changed in place, so a pass kept for one fleet is never handed
        out for another, and a replaced spec prices afresh."""
        import dataclasses

        sf = symbolic_factorize(grid_laplacian_3d(6, 6, 6), ordering="nd")
        spec = ClusterSpec(2, 0, model=model)
        pool = WorkerPool.over(spec.build_nodes()[0])
        two = parallel_schedule(sf, make_policy("P1"), pool, Cluster(spec))
        assert sf._priced_pass.outcome is two
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_ranks = 4
        assert spec.n_ranks == 2
        four_spec = dataclasses.replace(spec, n_ranks=4)
        pool = WorkerPool.over(four_spec.build_nodes()[0])
        four = parallel_schedule(sf, make_policy("P1"), pool, Cluster(four_spec))
        assert four is not two and sf._priced_pass.outcome is four
        assert set(four.runtime.owner.tolist()) == {0, 1, 2, 3}
        assert set(two.runtime.owner.tolist()) == {0, 1}
        assert four.runtime.owner.tolist() == map_subtrees_to_ranks(sf, 4).tolist()

    def test_utilization_bounded(self, wl, model):
        res = Cluster(ClusterSpec(4, 0, model=model)).run(wl, make_policy("P1"))
        assert 0.0 < res.utilization() <= 1.05


class TestClusterRuntime:
    """The event-driven fan-both execution (``Cluster.run``)."""

    @pytest.fixture(scope="class")
    def serial_fp(self, lap3d_small, sf_lap3d):
        from repro.multifrontal import SparseCholeskySolver
        from repro.verify.lattice import factor_fingerprint

        solver = SparseCholeskySolver.from_symbolic(
            lap3d_small, sf_lap3d, policy="P1", backend="serial"
        )
        solver.factorize()
        return factor_fingerprint(solver.factor)

    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_factor_bitwise_identical_to_serial(
        self, lap3d_small, sf_lap3d, model, serial_fp, n_nodes
    ):
        from repro.verify.lattice import factor_fingerprint

        _, factor = fleet_factorize(
            lap3d_small, sf_lap3d, make_policy("P1"),
            ClusterSpec(n_nodes, 1, model=model),
        )
        assert factor_fingerprint(factor) == serial_fp

    def test_two_runs_bit_stable(self, lap3d_small, sf_lap3d, model):
        from repro.verify.lattice import factor_fingerprint

        spec = ClusterSpec(3, 1, model=model)
        runs, factors = zip(*(
            fleet_factorize(lap3d_small, sf_lap3d, make_policy("P4"), spec)
            for _ in range(2)
        ))
        assert runs[0].makespan == runs[1].makespan
        assert runs[0].comm_bytes == runs[1].comm_bytes
        assert runs[0].comm_messages == runs[1].comm_messages
        assert runs[0].comm_seconds == runs[1].comm_seconds
        assert [t.sid for t in runs[0].schedule] == [
            t.sid for t in runs[1].schedule
        ]
        assert factor_fingerprint(factors[0]) == factor_fingerprint(
            factors[1]
        )

    def test_replay_scaling_monotone(self, wl, model):
        times = [
            Cluster(ClusterSpec(n, 0, model=model))
            .run(wl, make_policy("P1")).makespan
            for n in (1, 2, 4)
        ]
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_schedule_validates(self, wl, model):
        res = Cluster(ClusterSpec(4, 0, model=model)).run(wl, make_policy("P1"))
        assert res.validate(wl) == []
        assert len(res.schedule) == wl.n_supernodes

    def test_message_ordering_and_byte_accounting(self, wl, model):
        spec = ClusterSpec(4, 0, model=model)
        res = Cluster(spec).run(wl, make_policy("P1"))
        # seq numbers are assigned in send order and strictly increase
        seqs = [m.seq for m in res.messages]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        starts = [m.send_start for m in res.messages]
        assert starts == sorted(starts)
        for m in res.messages:
            assert m.arrival == pytest.approx(
                m.send_end + spec.interconnect.latency
            )
            assert m.src != m.dst
        # total bytes = one update block per cross edge carrying m > 0 rows
        expect = sum(
            update_message_bytes(wl.update_size(s))
            for s in range(wl.n_supernodes)
            if wl.sparent[s] != NO_PARENT
            and res.owner[wl.sparent[s]] != res.owner[s]
            and wl.update_size(s) > 0
        )
        assert res.comm_bytes == expect
        assert res.comm_messages == len(res.messages)

    def test_single_node_has_no_messages(self, wl, model):
        res = Cluster(ClusterSpec(1, 0, model=model)).run(wl, make_policy("P1"))
        assert res.comm_messages == 0
        assert res.comm_bytes == 0
        assert res.messages == ()

    def test_owner_validated(self, sf, model):
        spec = ClusterSpec(2, 0, model=model)
        with pytest.raises(ValueError):
            Cluster(spec, np.full(sf.n_supernodes, 7)).run(sf, make_policy("P1"))
        with pytest.raises(ValueError):
            Cluster(spec, np.zeros(3, dtype=np.int64)).run(sf, make_policy("P1"))
        with pytest.raises(ValueError, match="pass the pool"):
            Cluster().run(sf, make_policy("P1"))  # no spec to build a fleet from

    def test_idle_fleet_waits_for_the_message_in_flight(self, wl, model):
        # on a slow network the last cross-rank update is still on the
        # wire when every node has run out of work: nothing running is
        # not gridlock while an arrival is pending
        spec = ClusterSpec(
            3, 0, model=model, interconnect=InterconnectParams(bandwidth=5e7)
        )
        res = Cluster(spec).run(wl, make_policy("P1"))
        assert res.validate(wl) == []
        assert len(res.schedule) == wl.n_supernodes
        assert any(
            not any(
                t.start < msg.arrival and t.end > msg.send_start
                for t in res.schedule
            )
            for msg in res.messages
        )

    def test_pinned_run_takes_faults_and_reports_degraded(self, sf, model):
        from repro.cluster import Interconnect
        from repro.runtime import DynamicRuntime, FaultInjector

        spec = ClusterSpec(2, 1, model=model)
        assert not Cluster(spec).run(sf, make_policy("P3")).degraded

        victim = int(np.flatnonzero(sf.sparent == NO_PARENT)[0])
        workers = [
            spec.node_worker(r, node)
            for r, node in enumerate(spec.build_nodes())
        ]
        res = DynamicRuntime(
            sf, make_policy("P3"), workers, model,
            owner=map_subtrees_to_ranks(sf, 2),
            interconnect=Interconnect(2, spec.interconnect),
            faults=FaultInjector(fail_sids=frozenset({victim})),
        ).run()
        assert res.degraded
        assert res.degraded_sids == {victim}
        assert res.stats.degraded_tasks == 1
        assert res.comm_messages > 0
        assert res.validate(sf) == []

    def test_owner_and_interconnect_come_together(self, sf, model):
        from repro.parallel import make_worker_pool
        from repro.runtime import DynamicRuntime

        pool = make_worker_pool(2, 0, model=model)
        with pytest.raises(ValueError, match="together"):
            DynamicRuntime(
                sf, make_policy("P1"), pool.workers, model,
                owner=np.zeros(sf.n_supernodes, dtype=np.int64),
            )

    def test_chrome_trace_lanes_node_major(self, wl, model):
        res = Cluster(ClusterSpec(2, 0, model=model)).run(wl, make_policy("P1"))
        trace = res.chrome_trace()
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        # every node0 lane strictly precedes every node1 lane
        n0 = [i for i, n in enumerate(names) if n.startswith("node0.")]
        n1 = [i for i, n in enumerate(names) if n.startswith("node1.")]
        assert n0 and n1
        assert max(n0) < min(n1)

    def test_metrics_export(self, wl, model):
        res = Cluster(ClusterSpec(2, 0, model=model)).run(wl, make_policy("P1"))
        m = res.metrics()
        assert m.counter("tasks") == wl.n_supernodes
        assert m.counter("comm_messages") == res.comm_messages
        rep = m.report()
        assert rep["gauges"]["comm_bytes"] == res.comm_bytes


class TestShardRouter:
    def test_deterministic_and_complete(self):
        router = ShardRouter(4)
        for key in ("a", "b", "pattern:123"):
            ranking = router.ranking(key)
            assert sorted(ranking) == [0, 1, 2, 3]
            assert ranking == ShardRouter(4).ranking(key)
            assert router.primary(key) == ranking[0]

    def test_keys_spread_across_nodes(self):
        router = ShardRouter(4)
        owners = {router.primary(f"key{i}") for i in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_mark_down_fails_over_and_recovers(self):
        router = ShardRouter(3)
        key = "some-pattern"
        first, second = router.ranking(key)[:2]
        assert router.route(key) == first
        router.mark_down(first)
        assert router.route(key) == second
        assert first not in router.healthy_nodes()
        router.mark_up(first)
        assert router.route(key) == first

    def test_all_down_raises(self):
        router = ShardRouter(2)
        router.mark_down(0)
        router.mark_down(1)
        with pytest.raises(RuntimeError, match="no healthy nodes"):
            router.route("k")

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardedFleet:
    @pytest.fixture(scope="class")
    def a(self):
        return grid_laplacian_2d(9, 9)

    def test_affinity_routing_is_sticky(self, a):
        with ShardedSolverService(3, policy="P1") as fleet:
            primary = fleet.primary_for(a)
            for _ in range(3):
                out = fleet.solve(a, np.ones(a.n_rows))
                assert not out.degraded
            rep = fleet.report()
        assert rep["fleet"]["counters"][f"node{primary}.requests"] == 3
        assert rep["fleet"]["counters"]["routed"] == 3
        assert rep["fleet"]["counters"].get("failovers", 0) == 0
        assert rep["fleet"]["counters"]["interconnect_bytes"] > 0

    def test_failover_degrades_and_skips_primary_cache(self, a):
        from repro.runtime.faults import FaultInjector

        with ShardedSolverService(2, policy="P1") as probe:
            primary = probe.primary_for(a)
        fleet = ShardedSolverService(
            2, policy="P1",
            node_faults=FaultInjector(fail_sids=frozenset({primary})),
        )
        try:
            out = fleet.solve(a, np.ones(a.n_rows))
            assert out.degraded
            assert fleet.metrics.counter("failovers") == 1
            assert fleet.metrics.counter("nodes_marked_down") == 1
            # the factor lives on the replica, never the dead primary
            assert len(fleet.shards[primary].cache) == 0
            replica = 1 - primary
            assert len(fleet.shards[replica].cache) > 0
            assert fleet.router.healthy_nodes() == [replica]
        finally:
            fleet.shutdown()

    def test_whole_fleet_down_raises(self, a):
        from repro.runtime.faults import FaultInjector

        fleet = ShardedSolverService(
            2, policy="P1",
            node_faults=FaultInjector(fail_sids=frozenset({0, 1})),
        )
        try:
            with pytest.raises(RuntimeError, match="no healthy nodes"):
                fleet.solve(a, np.ones(a.n_rows))
        finally:
            fleet.shutdown()

    def test_solution_correct_across_fleet(self, a):
        with ShardedSolverService(2, policy="P1") as fleet:
            b = np.arange(1.0, a.n_rows + 1)
            out = fleet.solve(a, b)
            assert np.linalg.norm(a.matvec(out.x) - b) < 1e-8 * np.linalg.norm(b)
