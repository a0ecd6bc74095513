"""Parallel scheduling: worker pools, list scheduling, multi-GPU runs."""

import numpy as np
import pytest

from repro.matrices import grid_laplacian_2d, grid_laplacian_3d
from repro.multifrontal import solve_factored
from repro.multifrontal.numeric import postorder_numeric_factor
from repro.parallel import Static, make_worker_pool, parallel_schedule
from repro.policies import BaselineHybrid, make_policy
from repro.symbolic import symbolic_factorize


@pytest.fixture(scope="module")
def problem():
    a = grid_laplacian_3d(6, 6, 6)
    return a, symbolic_factorize(a, ordering="nd")


class TestWorkerPool:
    def test_cpu_only_pool(self):
        pool = make_worker_pool(4, 0)
        assert pool.n_workers == 4
        assert pool.n_gpus == 0
        assert pool.gpu_worker() is None

    def test_mixed_pool(self):
        pool = make_worker_pool(2, 2)
        assert pool.n_gpus == 2
        assert pool.gpu_worker().has_gpu
        # distinct GPUs per worker
        assert pool.workers[0].gpu is not pool.workers[1].gpu

    def test_gpu_needs_host_thread(self):
        with pytest.raises(ValueError):
            make_worker_pool(1, 2)


class TestListSchedule:
    def test_single_worker_equals_sum(self, problem):
        a, sf = problem
        pool = make_worker_pool(1, 0)
        res = Static(gang_threshold=np.inf).run(sf, make_policy("P1"), pool)
        total = sum(t.elapsed for t in res.schedule)
        assert res.makespan == pytest.approx(total, rel=1e-9)

    def test_dependencies_respected(self, problem):
        a, sf = problem
        pool = make_worker_pool(3, 0)
        res = Static().run(sf, make_policy("P1"), pool)
        end = {t.sid: t.end for t in res.schedule}
        start = {t.sid: t.start for t in res.schedule}
        kids = sf.schildren()
        for s in range(sf.n_supernodes):
            for c in kids[s]:
                assert end[c] <= start[s] + 1e-12

    def test_more_workers_never_slower(self, problem):
        a, sf = problem
        times = []
        for p in (1, 2, 4):
            pool = make_worker_pool(p, 0)
            times.append(
                Static(gang_threshold=np.inf)
                .run(sf, make_policy("P1"), pool).makespan
            )
        assert times[1] <= times[0] + 1e-12
        assert times[2] <= times[1] + 1e-12

    def test_4_thread_speedup_in_paper_band(self):
        # paper Table VII: 4-thread runs achieve ~2.7-4.3x; with gang
        # scheduling of the root fronts we should land in a similar band
        a = grid_laplacian_3d(8, 8, 8)
        sf = symbolic_factorize(a, ordering="nd")
        serial = Static().run(sf, make_policy("P1"), make_worker_pool(1, 0)).makespan
        par = Static().run(sf, make_policy("P1"), make_worker_pool(4, 0)).makespan
        speedup = serial / par
        assert 1.8 < speedup <= 4.0

    def test_gang_scheduling_helps_at_the_root(self, problem):
        a, sf = problem
        pool = make_worker_pool(4, 0)
        with_gang = Static(gang_threshold=1e6).run(sf, make_policy("P1"), pool)
        without = Static(gang_threshold=np.inf).run(sf, make_policy("P1"), pool)
        assert with_gang.makespan <= without.makespan

    def test_every_supernode_scheduled_once(self, problem):
        a, sf = problem
        res = Static().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        assert sorted(t.sid for t in res.schedule) == list(range(sf.n_supernodes))

    def test_worker_busy_accounting(self, problem):
        a, sf = problem
        res = Static().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        assert len(res.worker_busy) == 2
        assert 0 < res.utilization() <= 1.0

    def test_hybrid_policy_resolved_per_call(self, problem):
        a, sf = problem
        pool = make_worker_pool(1, 1)
        res = Static().run(sf, BaselineHybrid(), pool)
        names = {t.policy for t in res.schedule}
        assert "P1" in names  # the many small calls

    def test_cpu_only_pool_forces_p1(self, problem):
        a, sf = problem
        pool = make_worker_pool(2, 0)
        res = Static().run(sf, BaselineHybrid(), pool)
        assert {t.policy for t in res.schedule} == {"P1"}


class TestPricedOnThePlacedWorker:
    """A task costs what it costs on the worker it lands on: a worker
    that owns no GPU runs a device policy as host P1 (the static
    scheduler used to price it at device speed there)."""

    @pytest.fixture(scope="class")
    def wl(self):
        from repro.workload import geometric_nd_workload

        return geometric_nd_workload(24, 24, 24, leaf_cells=16)

    def test_no_device_task_on_a_gpu_less_worker(self, wl):
        from repro.verify.invariants import check_schedule_precedence

        mixed = Static().run(wl, BaselineHybrid(), make_worker_pool(4, 2))
        on_cpu_only = [t for t in mixed.schedule if t.worker in (2, 3)]
        assert on_cpu_only
        assert {t.policy for t in on_cpu_only} == {"P1"}
        # the GPU workers still offload, and so do the gang tasks (the
        # pool-level price: GPU shape if the pool has any)
        assert any(t.policy != "P1" for t in mixed.schedule if t.worker in (0, 1))
        assert any(t.gang and t.policy != "P1" for t in mixed.schedule)
        assert check_schedule_precedence(wl, mixed.schedule) == []
        # two of the four workers own no GPU: not the makespan of four GPUs
        full = Static().run(wl, BaselineHybrid(), make_worker_pool(4, 4))
        assert mixed.makespan != full.makespan

    def test_fixed_device_policy_on_cpu_pool_is_the_p1_schedule(self, wl):
        from repro.verify.invariants import check_schedule_precedence

        p4 = Static().run(wl, make_policy("P4"), make_worker_pool(2, 0))
        p1 = Static().run(wl, make_policy("P1"), make_worker_pool(2, 0))
        assert {t.policy for t in p4.schedule} == {"P1"}
        placements = TestScheduleDeterminism._placements
        assert placements(p4) == placements(p1)
        assert p4.makespan == p1.makespan
        assert check_schedule_precedence(wl, p4.schedule) == []


class TestParallelFactorize:
    def test_numerics_correct_with_hybrid(self, problem):
        a, sf = problem
        pool = make_worker_pool(2, 2)
        priced = parallel_schedule(sf, BaselineHybrid(), pool, Static())
        factor = postorder_numeric_factor(a, sf, priced, pool.node)
        b = np.ones(a.n_rows)
        x = solve_factored(factor, b)
        assert np.abs(a.matvec(x) - b).max() < 1e-4  # fp32-touched factor

    def test_numerics_exact_cpu_only(self, problem):
        a, sf = problem
        pool = make_worker_pool(4, 0)
        priced = parallel_schedule(sf, make_policy("P1"), pool, Static())
        factor = postorder_numeric_factor(a, sf, priced, pool.node)
        b = np.ones(a.n_rows)
        x = solve_factored(factor, b)
        assert np.abs(a.matvec(x) - b).max() < 1e-10

    def test_2gpu_beats_1gpu(self):
        a = grid_laplacian_3d(8, 8, 8)
        sf = symbolic_factorize(a, ordering="nd")
        t1 = Static().run(sf, BaselineHybrid(), make_worker_pool(1, 1)).makespan
        t2 = Static().run(sf, BaselineHybrid(), make_worker_pool(2, 2)).makespan
        assert t2 < t1

    def test_speedup_vs_helper(self, problem):
        a, sf = problem
        res = Static().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        assert res.speedup_vs(2 * res.makespan) == pytest.approx(2.0)

    def test_schedule_sorted_by_start(self, problem):
        a, sf = problem
        res = Static().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        starts = [t.start for t in res.schedule]
        assert starts == sorted(starts)


class TestScheduleDeterminism:
    """Identical placements across repeated runs — the static scheduler
    is relied on as a reproducible baseline by the dynamic runtime's
    comparison benches, so tie-breaking must be deterministic."""

    @staticmethod
    def _placements(result):
        return [(t.sid, t.worker, t.start, t.end, t.policy, t.gang)
                for t in result.schedule]

    def test_identical_across_runs(self, problem):
        _, sf = problem
        runs = [
            Static(gang_threshold=np.inf).run(
                sf, BaselineHybrid(), make_worker_pool(3, 1)
            )
            for _ in range(3)
        ]
        first = self._placements(runs[0])
        for r in runs[1:]:
            assert self._placements(r) == first
            assert r.makespan == runs[0].makespan
            assert r.worker_busy == runs[0].worker_busy

    def test_gang_branch_deterministic(self, problem):
        _, sf = problem
        # threshold low enough that the big root fronts gang-schedule
        runs = [
            Static(gang_threshold=2e4).run(
                sf, make_policy("P1"), make_worker_pool(4, 0)
            )
            for _ in range(3)
        ]
        assert any(t.gang for t in runs[0].schedule)
        assert any(t.worker == -1 for t in runs[0].schedule)
        first = self._placements(runs[0])
        for r in runs[1:]:
            assert self._placements(r) == first
