"""Allocator pools, the CUBLAS context, and the simulated node."""

import numpy as np
import pytest

from repro.dense.blocked import HostKernels, blocked_cholesky_panels
from repro.gpu import CublasContext, HighWaterMarkPool, SimulatedNode, tesla_t10_model
from repro.gpu.allocator import DeviceMemoryError, PerCallPool
from repro.gpu.cublas import panel_kernel_sequence
from tests.recording_cublas import RecordingCublas


class TestPools:
    def test_growth_then_free_reuse(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 1e-3)
        assert pool.request(100) == 1e-3
        assert pool.request(50) == 0.0       # fits under high-water mark
        assert pool.request(100) == 0.0
        assert pool.request(200) == 1e-3     # growth
        assert pool.stats.n_growths == 2
        assert pool.stats.n_requests == 4

    def test_capacity_limit(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 0.0, capacity_limit=1000)
        pool.request(1000)
        with pytest.raises(DeviceMemoryError):
            pool.request(1001)

    def test_negative_rejected(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 0.0)
        with pytest.raises(ValueError):
            pool.request(-1)

    def test_release_drops_in_use_keeps_capacity(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 1e-3)
        pool.request(100)
        pool.request(40)
        assert pool.in_use == 140
        pool.release(40)
        assert pool.in_use == 100
        pool.release()                       # release everything
        assert pool.in_use == 0
        assert pool.capacity == 100          # buffer retained: no growth cost
        assert pool.request(100) == 0.0
        with pytest.raises(ValueError):
            pool.release(-1)

    def test_reset_peak_forgets_high_water(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 1e-3)
        pool.request(500)
        pool.release()
        pool.reset_peak()
        assert pool.capacity == 0
        assert pool.stats.high_water == 0
        assert pool.request(100) == 1e-3     # must really allocate again

    def test_capacity_limit_failure_leaves_accounting_clean(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: 0.0, capacity_limit=1000)
        pool.request(600)
        with pytest.raises(DeviceMemoryError):
            pool.request(1001)
        assert pool.in_use == 600            # failed request not charged
        assert pool.capacity == 600
        assert pool.request(1000) == 0.0     # at the limit still fits

    def test_per_call_pool_release_and_limit(self):
        pool = PerCallPool(alloc_time=lambda b: 1e-4, capacity_limit=100)
        pool.request(60)
        pool.release(60)
        assert pool.in_use == 0
        with pytest.raises(DeviceMemoryError):
            pool.request(101)
        pool.reset_peak()
        assert pool.stats.high_water == 0

    def test_per_call_pool_always_pays(self):
        pool = PerCallPool(alloc_time=lambda b: 2e-3)
        assert pool.request(10) == 2e-3
        assert pool.request(10) == 2e-3
        assert pool.stats.n_growths == 2

    def test_alloc_seconds_accumulate(self):
        pool = HighWaterMarkPool(alloc_time=lambda b: b * 1e-9)
        pool.request(1000)
        pool.request(3000)
        assert pool.stats.alloc_seconds == pytest.approx(4e-6)
        assert pool.stats.high_water == 3000


class TestCublasContext:
    @pytest.fixture
    def ctx(self):
        return CublasContext(tesla_t10_model())

    def test_fp32_dtype_under_sp(self, ctx):
        assert ctx.dtype == np.float32

    def test_dp_mode_uses_float64(self):
        ctx = CublasContext(tesla_t10_model().with_precision("dp"))
        assert ctx.dtype == np.float64

    def test_rejects_host_dtype(self, ctx, rng):
        with pytest.raises(TypeError):
            ctx.potrf(np.eye(4))  # float64 into an sp context

    def test_kernels_compute_correctly_in_fp32(self, ctx, rng):
        a = rng.normal(size=(10, 12)).astype(np.float32)
        spd = (a @ a.T + 20 * np.eye(10)).astype(np.float32)
        l = ctx.potrf(spd)
        assert np.allclose(l @ l.T, spd, atol=1e-3)
        b = rng.normal(size=(6, 10)).astype(np.float32)
        x = ctx.trsm(b, l)
        assert np.allclose(x @ l.T, b, atol=1e-3)
        c = np.eye(6, dtype=np.float32)
        ctx.syrk(c, x)
        assert np.allclose(c, np.eye(6) - x @ x.T, atol=1e-3)

    def test_a_kernel_keeps_no_time(self, ctx, rng):
        a = rng.normal(size=(8, 8)).astype(np.float32)
        spd = (a @ a.T + 20 * np.eye(8)).astype(np.float32)
        l = ctx.potrf(spd)
        x = ctx.trsm(rng.normal(size=(5, 8)).astype(np.float32), l)
        ctx.syrk(np.eye(5, dtype=np.float32), x)
        ctx.gemm(np.zeros((5, 5), dtype=np.float32), x, x.T)
        ctx.syrk_outer(x)
        assert ctx.busy_seconds == 0.0

    @pytest.mark.parametrize("policy", ("P2", "P3", "P4"))
    def test_factorization_busy_time_is_the_price_of_its_fold(
        self, policy, sf_lap3d, lap3d_small
    ):
        # the numerics pass owns the device clock: it adds the seconds of
        # exactly the kernels device_kernels lists, in that order
        from repro.multifrontal.numeric import device_kernels, factorize_numeric
        from repro.policies import Worker, make_policy

        pol = make_policy(policy)
        node = SimulatedNode()
        factorize_numeric(lap3d_small, sf_lap3d, pol, node=node)
        worker = Worker.canonical(node)
        bases = [
            pol.resolve(sf_lap3d.update_size(s), sf_lap3d.width(s), worker)
            for s in range(sf_lap3d.n_supernodes)
        ]
        fold = device_kernels(sf_lap3d, bases, sf_lap3d.spost)
        ctx = node.gpus[0].cublas
        assert fold and ctx.busy_seconds == ctx.price(fold)

    def test_syrk_outer_returns_product(self, ctx, rng):
        x = rng.normal(size=(5, 3)).astype(np.float32)
        w = ctx.syrk_outer(x)
        assert np.allclose(w, x @ x.T, atol=1e-4)

    def test_price_matches_sum_of_kernel_times(self, ctx):
        calls = panel_kernel_sequence(100, 40, 16)
        total = ctx.price(calls)
        manual = sum(
            ctx.model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
            for c in calls
        )
        assert total == pytest.approx(manual)

    def test_blocked_loop_records_declared_sequence(self, ctx, rng):
        s, k, w = 50, 30, 8
        b = rng.normal(size=(s, s + 3))
        f = (b @ b.T + s * np.eye(s)).astype(np.float32)
        recorder = RecordingCublas(ctx.model)
        blocked_cholesky_panels(f, k, w, recorder)
        assert recorder.calls == panel_kernel_sequence(s, k, w)


class TestPanelSequence:
    def test_single_panel_no_trailing(self):
        calls = panel_kernel_sequence(10, 10, 10)
        assert [c.kernel for c in calls] == ["potrf"]

    def test_single_panel_with_update(self):
        calls = panel_kernel_sequence(15, 5, 5)
        assert [c.kernel for c in calls] == ["potrf", "trsm", "syrk"]

    def test_multi_panel_structure(self):
        calls = panel_kernel_sequence(20, 10, 5)
        kinds = [c.kernel for c in calls]
        assert kinds == [
            "potrf", "trsm", "syrk", "gemm", "syrk",   # first panel
            "potrf", "trsm", "syrk",                    # last panel
        ]

    def test_flops_conserved(self):
        from repro.dense.kernels import (
            gemm_flops, potrf_flops, syrk_flops, trsm_flops,
        )
        s, k = 80, 50
        total = 0.0
        for c in panel_kernel_sequence(s, k, 16):
            total += {
                "potrf": lambda c: potrf_flops(c.k),
                "trsm": lambda c: trsm_flops(c.m, c.k),
                "syrk": lambda c: syrk_flops(c.m, c.k),
                "gemm": lambda c: gemm_flops(c.m, c.n, c.k) / 2,
            }[c.kernel](c)
        m = s - k
        expected = potrf_flops(k) + trsm_flops(m, k) + syrk_flops(m, k)
        assert total == pytest.approx(expected, rel=0.5)


class TestSimulatedNode:
    def test_default_configuration(self):
        node = SimulatedNode()
        assert len(node.cpus) == 1
        assert len(node.gpus) == 1
        assert node.now == 0.0

    def test_engine_names_unique_per_gpu(self):
        node = SimulatedNode(n_cpus=2, n_gpus=2)
        names = {
            g.compute_engine for g in node.gpus
        } | {g.h2d_engine for g in node.gpus} | {g.d2h_engine for g in node.gpus}
        assert len(names) == 6

    def test_reserve_charges_once(self):
        node = SimulatedNode()
        g = node.gpus[0]
        first = g.reserve(1000, 1000)
        assert first > 0
        assert g.reserve(500, 500) == 0.0

    def test_reset_clears_state(self):
        node = SimulatedNode()
        node.gpus[0].reserve(1000, 1000)
        from repro.gpu.clock import TaskGraph, schedule_graph
        g = TaskGraph()
        g.add("x", "cpu0", 1.0)
        schedule_graph(g, engines=node.engines)
        assert node.now == 1.0
        node.reset()
        assert node.now == 0.0
        assert node.gpus[0].device_pool.capacity == 0

    @pytest.mark.parametrize("pinned_pooling", [True, False])
    def test_reset_gives_fresh_pool_statistics(self, pinned_pooling):
        """The pools of a reused node read one factorization, not the
        running total, and reset plants no attribute on a pool."""
        from dataclasses import asdict

        from repro import SparseCholeskySolver
        from repro.matrices import grid_laplacian_3d

        a = grid_laplacian_3d(8, 8, 8)

        def solver():
            return SparseCholeskySolver(
                a, ordering="nd", policy="P4",
                node=SimulatedNode(pinned_pooling=pinned_pooling),
            ).factorize()

        def pool_counters(s):
            return [
                (asdict(p.stats), p.in_use, getattr(p, "capacity", None))
                for g in s.node.gpus for p in (g.device_pool, g.pinned_pool)
            ]

        once, twice = solver(), solver()
        twice.refactorize(a.data * 2.0)
        assert pool_counters(twice) == pool_counters(once)
        assert all(c["n_requests"] > 0 for c, _, _ in pool_counters(once))
        pool = twice.node.gpus[0].pinned_pool
        assert hasattr(pool, "capacity") == pinned_pooling
        twice.node.reset()
        assert hasattr(pool, "capacity") == pinned_pooling
        assert asdict(pool.stats) == asdict(type(pool.stats)())

    @pytest.mark.parametrize("pinned_pooling", [True, False])
    def test_reset_leaves_the_last_runs_statistics_alone(self, pinned_pooling):
        """Whoever holds a run's pool statistics still reads that run
        after the node is reset for the next one."""
        from dataclasses import asdict

        from repro import SparseCholeskySolver
        from repro.matrices import grid_laplacian_3d

        solver = SparseCholeskySolver(
            grid_laplacian_3d(6, 6, 6), ordering="nd", policy="P4",
            node=SimulatedNode(pinned_pooling=pinned_pooling),
        ).factorize()
        held = [
            p.stats for g in solver.node.gpus for p in (g.device_pool, g.pinned_pool)
        ]
        run1 = [asdict(s) for s in held]
        assert all(s["high_water"] > 0 for s in run1)
        solver.node.reset()
        assert [asdict(s) for s in held] == run1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedNode(n_cpus=0)
        with pytest.raises(ValueError):
            SimulatedNode(n_gpus=-1)
