"""The serving layer: keys, cache, batching, metrics, and the service."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.matrices import grid_laplacian_2d
from repro.matrices.csc import CSCMatrix, COOMatrix
from repro.multifrontal import SparseCholeskySolver
from repro.service import (
    BatchPlan,
    FactorizationCache,
    LatencyHistogram,
    ServiceMetrics,
    SolverService,
    matrix_key,
    pattern_key,
    values_key,
)
from repro.service.cache import symbolic_nbytes
from repro.symbolic import symbolic_factorize
from repro.verify.invariants import ExplodingPolicy


def scaled(a: CSCMatrix, c: float) -> CSCMatrix:
    """Same pattern, values scaled by ``c`` (SPD preserved for c > 0)."""
    return CSCMatrix(a.shape, a.indptr, a.indices, a.data * c, check=False)


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_same_pattern_different_values_share_pattern_key(self, lap2d_small):
        b = scaled(lap2d_small, 3.0)
        assert pattern_key(lap2d_small) == pattern_key(b)
        assert values_key(lap2d_small) != values_key(b)

    def test_identical_matrices_share_both_keys(self, lap2d_small):
        b = lap2d_small.copy()
        assert pattern_key(lap2d_small) == pattern_key(b)
        assert values_key(lap2d_small) == values_key(b)

    def test_permuted_duplicate_triplets_hash_equal(self, rng):
        # the same matrix assembled twice: shuffled triplet order, and with
        # entries split into duplicate contributions that sum back
        rows = np.array([0, 1, 2, 1, 2, 0])
        cols = np.array([0, 1, 2, 0, 1, 1])
        vals = np.array([4.0, 5.0, 6.0, 1.0, 1.5, 1.0])
        a = COOMatrix(3, 3, rows, cols, vals).to_csc()

        order = rng.permutation(rows.size)
        split = rng.uniform(0.25, 0.75, size=rows.size)
        rows2 = np.concatenate([rows[order], rows[order]])
        cols2 = np.concatenate([cols[order], cols[order]])
        vals2 = np.concatenate(
            [vals[order] * split[order], vals[order] * (1 - split[order])]
        )
        b = COOMatrix(3, 3, rows2, cols2, vals2).to_csc()

        assert pattern_key(a) == pattern_key(b)
        assert values_key(a) == values_key(b)

    def test_lower_and_full_storage_hash_equal(self, lap2d_small):
        lower = lap2d_small.lower_triangle()
        key_full, _ = matrix_key(lap2d_small)
        key_lower, canonical = matrix_key(lower)
        assert key_full == key_lower
        assert canonical.is_structurally_symmetric()

    @pytest.mark.parametrize("storage", ["lower", "upper", "mixed"])
    def test_every_store_of_a_matrix_is_the_same_request(
        self, spd_stores, storage
    ):
        # same keys, and the same x from a service that never saw the
        # full store (so it is no cache hit on the right answer)
        full, stored = spd_stores["full"], spd_stores[storage]
        assert matrix_key(stored)[0] == matrix_key(full)[0]
        b = np.random.default_rng(5).normal(size=full.n_rows)
        with SolverService(n_workers=1) as svc:
            want = svc.solve(full, b).x
        with SolverService(n_workers=1) as svc:
            assert np.array_equal(svc.solve(stored, b).x, want)

    def test_different_patterns_differ(self):
        assert pattern_key(grid_laplacian_2d(6, 6)) != pattern_key(
            grid_laplacian_2d(6, 7)
        )


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestCache:
    def test_tiered_lookup(self, lap2d_small, sf_lap3d):
        cache = FactorizationCache(max_bytes=1 << 30)
        assert cache.lookup("s1", "n1").tier == "miss"
        cache.put_symbolic("s1", sf_lap3d)
        look = cache.lookup("s1", "n1")
        assert look.tier == "symbolic" and look.symbolic is sf_lap3d
        factor = (
            SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1")
            .factorize()
            .factor
        )
        cache.put_numeric("n1", factor)
        look = cache.lookup("s1", "n1")
        assert look.tier == "numeric" and look.numeric is factor
        assert cache.stats["numeric_hits"] == 1
        assert cache.stats["symbolic_hits"] == 1
        assert cache.stats["misses"] == 1

    def test_lru_eviction_at_byte_budget(self, sf_lap3d):
        cache = FactorizationCache(max_bytes=250)
        cache.put_symbolic("a", sf_lap3d, nbytes=100)
        cache.put_symbolic("b", sf_lap3d, nbytes=100)
        # touch "a" so "b" becomes the LRU entry
        assert cache.get_symbolic("a") is not None
        cache.put_symbolic("c", sf_lap3d, nbytes=100)
        assert cache.get_symbolic("b") is None          # evicted
        assert cache.get_symbolic("a") is not None      # survived (recently used)
        assert cache.get_symbolic("c") is not None
        assert cache.stats["evictions"] == 1
        assert cache.stored_bytes == 200

    def test_oversize_entry_rejected(self, sf_lap3d):
        cache = FactorizationCache(max_bytes=100)
        assert not cache.put_symbolic("big", sf_lap3d, nbytes=1000)
        assert len(cache) == 0
        assert cache.stats["rejected_oversize"] == 1

    def test_reinsert_updates_bytes(self, sf_lap3d):
        cache = FactorizationCache(max_bytes=1000)
        cache.put_symbolic("a", sf_lap3d, nbytes=100)
        cache.put_symbolic("a", sf_lap3d, nbytes=300)
        assert cache.stored_bytes == 300
        assert len(cache) == 1

    def test_default_size_estimate_positive(self, sf_lap3d):
        assert symbolic_nbytes(sf_lap3d) > 0


# ----------------------------------------------------------------------
# solver primitives the cache tiers rely on
# ----------------------------------------------------------------------
class TestSymbolicReuse:
    def test_refactorize_with_new_values(self, lap2d_small):
        solver = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1")
        solver.analyze().factorize()
        sf = solver.symbolic
        b = np.ones(lap2d_small.n_rows)

        a2 = scaled(lap2d_small, 2.5)
        solver.refactorize(a2)
        assert solver.symbolic is sf                   # analysis reused
        x = solver.solve(b, refine=False)
        ref = SparseCholeskySolver(a2, ordering="amd", policy="P1").solve(
            b, refine=False
        )
        np.testing.assert_allclose(x, ref, rtol=1e-10)

    def test_refactorize_raw_values_array(self, lap2d_small):
        solver = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1")
        solver.analyze().factorize()
        solver.refactorize(solver.a.data * 4.0)
        b = np.ones(lap2d_small.n_rows)
        x = solver.solve(b, refine=False)
        ref = SparseCholeskySolver(
            scaled(lap2d_small, 4.0), ordering="amd", policy="P1"
        ).solve(b, refine=False)
        np.testing.assert_allclose(x, ref, rtol=1e-10)

    def test_refactorize_rejects_wrong_shape(self, lap2d_small):
        solver = SparseCholeskySolver(lap2d_small, policy="P1")
        with pytest.raises(ValueError):
            solver.refactorize(np.ones(3))

    def test_from_symbolic_skips_analysis(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        solver = SparseCholeskySolver.from_symbolic(
            lap2d_small, sf, policy="P1"
        )
        assert solver.symbolic is sf
        b = np.ones(lap2d_small.n_rows)
        x = solver.solve(b, refine=False)
        ref = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1").solve(
            b, refine=False
        )
        np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_from_symbolic_rejects_wrong_size(self, lap2d_small, sf_lap3d):
        with pytest.raises(ValueError):
            SparseCholeskySolver.from_symbolic(lap2d_small, sf_lap3d)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class TestServiceTiers:
    def test_correctness_and_tier_progression(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        ref = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1").solve(
            b, refine=False
        )
        with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
            out1 = svc.solve(lap2d_small, b)
            assert out1.tier == "miss"
            np.testing.assert_array_equal(out1.x, ref)

            # warm full hit: straight to the solves, zero factorizations
            before = svc.metrics.counter("numeric_factorizations")
            out2 = svc.solve(lap2d_small.copy(), b)
            assert out2.tier == "numeric"
            assert svc.metrics.counter("numeric_factorizations") == before
            np.testing.assert_array_equal(out2.x, ref)

            # same pattern, new values: symbolic hit, one new factorization
            out3 = svc.solve(scaled(lap2d_small, 2.0), b)
            assert out3.tier == "symbolic"
            assert svc.metrics.counter("numeric_factorizations") == before + 1
            np.testing.assert_allclose(out3.x, ref / 2.0, rtol=1e-12)
        rep = svc.report()
        assert rep["cache"]["numeric_hits"] == 1
        assert rep["cache"]["symbolic_hits"] == 1
        assert rep["counters"]["completed"] == 3

    def test_warm_hit_rate_on_repeated_stream(self, lap2d_small):
        """The acceptance-criterion scenario: a repeated-pattern stream
        reaches >= 80% symbolic-tier hit rate."""
        variants = [scaled(lap2d_small, 1.0 + 0.5 * v) for v in range(3)]
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1") as svc:
            for i in range(30):
                svc.solve(variants[i % 3], b)
        assert svc.cache.pattern_hit_rate >= 0.8
        # only the three value-variants were ever factored
        assert svc.metrics.counter("numeric_factorizations") == 3

    def test_multicolumn_rhs(self, lap2d_small, rng):
        b = rng.normal(size=(lap2d_small.n_rows, 5))
        with SolverService(n_workers=1, policy="P1") as svc:
            out = svc.solve(lap2d_small, b)
        ref = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1")
        ref.factorize()
        from repro.multifrontal.solve import solve_factored

        np.testing.assert_array_equal(out.x, solve_factored(ref.factor, b))

    def test_non_finite_rhs_is_refused_at_submit(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        b[0] = np.nan
        with SolverService(n_workers=1, policy="P1") as svc:
            with pytest.raises(ValueError, match="non-finite"):
                svc.submit(lap2d_small, b)
            assert svc.metrics.counter("submitted") == 0

    def test_complex_rhs_is_refused_at_submit(self, lap2d_small):
        # it used to be cast to its real part and answered for that alone
        b = np.ones(lap2d_small.n_rows) * (1 + 1j)
        with SolverService(n_workers=1, policy="P1") as svc:
            with pytest.raises(ValueError, match="must be real"):
                svc.submit(lap2d_small, b, refine=True)
            assert svc.metrics.counter("submitted") == 0

    def test_refined_request(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P3") as svc:
            out = svc.solve(lap2d_small, b, refine=True)
        r = b - lap2d_small.matvec(out.x)
        assert np.abs(r).max() / np.abs(b).max() < 1e-10

    def test_one_sweep_pair_per_solve_the_caller_needs(
        self, lap2d_small, rng, monkeypatch
    ):
        """Every hit is one ``iterative_refinement`` call -- its opening
        solve plus one per correction, no sweep thrown away -- whether
        or not the caller asked for ``refine``, and ``x`` is that call's,
        bit for bit."""
        import repro.multifrontal.refine as refine_mod
        import repro.service.service as service_mod
        from repro.multifrontal import iterative_refinement, solve_factored

        factors, calls = [], []

        def counted_solve(factor, b):
            factors.append(factor)
            return solve_factored(factor, b)

        def counted_refinement(*args, **kwargs):
            calls.append(args[2].shape)
            return iterative_refinement(*args, **kwargs)

        monkeypatch.setattr(refine_mod, "solve_factored", counted_solve)
        monkeypatch.setattr(service_mod, "iterative_refinement", counted_refinement)
        b = rng.normal(size=lap2d_small.n_rows)
        # P3 runs fp32 kernels, so refinement has corrections to make
        with SolverService(n_workers=1, policy="P3", ordering="amd") as svc:
            svc.solve(lap2d_small, b)                    # fill the cache
            del factors[:], calls[:]
            plain = svc.solve(lap2d_small, b)
            assert plain.tier == "numeric"
            plain_sweeps, factor = len(factors), factors[0]
            del factors[:]
            refined = svc.solve(lap2d_small, b, refine=True)
            assert refined.tier == "numeric"
            refined_sweeps = len(factors)
        monkeypatch.undo()

        assert calls == [(lap2d_small.n_rows, 1)] * 2
        ref = iterative_refinement(matrix_key(lap2d_small)[1], factor, b)
        assert ref.iterations >= 1
        assert plain_sweeps == refined_sweeps == 1 + ref.iterations
        for out in (plain, refined):
            np.testing.assert_array_equal(out.x, ref.x)
            assert out.refine_iterations == ref.iterations
            assert out.backward_error == ref.final_residual <= 1e-12
        # the histograms count the calls and requests the caller waited for
        hist = svc.metrics.histogram("refine_iterations")
        assert hist.count == 3 and hist.total >= 2 * ref.iterations
        assert svc.metrics.histogram("solve").count == 3

    @pytest.mark.parametrize("bad", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-12},
        {"max_iter": -1},
    ], ids=["tol-nan", "tol-inf", "tol-negative", "max_iter-negative"])
    def test_non_finite_or_negative_knobs_are_refused_at_submit(
        self, lap2d_small, bad
    ):
        # tol sets the acceptance bound: an infinite one would certify
        # anything
        with SolverService(n_workers=1, policy="P1") as svc:
            with pytest.raises(ValueError, match="finite tol >= 0 and max_iter >= 0"):
                svc.submit(lap2d_small, np.ones(lap2d_small.n_rows), **bad)
            assert svc.metrics.counter("submitted") == 0

    def test_submit_after_shutdown_raises(self, lap2d_small):
        svc = SolverService(n_workers=1, policy="P1")
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit(lap2d_small, np.ones(lap2d_small.n_rows))


class TestServiceConcurrency:
    def test_concurrent_submissions_match_serial(self):
        mats = [grid_laplacian_2d(6 + p, 7 + p) for p in range(4)]
        rhs = [np.arange(1.0, m.n_rows + 1.0) for m in mats]
        serial = [
            SparseCholeskySolver(m, ordering="amd", policy="P1").solve(
                b, refine=False
            )
            for m, b in zip(mats, rhs)
        ]

        results: dict[tuple[int, int], np.ndarray] = {}
        errors: list[BaseException] = []
        # batching off: a blocked multi-RHS solve rounds differently from a
        # per-vector solve, and this test demands bitwise equality vs serial
        with SolverService(
            n_workers=4, policy="P1", ordering="amd", max_batch=1
        ) as svc:
            def client(tid: int):
                try:
                    reqs = [
                        (i, svc.submit(mats[i], rhs[i]))
                        for i in range(len(mats))
                    ]
                    for i, r in reqs:
                        out = r.result(timeout=120)
                        with lock:
                            results[(tid, i)] = out.x
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            lock = threading.Lock()
            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        assert len(results) == 16
        for (tid, i), x in results.items():
            np.testing.assert_array_equal(x, serial[i])

    def test_inflight_coalescing_avoids_duplicate_factorizations(self):
        # many concurrent requests for one cold matrix: exactly one
        # factorization thanks to in-flight coalescing
        a = grid_laplacian_2d(12, 12)
        b = np.ones(a.n_rows)
        with SolverService(n_workers=4, policy="P1", max_batch=1) as svc:
            reqs = [svc.submit(a, b) for _ in range(8)]
            outs = [r.result(timeout=120) for r in reqs]
        assert svc.metrics.counter("numeric_factorizations") == 1
        for o in outs:
            np.testing.assert_array_equal(o.x, outs[0].x)


class TestServiceDeadlines:
    def test_expired_request_times_out_not_dropped(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1") as svc:
            req = svc.submit(lap2d_small, b, timeout=-1.0)  # already expired
            with pytest.raises(TimeoutError):
                req.result(timeout=60)
        assert svc.metrics.counter("timeouts") == 1
        assert req.done()

    def test_expired_request_fails_in_the_drain_pass(self):
        # the lone worker is held inside the blocker's factorization while
        # the queue fills: an anchor of key K, an already-expired K request
        # and a request of another key
        from repro.gpu.device import SimulatedNode

        gate = threading.Event()
        built = []

        def node_factory():
            built.append(None)
            if len(built) == 1:
                assert gate.wait(60)
            return SimulatedNode(n_cpus=1, n_gpus=1)

        blocker = grid_laplacian_2d(8, 8)
        k = grid_laplacian_2d(6, 6)
        other = grid_laplacian_2d(5, 5)
        log = []
        with SolverService(
            n_workers=1, policy="P1", node_factory=node_factory
        ) as svc:
            process, expire = svc._process, svc._expire

            def logged_process(req, worker):
                log.append(("process", req.request_id))
                process(req, worker)

            def logged_expire(req):
                log.append(("expire", req.request_id, svc._cond._is_owned()))
                expire(req)

            svc._process, svc._expire = logged_process, logged_expire
            first = svc.submit(blocker, np.ones(blocker.n_rows))
            anchor = svc.submit(k, np.ones(k.n_rows))
            late = svc.submit(k, np.ones(k.n_rows), timeout=-1.0)
            last = svc.submit(other, np.ones(other.n_rows))
            gate.set()
            outs = [r.result(timeout=120) for r in (first, anchor, last)]
            with pytest.raises(TimeoutError):
                late.result(timeout=120)
        # the anchor's drain pass expires the K request outside the queue
        # lock, never batches it, and leaves the other key queued for the
        # next pop
        assert log == [
            ("process", first.request_id),
            ("process", anchor.request_id),
            ("expire", late.request_id, False),
            ("process", last.request_id),
        ]
        assert svc.metrics.counter("timeouts") == 1
        assert [o.batch_size for o in outs] == [1, 1, 1]
        assert svc.metrics.counter("batched_requests") == 0

    def test_result_wait_timeout(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        svc = SolverService(n_workers=1, policy="P1")
        try:
            # a request that is genuinely processed still honors result()'s
            # own wait timeout semantics
            out = svc.submit(lap2d_small, b).result(timeout=120)
            assert out.x.shape == b.shape
        finally:
            svc.shutdown()


class TestServiceDegradation:
    def test_gpu_failure_falls_back_to_p1(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        ref = SparseCholeskySolver(lap2d_small, ordering="amd", policy="P1").solve(
            b, refine=False
        )
        with SolverService(
            n_workers=1, policy=ExplodingPolicy(), ordering="amd"
        ) as svc:
            out = svc.solve(lap2d_small, b)
        assert out.degraded
        np.testing.assert_array_equal(out.x, ref)
        assert svc.metrics.counter("degraded") == 1
        # the degraded factor is not published under the failing policy's key
        assert svc.cache.stats["numeric_hits"] == 0

    def test_degraded_factor_not_cached_under_clean_key(self, lap2d_small):
        # the fallback factor is never published under the failing
        # policy's key: the second identical request factors again
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy=ExplodingPolicy()) as svc:
            first = svc.solve(lap2d_small, b)
            second = svc.solve(lap2d_small, b)
        assert first.degraded and second.degraded
        assert svc.cache.stats["numeric_hits"] == 0
        assert svc.metrics.counter("numeric_factorizations") == 2

    def test_execution_knobs_are_not_service_options(self):
        # the service factors on its own node, serially: it has no
        # backend to pick and no scheduler to inject faults into
        from repro.cluster.fleet import ShardedSolverService
        from repro.runtime import FaultInjector

        with pytest.raises(TypeError, match="backend"):
            SolverService(n_workers=1, backend="dynamic")
        with pytest.raises(TypeError, match="faults"):
            SolverService(n_workers=1, faults=FaultInjector(kernel_failure_rate=1.0))
        with pytest.raises(TypeError, match="backend"):
            ShardedSolverService(2, backend="dynamic")

    def test_device_policy_on_a_gpu_less_node_is_not_degraded(self, lap2d_small):
        # every front resolves to host P1: nothing raised, nothing
        # flagged, and the factor is cached under the policy's own key
        from repro.gpu.device import SimulatedNode

        b = np.ones(lap2d_small.n_rows)
        with SolverService(
            n_workers=1, policy="P4", ordering="amd",
            node_factory=lambda: SimulatedNode(n_cpus=1, n_gpus=0),
        ) as svc:
            first = svc.solve(lap2d_small, b)
            second = svc.solve(lap2d_small, b)
        assert (first.degraded, second.degraded) == (False, False)
        assert (first.tier, second.tier) == ("miss", "numeric")
        assert svc.metrics.counter("numeric_factorizations") == 1
        assert svc.metrics.counter("degraded") == 0
        np.testing.assert_array_equal(first.x, second.x)

    def test_cpu_policy_failure_is_fatal(self, lap2d_small):
        # a genuinely broken problem on the CPU-only policy propagates
        from repro.dense.kernels import NotPositiveDefiniteError

        indefinite = CSCMatrix(
            lap2d_small.shape,
            lap2d_small.indptr,
            lap2d_small.indices,
            -lap2d_small.data,
            check=False,
        )
        with SolverService(n_workers=1, policy="P1") as svc:
            req = svc.submit(indefinite, np.ones(lap2d_small.n_rows))
            with pytest.raises(NotPositiveDefiniteError):
                req.result(timeout=120)


class TestServiceBatching:
    def test_batch_plan_roundtrip(self, rng):
        class Req:
            def __init__(self, b):
                self.b = b

        reqs = [Req(rng.normal(size=8)), Req(rng.normal(size=(8, 3))),
                Req(rng.normal(size=8))]
        plan = BatchPlan.build(reqs, 8)
        assert plan.nrhs == 5
        x = plan.block * 2.0
        outs = list(plan.scatter(x))
        assert outs[0][1].shape == (8,)
        assert outs[1][1].shape == (8, 3)
        for req, xr in outs:
            np.testing.assert_array_equal(
                xr, (np.asarray(req.b) * 2.0).reshape(xr.shape)
            )

    def test_queued_same_factor_requests_are_aggregated(self):
        blocker = grid_laplacian_2d(20, 20)      # keeps the lone worker busy
        shared = grid_laplacian_2d(9, 9)
        nb = shared.n_rows
        with SolverService(n_workers=1, policy="P1") as svc:
            first = svc.submit(blocker, np.ones(blocker.n_rows))
            batchers = [
                svc.submit(shared, np.full(nb, float(i + 1)))
                for i in range(4)
            ]
            first.result(timeout=120)
            outs = [r.result(timeout=120) for r in batchers]

        ref = SparseCholeskySolver(shared, ordering="amd", policy="P1").solve(
            np.ones(nb), refine=False
        )
        for i, o in enumerate(outs):
            np.testing.assert_allclose(o.x, ref * (i + 1), rtol=1e-9, atol=1e-12)
        # all four shared-pattern requests were in flight before the worker
        # got to them, so at least the tail rode the anchor's solve call
        assert max(o.batch_size for o in outs) >= 2
        assert svc.metrics.counter("batched_requests") >= 1
        # one factorization for the blocker, one for the shared pattern
        assert svc.metrics.counter("numeric_factorizations") == 2

    def test_refined_requests_share_one_block_call(self, monkeypatch):
        # two same-factor requests queue behind a blocker: one block
        # refinement answers both, and the zero right-hand side, within
        # its bound on the opening solve, leaves the sweep at once
        import repro.multifrontal.refine as refine_mod
        import repro.service.service as service_mod
        from repro.multifrontal import iterative_refinement, solve_factored

        blocker = grid_laplacian_2d(6, 6)
        shared = grid_laplacian_2d(9, 9)
        nb = shared.n_rows
        calls, widths = [], []

        def counted_refinement(*args, **kwargs):
            calls.append(args[2].shape)
            return iterative_refinement(*args, **kwargs)

        def counted_solve(factor, b):
            if b.shape[0] == nb:
                widths.append(1 if b.ndim == 1 else b.shape[1])
            return solve_factored(factor, b)

        monkeypatch.setattr(service_mod, "iterative_refinement", counted_refinement)
        monkeypatch.setattr(refine_mod, "solve_factored", counted_solve)
        from repro.gpu.device import SimulatedNode

        gate, built = threading.Event(), []

        def node_factory():
            built.append(None)
            if len(built) == 1:                  # the blocker's node
                assert gate.wait(60)
            return SimulatedNode(n_cpus=1, n_gpus=1)

        # P4 computes in fp32, so the nonzero column takes corrections
        with SolverService(n_workers=1, policy="P4", node_factory=node_factory) as svc:
            first = svc.submit(blocker, np.ones(blocker.n_rows))
            moving = svc.submit(shared, np.ones(nb), refine=True)
            still = svc.submit(shared, np.zeros(nb), refine=True)
            gate.set()
            first.result(timeout=120)
            outs = [r.result(timeout=120) for r in (moving, still)]
        monkeypatch.undo()

        assert calls.count((nb, 2)) == 1 and (nb, 1) not in calls
        assert [o.batch_size for o in outs] == [2, 2]
        assert outs[0].refine_iterations >= 1 and outs[1].refine_iterations == 0
        assert widths == [2] + [1] * outs[0].refine_iterations
        assert all(o.backward_error <= 1e-12 for o in outs)
        np.testing.assert_array_equal(outs[1].x, np.zeros(nb))


class TestMetrics:
    def test_histogram_percentiles(self):
        h = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 100):
            h.record(ms * 1e-3)
        assert h.count == 10
        assert h.percentile(50) == pytest.approx(1e-3, rel=0.5)
        assert h.percentile(95) == pytest.approx(0.1, rel=0.5)
        assert h.summary()["max"] == pytest.approx(0.1)

    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.percentile(50) == 0.0
        assert h.summary()["count"] == 0

    def test_counters_and_gauges(self):
        m = ServiceMetrics()
        m.incr("x")
        m.incr("x", 4)
        assert m.counter("x") == 5
        m.gauge("depth", 3)
        m.gauge("depth", 1)
        rep = m.report()
        assert rep["gauges"]["depth"] == 1
        assert rep["gauges"]["depth_max"] == 3
        json.loads(m.to_json())

    def test_chrome_trace_spans(self, tmp_path):
        m = ServiceMetrics()
        m.span("req1:solve", "solve", "worker0", 0.0, 0.5)
        m.span("req2:factorize", "factorize", "worker1", 0.1, 0.4)
        path = tmp_path / "trace.json"
        m.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert names == {"worker0", "worker1"}
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 2

    def test_service_report_shape(self, lap2d_small):
        with SolverService(n_workers=1, policy="P1") as svc:
            svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
        rep = svc.report()
        assert {"counters", "gauges", "latency", "cache"} <= set(rep)
        assert "total" in rep["latency"]
        assert rep["latency"]["total"]["count"] == 1
        assert rep["cache"]["entries"] == 2    # one symbolic + one numeric


def _probe(shift):
    """cond(A) ~ 7e9 at shift 1e-9 and ~ 7e7 at 1e-7: refinement against
    an fp32 factor stalls above the fp64 bound on both."""
    from repro.matrices import random_spd

    return random_spd(60, avg_degree=4, seed=3, shift=shift)


class TestCertifiedAnswers:
    """Every answer leaves with its normwise backward error within
    ``max(tol, n * u64)``, degraded to a fresh host-fallback factor when
    the factor in hand cannot reach it, or as the typed error."""

    def test_every_answer_is_certified(self, lap2d_small):
        from repro.multifrontal.refine import normwise_backward_error

        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
            outs = [svc.solve(lap2d_small, b) for _ in range(3)]
        for out in outs:
            # an fp64 factor meets the bound on its opening solve
            assert out.refine_iterations == 0 and not out.degraded
            assert out.backward_error == normwise_backward_error(
                lap2d_small, out.x, b
            ) <= 1e-12
        assert svc.metrics.histogram("refine_iterations").count == 3

    def test_certificate_makes_no_cache_traffic(self, lap2d_small):
        # the certificate reads the factor in hand: a request is one
        # lookup in the cache statistics
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
            for _ in range(4):
                svc.solve(lap2d_small, b)
        assert svc.cache.stats["lookups"] == 4
        assert svc.cache.stats["numeric_hits"] == 3
        assert svc.metrics.counter("degraded") == 0

    def _cached_factor(self, svc, a):
        key = matrix_key(a)[0]
        entry = svc.cache.lookup("zzz-no-such-pattern", f"{key.values}|ord=amd|pol=p1")
        assert entry.tier == FactorizationCache.NUMERIC
        return entry.numeric

    def test_perturbed_cached_panel_is_refined_within_bound(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
            clean = svc.solve(lap2d_small, b)
            factor = self._cached_factor(svc, lap2d_small)
            factor.panels[0][0, 0] *= 1.0 + 1e-3
            factor.sweep = None
            out = svc.solve(lap2d_small, b)      # numeric hit on the edited entry
        assert out.tier == "numeric" and not out.degraded
        assert out.refine_iterations >= 1
        assert out.backward_error <= 1e-12
        np.testing.assert_allclose(out.x, clean.x, rtol=1e-10)

    def test_destroyed_cached_entry_is_answered_from_a_fresh_fallback(
        self, lap2d_small
    ):
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1", ordering="amd") as svc:
            clean = svc.solve(lap2d_small, b)
            factor = self._cached_factor(svc, lap2d_small)
            for panel in factor.panels:
                panel *= 3.0
            factor.sweep = None
            before = svc.metrics.counter("numeric_factorizations")
            out = svc.solve(lap2d_small, b)
            assert self._cached_factor(svc, lap2d_small) is factor
        assert out.tier == "numeric" and out.degraded
        assert out.backward_error <= 1e-12
        np.testing.assert_array_equal(out.x, clean.x)
        assert svc.metrics.counter("degraded") == 1
        assert svc.metrics.counter("numeric_factorizations") == before

    @pytest.mark.parametrize("shift", [1e-9, 1e-7])
    def test_ill_conditioned_fp32_answer_degrades_to_the_host_factor(
        self, shift
    ):
        a = _probe(shift)
        b = np.ones(a.n_rows)
        x_true = np.linalg.solve(a.to_dense(), b)
        with SolverService(n_workers=1, policy="P4") as svc:
            out = svc.solve(a, b, refine=True)
            again = svc.solve(a, b)
        assert out.degraded and again.degraded
        assert out.backward_error <= 1e-12
        err = np.abs(out.x - x_true).max() / np.abs(x_true).max()
        assert err <= 1e-7
        # the P4 factor stays under its own key, the host one beside it
        assert again.tier == "numeric"

    def test_over_the_bound_after_the_fallback_is_the_typed_error(
        self, lap2d_small, monkeypatch
    ):
        import repro.service.service as service_mod
        from repro.multifrontal import iterative_refinement
        from repro.multifrontal.refine import UncertifiedSolutionError

        def over_bound(*args, **kwargs):
            res = iterative_refinement(*args, **kwargs)
            res.residual_norms[-1] = res.residual_norms[-1] + 1.0
            res.converged[:] = False
            return res

        monkeypatch.setattr(service_mod, "iterative_refinement", over_bound)
        with SolverService(n_workers=1, policy="P1") as svc:
            with pytest.raises(UncertifiedSolutionError, match="exceeds"):
                svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
        assert svc.metrics.counter("degraded") == 1
        assert svc.metrics.counter("failed") == 1
        assert svc.metrics.counter("completed") == 0

    def test_near_singular_fuzz_cases_end_certified_or_typed(self):
        from repro.multifrontal.refine import (
            UncertifiedSolutionError,
            backward_error_bound,
            normwise_backward_error,
        )
        from repro.verify.fuzz import near_singular

        rng = np.random.default_rng(20261016)
        ends = []
        with SolverService(n_workers=1, policy="P4") as svc:
            for _ in range(20):
                a = near_singular(rng)
                b = rng.standard_normal(a.n_rows)
                try:
                    out = svc.solve(a, b)
                except UncertifiedSolutionError:
                    ends.append("typed")
                    continue
                bound = backward_error_bound(a.n_rows, 1e-12)
                assert out.backward_error <= bound
                assert normwise_backward_error(a, out.x, b) <= bound
                ends.append("ok-degraded" if out.degraded else "ok")
        assert len(ends) == 20 and set(ends) <= {"ok", "ok-degraded", "typed"}

    @pytest.mark.parametrize("n, shift", [(60, 1e-13), (2000, 1e-11)])
    def test_fp32_answer_past_the_conditioning_witness_is_the_host_factors(
        self, n, shift
    ):
        # cond(A) * u32 >> 1: the fp32 factor's x is wrong in every digit
        # and drags ||A|| ||x|| up with it, so its backward error alone
        # passes; nu * u32 >= 1/2 sends it to the host fallback
        from repro.matrices import random_spd

        a = random_spd(n, avg_degree=4, seed=3, shift=shift)
        b = np.ones(n)
        x_true = np.linalg.solve(a.to_dense(), b)
        errors = {}
        for policy in ("P4", "P1"):
            with SolverService(n_workers=1, policy=policy) as svc:
                out = svc.solve(a, b)
            assert out.degraded is (policy == "P4")
            assert out.backward_error <= 1e-12
            errors[policy] = np.abs(out.x - x_true).max() / np.abs(x_true).max()
        assert errors["P4"] <= 10 * errors["P1"]

    def test_repeated_fp32_answer_past_the_witness_factors_nothing(self):
        # the host fallback of an uncertified fp32 answer is kept under
        # its own policy's key: the second identical request hits the P4
        # factor, degrades again, and reads the same host factor
        from repro.matrices import random_spd

        a = random_spd(60, avg_degree=4, seed=3, shift=1e-13)
        b = np.ones(a.n_rows)
        with SolverService(n_workers=1, policy="P4") as svc:
            def counts():
                return [svc.metrics.counter(c) for c in ("numeric_factorizations", "degraded")]

            first = svc.solve(a, b)
            assert counts() == [1, 1]
            second = svc.solve(a, b)
            assert counts() == [1, 1]
            host = svc.solve(a, b, policy="P1")
            p4_key = svc.keys_for(a)[1]
            p1_key = svc.keys_for(a, policy="P1")[1]
            # nothing under the P4 key that P4 did not compute
            p4_names = {r.policy for r in svc.cache.peek_numeric(p4_key).records}
            p1_names = {r.policy for r in svc.cache.peek_numeric(p1_key).records}
        assert (first.degraded, second.degraded) == (True, True)
        assert (first.tier, second.tier) == ("miss", "numeric")
        np.testing.assert_array_equal(second.x, first.x)
        assert host.tier == "numeric" and not host.degraded
        np.testing.assert_array_equal(host.x, first.x)
        assert svc.metrics.counter("numeric_factorizations") == 1
        assert (p4_names, p1_names) == ({"P4"}, {"P1"})

    @pytest.mark.parametrize("seed, shift", [(0, 1e-9), (5, 1e-10)])
    def test_fp32_breakdown_on_an_spd_matrix_answers_from_the_host_factor(
        self, seed, shift
    ):
        # cond(A) * u32 >~ 1: the fp32 fronts lose positive definiteness
        # on a matrix the host factors, so the breakdown is the device
        # path's, not the matrix's; the service answers from the host
        # fallback, flagged, as accurate as the P1 service
        from repro.dense.kernels import NotPositiveDefiniteError
        from repro.matrices import random_spd

        a = random_spd(60, avg_degree=4, seed=seed, shift=shift)
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholeskySolver(a, policy="P4").analyze().factorize()
        b = np.ones(a.n_rows)
        x_true = np.linalg.solve(a.to_dense(), b)
        errors = {}
        for policy in ("P4", "P1"):
            with SolverService(n_workers=1, policy=policy) as svc:
                out = svc.solve(a, b)
            assert out.degraded is (policy == "P4")
            assert out.backward_error <= 1e-12
            errors[policy] = np.abs(out.x - x_true).max() / np.abs(x_true).max()
        assert errors["P4"] <= 10 * errors["P1"]

    def test_near_singular_p4_answers_are_as_accurate_as_the_p1_service(self):
        # shift log-uniform over [1e-13, 1e-5] and n log-uniform up to
        # 2 000 reach past cond(A) * u32 = 1, where an fp32 factor's x
        # can be wrong in every digit while its backward error passes.
        # A degraded answer comes from the host factor the P1 service
        # uses, so it is as accurate as the P1 service's up to C = 10.
        # An answer that kept the witness stops refining once its
        # backward error stops halving, at the fp64 forward-error floor
        # cond(A) * u64; below that floor two answers differ only in how
        # their rounding errors happen to fall, so it is held to C times
        # the larger of the P1 error and that floor (past the witness the
        # fp32 x is off by ~1, far above cond(A) * u64 ~ 1e-3)
        from repro.matrices import random_spd
        from repro.multifrontal.refine import UncertifiedSolutionError

        C = 10.0
        u64 = float(np.finfo(np.float64).eps)
        rng = np.random.default_rng(20261017)
        ends = []
        with SolverService(n_workers=1, policy="P4") as p4, \
                SolverService(n_workers=1, policy="P1") as p1:
            for _ in range(20):
                n = int(round(10.0 ** rng.uniform(np.log10(20), np.log10(2000))))
                shift = float(10.0 ** rng.uniform(-13, -5))
                a = random_spd(n, avg_degree=4, seed=int(rng.integers(0, 2**31)), shift=shift)
                b = rng.standard_normal(n)
                dense = a.to_dense()
                x_true = np.linalg.solve(dense, b)
                try:
                    out = p4.solve(a, b, tol=0.0, max_iter=30)
                except UncertifiedSolutionError:
                    ends.append("typed")
                    continue
                ref = p1.solve(a, b, tol=0.0, max_iter=30)
                err, ref_err = (
                    np.abs(x - x_true).max() / np.abs(x_true).max() for x in (out.x, ref.x)
                )
                if out.degraded:
                    assert err <= C * ref_err, (n, shift, err, ref_err)
                else:
                    floor = np.linalg.cond(dense, np.inf) * u64
                    assert err <= C * max(ref_err, floor), (n, shift, err, ref_err, floor)
                ends.append("ok-degraded" if out.degraded else "ok")
        # both sides of the witness are exercised; an fp32 breakdown (7
        # of these 20 matrices break down under P4) answers degraded
        # from the host factor instead of raising out of the loop
        assert {"ok", "ok-degraded"} <= set(ends)


# ----------------------------------------------------------------------
# health surfaces (serving-layer admission signals)
# ----------------------------------------------------------------------
class TestHealth:
    def test_service_health_fields(self, lap2d_small):
        with SolverService(n_workers=2, policy="P1") as svc:
            svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            h = svc.health()
            assert h["status"] == "ok" and h["accepting"] is True
            assert h["workers"] == 2
            assert h["cache_entries"] >= 1
            assert 0.0 < h["cache_utilization"] <= 1.0
            assert h["cache_bytes"] <= h["cache_max_bytes"]
        assert svc.health()["status"] == "stopped"
        assert svc.health()["accepting"] is False

    def test_fleet_health_rolls_up_shards(self, lap2d_small):
        from repro.cluster.fleet import ShardedSolverService

        fleet = ShardedSolverService(3, n_workers_per_node=1, policy="P1")
        try:
            fleet.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            h = fleet.health()
            assert h["status"] == "ok"
            assert len(h["nodes"]) == 3
            assert all(n["up"] for n in h["nodes"])
            assert h["cache_bytes"] == sum(
                n["cache_bytes"] for n in h["nodes"]
            )
        finally:
            fleet.shutdown()

    def test_fleet_health_degraded_when_a_node_is_down(self, lap2d_small):
        from repro.cluster.fleet import ShardedSolverService

        fleet = ShardedSolverService(2, n_workers_per_node=1, policy="P1")
        try:
            fleet.router.mark_down(0)
            h = fleet.health()
            assert h["status"] == "degraded"
            assert [n["up"] for n in h["nodes"]] == [False, True]
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# metrics exposition (names are a monitoring contract)
# ----------------------------------------------------------------------
class TestMetricsExposition:
    def test_snapshot_names_are_stable(self):
        """Downstream dashboards key on these prefixes; renaming them is
        a breaking change (and RPL040 statically pins literal names)."""
        m = ServiceMetrics()
        m.incr("submitted")
        m.gauge("queue_depth", 3)
        m.observe("total", 0.25)
        snap = m.snapshot()
        assert snap["counter.submitted"] == 1
        assert snap["gauge.queue_depth"] == 3
        assert snap["gauge.queue_depth_max"] == 3
        assert snap["latency.total.count"] == 1
        assert snap["spans.count"] == 0
        assert list(snap) == sorted(snap)
        prefixes = {name.split(".", 1)[0] for name in snap}
        assert prefixes <= {"counter", "gauge", "latency", "spans"}

    def test_render_text_one_line_per_instrument(self):
        m = ServiceMetrics()
        m.incr("completed", 2)
        text = m.render_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "counter.completed 2" in lines
        for line in lines:
            name, _, value = line.partition(" ")
            assert name and value
        # rendering is itself deterministic
        assert m.render_text() == text

    def test_snapshot_matches_report_counters(self, lap2d_small):
        with SolverService(n_workers=1, policy="P1") as svc:
            svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
        snap = svc.metrics.snapshot()
        rep = svc.report()
        for name, value in rep["counters"].items():
            assert snap[f"counter.{name}"] == value


# ----------------------------------------------------------------------
# deadline regression: a timed-out request must never warm the cache
# ----------------------------------------------------------------------
class TestTimeoutCacheIsolation:
    def test_timed_out_request_is_never_cached(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        with SolverService(n_workers=1, policy="P1") as svc:
            req = svc.submit(lap2d_small, b, timeout=-1.0)
            with pytest.raises(TimeoutError):
                req.result(timeout=60)
            assert len(svc.cache) == 0      # expiry preceded factorization
            # the same matrix later is a clean miss, not a stale hit
            out = svc.solve(lap2d_small, b)
            assert out.tier == "miss"
            assert svc.metrics.counter("timeouts") == 1
