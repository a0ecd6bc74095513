"""Extended solver capabilities: multi-RHS, value updates, logdet,
device-memory fallback, classifier persistence."""

import copy
import dataclasses

import numpy as np
import pytest

from repro import SparseCholeskySolver, grid_laplacian_2d, random_spd
from repro.autotune import (
    PolicyClassifier,
    collect_timing_dataset,
    sample_mk_cloud,
    train_cost_sensitive,
)
from repro.gpu import SimulatedNode, tesla_t10_model
from repro.multifrontal import factorize_numeric, numeric, solve_factored
from repro.multifrontal.numeric import postorder_numeric_factor, price_serial
from repro.multifrontal.refine import backward_error_bound
from repro.parallel import Cluster, Dynamic, WorkerPool, parallel_schedule
from repro.policies import BaselineHybrid, make_policy
from repro.runtime import FaultInjector
from repro.symbolic import symbolic_factorize
from repro.verify.lattice import factor_fingerprint
from unittest import mock


class TestMultiRHS:
    def test_block_solve_matches_columnwise(self, lap2d_small, rng):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        b = rng.normal(size=(lap2d_small.n_rows, 4))
        x_block = solve_factored(nf, b)
        for j in range(4):
            xj = solve_factored(nf, b[:, j])
            assert np.allclose(x_block[:, j], xj)

    def test_block_solve_accuracy(self, lap2d_small, rng):
        s = SparseCholeskySolver(lap2d_small, policy="P1").factorize()
        x_true = rng.normal(size=(lap2d_small.n_rows, 3))
        b = np.stack(
            [lap2d_small.matvec(x_true[:, j]) for j in range(3)], axis=1
        )
        x = solve_factored(s.factor, b)
        assert np.abs(x - x_true).max() < 1e-9

    def test_bad_shapes_rejected(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small, policy="P1").factorize()
        with pytest.raises(ValueError):
            solve_factored(s.factor, np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve_factored(s.factor, np.ones((lap2d_small.n_rows, 2, 2)))


class TestUpdateValues:
    def test_refactor_same_pattern(self, rng):
        a = random_spd(60, seed=1)
        s = SparseCholeskySolver(a, ordering="amd", policy="P1").factorize()
        n_super_before = s.stats.n_supernodes
        # scale values (same pattern), refactor, solve
        a2 = a.copy()
        a2.data *= 2.0
        s.update_values(a2)
        assert s.stats.n_supernodes == n_super_before
        x = s.solve(np.ones(60))
        assert np.abs(a2.matvec(x) - 1).max() < 1e-9

    def test_rejects_different_pattern(self):
        a = random_spd(60, seed=1)
        b = random_spd(60, seed=2)
        s = SparseCholeskySolver(a, policy="P1").factorize()
        with pytest.raises(ValueError):
            s.update_values(b)

    def test_update_before_analyze_is_lazy(self):
        a = random_spd(30, seed=4)
        s = SparseCholeskySolver(a, policy="P1")
        a2 = a.copy()
        a2.data *= 1.5
        s.update_values(a2)       # no symbolic yet: just swap
        assert s.factor is None
        x = s.solve(np.ones(30))
        assert np.abs(a2.matvec(x) - 1).max() < 1e-9


class TestLogDet:
    def test_matches_dense(self, rng):
        a = random_spd(40, seed=9)
        s = SparseCholeskySolver(a, policy="P1").factorize()
        sign, ref = np.linalg.slogdet(a.to_dense())
        assert sign == 1.0
        assert s.log_determinant() == pytest.approx(ref, rel=1e-10)

    def test_scaling_property(self):
        a = random_spd(25, seed=3)
        s1 = SparseCholeskySolver(a, policy="P1").factorize()
        a2 = a.copy()
        a2.data *= 4.0
        s2 = SparseCholeskySolver(a2, policy="P1").factorize()
        # det(cA) = c^n det(A)
        assert s2.log_determinant() - s1.log_determinant() == pytest.approx(
            25 * np.log(4.0), rel=1e-10
        )


def tiny_memory_node():
    """A node whose GPU has almost no memory: every offload must fail."""
    from tests.conftest import starved_node

    return starved_node(2048)


class TestDeviceMemoryFallback:
    @staticmethod
    def _needs_fallback(r, limit=2048, word=4):
        return (r.k * r.k + r.m * r.k + r.m * r.m) * word > limit

    def test_numeric_falls_back_to_host(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        node = tiny_memory_node()
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"), node=node)
        # calls whose working set exceeds the 2 KiB device fell back
        big = [r for r in nf.records if self._needs_fallback(r)]
        assert big, "test problem must contain oversized fronts"
        assert all(r.policy == "P1" for r in big)
        # the small ones still offloaded
        assert any(r.policy == "P3" for r in nf.records if r.m > 0)

    def test_replay_falls_back_identically(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        node = tiny_memory_node()
        rp = price_serial(sf, make_policy("P3"), node)
        big = [r for r in rp.records if self._needs_fallback(r)]
        assert big and all(r.policy == "P1" for r in big)

    def test_fits_when_memory_sufficient(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"))
        assert any(r.policy == "P3" for r in nf.records)


class TestClassifierPersistence:
    @pytest.fixture(scope="class")
    def clf(self, model):
        m, k = sample_mk_cloud(120, seed=8)
        ds = collect_timing_dataset(m, k, model, seed=8)
        return train_cost_sensitive(ds, max_iter=200)

    def test_round_trip_dict(self, clf):
        restored = PolicyClassifier.from_dict(clf.to_dict())
        m, k = sample_mk_cloud(200, seed=80)
        assert np.array_equal(restored.predict(m, k), clf.predict(m, k))

    def test_round_trip_file(self, clf, tmp_path):
        path = tmp_path / "clf.json"
        clf.save(path)
        restored = PolicyClassifier.load(path)
        assert np.allclose(restored.theta, clf.theta)
        assert restored.class_names == clf.class_names

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            PolicyClassifier.from_dict({"format": "v0"})

    def test_json_is_plain_data(self, clf):
        import json

        text = json.dumps(clf.to_dict())
        assert "theta" in text


class TestScheduleAndBackend:
    """The solver's backends, and Liu's order through ``factorize_numeric``."""

    def test_liu_schedule_same_factor_lower_peak(self):
        from repro.matrices import grid_laplacian_3d
        from repro.symbolic.stack import (
            estimate_peak_update_bytes,
            stack_minimizing_postorder,
        )

        for a in (grid_laplacian_2d(14, 11), grid_laplacian_3d(6, 5, 4),
                  random_spd(140, seed=4)):
            sf = symbolic_factorize(a, ordering="nd")
            liu_order = stack_minimizing_postorder(sf)
            post = factorize_numeric(a, sf, make_policy("P1"))
            liu = factorize_numeric(a, sf, make_policy("P1"), spost=liu_order)
            assert estimate_peak_update_bytes(sf, liu_order) <= \
                estimate_peak_update_bytes(sf)
            # realized peaks agree with the estimates' ordering ...
            assert liu.peak_update_bytes <= post.peak_update_bytes
            # ... and the factor itself is schedule-independent
            for pp, pl in zip(post.panels, liu.panels):
                assert np.array_equal(pp, pl)

    def test_liu_solver_solves(self, lap2d_small):
        from repro.multifrontal import iterative_refinement
        from repro.symbolic.stack import stack_minimizing_postorder

        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(
            lap2d_small, sf, make_policy("P1"),
            spost=stack_minimizing_postorder(sf),
        )
        b = np.ones(lap2d_small.n_rows)
        x = iterative_refinement(lap2d_small, nf, b).x
        assert np.abs(lap2d_small.matvec(x) - b).max() < 1e-10

    def test_backends_produce_identical_solutions(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        xs = {}
        for backend in ("serial", "static", "dynamic"):
            node = SimulatedNode(n_cpus=2, n_gpus=1)
            solver = SparseCholeskySolver(
                lap2d_small, ordering="nd", policy="baseline",
                node=node, backend=backend,
            )
            xs[backend] = solver.solve(b, refine=False)
        assert np.array_equal(xs["serial"], xs["static"])
        assert np.array_equal(xs["static"], xs["dynamic"])

    @pytest.mark.parametrize("backend", ["serial", "static", "dynamic", "cluster"])
    def test_every_backend_factors_on_the_solver_node(self, lap2d_small, backend):
        # the backend prices; the numerics run, and charge the device
        # kernels they issue, on the node the solver was given
        node = SimulatedNode(n_cpus=2, n_gpus=1)
        solver = SparseCholeskySolver(
            lap2d_small, ordering="nd", policy="P4", node=node, backend=backend,
        ).factorize()
        assert solver.factor.node is node
        assert node.gpus[0].cublas.busy_seconds > 0
        if backend != "serial":
            assert solver.factor.records == list(solver.parallel.records)

    def test_dynamic_backend_exposes_runtime(self, lap2d_small):
        node = SimulatedNode(n_cpus=4, n_gpus=0)
        solver = SparseCholeskySolver(lap2d_small, ordering="nd",
                                      node=node, backend="dynamic")
        solver.factorize()
        assert solver.parallel is not None
        assert solver.parallel.runtime.stats.steals >= 1
        assert not solver.parallel.runtime.degraded

    def test_every_registered_policy_name_builds(self, lap2d_small):
        # the solver reads make_policy's table: case-insensitive, and
        # "basic" (the Section IV implementation) is a name like any other
        names = {"p1": "P1", "P4C": "P4c", "basic": "P3basic", "Baseline": "PBH",
                 "ideal": "PIH"}
        for given, name in names.items():
            assert SparseCholeskySolver(lap2d_small, policy=given).policy.name == name
        with pytest.raises(ValueError, match="unknown policy"):
            SparseCholeskySolver(lap2d_small, policy="P7")

    def test_invalid_combinations_rejected(self, lap2d_small):
        with pytest.raises(ValueError, match="backend"):
            SparseCholeskySolver(lap2d_small, backend="bogus")


class TestEveryBackendEveryNodeOneFactor:
    """Which base policy runs a front is one decision
    (``Policy.resolve`` against the solver node's canonical worker): a
    backend's mapping changes where a front is priced, never what is
    computed — every backend hands the one numerics walk the same
    resolved policies and a canonical worker of the solver's own node."""

    LIMITS = {"4GiB": None, "8KiB": 8192, "2KiB": 2048, "no-gpu": 0}
    #: the test's own copy of the working sets, in device words
    WORDS = {
        "P2": lambda m, k: m * k + m * m,
        "P3": lambda m, k: k * k + m * k + m * m,
        "P4": lambda m, k: (m + k) ** 2,
        "P4c": lambda m, k: (m + k) ** 2,
    }

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.matrices import grid_laplacian_3d

        a = grid_laplacian_3d(8, 8, 8)
        return a, symbolic_factorize(a, ordering="nd")

    @classmethod
    def _falls_back(cls, policy, m, k, limit):
        """Whether the policy selected for (m, k) cannot run on a device
        of ``limit`` bytes (0: no device)."""
        name = policy.choose(m, k) if hasattr(policy, "choose") else policy.name
        if name == "P1":
            return False
        return limit == 0 or (
            limit is not None and cls.WORDS[name](m, k) * 4 > limit
        )

    @staticmethod
    def _resolved(policy):
        """What a resolved policy is: its type, name and instance state."""
        return type(policy), policy.name, vars(policy)

    @staticmethod
    def _factorize(solver, run=None):
        """``solver.factorize()`` (or ``run()`` on the solver's node), and
        the one walk it hands the resolved policies and the worker to."""
        walks = []
        walk = numeric._numeric_walk

        def spy(a, sf, bases, worker, *rest):
            walks.append((list(bases), worker))
            return walk(a, sf, bases, worker, *rest)

        with mock.patch.object(numeric, "_numeric_walk", spy):
            (run or solver.factorize)()
        (bases, worker), = walks
        assert worker.cpu_engine == solver.node.cpus[0].engine
        assert worker.gpu is (solver.node.gpus[0] if solver.node.gpus else None)
        return bases, worker

    @pytest.mark.parametrize("policy", ["P2", "P3", "P4", "P4c", "baseline"])
    @pytest.mark.parametrize("node", LIMITS)
    def test_one_factor_per_node_and_policy(self, problem, node, policy):
        from repro.verify.lattice import factor_fingerprint
        from tests.conftest import starved_node

        a, sf = problem
        limit = self.LIMITS[node]

        def solver(backend, **kwargs):
            return SparseCholeskySolver.from_symbolic(
                a, sf, policy=policy, backend=backend,
                node=starved_node(limit, n_cpus=2), **kwargs,
            )

        solvers, walks = {}, {}
        for b in ("serial", "static", "dynamic", "cluster"):
            solvers[b] = solver(b)
            walks[b] = self._factorize(solvers[b])
        serial_bases, serial_worker = walks["serial"]
        for b, (bases, worker) in walks.items():
            assert [self._resolved(p) for p in bases] == [
                self._resolved(p) for p in serial_bases
            ], b
            assert (worker.gpu and worker.gpu.spec) == (
                serial_worker.gpu and serial_worker.gpu.spec
            ), b
        prints = {b: factor_fingerprint(s.factor) for b, s in solvers.items()}
        assert len(set(prints.values())) == 1, prints

        # total kernel failure (the library form: the solver takes no
        # faults): the degraded fronts, and only they, run the policy's
        # host fallback
        faulted = solver("dynamic")
        pool = WorkerPool.over(faulted.node)
        priced = parallel_schedule(
            sf, faulted.policy, pool,
            Dynamic(faults=FaultInjector(kernel_failure_rate=1.0)),
        )
        bases, _ = self._factorize(
            faulted, lambda: postorder_numeric_factor(a, sf, priced, pool.node)
        )
        degraded = priced.runtime.degraded_sids
        fallback = self._resolved(faulted.policy.fallback)
        assert [self._resolved(p) for p in bases] == [
            fallback if s in degraded else self._resolved(p)
            for s, p in enumerate(serial_bases)
        ]
        if limit is None and policy != "baseline":
            assert degraded

        serial = solvers["serial"]
        pol = serial.policy
        on_host = {
            r.sid for r in serial.factor.records
            if self._falls_back(pol, r.m, r.k, limit)
        }
        if node in ("8KiB", "2KiB") and policy != "baseline":
            assert 0 < len(on_host) < sf.n_supernodes
        for r in serial.factor.records:
            if r.sid in on_host:
                assert r.policy == "P1"
            elif policy != "baseline":
                assert r.policy == pol.name
        if node == "no-gpu":
            for s in solvers.values():
                assert s.stats.policy_counts == {"P1": sf.n_supernodes}

        b = np.ones(a.n_rows)
        if any(p.dtype == np.float32 for p in serial.factor.panels):
            # a float32 factor is applied in float32: its answer is held
            # to the library's certificate
            res = serial.solve_refined(b)
            assert res.converged
            assert res.final_residual <= backward_error_bound(a.n_rows, 1e-12)
        else:
            x = serial.solve(b)
            assert np.abs(a.matvec(x) - b).max() <= 1e-10 * np.abs(b).max()

        # "front larger than device memory", counted where it happened: on
        # the GPU worker (worker 0 of this pool), once per such task
        runtime = solvers["dynamic"].parallel.runtime
        assert runtime.stats.device_fallbacks == sum(
            1 for t in runtime.schedule
            if t.worker == 0 and limit != 0
            and self._falls_back(pol, sf.update_size(t.sid), sf.width(t.sid), limit)
        )
        if node == "8KiB" and policy != "baseline":
            assert runtime.stats.device_fallbacks > 0


class TestPricingMemo:
    """``factorize_numeric`` prices a pure pass once per pattern (one slot
    on the symbolic factor) — under every policy that is a value (P1 to
    P4 and the paper's selectors, keyed by ``Policy.key``); every other
    pass prices as it always did, and a hit cannot be told from a
    miss."""

    @staticmethod
    def _slot(solver):
        return getattr(solver.symbolic, "_priced_pass", None)

    @staticmethod
    def _count_pricing(run):
        """(pricing passes run, schedule_graph calls, TaskGraphs built)
        while ``run()`` runs.  A pass ends in one ``PricedPass.of``; it
        plans each host shape once (one ``TaskGraph``) and prices its
        fronts in closed form, and schedules each device front as a
        ``TaskGraph`` of its own."""
        with mock.patch.object(
            numeric.PricedPass, "of", wraps=numeric.PricedPass.of
        ) as passes, mock.patch.object(
            numeric, "schedule_graph", wraps=numeric.schedule_graph
        ) as sched, mock.patch.object(
            numeric, "TaskGraph", wraps=numeric.TaskGraph
        ) as graphs:
            run()
        return passes.call_count, sched.call_count, graphs.call_count

    @staticmethod
    def _cold_counts(factor):
        """What :meth:`_count_pricing` reads over one pass that priced
        ``factor``'s records: its device fronts one graph each, and one
        graph per distinct host (m, k)."""
        device = sum(r.policy != "P1" for r in factor.records)
        host = {(r.m, r.k) for r in factor.records if r.policy == "P1"}
        return 1, device, device + len(host)

    @staticmethod
    def _pool_requests(solver):
        return [
            p.stats.n_requests for g in solver.node.gpus
            for p in (g.device_pool, g.pinned_pool)
        ]

    @staticmethod
    def _observables(solver):
        from repro.gpu.clock import engine_counters

        f = solver.factor
        pools = [
            (p.stats, getattr(p, "capacity", None), p.in_use)
            for g in solver.node.gpus for p in (g.device_pool, g.pinned_pool)
        ]
        return (
            f.records, f.makespan, f.assembly_seconds,
            engine_counters(solver.node.engines), solver.node.now, solver.stats,
            pools, [g.cublas.busy_seconds for g in solver.node.gpus],
        )

    def test_p1_refactorize_prices_nothing(self, lap3d_small):
        a = lap3d_small
        solver = SparseCholeskySolver(a, ordering="nd", policy="P1").analyze()
        n = solver.symbolic.n_supernodes
        counts = self._count_pricing(solver.factorize)
        # one pass, no graph scheduled: 22 host shapes among 151 fronts
        assert counts == self._cold_counts(solver.factor) == (1, 0, 22)
        assert n == 151
        for scale in (2.0, 3.0):
            counts = self._count_pricing(
                lambda: solver.refactorize(a.data * scale)
            )
            assert counts == (0, 0, 0)

    def test_device_refactorize_prices_nothing(self, lap3d_small):
        a = lap3d_small
        solver = SparseCholeskySolver(a, ordering="nd", policy="P4").analyze()
        n = solver.symbolic.n_supernodes
        assert self._count_pricing(solver.factorize) == (1, n, n)
        requests = self._pool_requests(solver)
        assert sum(requests) > 0
        for scale in (2.0, 3.0):
            counts = self._count_pricing(
                lambda: solver.refactorize(a.data * scale)
            )
            assert counts == (0, 0, 0)
            # the pools read as after the pass that went through them
            assert self._pool_requests(solver) == requests

    def test_hybrid_refactorize_prices_nothing(self, lap3d_small):
        a = lap3d_small
        # thresholds low enough to send these small fronts to the device
        policy = BaselineHybrid(thresholds=(1e3, 1e4, 1e5))
        solver = SparseCholeskySolver(a, ordering="nd", policy=policy).analyze()
        first = self._count_pricing(solver.factorize)
        assert first == self._cold_counts(solver.factor)
        assert 0 < first[1] < solver.symbolic.n_supernodes
        requests = self._pool_requests(solver)
        chosen = solver.stats.policy_counts
        assert sum(requests) > 0 and len(chosen) > 1
        for scale in (2.0, 3.0):
            counts = self._count_pricing(
                lambda: solver.refactorize(a.data * scale)
            )
            assert counts == (0, 0, 0)
            # the pools read as after the cold pass, and what the selector
            # chose is read off the kept records
            assert self._pool_requests(solver) == requests
            assert solver.stats.policy_counts == chosen
        assert self._slot(solver) is not None

    def test_only_pure_passes_are_kept(self, lap3d_small):
        from repro.policies import BaselineHybrid, IdealHybrid

        a = lap3d_small
        model = tesla_t10_model()
        filled = {}
        for name, policy in {
            "P1": "P1", "P3": "P3", "P4": "P4",
            # a selector is a value (its thresholds, or its perf model,
            # and its table), and is kept like a base policy
            "PBH": BaselineHybrid(), "PIH": IdealHybrid(model),
        }.items():
            solver = SparseCholeskySolver(
                a, ordering="nd", policy=policy,
                node=SimulatedNode(model=model),
            ).factorize()
            for scale in (2.0, 3.0):
                solver.refactorize(a.data * scale)
            filled[name] = self._slot(solver) is not None
        assert filled == {
            "P1": True, "P3": True, "P4": True, "PBH": True, "PIH": True,
        }

    def test_equal_hybrids_share_the_kept_pass(self, lap3d_small):
        """Two selectors built apart but equal as values share one kept
        pass on one symbolic factor; other thresholds miss it."""
        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")
        b = np.ones(a.n_rows)

        def solver(thresholds, sf=sf):
            return SparseCholeskySolver.from_symbolic(
                a, sf, policy=BaselineHybrid(thresholds)
            )

        device = (1e3, 1e4, 1e5)
        first = solver(device)
        assert self._count_pricing(first.factorize)[0] == 1
        second = solver(device)
        assert second.policy is not first.policy
        assert self._count_pricing(second.factorize) == (0, 0, 0)
        fresh = solver(device, symbolic_factorize(a, ordering="nd")).factorize()
        assert second.factor.records == fresh.factor.records
        assert all(
            np.array_equal(p, q)
            for p, q in zip(second.factor.panels, fresh.factor.panels)
        )
        assert np.array_equal(second.solve(b), fresh.solve(b))
        other = solver((1e3, 1e4, 1e6))
        assert self._count_pricing(other.factorize)[0] == 1

    def test_edited_selector_prices_again(self, lap3d_small):
        """A selector edited in place after its pass is another value:
        the kept pass holds a copy of the old key, and misses."""
        from repro.autotune import train_default_classifier
        from repro.policies import IdealHybrid, ModelHybrid

        a = lap3d_small
        clf = train_default_classifier(tesla_t10_model())
        for policy, edit in (
            (ModelHybrid(clf), lambda p: p.classifier.theta.__setitem__(
                (0, 0), p.classifier.theta[0, 0] + 1.0)),
            (IdealHybrid(tesla_t10_model()), lambda p: setattr(
                p.model, "cpu_mem_bw", 2 * p.model.cpu_mem_bw)),
        ):
            solver = SparseCholeskySolver(a, ordering="nd", policy=policy)
            assert self._count_pricing(solver.factorize)[0] == 1
            assert self._count_pricing(lambda: solver.refactorize(a.data))[0] == 0
            edit(policy)
            assert self._count_pricing(lambda: solver.refactorize(a.data))[0] == 1
            fresh = SparseCholeskySolver(
                a, ordering="nd", policy=copy.deepcopy(policy)
            ).factorize()
            assert solver.factor.records == fresh.factor.records

    def test_hybrid_over_a_spied_base_is_never_kept(self, lap3d_small):
        a = lap3d_small
        spied = make_policy("P4")
        with mock.patch.object(spied, "apply", wraps=spied.apply):
            policy = BaselineHybrid(
                (1e3, 1e3, 1e3), {"P1": make_policy("P1"), "P4": spied}
            )
            solver = SparseCholeskySolver(a, ordering="nd", policy=policy)
            for run in (solver.factorize, lambda: solver.refactorize(a.data)):
                assert self._count_pricing(run)[0] == 1
            assert spied.apply.call_count > 0
        assert self._slot(solver) is None

    def test_hit_reads_like_a_real_pass(self, lap3d_small):
        for policy in ("P1", "P4"):
            self._check_hit_reads_like_a_real_pass(lap3d_small, policy)

    def _check_hit_reads_like_a_real_pass(self, a, policy):
        solver = SparseCholeskySolver(a, ordering="nd", policy=policy).factorize()
        factors = [solver.factor]
        seen = [self._observables(solver)]
        for scale in (2.0, 3.0, 4.0):
            solver.refactorize(a.data * scale)
            factors.append(solver.factor)
            seen.append(self._observables(solver))
        engines = solver.node.engines
        fresh = SparseCholeskySolver(a, ordering="nd", policy=policy).factorize()
        assert all(obs == self._observables(fresh) for obs in seen)
        # nothing mutable is shared between two factors or with the slot:
        # the slot keeps the records frozen and the engines as values
        slot = self._slot(solver)
        record_lists = [f.records for f in factors]
        assert len({id(r) for r in record_lists}) == len(record_lists)
        assert type(slot.outcome.records) is tuple
        assert all(type(row) is tuple for row in slot.engines)
        # mutating what a hit handed out does not reach the next hit
        factors[-1].records.clear()
        engines["cpu0"].free_at = -1.0
        for g in solver.node.gpus:
            g.device_pool.stats.n_requests = -1
        solver.refactorize(a.data)
        assert self._observables(solver) == self._observables(fresh)

    def test_misses(self, lap3d_small):
        from repro.symbolic.stack import stack_minimizing_postorder

        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")

        def records(liu=False, node=SimulatedNode):
            """Through the shared ``sf``, and through one of its own."""

            def run(sf):
                spost = stack_minimizing_postorder(sf) if liu else None
                return factorize_numeric(
                    a, sf, make_policy("P1"), node=node(), spost=spost
                ).records

            return run(sf), run(symbolic_factorize(a, ordering="nd"))

        base = tesla_t10_model()
        variants = [
            dict(), dict(liu=True), dict(),
            dict(node=lambda: SimulatedNode(model=base.with_precision("dp"))),
            dict(node=lambda: SimulatedNode(model=tesla_t10_model(jitter=0.05))),
            dict(node=lambda: SimulatedNode(n_cpus=1, n_gpus=0)),
            dict(),
        ]
        seen = []
        for kwargs in variants:
            shared, own = records(**kwargs)
            assert shared == own, kwargs
            seen.append(shared)
        assert seen[0] == seen[2] == seen[6]
        assert seen[0] != seen[1]            # another order
        assert seen[0] != seen[4]            # another clock

    def test_policy_with_instance_state_bypasses_the_slot(self, lap3d_small):
        a = lap3d_small
        solver = SparseCholeskySolver(a, ordering="nd", policy="P1").factorize()
        slot = self._slot(solver)
        spied = make_policy("P1")
        with mock.patch.object(spied, "apply", wraps=spied.apply) as apply:
            other = SparseCholeskySolver.from_symbolic(
                a, solver.symbolic, policy=spied
            )
            # its type is in the slot, but its type is not all there is to it
            assert self._count_pricing(other.factorize) == (1, 0, 22)
        # one call per unstacked front and one per stacked leaf group
        assert apply.call_count == other.factor.task_dispatches > 0
        assert other.factor.batch_tasks > 0
        assert self._slot(solver) is slot
        assert other.factor.records == solver.factor.records

    def test_node_with_timelines_prices_from_its_engine_state(self, lap3d_small):
        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")
        node = SimulatedNode()
        first = factorize_numeric(a, sf, make_policy("P1"), node=node)
        slot = sf._priced_pass
        tasks = node.engines["cpu0"].n_tasks
        # no reset: the second pass starts where the first one ended
        second = None

        def again():
            nonlocal second
            second = factorize_numeric(a, sf, make_policy("P1"), node=node)

        assert self._count_pricing(again) == self._cold_counts(first) == (1, 0, 22)
        assert second.records[0].start >= first.makespan
        assert second.makespan == pytest.approx(2 * first.makespan)
        assert node.engines["cpu0"].n_tasks == 2 * tasks
        assert sf._priced_pass is slot       # and is not what gets kept
        node.reset()
        third = factorize_numeric(a, sf, make_policy("P1"), node=node)
        assert third.records == first.records and third.makespan == first.makespan

    def test_breakdown_leaves_the_slot_valid(self, lap3d_small):
        from repro.dense.kernels import NotPositiveDefiniteError

        a = lap3d_small
        solver = SparseCholeskySolver(a, ordering="nd", policy="P1").factorize()
        pinned = list(solver.factor.records)
        slot = self._slot(solver)
        with pytest.raises(
            NotPositiveDefiniteError,
            match=r"^matrix is not positive definite: Cholesky broke down in",
        ):
            solver.refactorize(-a.data)
        assert self._slot(solver) is slot
        assert self._count_pricing(lambda: solver.refactorize(a.data * 2.0)) == (0, 0, 0)
        assert solver.factor.records == pinned
        b = np.ones(a.n_rows)
        assert np.abs(2.0 * a.matvec(solver.solve(b)) - b).max() < 1e-10

    def test_concurrent_refactorize_through_the_service(self, lap3d_small):
        """Two workers of one service refactoring one pattern share its
        symbolic factor, and so the slot."""
        import sys

        from repro.matrices.csc import CSCMatrix
        from repro.service import SolverService

        a = lap3d_small
        b = np.ones(a.n_rows)
        variants = [
            CSCMatrix(a.shape, a.indptr, a.indices, a.data * s, check=False)
            for s in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SolverService(n_workers=2, policy="P1", ordering="nd") as svc:
                assert svc.solve(a, b).tier == "miss"
                requests = [svc.submit(v, b) for v in variants]
                outcomes = [r.result(timeout=120) for r in requests]
                factors = [
                    svc.cache.get_numeric(svc.keys_for(v)[1]) for v in variants
                ]
        finally:
            sys.setswitchinterval(interval)
        assert [o.tier for o in outcomes] == ["symbolic"] * len(variants)
        for v, factor in zip(variants, factors):
            ref = SparseCholeskySolver(v, ordering="nd", policy="P1").factorize()
            assert factor.records == ref.factor.records
            assert factor.makespan == ref.factor.makespan
            assert all(
                np.array_equal(p, q)
                for p, q in zip(factor.panels, ref.factor.panels)
            )


def _small_device_node():
    """2 CPUs + 2 GPUs of 8 KiB device memory each: the larger fronts of
    ``lap3d_small`` leave the device."""
    from dataclasses import replace

    from repro.gpu.device import SimulatedGpu
    from repro.gpu.spec import TESLA_T10

    node = SimulatedNode(n_cpus=2, n_gpus=2)
    spec = replace(TESLA_T10, memory_bytes=8 << 10)
    node.gpus = [SimulatedGpu(node.model, i, spec=spec) for i in range(2)]
    return node


class TestScheduledPricingMemo:
    """``parallel_schedule`` keeps a pure scheduling pass (static,
    dynamic or cluster) in the slot the serial walk uses, keyed by the
    executor value, under the same rule: a warm refactorize runs no
    scheduler, a hit cannot be told from a miss, and every pass the key
    cannot describe runs as it always did."""

    @staticmethod
    def _solver(a, sf, **kwargs):
        kwargs = {
            "policy": "P4", "backend": "dynamic",
            "node": SimulatedNode(n_cpus=2, n_gpus=2), **kwargs,
        }
        return SparseCholeskySolver.from_symbolic(a, sf, **kwargs)

    @staticmethod
    def _library(a, sf, policy="P4", node=None, executor=Dynamic()):
        """The solver's two calls with any executor: the factor, the pass
        and the node, read like a solver."""
        from types import SimpleNamespace

        node = node or SimulatedNode(n_cpus=2, n_gpus=2)
        policy = make_policy(policy) if isinstance(policy, str) else policy
        priced = parallel_schedule(sf, policy, WorkerPool.over(node), executor)
        return SimpleNamespace(
            factor=postorder_numeric_factor(a, sf, priced, node),
            parallel=priced, node=node, stats=None,
        )

    @staticmethod
    def _runs(run):
        """(scheduling passes, result) of ``run()``: event-loop runs plus
        static list-schedule calls."""
        from repro.parallel import scheduler
        from repro.runtime.engine import DynamicRuntime

        with mock.patch.object(
            DynamicRuntime, "run", autospec=True, side_effect=DynamicRuntime.run
        ) as loop, mock.patch.object(
            scheduler.Static, "run", autospec=True,
            side_effect=scheduler.Static.run,
        ) as static:
            out = run()
        return loop.call_count + static.call_count, out

    @staticmethod
    def _observables(solver):
        par, f = solver.parallel, solver.factor
        rt = par.runtime
        return (
            f.records, f.makespan, par.makespan, par.records,
            [(type(p), vars(p)) for p in par.bases], par.kernel_seconds,
            par.order,
            (
                rt.makespan, rt.schedule, rt.worker_busy, rt.stats,
                rt.degraded_sids, rt.messages, rt.nic_busy,
                None if rt.owner is None else rt.owner.tolist(),
                [(t.name, t.engine, t.start, t.end, t.category) for t in rt.spans],
            ),
            [
                (p.stats, getattr(p, "capacity", None), p.in_use)
                for g in solver.node.gpus for p in (g.device_pool, g.pinned_pool)
            ],
            [g.cublas.busy_seconds for g in solver.node.gpus],
            solver.stats,
        )

    @pytest.mark.parametrize("backend", ["static", "dynamic", "cluster"])
    def test_warm_refactorize_schedules_nothing(self, lap3d_small, backend):
        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")
        solver = self._solver(a, sf, backend=backend)
        assert self._runs(solver.factorize)[0] == 1
        for scale in (2.0, 3.0):
            assert self._runs(lambda: solver.refactorize(a.data * scale))[0] == 0
        # a new solver on a fresh node of the same shape hits too
        assert self._runs(self._solver(a, sf, backend=backend).factorize)[0] == 0

    @pytest.mark.parametrize("policy", ["P1", "P4"])
    @pytest.mark.parametrize("backend", ["static", "dynamic", "cluster"])
    def test_hit_reads_like_a_miss(self, lap3d_small, backend, policy):
        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")
        solver = self._solver(a, sf, backend=backend, policy=policy).factorize()
        seen = [self._observables(solver)]
        for scale in (2.0, 3.0):
            solver.refactorize(a.data * scale)
            seen.append(self._observables(solver))
        fresh = self._solver(
            a, symbolic_factorize(a, ordering="nd"), backend=backend, policy=policy
        ).factorize()
        assert all(obs == self._observables(fresh) for obs in seen)
        if backend == "dynamic" and policy == "P4":
            assert sum(g.device_pool.capacity for g in fresh.node.gpus) > 0
        # a hit hands out nothing mutable: the pass, its runtime and their
        # counters are frozen, their containers tuples (the owner map a
        # read-only array), what they hold frozen too
        par = solver.parallel
        rt = par.runtime
        for obj, name in [
            (par, "makespan"), (rt, "schedule"), (rt.stats, "steals"),
            (rt.schedule[0], "end"), (par.records[0], "end"),
        ] + [(span, "end") for span in rt.spans[:1]]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, -1.0)
        for seq in (
            par.records, par.bases, par.kernel_seconds, par.order,
            rt.schedule, rt.worker_busy, rt.spans, rt.messages, rt.nic_busy,
        ):
            assert type(seq) is tuple
        if rt.owner is not None:
            with pytest.raises(ValueError, match="read-only"):
                rt.owner[0] = -1
        assert sf._priced_pass.outcome is par
        # mutating what a hit handed out does not reach the next hit
        solver.factor.records.clear()
        for g in solver.node.gpus:
            g.device_pool.stats.n_requests = -1
        assert self._runs(lambda: solver.refactorize(a.data))[0] == 0
        assert self._observables(solver) == self._observables(fresh)
        assert factor_fingerprint(solver.factor) == factor_fingerprint(fresh.factor)

    VARIANTS = {
        "faults": lambda: dict(
            executor=Dynamic(faults=FaultInjector(transfer_stall_rate=0.3, seed=1))
        ),
        "jittered model": lambda: dict(
            node=SimulatedNode(
                n_cpus=2, n_gpus=2, model=tesla_t10_model(jitter=0.05)
            )
        ),
        "counting selector": lambda: dict(
            policy=BaselineHybrid(thresholds=(1e3, 1e4, 1e5))
        ),
        "per-call pools": lambda: dict(
            node=SimulatedNode(n_cpus=2, n_gpus=2, pinned_pooling=False)
        ),
        "smaller device": lambda: dict(node=_small_device_node()),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_what_the_key_cannot_describe_runs(self, lap3d_small, variant):
        a = lap3d_small
        sf = symbolic_factorize(a, ordering="nd")
        plain = self._library(a, sf)
        assert sf._priced_pass is not None
        runs, shared = self._runs(
            lambda: self._library(a, sf, **self.VARIANTS[variant]())
        )
        assert runs == 1
        own = self._library(
            a, symbolic_factorize(a, ordering="nd"), **self.VARIANTS[variant]()
        )
        assert self._observables(shared) == self._observables(own)
        # each variant prices something the plain pass does not
        assert self._observables(shared) != self._observables(plain)

    def test_a_memory_budget_runs(self, lap3d_small):
        a = lap3d_small

        def run(sf, executor=Dynamic()):
            runs, res = self._runs(lambda: self._library(a, sf, executor=executor))
            return runs, self._observables(res)

        sf = symbolic_factorize(a, ordering="nd")
        _, plain = run(sf)                        # fills the slot
        slot = sf._priced_pass
        runs, shared = run(sf, Dynamic(memory_budget=1))
        assert runs == 1 and sf._priced_pass is slot
        own = run(symbolic_factorize(a, ordering="nd"), Dynamic(memory_budget=1))
        assert own[1] == shared
        assert shared != plain

    def test_a_fleet_of_another_size_prices_its_own_pass(self, lap3d_small):
        from repro.cluster import ClusterSpec

        a = lap3d_small

        def run(sf, n_ranks):
            return self._runs(lambda: self._library(
                a, sf, executor=Cluster(ClusterSpec(n_ranks=n_ranks))
            ))

        sf = symbolic_factorize(a, ordering="nd")
        assert run(sf, 2)[0] == 1                 # fills the slot
        assert run(sf, 2)[0] == 0
        runs, three = run(sf, 3)
        assert runs == 1
        own = run(symbolic_factorize(a, ordering="nd"), 3)[1]
        assert self._observables(three) == self._observables(own)
        assert len(set(three.parallel.runtime.owner.tolist())) == 3
        assert run(sf, 3)[0] == 0                 # and is now the kept pass

    def test_a_node_whose_pools_are_not_fresh_runs(self, lap3d_small):
        a = lap3d_small
        policy = make_policy("P4")

        def twice(sf):
            """Two passes on one node, no reset between them: the second
            starts from the pools the first left grown."""
            node = SimulatedNode(n_cpus=2, n_gpus=2)
            return [
                self._runs(
                    lambda: self._library(a, sf, policy=policy, node=node)
                )
                for _ in range(2)
            ], [g.device_pool.stats for g in node.gpus]

        sf = symbolic_factorize(a, ordering="nd")
        self._solver(a, sf).factorize()           # fills the slot
        slot = sf._priced_pass
        ((hit, _), (runs, second)), pools = twice(sf)
        assert (hit, runs) == (0, 1) and sf._priced_pass is slot
        (_, (_, own)), own_pools = twice(symbolic_factorize(a, ordering="nd"))
        assert second.parallel.runtime.schedule == own.parallel.runtime.schedule
        assert second.parallel.runtime.stats == own.parallel.runtime.stats
        assert pools == own_pools


class TestClusterFleetOfTheSolverNode:
    """The default fleet of ``backend="cluster"`` is two ranks of the
    solver node's shape: each rank's GPU is like the node's first (its
    spec and pool kinds), so it prices on the devices the numerics pass
    computes on."""

    def test_every_backend_counts_the_same_policies(self):
        from repro.matrices import grid_laplacian_3d

        a = grid_laplacian_3d(8, 8, 8)
        sf = symbolic_factorize(a, ordering="nd")
        counts = {
            backend: SparseCholeskySolver.from_symbolic(
                a, sf, policy="P4", backend=backend, node=_small_device_node(),
            ).factorize().stats.policy_counts
            for backend in ("serial", "static", "dynamic", "cluster")
        }
        assert counts["serial"]["P1"] > 0         # some fronts leave the device
        assert all(c == counts["serial"] for c in counts.values()), counts

    def test_default_fleet_copies_the_node_gpu(self):
        from repro.cluster import ClusterSpec

        node = _small_device_node()
        fleet = ClusterSpec(n_ranks=2).build_nodes(node.gpus[0])
        assert [g.spec for n in fleet for g in n.gpus] == [node.gpus[0].spec] * 2
        assert all(
            type(g.device_pool) is type(node.gpus[0].device_pool)
            for n in fleet for g in n.gpus
        )
        per_call = SimulatedNode(n_gpus=1, pinned_pooling=False)
        fleet = ClusterSpec(n_ranks=2).build_nodes(per_call.gpus[0])
        assert all(
            type(g.pinned_pool) is type(per_call.gpus[0].pinned_pool)
            for n in fleet for g in n.gpus
        )
