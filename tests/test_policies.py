"""Base policies P1-P4 and the hybrid selectors."""

import numpy as np
import pytest

from repro.gpu import SimulatedNode, tesla_t10_model
from repro.gpu.clock import TaskGraph
from repro.policies import (
    BaselineHybrid,
    IdealHybrid,
    ModelHybrid,
    Worker,
    estimate_policy_time,
    make_policy,
)
from repro.policies.base import PolicyP1, PolicyP4
from tests.policy_execution import execute


@pytest.fixture
def node():
    return SimulatedNode(n_cpus=1, n_gpus=1)


@pytest.fixture
def worker(node):
    return Worker("cpu0", node.gpus[0])


def front(s, rng):
    b = rng.normal(size=(s, s + 4))
    return b @ b.T + s * np.eye(s)


def reference_blocks(f, k):
    l = np.linalg.cholesky(f)
    u = f[k:, k:] - l[k:, :k] @ l[k:, :k].T
    return l[:k, :k], l[k:, :k], u


class TestNumerics:
    @pytest.mark.parametrize("name,atol", [("P1", 1e-10), ("P2", 1e-2), ("P3", 1e-2), ("P4", 1e-2), ("P4c", 1e-2)])
    def test_factor_update_matches_reference(self, name, atol, node, worker, rng):
        f = front(40, rng)
        ref_l1, ref_l2, ref_u = reference_blocks(f, 12)
        pol = make_policy(name)
        res = execute(pol, f.copy(), 12, worker, node)
        assert np.allclose(np.tril(res.l1), ref_l1, atol=atol)
        assert np.allclose(res.l2, ref_l2, atol=atol)
        assert np.allclose(res.u, ref_u, atol=atol)

    def test_p1_is_exact_float64(self, node, worker, rng):
        f = front(30, rng)
        ref = reference_blocks(f, 10)
        res = execute(make_policy("P1"), f.copy(), 10, worker, node)
        assert np.allclose(res.l2, ref[1], atol=1e-12)

    def test_gpu_policies_show_fp32_error(self, node, worker, rng):
        # the paper's single-precision offload must actually lose precision
        f = front(60, rng)
        ref = reference_blocks(f, 20)
        res = execute(make_policy("P3"), f.copy(), 20, worker, node)
        err = np.abs(res.l2 - ref[1]).max()
        assert 1e-12 < err < 1e-1

    def test_m_zero_root_call(self, node, worker, rng):
        # the root special case the paper highlights (Section IV-D)
        f = front(25, rng)
        for name in ("P1", "P2", "P3", "P4"):
            res = execute(make_policy(name), f.copy(), 25, worker, node)
            assert res.u.size == 0
            assert np.allclose(
                res.l1 @ res.l1.T, f, atol=1e-2 if name != "P1" else 1e-9
            )

    def test_gpu_policy_requires_gpu_worker(self, node, rng):
        cpu_only = Worker("cpu0", None)
        with pytest.raises(ValueError):
            execute(make_policy("P3"), front(10, rng), 5, cpu_only, node)

    def test_p1_runs_without_gpu(self, rng):
        node = SimulatedNode(n_cpus=1, n_gpus=0)
        w = Worker("cpu0", None)
        res = execute(make_policy("P1"), front(10, rng), 5, w, node)
        assert res.elapsed > 0


class TestPlans:
    def test_p1_tasks_all_on_cpu(self, worker, node):
        g = TaskGraph()
        make_policy("P1").plan(20, 10, worker, node.model, g)
        assert {t.engine for t in g.tasks} == {"cpu0"}
        assert [t.category for t in g.tasks] == ["potrf", "trsm", "syrk"]

    def test_p2_offloads_only_syrk(self, worker, node):
        g = TaskGraph()
        make_policy("P2").plan(20, 10, worker, node.model, g)
        by_cat = {t.category: t.engine for t in g.tasks}
        assert by_cat["potrf"] == "cpu0"
        assert by_cat["trsm"] == "cpu0"
        assert by_cat["syrk"] == "gpu0.compute"

    def test_p3_overlaps_upload_with_potrf(self, worker, node):
        pol = make_policy("P3")
        g = TaskGraph()
        plan = pol.plan(400, 200, worker, node.model, g)
        from repro.gpu.clock import schedule_graph
        schedule_graph(g)
        h2d = plan.roles["h2d_l2"]
        potrf = plan.roles["potrf"]
        # both start at (essentially) the same time: overlap
        assert h2d.start < potrf.end

    def test_p3_d2h_under_syrk(self, worker, node):
        pol = make_policy("P3")
        g = TaskGraph()
        plan = pol.plan(400, 200, worker, node.model, g)
        from repro.gpu.clock import schedule_graph
        schedule_graph(g)
        assert plan.roles["d2h_l2"].start < plan.roles["syrk"].end

    def test_p4_one_task_per_kernel(self, worker, node):
        g = TaskGraph()
        pol = PolicyP4(panel_width=8)
        plan = pol.plan(16, 16, worker, node.model, g)
        kernels = [t for t in g.tasks if t.engine == "gpu0.compute"]
        from repro.gpu.cublas import panel_kernel_sequence
        assert len(kernels) == len(panel_kernel_sequence(32, 16, 8))

    def test_p4_copy_optimized_moves_less_data(self, worker, node):
        g1, g2 = TaskGraph(), TaskGraph()
        make_policy("P4").plan(100, 100, worker, node.model, g1)
        make_policy("P4c").plan(100, 100, worker, node.model, g2)
        copy1 = sum(t.duration for t in g1.tasks if t.category == "copy")
        copy2 = sum(t.duration for t in g2.tasks if t.category == "copy")
        assert copy2 < copy1

    def test_m_zero_plans(self, worker, node):
        for name in ("P1", "P2", "P3", "P4"):
            g = TaskGraph()
            plan = make_policy(name).plan(0, 15, worker, node.model, g)
            assert plan.final is g.tasks[-1]


class TestEstimates:
    def test_estimate_positive_and_deterministic(self, model):
        t1 = estimate_policy_time(make_policy("P3"), 100, 50, model)
        t2 = estimate_policy_time(make_policy("P3"), 100, 50, model)
        assert t1 == t2 > 0

    def test_small_calls_favor_cpu(self, model):
        t = {
            n: estimate_policy_time(make_policy(n), 20, 8, model)
            for n in ("P1", "P2", "P3", "P4")
        }
        assert min(t, key=t.get) == "P1"

    def test_large_calls_favor_gpu(self, model):
        t = {
            n: estimate_policy_time(make_policy(n), 4000, 2000, model)
            for n in ("P1", "P2", "P3", "P4")
        }
        assert min(t, key=t.get) in ("P3", "P4")

    def test_huge_root_calls_favor_p4(self, model):
        # near the root k is comparable to m (or m = 0): potrf dominates
        # and P4's on-device blocked potrf wins (paper Table V / Fig. 12)
        t = {
            n: estimate_policy_time(make_policy(n), 0, 6000, model)
            for n in ("P1", "P2", "P3", "P4")
        }
        assert min(t, key=t.get) == "P4"

    def test_cold_pools_cost_more(self, model):
        warm = estimate_policy_time(make_policy("P3"), 200, 100, model)
        cold = estimate_policy_time(
            make_policy("P3"), 200, 100, model, warm_pools=False
        )
        assert cold > warm


class TestHybrids:
    def test_baseline_thresholds(self):
        bh = BaselineHybrid()
        assert bh.choose(10, 5) == "P1"          # tiny
        assert bh.choose(300, 60) == "P2"        # ~1.2e7 ops
        assert bh.choose(2000, 300) == "P3"      # ~1.4e9 ops
        assert bh.choose(60000, 20000) == "P4"   # > 9e10 ops

    def test_baseline_validates_thresholds(self):
        with pytest.raises(ValueError):
            BaselineHybrid(thresholds=(10.0, 5.0, 20.0))

    def test_resolve_falls_back_without_gpu(self):
        bh = BaselineHybrid()
        cpu_only = Worker("cpu0", None)
        pol = bh.resolve(60000, 20000, cpu_only)
        assert pol.name == "P1"

    def test_resolve_counts_selections(self, worker):
        bh = BaselineHybrid()
        bh.resolve(10, 5, worker)
        bh.resolve(10, 5, worker)
        bh.resolve(2000, 300, worker)
        assert bh.selection_counts == {"P1": 2, "P3": 1}

    def test_ideal_matches_bruteforce(self, model):
        ih = IdealHybrid(model)
        for m, k in [(10, 5), (500, 100), (0, 4000), (3000, 800)]:
            times = ih.policy_times(m, k)
            assert ih.choose(m, k) == min(times, key=times.get)

    def test_ideal_caches(self, model):
        ih = IdealHybrid(model)
        ih.choose(10, 5)
        assert (10, 5) in ih._cache

    def test_model_hybrid_delegates_to_classifier(self):
        class FakeClf:
            class_names = ("P1", "P4")

            def predict_one(self, m, k):
                return "P4" if m * k > 1000 else "P1"

        mh = ModelHybrid(FakeClf())
        assert mh.choose(100, 100) == "P4"
        assert mh.choose(2, 2) == "P1"

    def test_model_hybrid_rejects_unknown_classes(self):
        class BadClf:
            class_names = ("P9",)

        with pytest.raises(ValueError):
            ModelHybrid(BadClf())

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("P7")


class _OneFront:
    """The least of a symbolic factor a TaskPricer reads: one (m, k) front."""

    n_supernodes = 1

    def __init__(self, m, k):
        self.m, self.k = m, k

    def update_size(self, s):
        return self.m

    def width(self, s):
        return self.k

    def schildren(self):
        return [[]]


class TestResolution:
    """``Policy.resolve`` is the one host fallback and ``device_words``
    the one working-set formula: what resolution promised, ``plan``
    requests and the task pricer reports."""

    def test_the_working_set_formula_has_one_home(self):
        from repro.parallel import TaskPricer
        from repro.policies.base import Policy

        rng = np.random.default_rng(20)
        policies = [make_policy(n) for n in ("P2", "P3", "basic", "P4", "P4c")]
        limits = [None] + [1 << e for e in range(10, 33, 2)]  # 1 KiB .. 4 GiB
        fell_back = 0
        for _ in range(500):
            pol = policies[rng.integers(len(policies))]
            m, k = int(rng.integers(0, 401)), int(rng.integers(1, 201))
            limit = limits[rng.integers(len(limits))]
            node = SimulatedNode(n_cpus=1, n_gpus=int(rng.random() < 0.9))
            worker = Worker.canonical(node)
            declared = pol.device_words(m, k) * node.model.gpu_word
            if worker.has_gpu:
                worker.gpu.device_pool.capacity_limit = limit
            on_host = not worker.has_gpu or (limit is not None and declared > limit)
            fell_back += on_host

            base = pol.resolve(m, k, worker)
            assert base is (Policy.fallback if on_host else pol), (pol, m, k, limit)
            assert base.needs_gpu is not on_host
            # planning what resolution returned is never refused, and asks
            # the device pool for exactly the declared working set
            stats = worker.gpu.device_pool.stats if worker.has_gpu else None
            before = stats.bytes_requested if stats else 0
            base.plan(m, k, worker, node.model, TaskGraph())
            requested = (stats.bytes_requested if stats else 0) - before
            assert requested == (0 if on_host else declared)
            # the schedulers' pricer reads the same resolution and bytes
            pricer = TaskPricer(_OneFront(m, k), pol, node.model, [worker])
            _, priced, nbytes, offload = pricer.fu_time(0, worker)
            assert (priced, nbytes, offload) == (base, requested, True)
        assert 50 < fell_back < 450  # both sides of the rule were drawn

    def test_make_policy_is_the_one_name_table(self, model):
        from repro.policies.base import PolicyP3

        for name in ("P1", "p2", "P3", "p4", "P4C", "Basic", "BASELINE"):
            assert make_policy(name).name == make_policy(name.lower()).name
        basic = make_policy("basic")
        assert isinstance(basic, PolicyP3) and not (basic.overlap or basic.pinned)
        assert make_policy("P4c", panel_width=8).panel_width == 8
        assert isinstance(make_policy("ideal", model=model), IdealHybrid)
        with pytest.raises(ValueError, match="classifier"):
            make_policy("model")
        with pytest.raises(ValueError, match="model="):
            make_policy("ideal")
