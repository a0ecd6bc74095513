"""The dynamic event-driven runtime: events, stealing, admission, faults."""

import contextlib

import numpy as np
import pytest

from repro.gpu.perfmodel import tesla_t10_model
from repro.matrices import grid_laplacian_2d, grid_laplacian_3d
from repro.multifrontal import solve_factored
from repro.multifrontal.numeric import postorder_numeric_factor
from repro.parallel import (
    Dynamic,
    Static,
    make_worker_pool,
    parallel_schedule,
)
from repro.policies import make_policy
from repro.runtime import (
    EventQueue,
    FaultInjector,
    ReadyDeque,
    schedule_peak_update_bytes,
)
from repro.symbolic import symbolic_factorize
from repro.symbolic.stack import estimate_peak_update_bytes


@pytest.fixture(scope="module")
def problem():
    a = grid_laplacian_3d(6, 6, 6)
    return a, symbolic_factorize(a, ordering="nd")


@pytest.fixture(scope="module")
def lap2d_32():
    a = grid_laplacian_2d(32, 32)
    return a, symbolic_factorize(a, ordering="nd")


class TestEventPrimitives:
    def test_event_queue_orders_by_time_then_seq(self):
        q = EventQueue()
        q.push(2.0, "late")
        q.push(1.0, "a")
        q.push(1.0, "b")  # same time: FIFO by insertion
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "late"]
        assert q.now == 2.0

    def test_clock_never_rewinds(self):
        # an event in the past is refused, so no pop can move time back
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push(4.0, "past")
        assert q.now == 5.0
        assert len(q) == 0

    def test_deque_pops_highest_priority(self):
        d = ReadyDeque()
        d.push(1.0, 0, "low")
        d.push(9.0, 1, "high")
        d.push(5.0, 2, "mid")
        assert d.pop_front() == "high"
        assert d.pop_front() == "mid"

    def test_steal_back_takes_low_priority_half(self):
        d = ReadyDeque()
        for i, pr in enumerate([9.0, 7.0, 5.0, 3.0, 1.0]):
            d.push(pr, i, f"t{i}")
        loot = d.steal_back(2)
        assert loot == ["t3", "t4"]  # the lowest-priority tasks
        assert len(d) == 3
        assert d.pop_front() == "t0"


class TestDynamicSchedule:
    def test_dependencies_respected(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(3, 0))
        finish = {t.sid: t.end for t in res.schedule}
        start = {t.sid: t.start for t in res.schedule}
        kids = sf.schildren()
        for s in range(sf.n_supernodes):
            for c in kids[s]:
                assert finish[c] <= start[s] + 1e-15

    def test_every_supernode_exactly_once(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(4, 0))
        sids = sorted(t.sid for t in res.schedule)
        assert sids == list(range(sf.n_supernodes))

    def test_single_worker_equals_serial_sum(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(1, 0))
        assert res.stats.steals == 0
        assert res.makespan == pytest.approx(
            sum(t.elapsed for t in res.schedule)
        )

    def test_deterministic_across_runs(self, problem):
        _, sf = problem
        runs = [
            Dynamic().run(sf, make_policy("P1"), make_worker_pool(4, 0))
            for _ in range(3)
        ]
        first = [(t.sid, t.worker, t.start, t.end) for t in runs[0].schedule]
        for r in runs[1:]:
            assert [(t.sid, t.worker, t.start, t.end) for t in r.schedule] == first
            assert r.stats == runs[0].stats

    def test_workers_bootstrap_by_stealing(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(4, 0))
        assert res.stats.steals >= 1
        assert res.stats.stolen_tasks >= res.stats.steals
        # stealing actually spread the work
        assert len({t.worker for t in res.schedule}) == 4

    def test_makespan_competitive_with_static(self, problem):
        _, sf = problem
        pool = make_worker_pool(4, 0)
        static = Static(gang_threshold=np.inf).run(sf, make_policy("P1"), pool)
        dyn = Dynamic().run(sf, make_policy("P1"), pool)
        assert dyn.makespan <= 1.3 * static.makespan

    def test_worker_busy_accounting(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(3, 0))
        per_worker = [0.0] * 3
        for t in res.schedule:
            per_worker[t.worker] += t.elapsed
        assert per_worker == pytest.approx(res.worker_busy)


class TestMemoryAdmission:
    def test_budget_honored_where_static_exceeds_it(self, lap2d_32):
        _, sf = lap2d_32
        pool = make_worker_pool(4, 0)
        static = Static(gang_threshold=np.inf).run(sf, make_policy("P1"), pool)
        static_peak = schedule_peak_update_bytes(sf, static.schedule)
        serial_peak = estimate_peak_update_bytes(sf)
        budget = int(0.9 * static_peak)
        assert serial_peak < budget < static_peak  # scenario is meaningful
        res = Dynamic(memory_budget=budget).run(sf, make_policy("P1"), pool)
        assert res.stats.peak_admitted_bytes <= budget
        assert res.stats.forced_admissions == 0
        assert res.stats.admission_deferrals > 0
        assert len(res.schedule) == sf.n_supernodes

    def test_unconstrained_run_has_no_deferrals(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(4, 0))
        assert res.stats.admission_deferrals == 0
        assert res.stats.forced_admissions == 0

    def test_infeasible_budget_forces_completion(self, lap2d_32):
        _, sf = lap2d_32
        res = Dynamic(memory_budget=1).run(
            sf, make_policy("P1"), make_worker_pool(4, 0)
        )
        assert len(res.schedule) == sf.n_supernodes
        assert res.stats.forced_admissions > 0

    def test_serial_budget_peak_matches_liu_accounting(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(1, 0))
        assert schedule_peak_update_bytes(sf, res.schedule) == \
            res.stats.peak_stack_bytes

    @pytest.mark.parametrize("precision,ratio", [("sp", 2), ("dp", 1)])
    def test_device_updates_are_charged_at_the_device_word(
        self, problem, precision, ratio
    ):
        # a P4 update stays in the device word until its parent's
        # extend-add: on one GPU worker every front runs P4, and the stack
        # holds half the host-word bytes under sp, all of them under dp; a
        # budget projects a ready front at the host word
        _, sf = problem
        model = tesla_t10_model().with_precision(precision)
        pool = make_worker_pool(1, 1, model=model)
        res = Dynamic().run(sf, make_policy("P4"), pool)
        assert {t.policy for t in res.schedule} == {"P4"}
        assert {t.update_word for t in res.schedule} == {model.gpu_word}
        assert ratio * res.stats.peak_stack_bytes == estimate_peak_update_bytes(
            sf, [t.sid for t in res.schedule]
        )
        assert schedule_peak_update_bytes(sf, res.schedule) == \
            res.stats.peak_stack_bytes
        static = Static().run(
            sf, make_policy("P4"), make_worker_pool(1, 1, model=model)
        )
        assert {t.update_word for t in static.schedule} == {model.gpu_word}
        budget = res.stats.peak_admitted_bytes
        capped = Dynamic(memory_budget=budget).run(
            sf, make_policy("P4"), make_worker_pool(1, 1, model=model)
        )
        assert capped.stats.peak_admitted_bytes <= budget


class TestFaults:
    def _fail_sids(self, sf, n=3):
        mk = [(s, sf.update_size(s) * sf.width(s))
              for s in range(sf.n_supernodes)]
        return frozenset(s for s, _ in sorted(mk, key=lambda t: -t[1])[:n])

    def test_targeted_failures_degrade_not_raise(self, problem):
        _, sf = problem
        fail = self._fail_sids(sf)
        inj = FaultInjector(fail_sids=fail, seed=1)
        res = Dynamic(faults=inj).run(sf, make_policy("P3"), make_worker_pool(2, 2))
        assert res.degraded
        assert res.degraded_sids == fail
        assert res.stats.degraded_tasks == len(fail)
        assert res.stats.kernel_retries >= len(fail)
        assert len(res.schedule) == sf.n_supernodes
        # the degraded fronts ran on the host path
        policies = {t.sid: t.policy for t in res.schedule}
        assert all(policies[s] == "P1" for s in fail)

    def test_transfer_stalls_counted_and_slow(self, problem):
        _, sf = problem
        clean = Dynamic().run(sf, make_policy("P3"), make_worker_pool(2, 2))
        inj = FaultInjector(transfer_stall_rate=0.3, seed=7)
        res = Dynamic(faults=inj).run(sf, make_policy("P3"), make_worker_pool(2, 2))
        assert res.stats.transfer_stalls > 0
        assert res.stats.transfer_stalls == inj.stats.transfer_stalls
        assert res.makespan > clean.makespan

    def test_fault_outcomes_deterministic(self, problem):
        _, sf = problem
        runs = [
            Dynamic(
                faults=FaultInjector(kernel_failure_rate=0.15, seed=5)
            ).run(sf, make_policy("P3"), make_worker_pool(2, 2))
            for _ in range(2)
        ]
        assert runs[0].degraded_sids == runs[1].degraded_sids
        assert runs[0].makespan == runs[1].makespan

    def test_cpu_policy_never_faults(self, problem):
        _, sf = problem
        inj = FaultInjector(kernel_failure_rate=1.0, seed=0)
        res = Dynamic(faults=inj).run(sf, make_policy("P1"), make_worker_pool(2, 2))
        assert not res.degraded  # P1 never touches the device


def _factorize(a, sf, policy, pool, executor):
    """The scheduled pricing pass, then the one numerics pass on the
    pool's node."""
    priced = parallel_schedule(sf, policy, pool, executor)
    return priced, postorder_numeric_factor(a, sf, priced, pool.node)


class TestParallelFactorizeDynamic:
    def test_bitwise_identical_to_static(self, problem):
        a, sf = problem
        pol = make_policy("P2")
        _, fs = _factorize(a, sf, pol, make_worker_pool(2, 2), Static())
        _, fd = _factorize(a, sf, pol, make_worker_pool(2, 2), Dynamic())
        for ps, pd in zip(fs.panels, fd.panels):
            assert np.array_equal(ps, pd)

    def test_degraded_factor_still_solves(self, problem):
        a, sf = problem
        fail = TestFaults()._fail_sids(sf)
        priced, factor = _factorize(
            a, sf, make_policy("P3"), make_worker_pool(2, 2),
            Dynamic(faults=FaultInjector(fail_sids=fail, seed=2)),
        )
        assert priced.runtime.degraded
        b = np.ones(a.n_rows)
        x = solve_factored(factor, b)
        # raw solve carries the GPU policies' single-precision error ...
        assert np.abs(a.matvec(x) - b).max() < 1e-4
        # ... and refinement recovers double precision as usual
        from repro.multifrontal.refine import iterative_refinement

        ref = iterative_refinement(a, factor, b)
        assert ref.converged
        assert ref.final_residual < 1e-12

    def test_unknown_backend_rejected(self, problem):
        # a backend is named only on the solver; the library takes an
        # executor value
        from repro import SparseCholeskySolver

        a, _ = problem
        with pytest.raises(ValueError, match="backend"):
            SparseCholeskySolver(a, backend="bogus")


class TestRuntimeObservability:
    def test_metrics_export(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(4, 0))
        m = res.metrics()
        assert m.counter("tasks") == sf.n_supernodes
        assert m.counter("steals") == res.stats.steals
        rep = m.report()
        assert rep["gauges"]["peak_stack_bytes"] > 0
        assert "task" in rep["latency"]

    def test_chrome_trace_spans(self, problem):
        _, sf = problem
        res = Dynamic().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        trace = res.chrome_trace()
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == sf.n_supernodes
        assert len(res.spans) == sf.n_supernodes


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_lmco_s_warm_p4_refactorize_counts():
    """The counts-gate CI runs by name: a warm P4 refactorization of
    lmco_s/nd through the event-driven runtime on 2 CPUs + 2 GPUs keeps
    no books.  Its pricing pass, its records, resolved policies and
    device-kernel seconds are all kept per pattern, so it prices no
    kernel (6 192 ``kernel_time`` calls before), builds no ``FURecord``
    (1 983) and copies no dataclass (1 989 ``dataclasses.replace``
    calls); its fp32 kernels run uncharged, and the device time it adds
    after the walk is the serial P4 baseline's GPU compute time to the
    bit."""
    import collections
    import dataclasses
    import json
    import pathlib
    import sys
    from unittest import mock

    from repro import SparseCholeskySolver
    from repro.gpu import SimulatedNode
    from repro.gpu.perfmodel import PerfModel
    from repro.matrices.testsuite import load_test_matrix
    from repro.multifrontal.numeric import FURecord

    baseline = pathlib.Path(__file__).resolve().parents[1] / "BENCH_factorize-serial-p4.json"
    gpu0 = json.loads(baseline.read_text())["deterministic"][
        "engine.gpu0.compute.busy_seconds"
    ]
    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(
        a, ordering="nd", policy="P4", backend="dynamic",
        node=SimulatedNode(n_cpus=2, n_gpus=2),
    ).factorize()
    counts: collections.Counter = collections.Counter()
    replace = _counting(counts, "replace", dataclasses.replace)
    patches = [
        mock.patch.object(
            PerfModel, "kernel_time",
            _counting(counts, "kernel_time", PerfModel.kernel_time),
        ),
        mock.patch.object(
            FURecord, "__new__", _counting(counts, "FURecord", FURecord.__new__)
        ),
        mock.patch.object(dataclasses, "replace", replace),
    ] + [
        mock.patch.object(module, "replace", replace)
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "replace", None) is dataclasses.replace
    ]
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        solver.refactorize(a.data * 2.0)
    assert solver.parallel.runtime is not None
    assert solver.stats.policy_counts == {"P4": solver.symbolic.n_supernodes}
    assert counts == {}
    assert sum(g.cublas.busy_seconds for g in solver.node.gpus) == gpu0


@pytest.mark.parametrize("backend", ["static", "dynamic", "cluster"])
def test_lmco_s_warm_scheduled_pricing_counts(backend):
    """The scheduled-pricing gate CI runs by name: one warm P4
    refactorization of lmco_s/nd on 2 CPUs + 2 GPUs runs no scheduler
    under any scheduled backend — no ``Static.run`` call and no
    ``DynamicRuntime.run`` — because every executor's pure pass is kept
    per pattern, keyed by the executor value (the cluster loop ran once
    per refactorize before)."""
    import collections
    from unittest import mock

    from repro import SparseCholeskySolver
    from repro.gpu import SimulatedNode
    from repro.matrices.testsuite import load_test_matrix
    from repro.parallel import scheduler
    from repro.runtime.engine import DynamicRuntime

    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(
        a, ordering="nd", policy="P4", backend=backend,
        node=SimulatedNode(n_cpus=2, n_gpus=2),
    ).factorize()
    counts: collections.Counter = collections.Counter()
    with mock.patch.object(
        scheduler.Static, "run",
        _counting(counts, "Static.run", scheduler.Static.run),
    ), mock.patch.object(
        DynamicRuntime, "run", _counting(counts, "run", DynamicRuntime.run)
    ):
        solver.refactorize(a.data * 2.0)
    assert counts == {}
    assert solver.parallel.task_dispatches == solver.symbolic.n_supernodes
