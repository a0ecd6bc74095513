"""Regression tests for the genuine findings repro-lint surfaced.

The first self-hosted lint run over ``src/repro`` reported five real
defects, all fixed in the same change that introduced the linter:

1. ``SimulatedGpu.reserve`` leaked the device reservation when the
   pinned request raised (RPL020, gpu/device.py);
2. policies P2/P3/P4 reserved per-call working sets and never released
   them, so ``in_use`` grew monotonically across a factorization
   (allocator-state invariant, fixed with ``working_set()``);
3. ``SolverService._build_solver`` trained the policy classifier while
   holding ``_classifier_lock`` (RPL002);
4. ``SolverService._collect_batch`` fired client-visible expiry events
   while holding ``_cond`` (RPL003);
5. service spans used ``worker{i}`` engine names the Chrome-trace
   exporter cannot lane-sort (RPL041).

The interprocedural flow pass (RPL05x-08x) surfaced three more, fixed
in the change that introduced it:

6. ``ApiApp.handle`` put ``f"{type(exc).__name__}: {exc}"`` in the
   catch-all error envelope, leaking internal exception types and
   messages to the wire (RPL080, api/app.py — now ``public_message``);
7. ``ApiApp._process_entry`` routed raw ``str(exc)`` through
   ``_finish`` into the job/waiter error envelope — the same leak, one
   call hop removed (RPL080, api/app.py);
8. ``SolverService.submit`` read ``self._stop`` before taking
   ``self._cond`` while every other access held it, racing
   ``_shutdown``'s write (RPL071, service/service.py — the check now
   lives inside the locked section).

Each test here pins either the fixed runtime behaviour or — for the
lock-discipline fixes whose behaviour is timing-dependent — that the
*pre-fix code shape* still trips the linter, so the defect cannot be
silently reintroduced.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.device import SimulatedGpu, SimulatedNode
from repro.gpu.perfmodel import tesla_t10_model
from repro.lint import LintConfig
from repro.lint.checkers import all_checkers
from repro.lint.core import SourceFile
from repro.multifrontal import SparseCholeskySolver
from repro.verify.invariants import check_allocator_state


def lint_snippet(source: str, module: str = "repro.service.fake"):
    sf = SourceFile.parse(Path("fake.py"), module, textwrap.dedent(source))
    config = LintConfig(concurrency_modules=("repro.service",))
    findings = []
    for checker in all_checkers():
        findings.extend(checker.check([sf], config))
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# 1 + 2: allocator ownership
# ----------------------------------------------------------------------
class TestAllocatorOwnership:
    @pytest.mark.parametrize("policy", ["P2", "P3", "P4", "P4c"])
    def test_policy_plans_release_their_working_sets(
        self, lap2d_small, policy
    ):
        solver = SparseCholeskySolver(
            lap2d_small, ordering="amd", policy=policy
        )
        solver.analyze().factorize()
        gpu = solver.node.gpus[0]
        # pre-fix: every planned F-U call left its reservation behind,
        # so in_use ended a factorization at the *sum* of all calls
        assert gpu.device_pool.in_use == 0
        assert gpu.pinned_pool.in_use == 0
        # the high-water mark must survive the releases (warm start)
        assert gpu.device_pool.capacity > 0
        assert check_allocator_state(solver.node) == []

    def test_reserve_rolls_back_device_on_pinned_failure(self):
        gpu = SimulatedGpu(tesla_t10_model())

        def boom(nbytes):
            raise DeviceMemoryError("injected pinned failure")

        gpu.pinned_pool.request = boom
        with pytest.raises(DeviceMemoryError):
            gpu.reserve(1 << 20, 1 << 20)
        # pre-fix: the device reservation leaked on this path
        assert gpu.device_pool.in_use == 0

    def test_working_set_releases_on_exception(self):
        gpu = SimulatedGpu(tesla_t10_model())
        with pytest.raises(RuntimeError):
            with gpu.working_set(1 << 20, 1 << 16):
                assert gpu.device_pool.in_use == 1 << 20
                assert gpu.pinned_pool.in_use == 1 << 16
                raise RuntimeError("kernel fault mid-call")
        assert gpu.device_pool.in_use == 0
        assert gpu.pinned_pool.in_use == 0
        assert check_allocator_state(
            type("N", (), {"gpus": [gpu]})()
        ) == []

    def test_release_returns_both_pools(self):
        gpu = SimulatedGpu(tesla_t10_model())
        gpu.reserve(4096, 512)
        gpu.release(4096, 512)
        assert gpu.device_pool.in_use == 0
        assert gpu.pinned_pool.in_use == 0

    def test_prefix_reserve_shape_still_fires_rpl020(self):
        # the original SimulatedGpu.reserve body
        ids = lint_snippet("""
            def reserve(self, device_bytes, pinned_bytes):
                return self.device_pool.request(
                    device_bytes
                ) + self.pinned_pool.request(pinned_bytes)
        """)
        assert "RPL020" in ids


# ----------------------------------------------------------------------
# 3: classifier training under the lock
# ----------------------------------------------------------------------
class TestClassifierLockShape:
    def test_prefix_train_under_lock_shape_still_fires_rpl002(self):
        # the original _build_solver critical section
        ids = lint_snippet("""
            import threading
            from repro.autotune import train_default_classifier

            class SolverService:
                def __init__(self, factory):
                    self._classifier_lock = threading.Lock()
                    self._classifier = None
                    self._node_factory = factory

                def _build_solver(self):
                    with self._classifier_lock:
                        if self._classifier is None:
                            self._classifier = train_default_classifier(
                                self._node_factory().model
                            )
                        return self._classifier
        """)
        assert "RPL002" in ids
        assert "RPL003" in ids  # the factory call under the same lock

    def test_fixed_double_checked_publish_is_clean(self):
        ids = lint_snippet("""
            import threading
            from repro.autotune import train_default_classifier

            class SolverService:
                def __init__(self, factory):
                    self._classifier_lock = threading.Lock()
                    self._classifier = None
                    self._node_factory = factory

                def _build_solver(self):
                    with self._classifier_lock:
                        classifier = self._classifier
                    if classifier is None:
                        trained = train_default_classifier(
                            self._node_factory().model
                        )
                        with self._classifier_lock:
                            if self._classifier is None:
                                self._classifier = trained
                            classifier = self._classifier
                    return classifier
        """)
        assert "RPL002" not in ids
        assert "RPL003" not in ids

    def test_concurrent_model_solvers_share_one_classifier(
        self, lap2d_small
    ):
        # functional cross-check of the double-checked publish
        from repro.service import SolverService

        with SolverService(n_workers=2, policy="P1") as svc:
            reqs = [
                svc.submit(lap2d_small, np.ones(lap2d_small.n_rows))
                for _ in range(4)
            ]
            for r in reqs:
                r.result(timeout=300.0)


# ----------------------------------------------------------------------
# 4: expiry events fired under the queue condition
# ----------------------------------------------------------------------
class TestExpiryLockShape:
    def test_prefix_expire_under_cond_shape_still_fires_rpl003(self):
        # the original _collect_batch drain loop: _expire (which fires a
        # client-visible Event) called while _cond is held
        ids = lint_snippet("""
            import threading

            class SolverService:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._queue = []

                def _expire(self, req):
                    req.event.set()

                def _collect_batch(self):
                    got = []
                    with self._cond:
                        while self._queue:
                            cand = self._queue.pop()
                            if cand.expired:
                                self._expire(cand)
                                continue
                            got.append(cand)
                    return got
        """)
        assert "RPL003" in ids

    def test_fixed_expire_outside_cond_is_clean(self):
        ids = lint_snippet("""
            import threading

            class SolverService:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._queue = []

                def _expire(self, req):
                    req.event.set()

                def _collect_batch(self):
                    got = []
                    expired = []
                    with self._cond:
                        while self._queue:
                            cand = self._queue.pop()
                            if cand.expired:
                                expired.append(cand)
                                continue
                            got.append(cand)
                    for cand in expired:
                        self._expire(cand)
                    return got
        """)
        assert "RPL003" not in ids


# ----------------------------------------------------------------------
# 5: span engine names
# ----------------------------------------------------------------------
class TestSpanEngineNames:
    def test_service_spans_use_known_engine_kinds(self, lap2d_small):
        from repro.gpu.trace import _ENGINE_ORDER
        from repro.service import SolverService

        with SolverService(n_workers=2, policy="P1") as svc:
            reqs = [
                svc.submit(lap2d_small, np.ones(lap2d_small.n_rows))
                for _ in range(3)
            ]
            for r in reqs:
                r.result(timeout=300.0)
            spans = list(svc.metrics._spans)
        assert spans, "service should have recorded spans"
        for task in spans:
            kind = task.engine.split(".", 1)[0]
            assert kind in _ENGINE_ORDER, task.engine

    def test_prefix_worker_engine_shape_still_fires_rpl041(self):
        ids = lint_snippet("""
            class SolverService:
                def _process(self, req, worker):
                    engine = f"worker{worker}"
                    self.metrics.span("n", "solve", engine, 0.0, 1.0)
        """)
        assert "RPL041" in ids


# ----------------------------------------------------------------------
# 6 + 7: exception text leaking into /v1 envelopes
# ----------------------------------------------------------------------
class TestWireLeakShapes:
    def test_prefix_handle_catch_all_shape_still_fires_rpl080(self):
        # the original ApiApp.handle catch-all envelope
        ids = lint_snippet("""
            from repro.api.protocol import error_response

            class ApiApp:
                def handle(self, request, rid):
                    try:
                        return self._route(request, rid)
                    except Exception as exc:
                        return error_response(
                            "internal",
                            f"{type(exc).__name__}: {exc}",
                            request_id=rid,
                        )
        """, module="repro.api.fake")
        assert "RPL080" in ids

    def test_fixed_handle_public_message_is_clean(self):
        ids = lint_snippet("""
            from repro.api.protocol import error_response, public_message

            class ApiApp:
                def handle(self, request, rid):
                    try:
                        return self._route(request, rid)
                    except Exception as exc:
                        return error_response(
                            "internal", public_message(exc), request_id=rid
                        )
        """, module="repro.api.fake")
        assert "RPL080" not in ids

    def test_prefix_process_entry_chain_still_fires_rpl080(self):
        # the original _process_entry -> _finish error chain: the raw
        # exception text crosses one call hop before hitting the wire
        ids = lint_snippet("""
            from repro.api.protocol import error_response

            class ApiApp:
                def _process_entry(self, entry):
                    try:
                        out = self._run(entry)
                    except ValueError as exc:
                        self._finish(entry, ("invalid_request", str(exc)))
                    else:
                        self._finish(entry, None)

                def _finish(self, entry, error):
                    if error is not None:
                        code, message = error
                        return error_response(
                            code, message, request_id=entry
                        )
        """, module="repro.api.fake")
        assert "RPL080" in ids

    def test_fixed_process_entry_chain_is_clean(self):
        ids = lint_snippet("""
            from repro.api.protocol import error_response, public_message

            class ApiApp:
                def _process_entry(self, entry):
                    try:
                        out = self._run(entry)
                    except ValueError as exc:
                        self._finish(
                            entry, ("invalid_request", public_message(exc))
                        )
                    else:
                        self._finish(entry, None)

                def _finish(self, entry, error):
                    if error is not None:
                        code, message = error
                        return error_response(
                            code, message, request_id=entry
                        )
        """, module="repro.api.fake")
        assert "RPL080" not in ids

    def test_public_message_collapses_internal_exceptions(self):
        from repro.api.protocol import ApiError, public_message

        class Oops(Exception):
            pass

        # internal type + message never reach the caller
        assert public_message(Oops("/srv/host/secret")) == "internal error"
        # whitelisted domain validation text passes through
        assert (
            public_message(ValueError("rhs must have 4 rows"))
            == "rhs must have 4 rows"
        )
        # ApiError messages are crafted for the wire by definition
        assert (
            public_message(ApiError("invalid_request", "bad matrix"))
            == "bad matrix"
        )


# ----------------------------------------------------------------------
# 8: shutdown flag read outside the queue condition
# ----------------------------------------------------------------------
class TestStopFlagGuardShape:
    def test_prefix_stop_check_outside_cond_still_fires_rpl071(self):
        # the original SolverService.submit entry: _stop checked before
        # taking _cond, while _shutdown writes it under _cond
        ids = lint_snippet("""
            import threading

            class SolverService:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._stop = False
                    self._queue = []

                def submit(self, a, b):
                    if self._stop:
                        raise RuntimeError("service is shut down")
                    with self._cond:
                        self._queue.append((a, b))

                def shutdown(self):
                    with self._cond:
                        self._stop = True

                def poll(self):
                    with self._cond:
                        return self._stop

                def drain(self):
                    with self._cond:
                        return self._stop
        """)
        assert "RPL071" in ids

    def test_fixed_stop_check_under_cond_is_clean(self):
        ids = lint_snippet("""
            import threading

            class SolverService:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._stop = False
                    self._queue = []

                def submit(self, a, b):
                    with self._cond:
                        if self._stop:
                            raise RuntimeError("service is shut down")
                        self._queue.append((a, b))

                def shutdown(self):
                    with self._cond:
                        self._stop = True

                def poll(self):
                    with self._cond:
                        return self._stop

                def drain(self):
                    with self._cond:
                        return self._stop
        """)
        assert "RPL071" not in ids

    def test_submit_after_shutdown_raises(self, lap2d_small):
        import numpy as np

        from repro.service import SolverService

        svc = SolverService(n_workers=1, policy="P1")
        svc.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            svc.submit(lap2d_small, np.ones(lap2d_small.n_rows))


# ----------------------------------------------------------------------
# dynamic-runtime cross-check: pools stay clean under injected faults
# ----------------------------------------------------------------------
class TestRuntimePoolsUnderFaults:
    def test_dynamic_run_with_faults_leaves_pools_consistent(
        self, lap2d_small
    ):
        from repro.parallel import Dynamic, make_worker_pool
        from repro.policies import make_policy
        from repro.runtime import FaultInjector
        from repro.symbolic import symbolic_factorize

        sf = symbolic_factorize(lap2d_small, ordering="amd")
        pool = make_worker_pool(2, 1)
        faults = FaultInjector(kernel_failure_rate=0.2, seed=7)
        res = Dynamic(faults=faults).run(sf, make_policy("P2"), pool)
        assert res.makespan > 0
        assert check_allocator_state(pool.node) == []
