"""Tests for repro.api: protocol, middleware, admission, jobs, the app
core over both transports, and the end-to-end phased load acceptance.

Everything runs through the real ASGI adapter via the in-process client
(no sockets, no event loop) with ``dispatcher="manual"`` so every test
is deterministic; one test covers the threaded dispatcher and one the
stdlib HTTP bridge.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ERROR_STATUS,
    ApiApp,
    ApiError,
    ApiKeyAuth,
    EdgeEntry,
    EdgeQueue,
    InProcessClient,
    JobState,
    JobStore,
    ManualClock,
    RateLimiter,
    Request,
    RequestIds,
    TokenBucket,
    decode_matrix,
    encode_matrix,
    error_response,
)
from repro.api.loadgen import run_load
from repro.matrices import grid_laplacian_2d
from repro.service import ServiceMetrics, SolverService

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

REPO = Path(__file__).resolve().parents[1]

A_SMALL = grid_laplacian_2d(4, 5)
DOC_SMALL = encode_matrix(A_SMALL)
RHS_SMALL = [1.0] * A_SMALL.n_rows


def make_app(service, **kw):
    kw.setdefault("api_keys", {"ka": "alice", "kb": "bob"})
    kw.setdefault("dispatcher", "manual")
    kw.setdefault("clock", ManualClock())
    return ApiApp(service, **kw)


@pytest.fixture(scope="module")
def service():
    svc = SolverService(n_workers=1, policy="P1", ordering="amd")
    yield svc
    svc.shutdown()


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_every_error_code_has_one_status(self):
        assert set(ERROR_STATUS) == {
            "invalid_request", "unauthorized", "not_found",
            "method_not_allowed", "conflict", "numerical_error",
            "rate_limited", "overloaded", "internal", "unavailable",
            "deadline_exceeded",
        }
        assert ERROR_STATUS["deadline_exceeded"] == 504
        assert ERROR_STATUS["overloaded"] == 429

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ApiError("teapot", "no")

    def test_envelope_shape(self):
        resp = error_response("rate_limited", "slow down",
                              request_id="rid-1", retry_after_ms=250)
        assert resp.status == 429
        doc = resp.json()
        assert doc == {"error": {
            "code": "rate_limited", "message": "slow down",
            "request_id": "rid-1", "retry_after_ms": 250,
        }}

    def test_matrix_codec_roundtrip(self):
        b = decode_matrix(json.loads(json.dumps(DOC_SMALL)))
        assert b.shape == A_SMALL.shape
        np.testing.assert_array_equal(b.indptr, A_SMALL.indptr)
        np.testing.assert_array_equal(b.data, A_SMALL.data)

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("data"), "missing"),
        (lambda d: d.__setitem__("shape", [4]), "shape"),
        (lambda d: d.__setitem__("shape", [True, True]), "shape"),
        (lambda d: d.__setitem__("data", ["x"]), "not numeric"),
        (lambda d: d.__setitem__("indices", [99] * len(d["indices"])),
         "invalid CSC"),
    ])
    def test_matrix_codec_rejects(self, mutate, match):
        doc = json.loads(json.dumps(DOC_SMALL))
        mutate(doc)
        with pytest.raises(ApiError, match=match) as exc:
            decode_matrix(doc)
        assert exc.value.code == "invalid_request"

    def test_request_json_rejects_garbage(self):
        with pytest.raises(ApiError, match="malformed"):
            Request("POST", "/v1/solve", {}, b"{nope").json()
        with pytest.raises(ApiError, match="empty"):
            Request("POST", "/v1/solve", {}, b"").json()
        with pytest.raises(ApiError, match="object"):
            Request("POST", "/v1/solve", {}, b"[1]").json()


# ----------------------------------------------------------------------
# middleware
# ----------------------------------------------------------------------
class TestMiddleware:
    def test_auth_maps_keys_to_clients(self):
        auth = ApiKeyAuth({"k1": "alice", "k2": "alice", "k3": "bob"})
        assert auth.client_for({"x-api-key": "k2"}) == "alice"
        assert auth.client_for({"x-api-key": "nope"}) is None
        assert auth.client_for({}) is None
        assert auth.clients == ["alice", "bob"]
        with pytest.raises(ValueError):
            ApiKeyAuth({})

    def test_manual_clock(self):
        clk = ManualClock(5.0)
        clk.advance(2.5)
        assert clk.now() == clk() == 7.5
        with pytest.raises(ValueError):
            clk.advance(-1.0)

    def test_token_bucket_burst_then_refill(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.allow() for _ in range(4)] == [True] * 3 + [False]
        clock.advance(1.0)                       # refills 2 tokens
        assert [bucket.allow() for _ in range(3)] == [True, True, False]
        clock.advance(100.0)                     # caps at burst
        assert [bucket.allow() for _ in range(4)] == [True] * 3 + [False]

    def test_rate_limiter_isolates_clients_and_overrides(self):
        clock = ManualClock()
        lim = RateLimiter(rate=1.0, burst=1, clock=clock,
                          overrides={"vip": (100.0, 5)})
        assert lim.allow("a") and not lim.allow("a")
        assert lim.allow("b")                    # b has its own bucket
        assert [lim.allow("vip") for _ in range(6)] == [True] * 5 + [False]

    def test_request_ids_sequential_and_propagated(self):
        rids = RequestIds()
        assert rids.assign({}) == "rid-00000001"
        assert rids.assign({}) == "rid-00000002"
        assert rids.assign({"x-request-id": "trace-7"}) == "trace-7"
        assert rids.assign({"x-request-id": "x" * 200}) == "rid-00000003"
        assert rids.assign({"x-request-id": "bad\nid"}) == "rid-00000004"

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @given(
        rate=st.floats(min_value=0.1, max_value=100.0,
                       allow_nan=False, allow_infinity=False),
        burst=st.integers(min_value=1, max_value=20),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=20,
        ),
    )
    def test_bucket_never_exceeds_rate_plus_burst(self, rate, burst, steps):
        """Over any window, admitted <= burst + rate * elapsed (+eps)."""
        clock = ManualClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted, elapsed = 0, 0.0
        for advance, attempts in steps:
            clock.advance(advance)
            elapsed += advance
            admitted += sum(bucket.allow() for _ in range(attempts))
        assert admitted <= burst + rate * elapsed + 1e-6


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
def _entry(client, rid="r"):
    return EdgeEntry(client=client, request_id=rid, work=lambda t: None)


class TestEdgeQueue:
    def test_sheds_when_full_with_metrics(self):
        m = ServiceMetrics()
        q = EdgeQueue(2, metrics=m)
        assert q.admit(_entry("a")) is None
        assert q.admit(_entry("a")) is None
        assert q.admit(_entry("b")) == "queue_full"
        snap = m.snapshot()
        assert snap["counter.edge.shed_total"] == 1
        assert snap["counter.edge.shed_queue_full"] == 1
        assert snap["gauge.edge.queue_depth"] == 2

    def test_sheds_on_memory_pressure(self):
        pressure = [0.0]
        q = EdgeQueue(8, memory_signal=lambda: pressure[0],
                      memory_threshold=0.9)
        assert q.admit(_entry("a")) is None
        pressure[0] = 0.95
        assert q.admit(_entry("a")) == "memory_pressure"

    def test_closed_queue_sheds(self):
        q = EdgeQueue(2)
        q.close()
        assert q.admit(_entry("a")) == "closed"

    def test_round_robin_fairness(self):
        q = EdgeQueue(16)
        for client, n in (("a", 3), ("b", 1), ("c", 1)):
            for i in range(n):
                q.admit(_entry(client, f"{client}{i}"))
        order = [q.pop().request_id for _ in range(5)]
        # one chatty client (a) cannot starve b and c
        assert order == ["a0", "b0", "c0", "a1", "a2"]
        assert q.pop() is None

    def test_remove_for_cancellation(self):
        q = EdgeQueue(4)
        e1, e2 = _entry("a", "1"), _entry("a", "2")
        q.admit(e1)
        q.admit(e2)
        assert q.remove(e1)
        assert not q.remove(e1)
        assert q.pop().request_id == "2"

    def test_blocking_pop_wakes_on_close(self):
        q = EdgeQueue(2)
        got = []
        t = threading.Thread(
            target=lambda: got.append(q.pop(wait=True, timeout=5.0))
        )
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and got == [None]


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class TestJobStore:
    def test_lifecycle_and_invalid_transitions(self):
        store = JobStore()
        job = store.create("alice", "rid-1", now=0.0)
        assert job.job_id == "job-00000001" and job.state == JobState.QUEUED
        assert store.transition(job, JobState.RUNNING, now=1.0)
        assert not store.transition(job, JobState.CANCELLED, now=1.5)
        assert store.transition(job, JobState.DONE, now=2.0,
                                result={"tier": "miss"})
        assert not store.transition(job, JobState.RUNNING, now=3.0)
        assert job.finished == 2.0
        assert store.get(job.job_id).describe()["result"] == {"tier": "miss"}

    def test_cancel_only_from_queued(self):
        store = JobStore()
        job = store.create("alice", "rid-1", now=0.0)
        assert store.transition(job, JobState.CANCELLED, now=1.0)
        assert job.state == JobState.CANCELLED
        assert not store.transition(job, JobState.RUNNING, now=2.0)

    def test_finished_retention_is_bounded(self):
        store = JobStore(max_finished=2)
        jobs = [store.create("a", f"r{i}", now=0.0) for i in range(4)]
        for j in jobs:
            store.transition(j, JobState.CANCELLED, now=1.0)
        assert len(store) == 2
        assert store.get(jobs[0].job_id) is None      # oldest evicted
        assert store.get(jobs[3].job_id) is not None

    def test_drop_forgets_shed_admissions(self):
        store = JobStore()
        job = store.create("a", "r", now=0.0)
        store.drop(job)
        assert store.get(job.job_id) is None and len(store) == 0

    def test_counts(self):
        store = JobStore()
        store.create("a", "r1", now=0.0)
        j = store.create("a", "r2", now=0.0)
        store.transition(j, JobState.CANCELLED, now=1.0)
        assert store.counts() == {"cancelled": 1, "queued": 1}


# ----------------------------------------------------------------------
# the app over the in-process ASGI transport
# ----------------------------------------------------------------------
class TestApp:
    def test_healthz_and_metrics_need_no_auth(self, service):
        with make_app(service) as app:
            c = InProcessClient(app)
            h = c.get("/v1/healthz")
            assert h.status == 200
            doc = h.json()
            assert doc["status"] == "ok"
            assert "cache_utilization" in doc["service"]
            assert doc["edge"]["capacity"] == app.edge.capacity
            m = c.get("/v1/metrics")
            assert m.status == 200
            assert m.headers["content-type"].startswith("text/plain")
            assert "counter.api.requests" in m.body.decode()

    def test_solve_roundtrip_solves_the_system(self, service):
        with make_app(service) as app:
            c = InProcessClient(app)
            r = c.post("/v1/solve", api_key="ka",
                       json={"matrix": DOC_SMALL, "rhs": RHS_SMALL})
            assert r.status == 200
            doc = r.json()
            x = np.asarray(doc["x"])
            residual = A_SMALL.matvec(x) - np.asarray(RHS_SMALL)
            assert np.linalg.norm(residual) < 1e-8
            assert doc["tier"] in ("miss", "symbolic", "numeric", "batched")
            assert r.headers["x-request-id"] == doc["request_id"]

    @pytest.mark.parametrize("storage", ["lower", "upper", "mixed"])
    def test_solve_answers_every_store_with_the_full_stores_x(
        self, spd_stores, storage
    ):
        # a fresh service per store: the second answer is no cache hit
        rhs = np.random.default_rng(5).normal(size=72).tolist()
        answers = []
        for name in ("full", storage):
            with SolverService(n_workers=1) as svc, make_app(svc) as app:
                r = InProcessClient(app).post(
                    "/v1/solve", api_key="ka",
                    json={"matrix": encode_matrix(spd_stores[name]),
                          "rhs": rhs},
                )
                assert r.status == 200
                answers.append(r.json()["x"])
        assert answers[0] == answers[1]

    def test_unauthorized_and_unknown_paths_are_envelopes(self, service):
        with make_app(service) as app:
            c = InProcessClient(app)
            r = c.post("/v1/solve",
                       json={"matrix": DOC_SMALL, "rhs": RHS_SMALL})
            assert r.status == 401
            assert r.json()["error"]["code"] == "unauthorized"
            assert c.get("/v2/solve", api_key="ka").status == 404
            assert c.get("/v1/nope", api_key="ka").status == 404
            wrong = c.get("/v1/solve", api_key="ka")
            assert wrong.status == 405
            assert wrong.json()["error"]["code"] == "method_not_allowed"

    def test_invalid_body_is_an_envelope_not_a_traceback(self, service):
        with make_app(service) as app:
            c = InProcessClient(app)
            r = c.post("/v1/solve", api_key="ka", body=b"{broken")
            assert r.status == 400
            err = r.json()["error"]
            assert err["code"] == "invalid_request"
            assert "Traceback" not in err["message"]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rhs_is_an_invalid_request(self, service, bad):
        # json.loads reads all three; answering would be status 200 with
        # an all-NaN x in a body that is not JSON
        rhs = json.dumps(RHS_SMALL).replace("1.0", bad, 1)
        body = '{"matrix": %s, "rhs": %s}' % (json.dumps(DOC_SMALL), rhs)
        with make_app(service) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka", body=body.encode()
            )
        assert r.status == 400
        err = r.json()["error"]
        assert err["code"] == "invalid_request"
        assert "non-finite" in err["message"]

    @pytest.mark.parametrize("field", ["tol", "deadline_ms"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1"])
    def test_non_finite_tol_or_deadline_is_an_invalid_request(
        self, service, field, bad
    ):
        # an infinite tol would certify any x; json.loads reads all three
        body = '{"matrix": %s, "rhs": %s, "%s": %s}' % (
            json.dumps(DOC_SMALL), json.dumps(RHS_SMALL), field, bad
        )
        with make_app(service) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka", body=body.encode()
            )
        assert r.status == 400
        err = r.json()["error"]
        assert err["code"] == "invalid_request"
        assert field in err["message"]

    def test_answer_carries_its_certificate(self, service):
        with make_app(service) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka",
                json={"matrix": DOC_SMALL, "rhs": RHS_SMALL, "refine": True},
            )
        doc = r.json()
        assert r.status == 200
        assert 0.0 <= doc["backward_error"] <= 1e-12
        assert doc["refine_iterations"] == 0 and doc["degraded"] is False

    @pytest.mark.parametrize("shift", [1e-9, 1e-7])
    def test_ill_conditioned_fp32_answer_is_flagged_degraded(self, shift):
        from repro.matrices import random_spd

        a = random_spd(60, avg_degree=4, seed=3, shift=shift)
        with SolverService(n_workers=1, policy="P4") as svc, make_app(svc) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka",
                json={"matrix": encode_matrix(a), "rhs": [1.0] * a.n_rows,
                      "refine": True},
            )
        doc = r.json()
        assert r.status == 200
        assert doc["degraded"] is True
        assert doc["backward_error"] <= 1e-12

    @pytest.mark.parametrize("n, shift", [(60, 1e-13), (2000, 1e-11)])
    def test_fp32_answer_past_the_conditioning_witness_is_flagged_degraded(
        self, n, shift
    ):
        # the fp32 answer's backward error alone passes here; its
        # conditioning witness does not, so the host factor answers
        from repro.matrices import random_spd

        a = random_spd(n, avg_degree=4, seed=3, shift=shift)
        with SolverService(n_workers=1, policy="P4") as svc, make_app(svc) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka",
                json={"matrix": encode_matrix(a), "rhs": [1.0] * n},
            )
        doc = r.json()
        assert r.status == 200
        assert doc["degraded"] is True
        assert doc["backward_error"] <= 1e-12

    def test_over_the_bound_after_the_fallback_is_a_numerical_error(
        self, monkeypatch
    ):
        import repro.service.service as service_mod
        from repro.multifrontal import iterative_refinement

        def over_bound(*args, **kwargs):
            res = iterative_refinement(*args, **kwargs)
            res.residual_norms[-1] = res.residual_norms[-1] + 1.0
            res.converged[:] = False
            return res

        monkeypatch.setattr(service_mod, "iterative_refinement", over_bound)
        with SolverService(n_workers=1) as svc, make_app(svc) as app:
            r = InProcessClient(app).post(
                "/v1/solve", api_key="ka",
                json={"matrix": DOC_SMALL, "rhs": RHS_SMALL},
            )
        assert r.status == 422
        err = r.json()["error"]
        assert err["code"] == "numerical_error"
        assert "backward error" in err["message"]

    def test_rate_limited_envelope_carries_retry_after(self, service):
        with make_app(service, rate=10.0, burst=2) as app:
            c = InProcessClient(app)
            body = {"matrix": DOC_SMALL, "rhs": RHS_SMALL}
            assert c.post("/v1/solve", api_key="ka", json=body).status == 200
            assert c.post("/v1/solve", api_key="ka", json=body).status == 200
            r = c.post("/v1/solve", api_key="ka", json=body)
            assert r.status == 429
            err = r.json()["error"]
            assert err["code"] == "rate_limited"
            assert err["retry_after_ms"] > 0
            # bob has his own bucket and is still admitted
            assert c.post("/v1/solve", api_key="kb", json=body).status == 200

    def test_job_submit_poll_cancel(self, service):
        with make_app(service) as app:
            c = InProcessClient(app)
            r = c.post("/v1/factorize", api_key="ka",
                       json={"matrix": DOC_SMALL})
            assert r.status == 202
            jid = r.json()["job_id"]
            assert c.get(f"/v1/jobs/{jid}",
                         api_key="ka").json()["state"] == "queued"
            # bob cannot see alice's job
            assert c.get(f"/v1/jobs/{jid}", api_key="kb").status == 404
            app.pump()
            done = c.get(f"/v1/jobs/{jid}", api_key="ka").json()
            assert done["state"] == "done"
            assert done["result"]["degraded"] is False
            # cancelling a finished job is a conflict
            r = c.delete(f"/v1/jobs/{jid}", api_key="ka")
            assert r.status == 409
            assert r.json()["error"]["code"] == "conflict"
            # a queued job cancels cleanly and never runs
            jid2 = c.post("/v1/factorize", api_key="ka",
                          json={"matrix": DOC_SMALL}).json()["job_id"]
            assert c.delete(f"/v1/jobs/{jid2}",
                            api_key="ka").json()["state"] == "cancelled"
            assert app.pump() == 0

    def test_overload_sheds_with_envelope(self, service):
        with make_app(service, edge_capacity=2, rate=1000.0,
                      burst=100) as app:
            c = InProcessClient(app)
            results = [
                c.post("/v1/factorize", api_key="ka",
                       json={"matrix": DOC_SMALL})
                for _ in range(4)
            ]
            assert [r.status for r in results] == [202, 202, 429, 429]
            err = results[-1].json()["error"]
            assert err["code"] == "overloaded"
            assert err["retry_after_ms"] > 0
            snap = app.metrics.snapshot()
            assert snap["counter.edge.shed_queue_full"] == 2
            # the shed submissions left no ghost jobs behind
            assert len(app.jobs) == 2

    def test_memory_pressure_sheds(self, service):
        with make_app(service, memory_threshold=0.0 + 1e-9) as app:
            # threshold ~0: any cache utilization at all sheds
            app.edge.memory_threshold = 0.0 + 1e-12
            c = InProcessClient(app)
            service.solve(A_SMALL, np.ones(A_SMALL.n_rows))  # warm cache
            r = c.post("/v1/solve", api_key="ka",
                       json={"matrix": DOC_SMALL, "rhs": RHS_SMALL})
            assert r.status == 429
            assert r.json()["error"]["code"] == "overloaded"
            assert "memory" in r.json()["error"]["message"]

    def test_expired_deadline_is_504_and_never_reaches_the_cache(self):
        svc = SolverService(n_workers=1, policy="P1", ordering="amd")
        try:
            with make_app(svc) as app:
                c = InProcessClient(app)
                before = len(svc.cache)
                r = c.post("/v1/solve", api_key="ka",
                           json={"matrix": DOC_SMALL, "rhs": RHS_SMALL,
                                 "deadline_ms": 0})
                assert r.status == 504
                assert r.json()["error"]["code"] == "deadline_exceeded"
                assert len(svc.cache) == before       # nothing was cached
                snap = app.metrics.snapshot()
                assert snap["counter.api.deadline_exceeded"] == 1
        finally:
            svc.shutdown()

    def test_expired_job_deadline_marks_job(self, service):
        clock = ManualClock()
        with make_app(service, clock=clock) as app:
            c = InProcessClient(app)
            jid = c.post("/v1/factorize", api_key="ka",
                         json={"matrix": DOC_SMALL, "deadline_ms": 100},
                         ).json()["job_id"]
            clock.advance(1.0)                        # expire while queued
            app.pump()
            doc = c.get(f"/v1/jobs/{jid}", api_key="ka").json()
            assert doc["state"] == "deadline_exceeded"
            assert doc["error"]["code"] == "deadline_exceeded"

    def test_request_id_threads_into_spans(self, service):
        with make_app(service, metrics=ServiceMetrics()) as app:
            c = InProcessClient(app)
            c.get("/v1/healthz", headers={"x-request-id": "trace-42"})
            spans = app.metrics._spans
            assert any(
                s.name == "trace-42:api" and s.engine == "cpu.api"
                for s in spans
            )

    def test_asgi_lifespan_and_multi_chunk_body(self, service):
        with make_app(service) as app:
            received = []

            async def recv_lifespan():
                return ({"type": "lifespan.startup"} if not received
                        else {"type": "lifespan.shutdown"})

            async def send(m):
                received.append(m["type"])

            coro = app({"type": "lifespan"}, recv_lifespan, send)
            try:
                while True:
                    coro.send(None)
            except StopIteration:
                pass
            assert received == [
                "lifespan.startup.complete", "lifespan.shutdown.complete",
            ]

    def test_threaded_dispatcher_serves_sync_solves(self, service):
        app = ApiApp(service, api_keys={"k": "x"}, dispatcher="thread",
                     n_dispatchers=2)
        try:
            c = InProcessClient(app)
            rs = [
                c.post("/v1/solve", api_key="k",
                       json={"matrix": DOC_SMALL, "rhs": RHS_SMALL})
                for _ in range(4)
            ]
            assert [r.status for r in rs] == [200] * 4
        finally:
            app.close()

    def test_http_bridge_speaks_the_same_protocol(self, service):
        import urllib.error
        import urllib.request

        from repro.api import serve_http

        with make_app(service, dispatcher="thread") as app:
            server = serve_http(app, "127.0.0.1", 0)
            port = server.server_address[1]
            t = threading.Thread(target=server.serve_forever, daemon=True)
            t.start()
            try:
                body = json.dumps(
                    {"matrix": DOC_SMALL, "rhs": RHS_SMALL}).encode()
                req = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/solve", data=body,
                    headers={"x-api-key": "ka"}, method="POST",
                )
                with urllib.request.urlopen(req, timeout=30) as r:
                    assert r.status == 200
                    assert json.loads(r.read())["tier"] in (
                        "miss", "symbolic", "numeric", "batched",
                    )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/v1/metricsz", timeout=30)
                assert err.value.code == 404
            finally:
                server.shutdown()


# ----------------------------------------------------------------------
# shed responses are always well-formed envelopes (property)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@given(
    capacity=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=1, max_value=6),
)
def test_shed_requests_always_get_the_envelope(capacity, extra):
    svc = SolverService(n_workers=1, policy="P1", ordering="amd")
    try:
        with make_app(svc, edge_capacity=capacity, rate=1000.0,
                      burst=50) as app:
            c = InProcessClient(app)
            sheds = 0
            for _ in range(capacity + extra):
                r = c.post("/v1/factorize", api_key="ka",
                           json={"matrix": DOC_SMALL})
                if r.status != 202:
                    sheds += 1
                    assert r.status == ERROR_STATUS["overloaded"]
                    err = r.json()["error"]
                    assert set(err) == {
                        "code", "message", "request_id", "retry_after_ms",
                    }
                    assert err["code"] == "overloaded"
                    assert "Traceback" not in err["message"]
            assert sheds == extra
    finally:
        svc.shutdown()


# ----------------------------------------------------------------------
# end-to-end acceptance: 1000 clients over a 4-node fleet
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_thousand_clients_over_four_node_fleet(self):
        report = run_load(n_clients=1000, n_nodes=4)
        # zero unhandled exceptions / leaked tracebacks
        assert report.invalid_envelopes == 0
        # every request ended in exactly one known outcome
        allowed = {"served", "shed", "rate_limited", "deadline_exceeded",
                   "not_found", "conflict"}
        seen = {o for phase in report.phases.values() for o in phase}
        assert seen <= allowed
        assert report.total("internal") == 0
        # steady phase sheds nothing; the overload phase must shed
        assert report.phases["steady"] == {"served": 1000}
        assert report.phases["overload"]["shed"] > 0
        assert report.phases["deadline"] == {"deadline_exceeded": 8}
        assert report.phases["ratelimit"]["rate_limited"] > 0
        # async jobs all reached a terminal state
        assert set(report.job_states) <= {"done", "cancelled"}
        assert sum(report.job_states.values()) == 32

    def test_load_counters_are_bit_stable(self):
        kw = dict(n_clients=60, n_steady=80, edge_capacity=8,
                  overload_jobs=20, overload_clients=4, n_deadline=3)
        assert run_load(**kw).counters() == run_load(**kw).counters()


# ----------------------------------------------------------------------
# lint scope: repro.api is inside the concurrency fence
# ----------------------------------------------------------------------
class TestLintScopeApi:
    def test_api_in_concurrency_modules(self):
        from repro.lint import LintConfig

        assert "repro.api" in LintConfig().concurrency_modules

    def test_api_package_is_lint_clean(self):
        from repro.lint import run_lint

        res = run_lint([REPO / "src" / "repro" / "api"],
                       src_roots=[REPO / "src"])
        assert res.parse_errors == []
        assert [f.rule_id for f in res.findings] == []
