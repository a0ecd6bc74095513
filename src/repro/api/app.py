"""The ASGI front door: routing, middleware, admission, sync/async paths.

:class:`ApiApp` is a dependency-free ASGI application (``await
app(scope, receive, send)``) whose core, :meth:`ApiApp.handle`, is a
plain synchronous ``Request -> Response`` function — the ASGI adapter,
the stdlib HTTP bridge and the in-process test transport all call the
same core, so every transport exercises identical middleware, admission
and error paths.

Request lifecycle (the order is the contract)::

    request -> request-id -> route -> auth -> rate limit -> admission
            -> edge queue -> dispatch -> worker pool -> cache -> reply

* **sync path** — ``POST /v1/solve`` rides the edge queue like
  everything else (fairness and shedding apply), then blocks its caller
  until the entry is dispatched and served; cache hits make this the
  fast path.
* **async path** — ``POST /v1/factorize`` answers ``202`` with a job id
  once admitted; the dispatcher runs the factorization later and the
  client polls ``GET /v1/jobs/{id}`` (cancel with ``DELETE`` while
  queued).
* **backpressure** — the bounded :class:`~repro.api.admission.EdgeQueue`
  sheds on depth or on the service's memory/cache-pressure signal
  *before* any solver work is admitted, mirroring the runtime's
  memory-aware task admission; shed and rate-limited requests get the
  structured envelope, never a stack trace.

Dispatch runs on background threads by default; ``dispatcher="manual"``
turns the app into a deterministic state machine driven by explicit
:meth:`pump` calls — the mode the benchmark and the edge tests use.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.api.admission import EdgeEntry, EdgeQueue
from repro.api.jobs import JobState, JobStore
from repro.api.middleware import ApiKeyAuth, RateLimiter, RequestIds
from repro.api.protocol import (
    ApiError,
    Request,
    Response,
    error_response,
    json_response,
    parse_factorize_payload,
    parse_solve_payload,
    public_message,
)
from repro.dense.kernels import NotPositiveDefiniteError
from repro.multifrontal.refine import UncertifiedSolutionError

__all__ = ["ApiApp"]


class _SyncWaiter:
    """Completion slot for the synchronous solve path."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Response | None = None


class ApiApp:
    """Versioned JSON front door over a solver service (single or fleet).

    Parameters
    ----------
    service :
        A :class:`~repro.service.SolverService` or
        :class:`~repro.cluster.fleet.ShardedSolverService`; anything
        with ``solve(a, b, **kw)``, ``health()`` and ``metrics``.
    api_keys : dict or ApiKeyAuth
        ``key -> client`` identities; every data endpoint requires one.
    rate, burst, rate_overrides :
        Per-client token-bucket defaults (requests/second, bucket size)
        and per-client overrides.
    edge_capacity, memory_threshold :
        Admission bounds: total queued entries, and the cache-pressure
        level (from ``service.health()['cache_utilization']``) at or
        above which new work is shed.
    clock :
        Time source for rate limiting and edge deadlines
        (default ``time.monotonic``; tests inject
        :class:`~repro.api.middleware.ManualClock`).
    dispatcher : ``"thread"`` or ``"manual"``
        Background dispatch threads, or explicit :meth:`pump` driving.
    metrics :
        Metrics sink; defaults to ``service.metrics`` so API, edge and
        service instruments land in one ``/v1/metrics`` exposition.
    """

    def __init__(
        self,
        service: Any,
        *,
        api_keys: dict[str, str] | ApiKeyAuth,
        rate: float = 50.0,
        burst: int = 20,
        rate_overrides: dict[str, tuple[float, int]] | None = None,
        edge_capacity: int = 64,
        memory_threshold: float = 0.95,
        clock: Callable[[], float] | None = None,
        dispatcher: str = "thread",
        n_dispatchers: int = 2,
        metrics: Any = None,
        max_finished_jobs: int = 4096,
    ) -> None:
        if dispatcher not in ("thread", "manual"):
            raise ValueError("dispatcher must be 'thread' or 'manual'")
        self.service = service
        self.auth = (
            api_keys if isinstance(api_keys, ApiKeyAuth) else ApiKeyAuth(api_keys)
        )
        self.metrics = metrics if metrics is not None else service.metrics
        self._clock = clock if clock is not None else time.monotonic
        self.limiter = RateLimiter(
            rate, burst, clock=self._clock, overrides=rate_overrides
        )
        self.edge = EdgeQueue(
            edge_capacity,
            metrics=self.metrics,
            memory_signal=self._memory_pressure,
            memory_threshold=memory_threshold,
        )
        self.jobs = JobStore(max_finished=max_finished_jobs)
        self._rids = RequestIds()
        self._job_entries: dict[str, EdgeEntry] = {}
        self._job_entries_lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._closed = False
        self._dispatchers: list[threading.Thread] = []
        if dispatcher == "thread":
            self._dispatchers = [
                threading.Thread(
                    target=self._dispatch_loop, name=f"api-dispatch-{i}",
                    daemon=True,
                )
                for i in range(max(1, n_dispatchers))
            ]
            for t in self._dispatchers:
                t.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting and dispatching (the service stays up)."""
        self._closed = True
        self.edge.close()
        for t in self._dispatchers:
            t.join(timeout=5.0)

    def __enter__(self) -> "ApiApp":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ASGI surface
    # ------------------------------------------------------------------
    async def __call__(
        self,
        scope: dict[str, Any],
        receive: Callable[[], Any],
        send: Callable[[dict[str, Any]], Any],
    ) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    self.close()
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported scope type {scope['type']!r}")
        body = b""
        while True:
            message = await receive()
            body += message.get("body", b"")
            if not message.get("more_body"):
                break
        headers = {
            k.decode("latin-1").lower(): v.decode("latin-1")
            for k, v in scope.get("headers", [])
        }
        resp = self.handle(
            Request(scope["method"].upper(), scope["path"], headers, body)
        )
        await send({
            "type": "http.response.start",
            "status": resp.status,
            "headers": [
                (k.encode("latin-1"), v.encode("latin-1"))
                for k, v in resp.headers.items()
            ],
        })
        await send({"type": "http.response.body", "body": resp.body})

    # ------------------------------------------------------------------
    # request core
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """The transport-free core every adapter calls."""
        rid = self._rids.assign(request.headers)
        t0 = self._now()
        self.metrics.incr("api.requests")
        try:
            resp = self._route(request, rid)
        except ApiError as exc:
            resp = error_response(
                exc.code, exc.message, request_id=rid,
                retry_after_ms=exc.retry_after_ms,
            )
        except Exception as exc:  # envelope, never a stack trace
            resp = error_response(
                "internal", public_message(exc), request_id=rid
            )
        t1 = self._now()
        self._count_response(resp)
        self.metrics.observe("api.request", t1 - t0)
        self.metrics.span(f"{rid}:api", "api", "cpu.api", t0, t1)
        resp.headers.setdefault("x-request-id", rid)
        return resp

    def _count_response(self, resp: Response) -> None:
        if resp.status < 400:
            self.metrics.incr("api.served")
            return
        try:
            code = resp.json()["error"]["code"]
        except Exception:
            code = "internal"
        self.metrics.incr(f"api.error.{code}")
        if code == "deadline_exceeded":
            self.metrics.incr("api.deadline_exceeded")

    def _route(self, request: Request, rid: str) -> Response:
        path = request.path.rstrip("/") or "/"
        method = request.method
        if not path.startswith("/v1/"):
            raise ApiError(
                "not_found",
                f"unknown path {request.path!r}; this server speaks /v1 only",
            )
        tail = path[len("/v1/"):]
        if tail == "healthz":
            self._require(method, "GET")
            return self._healthz(rid)
        if tail == "metrics":
            self._require(method, "GET")
            # gauge mirrors (tier occupancy, shard rollups) are exported
            # on health() — refresh them so a bare scrape sees current
            # values rather than the last health check's
            self.service.health()
            return Response(
                200, self.metrics.render_text().encode(),
                {"content-type": "text/plain; charset=utf-8"},
            )
        if tail == "solve":
            self._require(method, "POST")
            client = self._authenticate(request)
            self._throttle(client)
            return self._solve(request, rid, client)
        if tail == "factorize":
            self._require(method, "POST")
            client = self._authenticate(request)
            self._throttle(client)
            return self._factorize(request, rid, client)
        if tail.startswith("jobs/"):
            job_id = tail[len("jobs/"):]
            client = self._authenticate(request)
            if method == "GET":
                return self._job_status(rid, client, job_id)
            if method == "DELETE":
                return self._job_cancel(rid, client, job_id)
            self._require(method, "GET")  # raises method_not_allowed
        raise ApiError("not_found", f"unknown path {request.path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ApiError(
                "method_not_allowed", f"use {expected} for this endpoint"
            )

    # ------------------------------------------------------------------
    # middleware steps
    # ------------------------------------------------------------------
    def _authenticate(self, request: Request) -> str:
        client = self.auth.client_for(request.headers)
        if client is None:
            raise ApiError(
                "unauthorized", "missing or unknown x-api-key header"
            )
        return client

    def _throttle(self, client: str) -> None:
        bucket = self.limiter.bucket(client)
        if not bucket.allow():
            retry_ms = (
                int(1000.0 / bucket.rate) + 1 if bucket.rate > 0 else 60_000
            )
            raise ApiError(
                "rate_limited",
                f"client {client!r} exceeded {bucket.rate:g} req/s "
                f"(burst {bucket.burst})",
                retry_after_ms=retry_ms,
            )

    def _memory_pressure(self) -> float:
        return float(self.service.health().get("cache_utilization", 0.0))

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _healthz(self, rid: str) -> Response:
        health = self.service.health()
        doc = {
            "status": health["status"],
            "service": health,
            "edge": {
                "queue_depth": self.edge.depth,
                "capacity": self.edge.capacity,
            },
            "jobs": self.jobs.counts(),
        }
        status = 200 if health.get("accepting") and not self._closed else 503
        return json_response(status, doc, request_id=rid)

    def _solve(self, request: Request, rid: str, client: str) -> Response:
        payload = parse_solve_payload(request.json())
        if self._closed:
            raise ApiError("unavailable", "server is shutting down")
        deadline = (
            None if payload.deadline_ms is None
            else self._clock() + payload.deadline_ms / 1000.0
        )
        waiter = _SyncWaiter()
        entry = EdgeEntry(
            client=client, request_id=rid, waiter=waiter, deadline=deadline,
            work=lambda timeout: self.service.solve(
                payload.a, payload.b, policy=payload.policy,
                tol=payload.tol, timeout=timeout,
            ),
        )
        self._admit_or_raise(entry)
        if not self._dispatchers:
            self._pump_until(waiter)
        waiter.event.wait()
        assert waiter.response is not None
        return waiter.response

    def _factorize(self, request: Request, rid: str, client: str) -> Response:
        payload = parse_factorize_payload(request.json())
        if self._closed:
            raise ApiError("unavailable", "server is shutting down")
        deadline = (
            None if payload.deadline_ms is None
            else self._clock() + payload.deadline_ms / 1000.0
        )
        job = self.jobs.create(client, rid, now=self._clock())
        # the factorization is driven through the ordinary solve path
        # with a zero right-hand side: it warms both cache tiers, and a
        # numeric-tier hit makes resubmission of a known matrix cheap
        entry = EdgeEntry(
            client=client, request_id=rid, job=job, deadline=deadline,
            work=lambda timeout: self.service.solve(
                payload.a, np.zeros(payload.a.n_rows),
                policy=payload.policy, timeout=timeout,
            ),
        )
        with self._job_entries_lock:
            self._job_entries[job.job_id] = entry
        try:
            self._admit_or_raise(entry)
        except ApiError:
            with self._job_entries_lock:
                self._job_entries.pop(job.job_id, None)
            self.jobs.drop(job)
            raise
        self.metrics.incr("api.jobs_submitted")
        return json_response(
            202, {"job_id": job.job_id, "state": job.state}, request_id=rid
        )

    def _job_status(self, rid: str, client: str, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None or job.client != client:
            # a foreign job id is indistinguishable from an unknown one
            raise ApiError("not_found", f"no job {job_id!r}")
        return json_response(200, job.describe(), request_id=rid)

    def _job_cancel(self, rid: str, client: str, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None or job.client != client:
            raise ApiError("not_found", f"no job {job_id!r}")
        if not self.jobs.transition(
            job, JobState.CANCELLED, now=self._clock()
        ):
            raise ApiError(
                "conflict",
                f"job {job_id} is {job.state} and can no longer be cancelled",
            )
        entry = self._take_job_entry(job_id)
        if entry is not None:
            entry.cancelled = True
            self.edge.remove(entry)
        self.metrics.incr("api.jobs_cancelled")
        return json_response(200, job.describe(), request_id=rid)

    # ------------------------------------------------------------------
    # admission + dispatch
    # ------------------------------------------------------------------
    def _admit_or_raise(self, entry: EdgeEntry) -> None:
        reason = self.edge.admit(entry)
        if reason is None:
            return
        if reason == "memory_pressure":
            detail = "factor-cache memory pressure"
        elif reason == "closed":
            raise ApiError("unavailable", "server is shutting down")
        else:
            detail = f"edge queue full ({self.edge.capacity} entries)"
        raise ApiError(
            "overloaded", f"request shed: {detail}", retry_after_ms=1000
        )

    def pump(self, max_entries: int | None = None) -> int:
        """Manual dispatch: process up to ``max_entries`` queued entries.

        Returns the number processed.  This is the deterministic drive
        used by the benchmark and the tests; with background
        dispatchers running it is still safe (pop is atomic), just
        unnecessary.
        """
        done = 0
        while max_entries is None or done < max_entries:
            entry = self.edge.pop()
            if entry is None:
                break
            self._process_entry(entry)
            done += 1
        return done

    def _pump_until(self, waiter: _SyncWaiter) -> None:
        while not waiter.event.is_set():
            entry = self.edge.pop()
            if entry is None:
                break
            self._process_entry(entry)

    def _dispatch_loop(self) -> None:
        while True:
            entry = self.edge.pop(wait=True, timeout=0.2)
            if entry is None:
                if self._closed:
                    return
                continue
            try:
                self._process_entry(entry)
            except BaseException:  # pragma: no cover - never kill a dispatcher
                self.metrics.incr("api.dispatch_errors")

    def _take_job_entry(self, job_id: str) -> EdgeEntry | None:
        with self._job_entries_lock:
            return self._job_entries.pop(job_id, None)

    def _process_entry(self, entry: EdgeEntry) -> None:
        """Run one admitted entry to completion (no locks held here)."""
        if entry.job is not None:
            self._take_job_entry(entry.job.job_id)
            if entry.cancelled or entry.job.state != JobState.QUEUED:
                return
        timeout = None
        if entry.deadline is not None:
            timeout = entry.deadline - self._clock()
            if timeout <= 0:
                self._finish(entry, error=(
                    "deadline_exceeded",
                    "deadline expired while queued at the edge",
                ))
                return
        if entry.job is not None and not self.jobs.transition(
            entry.job, JobState.RUNNING, now=self._clock()
        ):
            return  # lost a cancellation race; the job is terminal
        try:
            outcome = entry.work(timeout)
        except TimeoutError:
            self._finish(entry, error=(
                "deadline_exceeded", "deadline expired before service",
            ))
        except NotPositiveDefiniteError as exc:
            self._finish(entry, error=(
                "numerical_error",
                f"matrix is not positive definite: {public_message(exc)}",
            ))
        except UncertifiedSolutionError as exc:
            self._finish(entry, error=(
                "numerical_error", f"no certified answer: {public_message(exc)}",
            ))
        except (ValueError, KeyError) as exc:
            self._finish(entry, error=("invalid_request", public_message(exc)))
        except RuntimeError as exc:
            self._finish(entry, error=("unavailable", public_message(exc)))
        except Exception as exc:  # envelope, never a stack trace
            self._finish(entry, error=("internal", public_message(exc)))
        else:
            self._finish(entry, outcome=outcome)

    def _finish(self, entry: EdgeEntry, *, outcome: Any = None,
                error: tuple[str, str] | None = None) -> None:
        if entry.job is not None:
            job = entry.job
            if error is not None:
                code, message = error
                state = (
                    JobState.DEADLINE_EXCEEDED
                    if code == "deadline_exceeded" else JobState.FAILED
                )
                if self.jobs.transition(
                    job, state, now=self._clock(), error=error
                ):
                    if state == JobState.DEADLINE_EXCEEDED:
                        self.metrics.incr("api.jobs_expired")
                        self.metrics.incr("api.deadline_exceeded")
                    else:
                        self.metrics.incr("api.jobs_failed")
            else:
                result = {
                    "tier": outcome.tier,
                    "degraded": outcome.degraded,
                    "n": int(outcome.x.shape[0]),
                    "cached": not outcome.degraded,
                }
                if self.jobs.transition(
                    job, JobState.DONE, now=self._clock(), result=result
                ):
                    self.metrics.incr("api.jobs_completed")
            return
        waiter = entry.waiter
        assert waiter is not None
        if error is not None:
            code, message = error
            waiter.response = error_response(
                code, message, request_id=entry.request_id
            )
        else:
            self.metrics.incr("api.solved")
            waiter.response = json_response(200, {
                "request_id": entry.request_id,
                "x": outcome.x.tolist(),
                "tier": outcome.tier,
                "degraded": outcome.degraded,
                "batch_size": outcome.batch_size,
                "backward_error": outcome.backward_error,
                "refine_iterations": outcome.refine_iterations,
            }, request_id=entry.request_id)
        waiter.event.set()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._t0
