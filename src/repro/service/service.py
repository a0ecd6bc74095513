"""Solver-as-a-service: a concurrent front-end over the multifrontal solver.

:class:`SolverService` accepts solve requests (matrix + right-hand side)
on a thread-safe queue and drives a pool of worker threads, reusing
factorizations through the :class:`FactorizationCache`, which answers
a lookup with one of two kinds of entry:

* **numeric hit** — the exact matrix (pattern *and* values) was factored
  before: go straight to the triangular solves, zero factorization
  work;
* **symbolic hit** — the pattern was analyzed before with the same
  ordering/amalgamation settings: skip ordering + symbolic analysis and
  re-run only the numeric factorization
  (:meth:`SparseCholeskySolver.from_symbolic`);
* **miss** — full ``analyze().factorize()`` pipeline; both kinds of
  entry are populated for the requests that follow.

Every answer leaves through one path: the queued requests for the same
factor, ``tol`` and ``max_iter`` (:mod:`repro.service.batching`) take
one block ``iterative_refinement`` call, whose backward error per column
is the certificate the answer carries.

Requests carry optional deadlines — an expired request is completed
with :class:`TimeoutError`, never silently dropped — and degrade
through one path: when the factorization raises, or when an answer
from any factor, cached or fresh, is not certified, it is re-solved on
the host-fallback factor and flagged ``degraded``; uncertified again, it
fails with :class:`~repro.multifrontal.refine.UncertifiedSolutionError`.
The fallback factor is never published under the key of the factor
that failed: beside a factor the request's policy computed it is kept
under the key a ``policy="P1"`` request of the matrix uses, so a
repeated ill-conditioned request factors nothing; after a raise it is
published nowhere, and the next request tries its policy again.  A
:class:`~repro.dense.kernels.NotPositiveDefiniteError` degrades the
same way unless the host policy raised it: from fp32 fronts it can
mean only that cond(A) * u32 reaches 1, and an indefinite matrix
raises it again from the fallback.

Every stage is timed into :class:`ServiceMetrics` (latency histograms,
cache and batch counters, queue-depth gauge, Chrome-trace spans).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.device import SimulatedNode
from repro.multifrontal.refine import (
    UncertifiedSolutionError, backward_error_bound, iterative_refinement,
)
from repro.multifrontal.solve import check_rhs
from repro.multifrontal.solver import SparseCholeskySolver
from repro.policies.base import Policy, PolicyP1
from repro.service.batching import BatchPlan
from repro.service.cache import FactorizationCache
from repro.service.keys import matrix_key
from repro.service.metrics import ServiceMetrics
from repro.symbolic.supernodes import AmalgamationParams

__all__ = ["SolveOutcome", "SolveRequest", "SolverService"]


@dataclass
class SolveOutcome:
    """What a completed request resolves to."""

    x: np.ndarray
    request_id: int
    tier: str                      # "numeric" | "symbolic" | "miss" | "batched"
    degraded: bool = False         # x is from a fresh host-fallback factor
    batch_size: int = 1            # how many requests shared the solve call
    backward_error: float = 0.0    # normwise, the largest over x's columns
    refine_iterations: int = 0     # correction steps x took
    timings: dict[str, float] = field(default_factory=dict)


class SolveRequest:
    """Future-like handle returned by :meth:`SolverService.submit`."""

    __slots__ = (
        "request_id", "canonical", "b", "sym_key", "num_key", "host_key",
        "policy_spec", "tol", "max_iter", "deadline", "submitted",
        "_event", "_outcome", "_error",
    )

    def __init__(self, request_id: int, canonical, b, *, sym_key, num_key,
                 host_key, policy_spec, tol, max_iter, deadline, submitted):
        self.request_id = request_id
        self.canonical = canonical
        self.b = b
        self.sym_key = sym_key
        self.num_key = num_key
        self.host_key = host_key
        self.policy_spec = policy_spec
        self.tol = tol
        self.max_iter = max_iter
        self.deadline = deadline
        self.submitted = submitted
        self._event = threading.Event()
        self._outcome: SolveOutcome | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SolveOutcome:
        """Block until the request completes; raises its error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    # -- worker side -------------------------------------------------------
    def _fulfill(self, outcome: SolveOutcome) -> None:
        self._outcome = outcome
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class SolverService:
    """Concurrent solve service with pattern-keyed factorization reuse.

    Parameters
    ----------
    n_workers : int
        Worker threads driving solves.
    policy : str or Policy
        Default placement policy for factorizations (per-request override
        via :meth:`submit`).
    ordering, amalgamation :
        Symbolic-analysis settings; part of the symbolic cache key.
    cache : FactorizationCache, optional
        The cache to serve from — shared with another service, or built
        over storage tiers below RAM (``TierConfig(...).build()``); by
        default a fresh RAM-only one bounded by ``max_cache_bytes``.
    max_batch : int
        Upper bound on requests aggregated into one solve call.
    node_factory : callable, optional
        Builds the :class:`SimulatedNode` each factorization runs on,
        serially (one per factorization: workers share no engine state).

    Every answer carries its normwise backward error, within
    ``max(tol, n * u64)``: a poisoned cache entry shows up there, on
    the request that reads it.
    """

    def __init__(
        self,
        *,
        n_workers: int = 2,
        policy: str | Policy = "P1",
        ordering: str = "amd",
        amalgamation: AmalgamationParams | None = None,
        cache: FactorizationCache | None = None,
        max_cache_bytes: int = 256 << 20,
        max_batch: int = 32,
        metrics: ServiceMetrics | None = None,
        node_factory=None,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.policy = policy
        self.ordering = ordering
        self.amalgamation = amalgamation
        self.cache = (
            cache if cache is not None
            else FactorizationCache(max_bytes=max_cache_bytes)
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_batch = int(max_batch)
        self._node_factory = node_factory or (
            lambda: SimulatedNode(n_cpus=1, n_gpus=1)
        )
        self._classifier = None
        self._classifier_lock = threading.Lock()
        self._queue: deque[SolveRequest] = deque()
        self._cond = threading.Condition()
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self._stop = False
        self._next_id = 0
        self._t0 = time.perf_counter()
        self._amalg_tag = repr(
            amalgamation if amalgamation is not None else AmalgamationParams()
        )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"solver-worker-{i}", daemon=True,
            )
            for i in range(n_workers)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        a,
        b,
        *,
        policy: str | Policy | None = None,
        timeout: float | None = None,
        refine: bool = False,
        tol: float = 1e-12,
        max_iter: int = 5,
    ) -> SolveRequest:
        """Enqueue ``A x = b``; returns a future-like :class:`SolveRequest`.

        ``timeout`` is a deadline in seconds from submission: a request
        still queued past it completes with :class:`TimeoutError`.
        ``tol`` is the target refinement aims for, within
        ``max(tol, n * u64)``; the conditioning witness of
        :func:`~repro.multifrontal.refine.iterative_refinement` holds
        whatever ``tol`` is.  ``max_iter`` bounds the steps; every
        request is refined, so ``refine`` has no effect.
        """
        if not (np.isfinite(tol) and tol >= 0 and max_iter >= 0):
            raise ValueError(f"need a finite tol >= 0 and max_iter >= 0, got {tol!r}, {max_iter!r}")
        now = time.perf_counter()
        key, canonical = matrix_key(a)
        b = check_rhs(b, canonical.n_rows)
        spec = policy if policy is not None else self.policy
        sym_key, num_key = self._derive_keys(key, spec)
        host_key = self._derive_keys(key, "P1")[1]
        if host_key == num_key or type(self._fallback_policy(spec)) is not PolicyP1:
            host_key = None
        with self._cond:
            # checked under the lock: a shutdown seen here is definitive,
            # not a stale read racing _shutdown's write
            if self._stop:
                raise RuntimeError("service is shut down")
            self._next_id += 1
            req = SolveRequest(
                self._next_id, canonical, b,
                sym_key=sym_key,
                num_key=num_key,
                host_key=host_key,
                policy_spec=spec,
                tol=float(tol), max_iter=int(max_iter),
                deadline=None if timeout is None else now + timeout,
                submitted=now,
            )
            self._queue.append(req)
            depth = len(self._queue)
            self._cond.notify()
        self.metrics.incr("submitted")
        self.metrics.gauge("queue_depth", depth)
        return req

    def solve(self, a, b, **kwargs) -> SolveOutcome:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(a, b, **kwargs).result()

    def _derive_keys(self, key, spec) -> tuple[str, str]:
        return (
            f"{key.pattern}|ord={self.ordering}|{self._amalg_tag}",
            f"{key.values}|ord={self.ordering}|pol={self._policy_tag(spec)}",
        )

    def keys_for(self, a, *, policy=None) -> tuple[str, str]:
        """The (symbolic, numeric) cache keys a submit of ``a`` would
        use — the fleet router derives peer-probe keys through this so
        they can never drift from the service's own."""
        key, _ = matrix_key(a)
        spec = policy if policy is not None else self.policy
        return self._derive_keys(key, spec)

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work; workers drain the queue, then exit."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if wait:
            for w in self._workers:
                w.join()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def health(self) -> dict:
        """Cheap liveness/pressure snapshot — no locks beyond the
        queue's and the cache's own.

        This is the serving-layer admission hook: the API front door
        polls it per request to decide whether to keep admitting work,
        so it must stay O(1) — counters and gauges only (one row per
        cache tier), never a factorization or a cache walk.
        """
        with self._cond:
            queue_depth = len(self._queue)
            accepting = not self._stop
        out = {
            "status": "ok" if accepting else "stopped",
            "accepting": accepting,
            "workers": len(self._workers),
            "queue_depth": queue_depth,
            "cache_entries": len(self.cache),
            "cache_bytes": self.cache.stored_bytes,
            "cache_max_bytes": self.cache.max_bytes,
            "cache_utilization": self.cache.stored_bytes / self.cache.max_bytes,
        }
        tiers = self._tier_stats()
        out["cache_resident_bytes"] = self.cache.total_resident_bytes()
        out["cache_tiers"] = {
            name: {
                "resident_bytes": st["resident_bytes"],
                "capacity_bytes": st["capacity_bytes"],
                "entries": st["entries"],
            }
            for name, st in tiers.items()
        }
        return out

    def _tier_stats(self) -> dict:
        """The cache's per-tier counters, mirrored into gauges on the
        way out."""
        tiers = self.cache.tier_stats()
        self.metrics.gauge_tiers(tiers)
        self.metrics.gauge(
            "tier.transfer_seconds", self.cache.transfer_seconds
        )
        return tiers

    def report(self) -> dict:
        """Merged metrics + cache statistics snapshot."""
        tiers = self._tier_stats()
        out = self.metrics.report()
        out["cache"] = dict(self.cache.stats)
        out["cache"]["stored_bytes"] = self.cache.stored_bytes
        out["cache"]["entries"] = len(self.cache)
        out["cache"]["pattern_hit_rate"] = self.cache.pattern_hit_rate
        out["cache"]["numeric_hit_rate"] = self.cache.numeric_hit_rate
        out["cache"]["tiers"] = tiers
        out["cache"]["ledger"] = dict(self.cache.ledger)
        out["cache"]["transfer_seconds"] = self.cache.transfer_seconds
        return out

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    @staticmethod
    def _policy_tag(spec) -> str:
        if isinstance(spec, Policy):
            return spec.name
        return str(spec).lower()

    def _worker_loop(self, idx: int) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._queue:
                    req = self._queue.popleft()
                else:  # stopped and drained
                    return
            try:
                self._process(req, idx)
            except BaseException as exc:  # never let a worker die silently
                self.metrics.incr("failed")
                if not req.done():
                    req._fail(exc)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _build_solver(self, canonical, symbolic, spec) -> SparseCholeskySolver:
        classifier = None
        if not isinstance(spec, Policy) and str(spec).lower() == "model":
            with self._classifier_lock:
                classifier = self._classifier
            if classifier is None:
                from repro.autotune import train_default_classifier

                # train outside the lock: training takes whole seconds
                # and would stall every worker resolving a "model"
                # policy; losers of the publish race discard their copy
                trained = train_default_classifier(self._node_factory().model)
                with self._classifier_lock:
                    if self._classifier is None:
                        self._classifier = trained
                    classifier = self._classifier
        if symbolic is not None:
            return SparseCholeskySolver.from_symbolic(
                canonical, symbolic, policy=spec,
                node=self._node_factory(), classifier=classifier,
            )
        return SparseCholeskySolver(
            canonical, ordering=self.ordering, policy=spec,
            node=self._node_factory(), amalgamation=self.amalgamation,
            classifier=classifier,
        )

    def _process(self, req: SolveRequest, worker: int) -> None:
        # the cpu. prefix keys the Chrome-trace exporter's lane ordering
        # (repro.gpu.trace._ENGINE_ORDER)
        engine = f"cpu.worker{worker}"
        now = time.perf_counter()
        self.metrics.observe("queue_wait", now - req.submitted)
        self.metrics.gauge("queue_depth", len(self._queue))
        if req.deadline is not None and now > req.deadline:
            self._expire(req)
            return

        factor, tier, degraded = self._resolve_factor(req, engine)

        batch = [req]
        if self.max_batch > 1:
            batch += self._collect_batch(req)
        try:
            self._answer(req, batch, factor, tier, degraded, engine)
        except BaseException as exc:
            self.metrics.incr("failed", len(batch) - 1)
            for r in batch[1:]:  # the worker loop fails the anchor
                r._fail(exc)
            raise

    def _answer(self, req, batch, factor, tier, degraded, engine) -> None:
        """Stack the right-hand sides, one block refinement, scatter;
        uncertified, the block once more on a fresh fallback factor."""
        plan = BatchPlan.build(batch, req.canonical.n_rows)
        t0 = self._now()
        while True:
            res = iterative_refinement(
                req.canonical, factor, plan.block, tol=req.tol, max_iter=req.max_iter
            )
            if degraded or res.converged.all():
                break
            factor = self._fallback_factor(req, factor.sf, keep=True)
            degraded = True
        t1 = self._now()
        self.metrics.observe("solve", t1 - t0)
        self.metrics.span(f"req{req.request_id}:solve", "solve", engine, t0, t1)
        self.metrics.observe("batch_size", len(batch))
        if len(batch) > 1:
            self.metrics.incr("batches")
            self.metrics.incr("batched_requests", len(batch) - 1)

        for (r, xr), cols in zip(plan.scatter(res.x), plan.columns):
            eta = float(res.final_residual[cols].max())
            steps = int(res.iterations[cols].max())
            self.metrics.observe("refine_iterations", steps)
            if not res.converged[cols].all():
                self.metrics.incr("failed")
                bound = backward_error_bound(req.canonical.n_rows, req.tol)
                r._fail(UncertifiedSolutionError(f"backward error {eta:.3e} exceeds {bound:.3e}"))
                continue
            # batch members rode the anchor's factor: from the request's
            # point of view that is a full factorization reuse
            r_tier = tier if r is req else "batched"
            done = time.perf_counter()
            self.metrics.observe("total", done - r.submitted)
            self.metrics.incr("completed")
            self.metrics.incr(f"requests_{r_tier}")
            r._fulfill(
                SolveOutcome(
                    x=xr,
                    request_id=r.request_id,
                    tier=r_tier,
                    degraded=degraded,
                    batch_size=len(batch),
                    backward_error=eta,
                    refine_iterations=steps,
                    timings={"total": done - r.submitted},
                )
            )

    @staticmethod
    def _fallback_policy(spec) -> Policy:
        return spec.fallback if isinstance(spec, Policy) else Policy.fallback

    def _fallback_factor(self, req: SolveRequest, symbolic, *, keep: bool):
        """The one degradation path: ``req``'s matrix under its policy's
        host fallback.  The factor is read from, and when ``keep`` put
        under, ``req.host_key`` — the key a ``policy="P1"`` request of the
        matrix uses, never the key of the factor that failed (``None``
        where the two coincide, or the fallback is not the plain host
        policy: then it is always fresh and published nowhere).  The
        ``degraded`` counter counts the fallback factorizations."""
        key = req.host_key
        factor = None if key is None else self.cache.get_numeric(key)
        if factor is not None:
            return factor
        self.metrics.incr("degraded")
        factor = SparseCholeskySolver.from_symbolic(
            req.canonical, symbolic, policy=self._fallback_policy(req.policy_spec),
            node=self._node_factory(),
        ).factorize().factor
        if keep and key is not None:
            self.cache.put_numeric(key, factor)
        return factor

    def _expire(self, req: SolveRequest) -> None:
        self.metrics.incr("timeouts")
        req._fail(
            TimeoutError(
                f"request {req.request_id} missed its deadline before service"
            )
        )

    # -- factor resolution -------------------------------------------------
    def _resolve_factor(self, req: SolveRequest, engine: str):
        look = self.cache.lookup(req.sym_key, req.num_key)
        if look.tier == FactorizationCache.NUMERIC:
            return look.numeric, "numeric", False

        # in-flight coalescing: if another worker is already factoring this
        # exact (values, policy) key, wait for it instead of duplicating
        # the factorization
        with self._inflight_lock:
            pending = self._inflight.get(req.num_key)
            if pending is None:
                self._inflight[req.num_key] = threading.Event()
        if pending is not None:
            pending.wait()
            look = self.cache.lookup(req.sym_key, req.num_key)
            if look.tier == FactorizationCache.NUMERIC:
                return look.numeric, "numeric", False
            # the owner failed or was evicted immediately; compute ourselves
            # (without registering — worst case is one duplicated factor)
            return self._compute_factor(req, engine, look)
        try:
            return self._compute_factor(req, engine, look)
        finally:
            with self._inflight_lock:
                event = self._inflight.pop(req.num_key, None)
            if event is not None:
                event.set()

    def _compute_factor(self, req: SolveRequest, engine: str, look):
        if look.tier == FactorizationCache.SYMBOLIC:
            solver = self._build_solver(
                req.canonical, look.symbolic, req.policy_spec
            )
        else:
            t0 = self._now()
            solver = self._build_solver(req.canonical, None, req.policy_spec)
            solver.analyze()
            t1 = self._now()
            self.metrics.observe("analyze", t1 - t0)
            self.metrics.span(
                f"req{req.request_id}:analyze", "analyze", engine, t0, t1
            )
            self.cache.put_symbolic(req.sym_key, solver.symbolic)

        t0 = self._now()
        try:
            factor, degraded = solver.factorize().factor, False
        except Exception as exc:
            # a breakdown under the host policy: the matrix is not SPD.
            # Anything else the GPU path raises, an fp32 breakdown among
            # them, is flagged, not dropped (an indefinite matrix raises
            # again from the fallback)
            if isinstance(exc, NotPositiveDefiniteError) and isinstance(
                solver.policy, PolicyP1
            ):
                raise
            # nothing is published for a policy that raised: the next
            # request tries it again
            factor = self._fallback_factor(req, solver.symbolic, keep=False)
            degraded = True
        t1 = self._now()
        self.metrics.incr("numeric_factorizations")
        self.metrics.observe("factorize", t1 - t0)
        self.metrics.span(
            f"req{req.request_id}:factorize", "factorize", engine, t0, t1
        )
        if not degraded:
            self.cache.put_numeric(req.num_key, factor)
        return factor, look.tier, degraded

    # -- batching ----------------------------------------------------------
    def _collect_batch(self, anchor: SolveRequest) -> list[SolveRequest]:
        """Drain queued requests solvable with ``anchor``'s factor and
        held to its certificate (same ``tol`` and ``max_iter``): one pass
        over the queue under its lock, nothing waited for."""
        got: list[SolveRequest] = []
        expired: list[SolveRequest] = []
        with self._cond:
            if self._queue:
                keep: deque[SolveRequest] = deque()
                while self._queue and len(got) < self.max_batch - 1:
                    cand = self._queue.popleft()
                    if (cand.num_key, cand.tol, cand.max_iter) != (
                        anchor.num_key, anchor.tol, anchor.max_iter
                    ):
                        keep.append(cand)
                        continue
                    now = time.perf_counter()
                    if cand.deadline is not None and now > cand.deadline:
                        # expiry fires a client-visible Event; do it after
                        # the condition is released so a woken waiter can
                        # never re-enter the service while a worker still
                        # holds the queue lock
                        expired.append(cand)
                        continue
                    self.metrics.observe("queue_wait", now - cand.submitted)
                    got.append(cand)
                keep.extend(self._queue)
                self._queue = keep
        for cand in expired:
            self._expire(cand)
        return got
