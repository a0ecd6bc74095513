"""Deterministic phased load generation for the API front door.

One driver, two consumers: the ``api-throughput`` benchmark scenario
and the end-to-end acceptance test both call :func:`run_load`, so the
request stream that gates CI is exactly the stream a developer replays
locally with ``python -m repro bench --scenarios api-throughput``.

Everything is deterministic by construction: the app runs with
``dispatcher="manual"`` (no dispatch threads), a
:class:`~repro.api.middleware.ManualClock` is the only time source for
rate limiting and deadlines, requests are issued sequentially through
the in-process ASGI transport, and request/job ids are sequential.  The
same parameters therefore produce bit-identical outcome counts and
metric counters — which is what lets the benchmark harness treat them
as regression-gated invariants.

Four phases, each tallied separately:

* ``steady``    — every client solves once; nothing may be shed;
* ``overload``  — a burst of async factorize jobs exceeding the edge
  queue capacity: the overflow is shed with the structured envelope,
  a couple of admitted jobs are cancelled, the rest are pumped to
  completion and polled;
* ``deadline``  — solves with ``deadline_ms=0`` expire at dispatch and
  answer the 504-class ``deadline_exceeded`` envelope;
* ``ratelimit`` — one dedicated client bursts past its token bucket
  with the clock frozen; the overflow is rate limited.

Every response is classified into exactly one outcome
(``served`` / ``shed`` / ``rate_limited`` / ``deadline_exceeded`` / the
error code) and every non-2xx body is checked against the envelope
shape — a stack trace leaking to the wire counts as
``invalid_envelopes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.app import ApiApp
from repro.api.middleware import ManualClock
from repro.api.protocol import Response, encode_matrix
from repro.api.transport import InProcessClient

__all__ = ["LoadReport", "run_load"]

#: shape every error body must have — anything else is a leak
_ENVELOPE_KEYS = {"code", "message", "request_id", "retry_after_ms"}


@dataclass
class LoadReport:
    """Outcome tallies of one :func:`run_load` drive."""

    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    job_states: dict[str, int] = field(default_factory=dict)
    invalid_envelopes: int = 0
    metric_counters: dict[str, int] = field(default_factory=dict)

    def total(self, outcome: str) -> int:
        return sum(phase.get(outcome, 0) for phase in self.phases.values())

    @property
    def requests(self) -> int:
        return sum(sum(phase.values()) for phase in self.phases.values())

    def counters(self) -> dict[str, int]:
        """Flat, sorted, JSON-ready view for the deterministic bench."""
        out: dict[str, int] = {"invalid_envelopes": self.invalid_envelopes}
        for phase, outcomes in self.phases.items():
            for outcome, count in outcomes.items():
                out[f"phase.{phase}.{outcome}"] = count
        for status, count in self.statuses.items():
            out[f"status.{status}"] = count
        for state, count in self.job_states.items():
            out[f"job.{state}"] = count
        out.update(self.metric_counters)
        return dict(sorted(out.items()))


def _classify(resp: Response, report: LoadReport) -> str:
    """Map a response to its single outcome; police the envelope."""
    report.statuses[str(resp.status)] = (
        report.statuses.get(str(resp.status), 0) + 1
    )
    if resp.status in (200, 202):
        return "served"
    try:
        err = resp.json()["error"]
        ok = (
            isinstance(err, dict)
            and set(err) <= _ENVELOPE_KEYS
            and isinstance(err.get("code"), str)
            and isinstance(err.get("message"), str)
            and "request_id" in err
            and "Traceback" not in err["message"]
        )
    except Exception:
        ok = False
    if not ok:
        report.invalid_envelopes += 1
        return "invalid"
    code = resp.json()["error"]["code"]
    if code == "overloaded":
        return "shed"
    return code


def _tally(report: LoadReport, phase: str, outcome: str) -> None:
    bucket = report.phases.setdefault(phase, {})
    bucket[outcome] = bucket.get(outcome, 0) + 1


def _matrix_docs(n_patterns: int) -> list[tuple[dict, int]]:
    from repro.matrices import grid_laplacian_2d

    docs = []
    for p in range(n_patterns):
        a = grid_laplacian_2d(5 + p, 6 + p)
        docs.append((encode_matrix(a), a.n_rows))
    return docs


def run_load(
    *,
    n_clients: int = 1000,
    n_nodes: int = 4,
    n_steady: int | None = None,
    edge_capacity: int = 32,
    overload_jobs: int | None = None,
    overload_clients: int = 16,
    n_cancel: int = 2,
    n_deadline: int = 8,
    ratelimit_extra: int = 5,
    rate: float = 50.0,
    burst: int = 20,
    n_patterns: int = 3,
    service: Any = None,
) -> LoadReport:
    """Drive the four-phase deterministic load; returns the tallies.

    Builds a ``dispatcher="manual"`` :class:`~repro.api.app.ApiApp`
    over a fresh ``n_nodes``-shard fleet (or over ``service`` if one is
    supplied, which the caller then owns) and replays the phased
    request stream through the in-process ASGI transport.
    """
    from repro.cluster.fleet import ShardedSolverService

    if n_steady is None:
        n_steady = n_clients
    if overload_jobs is None:
        overload_jobs = 2 * edge_capacity
    overload_clients = max(1, min(overload_clients, n_clients))

    keys = {f"key-{i:04d}": f"client-{i:04d}" for i in range(n_clients)}
    keys["key-ratelimit"] = "client-ratelimit"
    clock = ManualClock()
    own_service = service is None
    if own_service:
        service = ShardedSolverService(
            n_nodes, n_workers_per_node=1, policy="P1", ordering="amd"
        )
    app = ApiApp(
        service, api_keys=keys, dispatcher="manual", clock=clock,
        edge_capacity=edge_capacity, rate=rate, burst=burst,
    )
    http = InProcessClient(app)
    docs = _matrix_docs(n_patterns)
    report = LoadReport()
    try:
        # phase 1: steady — one sync solve per client, pumped inline;
        # under capacity and under burst, so nothing may be shed
        for i in range(n_steady):
            doc, n = docs[i % len(docs)]
            resp = http.post("/v1/solve", api_key=f"key-{i % n_clients:04d}",
                             json={"matrix": doc, "rhs": [1.0] * n})
            _tally(report, "steady", _classify(resp, report))
            clock.advance(0.002)

        # phase 2: overload — async factorize burst past edge capacity
        # with no pumping; the overflow sheds deterministically
        job_ids: list[tuple[str, str]] = []
        for i in range(overload_jobs):
            doc, _ = docs[i % len(docs)]
            resp = http.post(
                "/v1/factorize", api_key=f"key-{i % overload_clients:04d}",
                json={"matrix": doc},
            )
            outcome = _classify(resp, report)
            _tally(report, "overload", outcome)
            if resp.status == 202:
                job_ids.append((resp.json()["job_id"],
                                f"key-{i % overload_clients:04d}"))
            clock.advance(1.0 / rate if rate > 0 else 0.0)
        for job_id, key in job_ids[:n_cancel]:
            resp = http.delete(f"/v1/jobs/{job_id}", api_key=key)
            _tally(report, "overload", _classify(resp, report))
        app.pump()
        for job_id, key in job_ids:
            resp = http.get(f"/v1/jobs/{job_id}", api_key=key)
            _tally(report, "overload", _classify(resp, report))
            if resp.status == 200:
                state = resp.json()["state"]
                report.job_states[state] = (
                    report.job_states.get(state, 0) + 1
                )

        # phase 3: deadline — already expired at dispatch, never served
        for i in range(n_deadline):
            doc, n = docs[i % len(docs)]
            resp = http.post(
                "/v1/solve", api_key=f"key-{i % n_clients:04d}",
                json={"matrix": doc, "rhs": [1.0] * n, "deadline_ms": 0},
            )
            _tally(report, "deadline", _classify(resp, report))

        # phase 4: ratelimit — frozen clock, dedicated client, so the
        # bucket admits exactly `burst` and sheds the rest
        for i in range(burst + ratelimit_extra):
            doc, n = docs[i % len(docs)]
            resp = http.post("/v1/solve", api_key="key-ratelimit",
                             json={"matrix": doc, "rhs": [1.0] * n})
            _tally(report, "ratelimit", _classify(resp, report))

        for name, value in app.metrics.snapshot().items():
            if name.startswith(("counter.api.", "counter.edge.")):
                report.metric_counters[name] = int(value)
    finally:
        app.close()
        if own_service:
            service.shutdown()
    return report
