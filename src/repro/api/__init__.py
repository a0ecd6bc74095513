"""repro.api — the async front door in front of the solver fleet.

A dependency-free ASGI application exposing the versioned JSON
endpoints ``/v1/solve``, ``/v1/factorize``, ``/v1/jobs/{id}``,
``/v1/healthz`` and ``/v1/metrics`` over a
:class:`~repro.service.SolverService` or a
:class:`~repro.cluster.fleet.ShardedSolverService`, with API-key auth,
per-client token-bucket rate limiting, bounded fair admission with load
shedding, and a submit-then-poll job store for large factorizations.

See ``docs/architecture.md`` ("API front door") for the request
lifecycle and the protocol reference.
"""

from repro.api.admission import EdgeEntry, EdgeQueue
from repro.api.app import ApiApp
from repro.api.jobs import Job, JobState, JobStore
from repro.api.loadgen import LoadReport, run_load
from repro.api.middleware import (
    ApiKeyAuth,
    ManualClock,
    RateLimiter,
    RequestIds,
    TokenBucket,
)
from repro.api.protocol import (
    API_VERSION,
    ERROR_STATUS,
    ApiError,
    Request,
    Response,
    decode_matrix,
    encode_matrix,
    error_response,
    json_response,
)
from repro.api.transport import InProcessClient, serve_http

__all__ = [
    "API_VERSION",
    "ERROR_STATUS",
    "ApiApp",
    "ApiError",
    "ApiKeyAuth",
    "EdgeEntry",
    "EdgeQueue",
    "InProcessClient",
    "Job",
    "JobState",
    "JobStore",
    "LoadReport",
    "ManualClock",
    "RateLimiter",
    "Request",
    "RequestIds",
    "Response",
    "TokenBucket",
    "decode_matrix",
    "encode_matrix",
    "error_response",
    "json_response",
    "run_load",
    "serve_http",
]
