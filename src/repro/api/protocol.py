"""The v1 wire protocol: JSON schemas, stable error codes, matrix codec.

Everything the front door says on the wire is defined here, away from
transport and policy concerns:

* **requests/responses** — small framework-free :class:`Request` /
  :class:`Response` records the ASGI adapter and the in-process test
  transport both speak;
* **error envelope** — every non-2xx body is the same shape::

      {"error": {"code": "<stable code>", "message": "...",
                 "request_id": "rid-..."}}

  with an optional ``retry_after_ms`` on backpressure codes.  Codes are
  part of the API contract (clients switch on them, not on prose) and
  each maps to exactly one HTTP status;
* **matrix codec** — sparse SPD matrices travel as canonical CSC
  triples (``shape`` / ``indptr`` / ``indices`` / ``data``), the same
  layout :class:`~repro.matrices.csc.CSCMatrix` stores, so decode is a
  validated zero-conversion construction.

Nothing here imports the service, the queue or any transport — the
protocol is the dependency floor of :mod:`repro.api`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.matrices.csc import CSCMatrix

__all__ = [
    "API_VERSION",
    "ERROR_STATUS",
    "ApiError",
    "FactorizePayload",
    "Request",
    "Response",
    "SolvePayload",
    "decode_matrix",
    "encode_matrix",
    "error_response",
    "json_response",
    "parse_factorize_payload",
    "parse_solve_payload",
    "public_message",
]

API_VERSION = "v1"

#: the stable error-code -> HTTP-status contract.  Adding a code is a
#: protocol extension; changing a mapping is a breaking change.
ERROR_STATUS: dict[str, int] = {
    "invalid_request": 400,
    "unauthorized": 401,
    "not_found": 404,
    "method_not_allowed": 405,
    "conflict": 409,
    "numerical_error": 422,
    "rate_limited": 429,
    "overloaded": 429,
    "internal": 500,
    "unavailable": 503,
    "deadline_exceeded": 504,
}


#: exception types whose ``str()`` is considered publishable: domain
#: validation and availability errors whose messages describe the
#: *request* (shape mismatches, unknown policies, shutdown), never the
#: server's internals.  Matched by name so the protocol module keeps
#: its zero-dependency floor.
_PUBLIC_EXCEPTION_TYPES = frozenset({
    "ValueError",
    "KeyError",
    "TimeoutError",
    "RuntimeError",
    "NotPositiveDefiniteError",
    "UncertifiedSolutionError",
})


def public_message(
    exc: BaseException, *, fallback: str = "internal error"
) -> str:
    """Wire-safe text for ``exc`` — the sanctioned sanitizer.

    :class:`ApiError` messages are crafted for the wire and pass
    through; the whitelisted domain exception types publish their
    ``str()`` (their messages describe the request, not the host); any
    other exception — whatever internal state, path, or type name its
    text carries — collapses to ``fallback``.  The wire-hygiene lint
    (RPL080) treats a value routed through here as clean, so every
    exception-to-envelope path should use it.
    """
    if isinstance(exc, ApiError):
        return exc.message
    if type(exc).__name__ in _PUBLIC_EXCEPTION_TYPES:
        return str(exc) or fallback
    return fallback


class ApiError(Exception):
    """A protocol-level failure carrying its stable error code."""

    def __init__(self, code: str, message: str, *,
                 retry_after_ms: int | None = None) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms


@dataclass
class Request:
    """One HTTP request as the app core sees it (transport-free)."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> dict:
        if not self.body:
            raise ApiError("invalid_request", "empty request body")
        try:
            obj = json.loads(self.body)
        except ValueError as exc:
            raise ApiError("invalid_request", f"malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ApiError("invalid_request", "request body must be an object")
        return obj


@dataclass
class Response:
    """One HTTP response as the app core produces it."""

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        return json.loads(self.body)


def json_response(status: int, obj: dict, *, request_id: str = "",
                  headers: dict[str, str] | None = None) -> Response:
    hdrs = {"content-type": "application/json"}
    if request_id:
        hdrs["x-request-id"] = request_id
    if headers:
        hdrs.update(headers)
    return Response(status, json.dumps(obj, sort_keys=True).encode(), hdrs)


def error_response(code: str, message: str, *, request_id: str = "",
                   retry_after_ms: int | None = None) -> Response:
    """The structured error envelope — the only non-2xx body shape."""
    err: dict[str, object] = {
        "code": code,
        "message": message,
        "request_id": request_id,
    }
    if retry_after_ms is not None:
        err["retry_after_ms"] = int(retry_after_ms)
    return json_response(
        ERROR_STATUS[code], {"error": err}, request_id=request_id
    )


# ----------------------------------------------------------------------
# matrix codec
# ----------------------------------------------------------------------
def encode_matrix(a: CSCMatrix) -> dict:
    """CSC triple as plain JSON-ready lists (what clients POST)."""
    return {
        "shape": [int(a.n_rows), int(a.n_cols)],
        "indptr": a.indptr.tolist(),
        "indices": a.indices.tolist(),
        "data": a.data.tolist(),
    }


def decode_matrix(obj: object) -> CSCMatrix:
    """Validated CSC construction from the wire form.

    Every malformation becomes an ``invalid_request`` envelope, never a
    traceback: the constructor's own checks are re-raised with the
    stable code attached.
    """
    if not isinstance(obj, dict):
        raise ApiError("invalid_request", "matrix must be an object")
    missing = [k for k in ("shape", "indptr", "indices", "data") if k not in obj]
    if missing:
        raise ApiError(
            "invalid_request", f"matrix is missing field(s): {', '.join(missing)}"
        )
    shape = obj["shape"]
    if (not isinstance(shape, (list, tuple)) or len(shape) != 2
            or not all(
                isinstance(d, int) and not isinstance(d, bool) and d > 0
                for d in shape
            )):
        raise ApiError(
            "invalid_request", "matrix.shape must be two positive integers"
        )
    try:
        indptr = np.asarray(obj["indptr"], dtype=np.int64)
        indices = np.asarray(obj["indices"], dtype=np.int64)
        data = np.asarray(obj["data"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ApiError(
            "invalid_request", f"matrix arrays are not numeric: {exc}"
        ) from exc
    try:
        return CSCMatrix(
            (int(shape[0]), int(shape[1])), indptr, indices, data, check=True
        )
    except ValueError as exc:
        raise ApiError("invalid_request", f"invalid CSC matrix: {exc}") from exc


# ----------------------------------------------------------------------
# request payload schemas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolvePayload:
    """Parsed body of ``POST /v1/solve`` (``refine``, a boolean, is
    accepted and has no effect: every answer is refined)."""

    a: CSCMatrix
    b: np.ndarray
    policy: str | None
    tol: float
    deadline_ms: float | None


@dataclass(frozen=True)
class FactorizePayload:
    """Parsed body of ``POST /v1/factorize``."""

    a: CSCMatrix
    policy: str | None
    deadline_ms: float | None


def _non_negative(obj: dict, name: str, default: float | None) -> float | None:
    """``obj[name]`` as a finite non-negative float (``json.loads`` reads NaN)."""
    value = obj.get(name, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0 <= value < float("inf"):
        raise ApiError(
            "invalid_request", f"{name} must be a finite non-negative number"
        )
    return float(value)


def _parse_policy(obj: dict) -> str | None:
    policy = obj.get("policy")
    if policy is None:
        return None
    if not isinstance(policy, str) or not policy:
        raise ApiError("invalid_request", "policy must be a non-empty string")
    return policy


def parse_solve_payload(obj: dict) -> SolvePayload:
    a = decode_matrix(obj.get("matrix"))
    rhs = obj.get("rhs")
    if not isinstance(rhs, list) or not rhs:
        raise ApiError("invalid_request", "rhs must be a non-empty array")
    try:
        b = np.asarray(rhs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ApiError("invalid_request", f"rhs is not numeric: {exc}") from exc
    if b.ndim not in (1, 2) or b.shape[0] != a.n_rows:
        raise ApiError(
            "invalid_request",
            f"rhs must have {a.n_rows} rows, got shape {b.shape}",
        )
    if not np.isfinite(b).all():
        # json.loads reads NaN and Infinity; the sweeps would hand back
        # an all-NaN x under status 200
        raise ApiError("invalid_request", "rhs holds a non-finite value")
    if not isinstance(obj.get("refine", False), bool):
        raise ApiError("invalid_request", "refine must be a boolean")
    return SolvePayload(
        a=a, b=b, policy=_parse_policy(obj),
        tol=_non_negative(obj, "tol", 1e-12),
        deadline_ms=_non_negative(obj, "deadline_ms", None),
    )


def parse_factorize_payload(obj: dict) -> FactorizePayload:
    return FactorizePayload(
        a=decode_matrix(obj.get("matrix")),
        policy=_parse_policy(obj),
        deadline_ms=_non_negative(obj, "deadline_ms", None),
    )
