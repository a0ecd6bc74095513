"""Edge middleware: API-key auth, per-client token buckets, request IDs.

Three small, independently testable pieces the app core composes in
front of every authenticated endpoint:

* :class:`ApiKeyAuth` — maps the ``x-api-key`` header to a per-client
  identity.  Identity, not just admission: the rate limiter, the edge
  queue's fairness lanes and the job store all key on the client name
  it returns.
* :class:`RateLimiter` — one :class:`TokenBucket` per client (created
  on first sight, with optional per-client overrides), refilled from an
  injectable clock.  The clock is the only source of time, so tests and
  the deterministic benchmark drive it manually
  (:class:`ManualClock`) and the admitted-count bound
  ``admitted(t0, t1) <= burst + rate * (t1 - t0)`` is exact.
* :class:`RequestIds` — accepts a client-supplied ``x-request-id`` or
  mints a sequential ``rid-NNNNNNNN``.  Sequential (not random) on
  purpose: ids thread into :class:`~repro.service.metrics.ServiceMetrics`
  spans and the deterministic benchmark counters, so they must be
  reproducible for a replayed request stream.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = [
    "ApiKeyAuth",
    "ManualClock",
    "RateLimiter",
    "RequestIds",
    "TokenBucket",
]


class ManualClock:
    """A clock that only moves when told to — the injectable time
    source of the API edge's token buckets and deadlines and of the
    deterministic load generator."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += float(seconds)
            return self._now

    def now(self) -> float:
        with self._lock:
            return self._now

    __call__ = now


class ApiKeyAuth:
    """``x-api-key`` header -> client identity.

    ``keys`` maps opaque key strings to client names.  Several keys may
    share one client (key rotation); an unknown or missing key yields
    ``None`` and the caller answers with the ``unauthorized`` envelope.
    """

    HEADER = "x-api-key"

    def __init__(self, keys: dict[str, str]) -> None:
        if not keys:
            raise ValueError("need at least one API key")
        for key, client in keys.items():
            if not key or not client:
                raise ValueError("API keys and client names must be non-empty")
        self._keys = dict(keys)

    def client_for(self, headers: dict[str, str]) -> str | None:
        return self._keys.get(headers.get(self.HEADER, ""))

    @property
    def clients(self) -> list[str]:
        return sorted(set(self._keys.values()))


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s.

    Over any interval the bucket admits at most
    ``burst + rate * elapsed`` requests — the property the edge's
    hypothesis test pins.  Thread-safe; one instance per client.
    """

    def __init__(
        self, rate: float, burst: int, *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def allow(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; never blocks."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


class RateLimiter:
    """Per-client token buckets with lazily created default buckets."""

    def __init__(self, rate: float = 50.0, burst: int = 20, *,
                 clock: Callable[[], float] = time.monotonic,
                 overrides: dict[str, tuple[float, int]] | None = None) -> None:
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._overrides = dict(overrides or {})
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def bucket(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
        if bucket is None:
            # build outside the lock (the constructor reads the clock, a
            # caller-supplied callable); first publisher wins the race
            rate, burst = self._overrides.get(client, (self.rate, self.burst))
            fresh = TokenBucket(rate, burst, clock=self._clock)
            with self._lock:
                bucket = self._buckets.setdefault(client, fresh)
        return bucket

    def allow(self, client: str) -> bool:
        return self.bucket(client).allow()


class RequestIds:
    """Request-id source: propagate the caller's or mint a sequential one."""

    HEADER = "x-request-id"
    _MAX_LEN = 128

    def __init__(self) -> None:
        self._next = 0
        self._lock = threading.Lock()

    def assign(self, headers: dict[str, str]) -> str:
        supplied = headers.get(self.HEADER, "")
        if supplied and len(supplied) <= self._MAX_LEN and supplied.isprintable():
            return supplied
        with self._lock:
            self._next += 1
            return f"rid-{self._next:08d}"
