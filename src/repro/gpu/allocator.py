"""High-water-mark memory pools (paper Section V-A2).

Pinned host memory makes transfers overlappable and faster, but
``cudaMallocHost`` is "prohibitively expensive when the data to be copied
is not large enough" — and supernodes are mostly small — so the paper
triggers allocation "only when the maximum allocated size over all the
previous calls is insufficient", for both pinned host buffers and device
memory.  :class:`HighWaterMarkPool` models exactly that: it owns one
logical buffer that only ever grows, charges allocation time on growth,
and satisfies any request within the current capacity for free.

The ablation bench ``test_ablation_pinned_pool`` swaps this for a
per-call allocator to show the degradation the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AllocationStats", "HighWaterMarkPool", "PerCallPool", "DeviceMemoryError"]


class DeviceMemoryError(MemoryError):
    """Requested more device memory than the simulated GPU has."""


@dataclass
class AllocationStats:
    """Counters exposed for tests and the ablation benches."""

    n_requests: int = 0
    n_growths: int = 0
    bytes_requested: int = 0
    high_water: int = 0
    alloc_seconds: float = 0.0

    def as_counters(self, prefix: str) -> dict[str, float | int]:
        """Flatten into deterministic named counters (simulated-time and
        byte accounting only), for the benchmark harness's regression
        gate."""
        return {
            f"{prefix}.requests": int(self.n_requests),
            f"{prefix}.growths": int(self.n_growths),
            f"{prefix}.bytes_requested": int(self.bytes_requested),
            f"{prefix}.high_water": int(self.high_water),
            f"{prefix}.alloc_seconds": float(self.alloc_seconds),
        }


@dataclass
class HighWaterMarkPool:
    """Grow-only pool; allocation cost is charged only on growth.

    Parameters
    ----------
    alloc_time : callable(nbytes) -> float
        Cost model for a real allocation of ``nbytes`` (e.g.
        ``TransferParams.pinned_alloc_time``).
    capacity_limit : int or None
        Hard ceiling (device memory size); ``None`` = unlimited (pinned
        host memory).
    """

    alloc_time: object
    capacity_limit: int | None = None
    capacity: int = 0
    in_use: int = 0
    stats: AllocationStats = field(default_factory=AllocationStats)

    def fits(self, nbytes: int) -> bool:
        """Whether :meth:`request` would grant ``nbytes`` (what policy
        resolution asks before it sends a front to the device)."""
        limit = self.capacity_limit
        return nbytes <= self.capacity or limit is None or nbytes <= limit

    def request(self, nbytes: int) -> float:
        """Reserve ``nbytes``; returns the simulated seconds the request
        costs (0.0 when it fits under the high-water mark)."""
        if nbytes < 0:
            raise ValueError("negative allocation request")
        self.stats.n_requests += 1
        self.stats.bytes_requested += nbytes
        if not self.fits(nbytes):
            raise DeviceMemoryError(
                f"request of {nbytes} bytes exceeds device capacity "
                f"{self.capacity_limit}"
            )
        self.in_use += nbytes
        if nbytes <= self.capacity:
            return 0.0
        cost = float(self.alloc_time(nbytes))
        self.capacity = nbytes
        self.stats.n_growths += 1
        self.stats.high_water = max(self.stats.high_water, nbytes)
        self.stats.alloc_seconds += cost
        return cost

    def release(self, nbytes: int | None = None) -> None:
        """Return ``nbytes`` of reservations (all of them when omitted).

        The backing buffer is *kept* — that is the whole point of the
        high-water-mark strategy — only the ``in_use`` accounting drops,
        so long-lived owners (the dynamic runtime admitting concurrent
        fronts) can see what is logically live versus merely retained.
        """
        if nbytes is None:
            self.in_use = 0
        elif nbytes < 0:
            raise ValueError("negative release")
        else:
            self.in_use = max(0, self.in_use - nbytes)

    def reset_peak(self) -> None:
        """Forget the high-water mark: shrink the retained capacity to
        what is currently in use (e.g. between factorizations, so a new
        run re-measures its own peak instead of inheriting ours)."""
        self.capacity = self.in_use
        self.stats.high_water = self.in_use


@dataclass
class PerCallPool:
    """The naive strategy: allocate (and free) on every call.  Exists to
    quantify what the high-water-mark policy saves."""

    alloc_time: object
    capacity_limit: int | None = None
    in_use: int = 0
    stats: AllocationStats = field(default_factory=AllocationStats)

    def fits(self, nbytes: int) -> bool:
        """Whether :meth:`request` would grant ``nbytes``."""
        return self.capacity_limit is None or nbytes <= self.capacity_limit

    def request(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative allocation request")
        self.stats.n_requests += 1
        self.stats.bytes_requested += nbytes
        if not self.fits(nbytes):
            raise DeviceMemoryError(
                f"request of {nbytes} bytes exceeds device capacity "
                f"{self.capacity_limit}"
            )
        self.in_use += nbytes
        cost = float(self.alloc_time(nbytes))
        self.stats.n_growths += 1
        self.stats.high_water = max(self.stats.high_water, nbytes)
        self.stats.alloc_seconds += cost
        return cost

    def release(self, nbytes: int | None = None) -> None:
        """Frees immediately (that is the naive strategy); only the
        ``in_use`` accounting exists, there is nothing retained."""
        if nbytes is None:
            self.in_use = 0
        elif nbytes < 0:
            raise ValueError("negative release")
        else:
            self.in_use = max(0, self.in_use - nbytes)

    def reset_peak(self) -> None:
        self.stats.high_water = self.in_use
