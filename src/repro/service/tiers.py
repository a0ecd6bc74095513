"""Storage tiers of the factor cache: RAM → local disk → shared object store.

The paper's reuse argument — "the potential for reusing the
factorization when solving multiple systems with the same coefficient
matrix" — is only as good as the cache that holds the factors.  At
fleet scale the hot set does not fit one RAM budget, and every LRU
eviction from RAM silently becomes a future full refactorization.
This module holds what turns that cliff into a slope: the
:class:`StorageTier` every level of
:class:`~repro.service.cache.FactorizationCache` is made of.  The cache
moves entries between levels by two fixed rules — an evicted entry
**spills down** to the first tier below that accepts it, a lower-tier
hit is **pulled up** into RAM when it fits RAM at all — and nothing
expires.  Every movement is priced by the same ``latency + bytes /
bandwidth`` virtual-cost model the cluster interconnect uses
(:mod:`repro.cluster.topology`).

RAM is the first tier: a :class:`StorageTier` named ``ram`` whose
transfers are free.  Everything below it is *simulated* storage:
payloads stay in process memory, but capacity, bandwidth and latency
are modeled per tier, so the serving layer experiences — and the
benchmarks can pin — the byte movement and transfer time a real
hierarchy would cost.

The shared object tier is how a fleet shares factors: every shard's
cache chains onto one :class:`StorageTier` (``shared=True``), so a
factor spilled by shard A is readable — and promotable — by shard B
(see :class:`repro.cluster.fleet.ShardedSolverService`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "TierSpec",
    "TierEntry",
    "StorageTier",
    "default_disk_spec",
    "default_object_spec",
]


@dataclass(frozen=True)
class TierSpec:
    """Shape of one storage tier: capacity plus a transfer-cost model.

    ``transfer_time`` prices one read *or* write of ``nbytes`` —
    the same ``latency + bytes / bandwidth`` form as
    :class:`~repro.cluster.topology.InterconnectParams`, riding the
    virtual clock rather than the wall clock.
    """

    name: str
    capacity_bytes: int
    bandwidth: float               # bytes/s
    latency: float                 # seconds per access

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        if self.bandwidth <= 0:
            raise ValueError(f"tier {self.name!r}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"tier {self.name!r}: latency must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


def default_disk_spec(capacity_bytes: int = 1 << 30) -> TierSpec:
    """Local-disk tier defaults (~2011-era SSD: 500 MB/s, 5 ms seek)."""
    return TierSpec("disk", capacity_bytes, bandwidth=5e8, latency=5e-3)


def default_object_spec(capacity_bytes: int = 8 << 30) -> TierSpec:
    """Shared object-store defaults (network hop: 250 MB/s, 50 ms)."""
    return TierSpec("object", capacity_bytes, bandwidth=2.5e8, latency=5e-2)


@dataclass
class TierEntry:
    """One resident entry of a tier."""

    payload: object
    nbytes: int
    produce_seconds: float = 0.0   # modeled cost of recomputing the payload


class StorageTier:
    """One tier, RAM or simulated storage: LRU entries under a byte budget.

    The tier has its own reentrant lock so a *shared* tier can be
    chained under several :class:`~repro.service.cache.
    FactorizationCache` instances (one per fleet shard) — the cache
    always acquires its own lock first, then the tier's, a fixed order
    with no cycles.
    """

    def __init__(self, spec: TierSpec, *, shared: bool = False) -> None:
        self.spec = spec
        self.shared = shared
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, str], TierEntry] = OrderedDict()
        self.resident_bytes = 0
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.stats: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "insertions": 0,
            "evictions": 0,
            "rejected_oversize": 0,
            "read_bytes": 0,
            "write_bytes": 0,
        }

    @property
    def name(self) -> str:
        return self.spec.name

    def peek(self, full_key: tuple[str, str]) -> TierEntry | None:
        """Entry for ``full_key`` without touching recency or stats."""
        with self._lock:
            return self._entries.get(full_key)

    def touch(self, full_key: tuple[str, str]) -> None:
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)

    def put(
        self, full_key: tuple[str, str], entry: TierEntry
    ) -> tuple[bool, list[tuple[tuple[str, str], TierEntry]]]:
        """Insert ``entry``; returns ``(accepted, lru_evicted)``.

        An entry larger than the whole tier is rejected (``accepted``
        False).  Otherwise cold entries are LRU-evicted until the new
        one fits; the caller decides their fate (spill further down or
        drop) — the tier itself never destroys bytes silently.
        """
        with self._lock:
            if entry.nbytes > self.spec.capacity_bytes:
                self.stats["rejected_oversize"] += 1
                return False, []
            old = self._entries.pop(full_key, None)
            if old is not None:
                self.resident_bytes -= old.nbytes
            evicted: list[tuple[tuple[str, str], TierEntry]] = []
            while (
                self.resident_bytes + entry.nbytes > self.spec.capacity_bytes
            ):
                key, cold = self._entries.popitem(last=False)
                self.resident_bytes -= cold.nbytes
                self.stats["evictions"] += 1
                evicted.append((key, cold))
            self._entries[full_key] = entry
            self.resident_bytes += entry.nbytes
            self.stats["insertions"] += 1
            self.write_seconds += self.spec.transfer_time(entry.nbytes)
            self.stats["write_bytes"] += entry.nbytes
            return True, evicted

    def remove(self, full_key: tuple[str, str]) -> TierEntry | None:
        with self._lock:
            entry = self._entries.pop(full_key, None)
            if entry is not None:
                self.resident_bytes -= entry.nbytes
            return entry

    def account_read(self, nbytes: int) -> float:
        """Record one modeled read; returns the transfer seconds."""
        seconds = self.spec.transfer_time(nbytes)
        with self._lock:
            self.read_seconds += seconds
            self.stats["read_bytes"] += nbytes
        return seconds

    def keys(self) -> list[tuple[str, str]]:
        """Resident keys in LRU order, coldest first."""
        with self._lock:
            return list(self._entries.keys())

    def snapshot(self) -> dict[str, object]:
        """Occupancy and counters in one dict — what the cache's
        ``tier_stats()``, the service's gauges and the fleet's
        shared-tier report are all built from."""
        with self._lock:
            return {
                "resident_bytes": int(self.resident_bytes),
                "capacity_bytes": int(self.spec.capacity_bytes),
                "entries": len(self._entries),
                "shared": self.shared,
                "read_seconds": self.read_seconds,
                "write_seconds": self.write_seconds,
                **self.stats,
            }

    def clear(self) -> list[TierEntry]:
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self.resident_bytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageTier({self.name!r}, entries={len(self)}, "
            f"bytes={self.resident_bytes}/{self.spec.capacity_bytes})"
        )
